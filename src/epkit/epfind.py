"""Exceptional-point location, in numpy alone.

Two routes. For the toy model with equal widths the EPs have a closed form
(``equal_width_eps``). For any 2-D eigenvalue-pair sampler a coarse grid
search (``grid_ep_search``) seeds where the discriminant D = (a - b)^2 of
the pair (a, b) winds around a grid cell, and refines every seed together
by Newton steps on D, one batch evaluation per step. D does not depend on
the order of the pair and has a simple zero at a simple EP, around which
it winds once (the EP charge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import abs_diff, check_count, check_window, eta_squared
from .toymodel import ToyParams, scan_entries

# refined candidates closer than DEDUP_FACTOR * tolerance collapse to one EP
DEDUP_FACTOR = 10.0
MIN_SEARCH_GRID = 8  # the coarsest grid_ep_search grid, per axis
REFINE_REL = 1e-6  # the largest accepted refined gap, in window diagonals
# Newton steps per seed. Each step squares the error once it is small; a
# seed, at the centre of a coarse cell, is up to half a cell from its EP.
GRID_NEWTON_STEPS = 16


@dataclass(frozen=True)
class EPLocation:
    """A located exceptional point in a 2-D parameter plane."""

    p1: float
    p2: float
    residual: float  # |lambda_plus - lambda_minus| at the point


@dataclass
class GridSearchResult:
    """Accepted EPs plus search diagnostics."""

    locations: list[EPLocation]
    sampler_failures: int = 0


def equal_width_eps(p: ToyParams) -> list[EPLocation]:
    """The EPs of an equal-width toy (gamma1 == gamma2), in closed form.

    The level difference d = 1 - alpha/2 - sqrt(alpha) is then real, so
    eta^2 = d^2/4 + g^2 vanishes only on beta = 1, where |d| exp(d^2) = 2 g_c
    in either ``lambda_mode``. Bisects the root d0 of d exp(d^2) = 2 g_c
    and maps d = +d0 and -d0 to alpha = s^2, s = sqrt(3 - 2d) - 1, keeping
    the roots with s >= 0: for g_c > e/2, d0 > 1 and only -d0 is left.
    ``p.beta`` is ignored. The EPs are sorted by alpha (+d0 first), each
    with the residual |lambda_plus - lambda_minus| = 2 sqrt|eta^2| at it.
    """
    if p.gamma1 != p.gamma2:
        raise ValueError(f"equal_width_eps needs gamma1 == gamma2, got "
                         f"{p.gamma1} and {p.gamma2}")
    # bisect h = d0/2 on (0, g_c] in log form, log h + 4 h^2 = log g_c,
    # which no g_c overflows
    lo, hi, target = 0.0, p.g_c, math.log(p.g_c)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if math.log(mid) + 4.0 * mid * mid < target:
            lo = mid
        else:
            hi = mid
    # d0 <= 1 exactly when 2 g_c <= e, and math.e is the largest float
    # below e, so this keeps +d0 exactly when it has s >= 0
    ds = (2.0 * lo, -2.0 * lo) if p.g_c <= math.e / 2 else (-2.0 * lo,)
    # s = sqrt(3 - 2d) - 1, written without its cancellation near d = 1
    alphas = np.array([(2.0 * (1.0 - d) / (1.0 + math.sqrt(3.0 - 2.0 * d))) ** 2
                       for d in ds])
    residuals = 2.0 * np.sqrt(np.abs(eta_squared(
        *scan_entries(alphas, p, beta=1.0))))
    return [EPLocation(p1=alpha, p2=1.0, residual=r)
            for alpha, r in zip(alphas.tolist(), residuals.tolist())]


@np.errstate(all="ignore")
def sample_points(sampler, p1: np.ndarray, p2: np.ndarray):
    """Eigenvalue pairs (va, vb) of ``sampler`` at the points (p1, p2).

    One call with the two equal-shape coordinate arrays. The points where it
    returns a non-finite value are sampled again, one call per point with
    floats, and so is every point if it raises or returns another shape. A
    point whose own call raises is NaN; ``failed`` maps the row-major (flat)
    index of each such point to its exception, in index order. The sampler
    runs with numpy's floating-point warnings off: a value that is not
    finite is an outcome (a missing cell, an event of a followed path),
    returned, not warned of.
    """
    try:
        va, vb = (np.array(v, dtype=complex) for v in sampler(p1, p2))
    except Exception:
        va = vb = None
    if va is None or not va.shape == vb.shape == p1.shape:
        va = np.full(p1.shape, np.nan, dtype=complex)
        vb = np.full(p1.shape, np.nan, dtype=complex)
    redo = np.flatnonzero(~(np.isfinite(va) & np.isfinite(vb)))
    x, y = p1.ravel()[redo].tolist(), p2.ravel()[redo].tolist()
    failed: dict[int, Exception] = {}
    for k, xk, yk in zip(redo.tolist(), x, y):
        try:
            va.flat[k], vb.flat[k] = sampler(xk, yk)
        except Exception as exc:
            va.flat[k] = vb.flat[k] = np.nan
            failed[k] = exc
    return va, vb, failed


def cell_winding(diff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The winding of D = diff**2 around each cell of a grid of pair
    differences ``diff = a - b`` over (p1, p2): ``(charge, unresolved)``,
    each (n1 - 1, n2 - 1). ``charge`` is the rounded sum, in turns, of the
    edge steps ``angle((diff[k+1] / diff[k])**2)`` (as in
    :func:`~epkit.surface._follow`) counter-clockwise around the cell, and 0
    where a corner is 0 or not finite or the sum is not finite. A cell is
    ``unresolved`` where such a corner, or a step above pi/2 or not finite,
    can alias or hide an EP (one on an edge or a corner of the cell)."""
    ring = np.stack([diff[:-1, :-1], diff[1:, :-1], diff[1:, 1:], diff[:-1, 1:]])
    with np.errstate(all="ignore"):
        steps = np.angle((np.roll(ring, -1, axis=0) / ring) ** 2)
    bad = ~(np.isfinite(ring) & (ring != 0)).all(axis=0)
    turns = steps.sum(axis=0) / (2.0 * math.pi)
    charge = np.rint(np.where(bad | ~np.isfinite(turns), 0.0, turns))
    unresolved = bad | ~(np.abs(steps) <= math.pi / 2).all(axis=0)
    return charge.astype(int), unresolved


def grid_ep_search(sampler: Callable[[float, float], tuple[complex, complex]],
                   window: tuple[tuple[float, float], tuple[float, float]],
                   coarse_n: int = 48) -> GridSearchResult:
    """Locate EPs of a generic eigenvalue-pair sampler in a rectangle.

    Seeds at the centre of each cell of a ``coarse_n`` x ``coarse_n`` grid
    that :func:`cell_winding` finds charged, or unresolved with a corner
    where ``a - b`` is finite (an avoided crossing, of winding 0, gives
    none) and refines all seeds together by Newton steps on D = (a - b)^2,
    with a 2x2 real Jacobian from central differences: one sampler call per
    step on five points of every seed, each iterate clipped to the window, a
    seed dropped at its first sampler failure (counted in the result). The
    gap at each best iterate, sampled again, must be below ``REFINE_REL`` x
    window diagonal. Accepted points are deduplicated and sorted by
    (p1, p2). A window with lo >= hi on either axis, or an axis that is not
    finite, raises.
    """
    coarse_n = check_count("coarse_n", coarse_n, MIN_SEARCH_GRID)
    (p1lo, p1hi), (p2lo, p2hi) = window
    if not (p1lo < p1hi and p2lo < p2hi):
        raise ValueError(
            f"window must have lo < hi on both axes, got {window!r}")
    check_window(window)
    tol = REFINE_REL * math.hypot(p1hi - p1lo, p2hi - p2lo)

    p1s = np.linspace(p1lo, p1hi, coarse_n)
    p2s = np.linspace(p2lo, p2hi, coarse_n)
    p1, p2 = np.meshgrid(p1s, p2s, indexing="ij")
    va, vb, failed = sample_points(sampler, p1, p2)
    diff, failures = va - vb, len(failed)
    fin = np.isfinite(diff)
    missing = np.count_nonzero(~fin)
    if missing == diff.size:
        raise RuntimeError("sampler failed on the entire coarse grid")
    if missing > 0.5 * diff.size:
        raise RuntimeError("sampler failed on most of the coarse grid")

    charge, unresolved = cell_winding(diff)
    live = fin[:-1, :-1] | fin[1:, :-1] | fin[1:, 1:] | fin[:-1, 1:]
    # charged cells first, as dedup keeps the first of equal residuals
    i, j = np.concatenate([np.argwhere(charge != 0),
                           np.argwhere((charge == 0) & unresolved & live)]).T
    x = np.stack([0.5 * (p1s[i] + p1s[i + 1]), 0.5 * (p2s[j] + p2s[j + 1])],
                 axis=1)
    lo, hi = np.array([p1lo, p2lo]), np.array([p1hi, p2hi])
    h = 1e-4 * (hi - lo) / (coarse_n - 1)
    # the difference stencil is centred at the iterate moved at least h inside
    # the window, so the search samples no point outside it
    shifts = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]) * h

    best, best_val = x, np.full(len(x), np.inf)
    for _ in range(GRID_NEWTON_STEPS):
        if not len(x):
            break
        c = np.clip(x, lo + h, hi - h)
        pts = np.concatenate([x[None], c[None] + shifts[:, None]])
        a, b, failed = sample_points(sampler, pts[..., 0], pts[..., 1])
        failures += len(failed)
        d = (a - b) ** 2
        ok = np.isfinite(d).all(axis=0)  # a failed point is NaN
        x, best, best_val, d = x[ok], best[ok], best_val[ok], d[:, ok]

        better = np.abs(d[0]) < best_val
        best = np.where(better[:, None], x, best)
        best_val = np.where(better, np.abs(d[0]), best_val)
        jx, jy = (d[1] - d[2]) / (2 * h[0]), (d[3] - d[4]) / (2 * h[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.stack([(d[0].conj() * jy).imag, (jx.conj() * d[0]).imag],
                            axis=1) / (jx.conj() * jy).imag[:, None]
        x = np.clip(np.where(np.isfinite(step), x - step, x), lo, hi)

    # independent re-evaluation at the best iterates
    a, b, failed = sample_points(sampler, best[:, 0], best[:, 1])
    failures += len(failed)
    accepted = [EPLocation(q1, q2, r) for q1, q2, r in
                zip(best[:, 0].tolist(), best[:, 1].tolist(),
                    abs_diff(a, b).tolist()) if r < tol]

    # deduplicate: the seeds around one EP converge to the same point
    accepted.sort(key=lambda e: e.residual)
    kept: list[EPLocation] = []
    for cand in accepted:
        if all(math.hypot(cand.p1 - k.p1, cand.p2 - k.p2) > DEDUP_FACTOR * tol
               for k in kept):
            kept.append(cand)
    kept.sort(key=lambda e: (e.p1, e.p2))
    return GridSearchResult(kept, sampler_failures=failures)
