"""Exceptional-point location, in numpy alone.

Two routes: a dense scan of the toy model's eta^2 along an alpha bracket,
and a coarse grid over any 2-D eigenvalue-pair sampler. Both seed at the
minima of the splitting and refine every seed together by Newton steps,
one batch evaluation per step, on a function with a simple zero at a
simple EP: eta^2 on the scan line, and on the grid the discriminant
D = (a - b)^2 of the pair (a, b), which does not depend on their order.
The gap |a - b| itself only has a square-root kink there. For equal
widths the toy's EPs also have a closed form (``equal_width_eps``), which
the tests check against the scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core import abs_diff, check_window, eta_squared
from .toymodel import ToyParams, scan_entries

# refined candidates closer than DEDUP_FACTOR * tolerance collapse to one EP
DEDUP_FACTOR = 10.0
# Newton steps per seed. Each step squares the error once it is small, so
# from a minimum of the 2001-point scan a few steps reach float resolution;
# a coarse-grid minimum can be a whole cell away and needs up to about 12.
SCAN_NEWTON_STEPS = 8
GRID_NEWTON_STEPS = 16


@dataclass(frozen=True)
class EPLocation:
    """A located exceptional point in a 2-D parameter plane."""

    p1: float
    p2: float
    residual: float  # |lambda_plus - lambda_minus| at the point
    order: int = 2


@dataclass
class GridSearchResult:
    """Accepted EPs plus search diagnostics; iterates over the locations."""

    locations: list[EPLocation]
    sampler_failures: int = 0
    median_gap: float = 0.0
    tolerance: float = 0.0

    def __iter__(self) -> Iterator[EPLocation]:
        return iter(self.locations)

    def __len__(self) -> int:
        return len(self.locations)

    def __getitem__(self, k) -> EPLocation:
        return self.locations[k]


def _eta_squared(alphas: np.ndarray, p: ToyParams) -> np.ndarray:
    """eta^2 along an alpha scan; zero exactly at EPs."""
    return eta_squared(*scan_entries(alphas, p))


def toy_ep_roots(p: ToyParams, alpha_bracket: tuple[float, float], *,
                 n_scan: int = 2001, residual_tol: float = 1e-10) -> list[EPLocation]:
    """All alpha in the bracket where the splitting vanishes, at fixed beta.

    Scans |eta^2| on a dense grid and refines all its local minima, either
    end of the bracket included, together by Newton steps on the complex
    eta^2: the real step Re(w / w'), w' from central differences (centred
    at least one difference step above alpha = 0), each iterate clipped to
    the minimum's neighbouring grid points. Keeps the
    best iterate of each minimum if its |eta^2| is below ``residual_tol``,
    which must be positive and finite. An empty list means no EP in the
    bracket.
    """
    lo, hi = float(alpha_bracket[0]), float(alpha_bracket[1])
    if not (0.0 <= lo < hi):
        raise ValueError("alpha bracket must satisfy 0 <= lo < hi")
    if not 0 < residual_tol < math.inf:
        raise ValueError(
            f"residual_tol must be positive and finite, got {residual_tol!r}")
    grid = np.linspace(lo, hi, n_scan)
    f = np.pad(np.abs(_eta_squared(grid, p)), 1, constant_values=np.inf)
    k = np.flatnonzero((f[1:-1] <= f[:-2]) & (f[1:-1] < f[2:]))
    left, right = grid[np.maximum(k - 1, 0)], grid[np.minimum(k + 1, n_scan - 1)]

    cur = best = grid[k]
    best_val = np.full(k.size, np.inf)
    for _ in range(SCAN_NEWTON_STEPS):
        h = 1e-7 * (1.0 + np.abs(cur))
        c = np.maximum(cur, h)  # the difference stencil stays at alpha >= 0
        w, wp, wm = _eta_squared(np.concatenate([cur, c + h, c - h]),
                                 p).reshape(3, -1)
        val = np.abs(w)
        better = val < best_val
        best, best_val = np.where(better, cur, best), np.where(better, val, best_val)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (w / ((wp - wm) / (2.0 * h))).real
        cur = np.clip(np.where(np.isfinite(step), cur - step, cur), left, right)

    roots = [EPLocation(p1=alpha, p2=p.beta, residual=2.0 * math.sqrt(fmin))
             for alpha, fmin in zip(best.tolist(), best_val.tolist())
             if fmin < residual_tol]
    roots.sort(key=lambda e: (e.p1, e.p2))
    return roots


def equal_width_eps(p: ToyParams) -> list[EPLocation]:
    """The EPs of an equal-width toy (gamma1 == gamma2), in closed form.

    The level difference d = 1 - alpha/2 - sqrt(alpha) is then real, so
    eta^2 = d^2/4 + g^2 vanishes only on beta = 1, where |d| exp(d^2) = 2 g_c
    in either ``lambda_mode``. Bisects the root d0 of d exp(d^2) = 2 g_c
    and maps d = +d0 and -d0 to alpha = s^2, s = sqrt(3 - 2d) - 1, keeping
    the roots with s >= 0: for g_c > e/2, d0 > 1 and only -d0 is left.
    ``p.beta`` is ignored. The EPs are sorted by alpha (+d0 first), with
    the residual |lambda_plus - lambda_minus| = 2 sqrt|eta^2| of
    :func:`toy_ep_roots`.
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


def sample_points(sampler, p1: np.ndarray, p2: np.ndarray):
    """Eigenvalue pairs (va, vb) of ``sampler`` at the points (p1, p2).

    One call with the two equal-shape coordinate arrays. The points where it
    returns a non-finite value are sampled again, one call per point with
    floats, and so is every point if it raises or returns another shape. A
    point whose own call raises is NaN; ``failed`` maps the row-major (flat)
    index of each such point to its exception, in index order.
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


def _local_minima(gaps: np.ndarray) -> list[tuple[int, int]]:
    """Finite cells with no finite 8-neighbour below them, row-major."""
    finite = np.isfinite(gaps)
    padded = np.pad(np.where(finite, gaps, np.nan), 1, constant_values=np.nan)
    n1, n2 = gaps.shape
    lower = np.zeros(gaps.shape, dtype=bool)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            if (di, dj) != (1, 1):
                lower |= padded[di:di + n1, dj:dj + n2] < gaps
    return list(map(tuple, np.argwhere(finite & ~lower).tolist()))


def grid_ep_search(sampler: Callable[[float, float], tuple[complex, complex]],
                   window: tuple[tuple[float, float], tuple[float, float]],
                   coarse_n: int = 48, *,
                   refine_tol: float | None = None,
                   reject_rel: float = 1e-3) -> GridSearchResult:
    """Locate EPs of a generic eigenvalue-pair sampler in a rectangle.

    Coarse-scans the gap on a ``coarse_n`` x ``coarse_n`` grid and refines
    all local-minimum cells together by Newton steps on D = (a - b)^2, with
    a 2x2 real Jacobian from central differences: one sampler call per step
    on five points of every seed, each iterate clipped to the window. A seed
    is dropped at its first sampler failure. The gap is evaluated again at
    each seed's best iterate, which is accepted only below both the
    refinement tolerance (default ``1e-6`` x window diagonal) and
    ``reject_rel`` x the median coarse gap (which rejects shallow avoided
    crossings). Sampler failures are counted in the result. Accepted points
    are deduplicated and sorted by (p1, p2). A window with lo >= hi on
    either axis, or an axis that is not finite, raises.
    """
    if coarse_n < 8:
        raise ValueError("coarse_n must be >= 8")
    (p1lo, p1hi), (p2lo, p2hi) = window
    if not (p1lo < p1hi and p2lo < p2hi):
        raise ValueError(
            f"window must have lo < hi on both axes, got {window!r}")
    check_window(window)
    diag = math.hypot(p1hi - p1lo, p2hi - p2lo)
    tol = refine_tol if refine_tol is not None else 1e-6 * diag

    p1s = np.linspace(p1lo, p1hi, coarse_n)
    p2s = np.linspace(p2lo, p2hi, coarse_n)
    p1, p2 = np.meshgrid(p1s, p2s, indexing="ij")
    va, vb, failed = sample_points(sampler, p1, p2)
    gaps, failures = abs_diff(va, vb), len(failed)
    finite = gaps[np.isfinite(gaps)]
    if finite.size == 0:
        raise RuntimeError("sampler failed on the entire coarse grid")
    if (gaps.size - finite.size) > 0.5 * gaps.size:
        raise RuntimeError("sampler failed on most of the coarse grid")
    median_gap = float(np.median(finite))

    # skip cells that clearly sit on a smooth gap plateau
    i, j = np.array(_local_minima(gaps), dtype=int).reshape(-1, 2).T
    seed = (gaps[i, j] < 0.5 * median_gap) | (gaps[i, j] < 10 * tol)
    x = np.stack([p1s[i[seed]], p2s[j[seed]]], axis=1)
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
                    abs_diff(a, b).tolist())
                if r < tol and r < reject_rel * median_gap]

    # deduplicate: the two sheets share each minimum, and neighboring seeds
    # converge to the same point
    accepted.sort(key=lambda e: e.residual)
    kept: list[EPLocation] = []
    for cand in accepted:
        if all(math.hypot(cand.p1 - k.p1, cand.p2 - k.p2) > DEDUP_FACTOR * tol
               for k in kept):
            kept.append(cand)
    kept.sort(key=lambda e: (e.p1, e.p2))
    return GridSearchResult(kept, sampler_failures=failures,
                            median_gap=median_gap, tolerance=tol)
