"""Exceptional-point location.

Two routes: closed-form-assisted root refinement on the toy model's
splitting along an alpha bracket, and a generic coarse-grid + simplex
search over any 2-D eigenvalue-pair sampler. Both minimize the eigenvalue
gap |lambda_plus - lambda_minus| = |2 eta|, which is insensitive to the
square-root branch choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core import abs_diff, eta_squared
from .toymodel import ToyParams, scan_entries

# refined candidates closer than DEDUP_FACTOR * tolerance collapse to one EP
DEDUP_FACTOR = 10.0


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


def _polish_root(alpha: float, p: ToyParams, lo: float, hi: float,
                 iters: int = 4) -> float:
    """Newton steps on the complex eta^2 (finite-difference derivative).

    eta^2 is smooth in alpha with a simple zero at an EP, so this gains
    quadratically over the kinked |eta^2| minimization; keeps the best
    iterate within [lo, hi].
    """
    def w(a):
        return complex(_eta_squared(np.array([a]), p)[0])

    best, best_val = alpha, abs(w(alpha))
    cur = alpha
    for _ in range(iters):
        h = 1e-7 * (1.0 + abs(cur))
        deriv = (w(cur + h) - w(cur - h)) / (2.0 * h)
        if deriv == 0:
            break
        step = w(cur) / deriv
        cur = min(max(cur - step.real, lo), hi)
        val = abs(w(cur))
        if val < best_val:
            best, best_val = cur, val
    return best


def toy_ep_roots(p: ToyParams, alpha_bracket: tuple[float, float], *,
                 n_scan: int = 2001, residual_tol: float = 1e-10) -> list[EPLocation]:
    """All alpha in the bracket where the splitting vanishes, at fixed beta.

    Scans |eta|^2 on a dense grid, refines every local minimum by bounded
    minimization, and keeps minima below ``residual_tol``. An empty list
    means no EP in the bracket. Raises ``RuntimeError`` (with the best
    iterate) if a refinement fails to converge.
    """
    # imported on use: it is most of the import time of the package, and
    # only the EP searches need it
    from scipy import optimize

    lo, hi = float(alpha_bracket[0]), float(alpha_bracket[1])
    if not (0.0 <= lo < hi):
        raise ValueError("alpha bracket must satisfy 0 <= lo < hi")
    grid = np.linspace(lo, hi, n_scan)
    f = np.abs(_eta_squared(grid, p))

    roots: list[EPLocation] = []
    for k in range(1, n_scan - 1):
        if not (f[k] <= f[k - 1] and f[k] < f[k + 1]):
            continue
        res = optimize.minimize_scalar(
            lambda a: float(np.abs(_eta_squared(np.array([a]), p))[0]),
            bounds=(grid[k - 1], grid[k + 1]),
            method="bounded",
            options={"xatol": 1e-13},
        )
        if not res.success:
            raise RuntimeError(
                f"EP refinement did not converge; best iterate alpha={res.x}"
                f" with |eta^2|={res.fun}"
            )
        alpha = _polish_root(float(res.x), p, grid[k - 1], grid[k + 1])
        fmin = float(np.abs(_eta_squared(np.array([alpha]), p))[0])
        if fmin < residual_tol:
            roots.append(EPLocation(
                p1=alpha, p2=p.beta,
                residual=2.0 * math.sqrt(fmin),
            ))
    roots.sort(key=lambda e: (e.p1, e.p2))
    return roots


def sample_points(sampler, p1: np.ndarray, p2: np.ndarray):
    """Eigenvalue pairs (va, vb) of ``sampler`` at the points (p1, p2).

    One call with the two equal-shape coordinate arrays; if it raises or
    returns another shape, one call per point with floats, where a point
    that raises is NaN. ``failed`` maps the row-major (flat) index of each
    such point to its exception, in index order.
    """
    try:
        va, vb = sampler(p1, p2)
        va = np.asarray(va, dtype=complex)
        vb = np.asarray(vb, dtype=complex)
        if va.shape == vb.shape == p1.shape:
            return va, vb, {}
    except Exception:
        pass
    va = np.full(p1.size, np.nan, dtype=complex)
    vb = np.full(p1.size, np.nan, dtype=complex)
    failed: dict[int, Exception] = {}
    for k, (x, y) in enumerate(zip(p1.ravel().tolist(), p2.ravel().tolist())):
        try:
            va[k], vb[k] = sampler(x, y)
        except Exception as exc:
            va[k] = vb[k] = np.nan
            failed[k] = exc
    return va.reshape(p1.shape), vb.reshape(p1.shape), failed


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

    Coarse-scans the gap on a ``coarse_n`` x ``coarse_n`` grid, refines
    each local-minimum cell with a Nelder-Mead simplex seeded at the cell,
    re-evaluates the gap at the refined point, and accepts it only below
    both the refinement tolerance (default ``1e-6`` x window diagonal) and
    ``reject_rel`` x the median coarse gap (which rejects shallow avoided
    crossings). Sampler failures skip the cell and are counted in the
    result. Accepted points are deduplicated and sorted by (p1, p2).
    """
    from scipy import optimize

    if coarse_n < 8:
        raise ValueError("coarse_n must be >= 8")
    (p1lo, p1hi), (p2lo, p2hi) = window
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

    failure_box = [failures]

    def objective(x):
        try:
            la, lb = sampler(float(x[0]), float(x[1]))
        except Exception:
            failure_box[0] += 1
            return np.inf
        return abs(la - lb)

    dx = (p1hi - p1lo) / (coarse_n - 1)
    dy = (p2hi - p2lo) / (coarse_n - 1)

    accepted: list[EPLocation] = []
    for (i, j) in _local_minima(gaps):
        # skip cells that clearly sit on a smooth gap plateau
        if not (gaps[i, j] < 0.5 * median_gap or gaps[i, j] < 10 * tol):
            continue
        x0 = np.array([p1s[i], p2s[j]])
        simplex = np.array([x0, x0 + (dx, 0.0), x0 + (0.0, dy)])
        res = optimize.minimize(
            objective, x0, method="Nelder-Mead",
            options={
                "initial_simplex": simplex,
                # the gap grows like sqrt(distance) at an EP, so hitting the
                # residual target needs near-float position resolution
                "xatol": 1e-13,
                "fatol": 1e30,  # stop on simplex size, not value spread
                "maxfev": 4000,
            },
        )
        residual = objective(res.x)  # independent re-evaluation
        if not np.isfinite(residual):
            continue
        if residual < tol and residual < reject_rel * median_gap:
            accepted.append(EPLocation(float(res.x[0]), float(res.x[1]),
                                       float(residual)))

    # deduplicate: the two sheets share each minimum, and neighboring seeds
    # converge to the same point
    accepted.sort(key=lambda e: e.residual)
    kept: list[EPLocation] = []
    for cand in accepted:
        if all(math.hypot(cand.p1 - k.p1, cand.p2 - k.p2) > DEDUP_FACTOR * tol
               for k in kept):
            kept.append(cand)
    kept.sort(key=lambda e: (e.p1, e.p2))
    return GridSearchResult(kept, sampler_failures=failure_box[0],
                            median_gap=median_gap, tolerance=tol)
