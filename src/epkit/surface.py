"""Riemann-surface atlases over a 2-D parameter plane, and loop monodromy.

Sheets are matched by row-major continuation: each cell continues from
its left neighbour, or from the one in the previous row where that is
missing (first column, failed cell). The continuation is deterministic
and linear-time; the *position* of the resulting cuts is path dependent,
exactly as a branch cut should be, so tests downstream assert topology
(component counts, endpoints at the EPs, monodromy), not exact geometry.

Cut extraction distinguishes:

  - matched cuts: grid edges where the matched assignment itself jumps
    (sheet values change discontinuously);
  - per-component seams: edges where the real (or imaginary) parts of the
    two matched sheets cross or touch. These carry the structure seen in
    the half-difference surfaces: the real seam joins the two EPs while
    the imaginary seams leave them outward.

All cut logic runs on the half-difference field (sheet1 - sheet2)/2 and
is therefore identical in raw and delta modes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .core import abs_diff, principal_sqrt_grid
from .crossing import pairing, parity_runs
from .epfind import EPLocation, sample_points

Node = tuple[int, int]
Edge = tuple[Node, Node]

RAW = "raw"
DELTA = "delta"

IDENTITY = "identity"
SWAP = "swap"

END_MATCH_TOL = 1e-8


@dataclass
class CutSet:
    matched: list[Edge] = field(default_factory=list)
    re: list[Edge] = field(default_factory=list)
    im: list[Edge] = field(default_factory=list)

    def all_edges(self) -> list[Edge]:
        return list(dict.fromkeys(self.matched + self.re + self.im))


@dataclass
class SheetGrid:
    """Two continuity-matched eigenvalue sheets over a rectangular grid.

    ``sheet1[i, j]`` lives at (axis1[i], axis2[j]). In delta mode the
    sheets are the half-differences relative to the sheet average, so
    sheet2 == -sheet1 exactly.
    """

    axis1: np.ndarray
    axis2: np.ndarray
    sheet1: np.ndarray
    sheet2: np.ndarray
    cut_cells: CutSet
    delta_mode: str
    missing: list[Node] = field(default_factory=list)


def connected_components(edges: Sequence[Edge]) -> list[set[Node]]:
    """Node sets of connected cut-edge groups.

    Two cut edges belong to the same component when they share a node or
    border the same grid plaquette: a seam crossing a column of cells flags
    one parallel edge per row, and plaquette adjacency chains those into
    one curve.
    """
    edges = list(edges)
    parent = list(range(len(edges)))

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    def plaquettes(u: Node, v: Node) -> list[Node]:
        (i1, j1), (i2, j2) = u, v
        if j1 == j2:  # edge along axis1: borders cells (i, j-1) and (i, j)
            i = min(i1, i2)
            return [(i, j1 - 1), (i, j1)]
        i = i1  # edge along axis2: borders cells (i-1, j) and (i, j)
        return [(i - 1, min(j1, j2)), (i, min(j1, j2))]

    by_node: dict[Node, int] = {}
    by_cell: dict[Node, int] = {}
    for k, (u, v) in enumerate(edges):
        for node in (u, v):
            if node in by_node:
                union(k, by_node[node])
            by_node[node] = k
        for cell in plaquettes(u, v):
            if cell in by_cell:
                union(k, by_cell[cell])
            by_cell[cell] = k

    groups: dict[int, set[Node]] = {}
    for k, (u, v) in enumerate(edges):
        groups.setdefault(find(k), set()).update((u, v))
    return sorted(groups.values(), key=lambda s: sorted(s)[0])


def _match_grid(va, vb, ok):
    """Row-major continuation; returns matched (a, b) fields.

    An ok cell continues from its left neighbour if that is ok, else from
    the one above, else it is a seed and keeps the sampler order. Each row
    is a segmented parity (:func:`~epkit.crossing.parity_runs`); only runs
    that start from the cell above depend on the previous row.
    """
    left = np.zeros_like(ok)
    left[:, 1:] = ok[:, 1:] & ok[:, :-1]
    flip = np.zeros_like(ok)
    restart = ~left
    flip[:, 1:], _, tie = pairing(va[:, :-1], vb[:, :-1], va[:, 1:], vb[:, 1:], 0.0)
    restart[:, 1:] |= tie
    start, odd = parity_runs(flip, restart)

    from_above = np.zeros_like(ok)
    from_above[1:] = ok[1:] & ok[:-1] & ~left[1:]
    i, j = np.nonzero(from_above)
    up_flip = np.zeros_like(ok)
    up_flip[i, j], _, tie = pairing(va[i - 1, j], vb[i - 1, j], va[i, j],
                                    vb[i, j], 0.0)
    from_above[i[tie], j[tie]] = False  # a tie keeps the sampler order

    swapped = odd.copy()
    for r in np.flatnonzero(from_above.any(axis=1)).tolist():
        base = from_above[r] & (swapped[r - 1] ^ up_flip[r])
        swapped[r] = base[start[r]] ^ odd[r]
    return np.where(swapped, vb, va), np.where(swapped, va, vb)


def _edges_where(ok, rule) -> list[Edge]:
    """Edges between two ok nodes where ``rule(u, v)`` holds, in the order
    of rows, then columns, then the axis-1 edge of a node before its axis-2
    edge. ``rule`` gets the node slices of all edges along one axis."""
    flags = np.zeros(ok.shape + (2,), dtype=bool)
    for k, (u, v) in enumerate(((np.s_[:-1, :], np.s_[1:, :]),
                                (np.s_[:, :-1], np.s_[:, 1:]))):
        flags[u + (k,)] = ok[u] & ok[v] & rule(u, v)
    return [((i, j), (i + 1, j)) if k == 0 else ((i, j), (i, j + 1))
            for i, j, k in np.argwhere(flags).tolist()]


def _matched_cut_edges(e, ok, theta):
    def jumps(u, v):
        jump = abs_diff(e[u], e[v])
        both = ok[u] & ok[v]
        med = float(np.median(jump[both])) if both.any() else 0.0
        return (jump > theta * med) & (med > 0)
    return _edges_where(ok, jumps)


def _component_seam_edges(d, ok, contact_rel, crossing_rel):
    """Edges where a component of the two sheets touches or crosses.

    ``d`` is the matched component difference on nodes. An edge belongs to
    the seam when an endpoint lies within ``contact_rel`` x max|d| of
    coincidence, or when d changes sign across the edge at small magnitude
    (large-magnitude flips are matching discontinuities, not seams).
    """
    scale = float(np.max(np.abs(d[ok]))) if ok.any() else 0.0
    if scale <= 0.0:
        return []
    tau = contact_rel * scale
    veto = crossing_rel * scale

    def seam(u, v):
        lo = np.minimum(np.abs(d[u]), np.abs(d[v]))
        return (lo <= tau) | ((d[u] * d[v] < 0) & (lo <= veto))
    return _edges_where(ok, seam)


def build_surface(sampler: Callable[[float, float], tuple[complex, complex]],
                  window: tuple[tuple[float, float], tuple[float, float]],
                  n1: int, n2: int, delta_mode: str = DELTA, *,
                  theta: float = 10.0, contact_rel: float = 1e-3,
                  crossing_rel: float = 0.05,
                  max_missing_frac: float = 0.01) -> SheetGrid:
    """Sample, match, and cut-extract the two eigenvalue sheets.

    The sampler is called once on the whole grid (see
    :func:`~epkit.epfind.sample_points`). Sampler failures mark cells missing
    (skipped by matching and cut extraction); more than
    ``max_missing_frac`` missing cells aborts.
    """
    if n1 < 16 or n2 < 16:
        raise ValueError("grid must be at least 16 x 16")
    if delta_mode not in (RAW, DELTA):
        raise ValueError(f"delta_mode must be '{RAW}' or '{DELTA}'")
    (p1lo, p1hi), (p2lo, p2hi) = window
    axis1 = np.linspace(p1lo, p1hi, n1)
    axis2 = np.linspace(p2lo, p2hi, n2)

    va, vb, failed = sample_points(sampler, *np.meshgrid(axis1, axis2,
                                                          indexing="ij"))
    if len(failed) > max_missing_frac * n1 * n2:
        raise RuntimeError(
            f"{len(failed)} of {n1 * n2} cells failed to sample"
        )
    missing = [divmod(k, n2) for k in failed]
    ok = np.ones((n1, n2), dtype=bool)
    ok.flat[list(failed)] = False

    a, b = _match_grid(va, vb, ok)
    e = 0.5 * (a - b)

    cuts = CutSet(
        matched=_matched_cut_edges(e, ok, theta),
        re=_component_seam_edges(2.0 * e.real, ok, contact_rel, crossing_rel),
        im=_component_seam_edges(2.0 * e.imag, ok, contact_rel, crossing_rel),
    )

    if delta_mode == DELTA:
        sheet1, sheet2 = e, -e
    else:
        sheet1, sheet2 = a, b
    return SheetGrid(axis1, axis2, sheet1, sheet2, cuts, delta_mode, missing)


@dataclass(frozen=True)
class CircleLoop:
    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    def point(self, t: float) -> tuple[float, float]:
        ang = 2.0 * math.pi * t
        return (self.center[0] + self.radius * math.cos(ang),
                self.center[1] + self.radius * math.sin(ang))

    def contains(self, xy: tuple[float, float]) -> bool:
        return math.hypot(xy[0] - self.center[0],
                          xy[1] - self.center[1]) < self.radius


@dataclass(frozen=True)
class PolylineLoop:
    """Closed polygonal loop (the last vertex connects back to the first)."""

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("a closed polyline needs at least 3 vertices")
        verts = tuple((float(x), float(y)) for x, y in self.vertices)
        segs = tuple(zip(verts, verts[1:] + verts[:1]))
        lengths = tuple(math.hypot(q[0] - p[0], q[1] - p[1]) for p, q in segs)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_segments", segs)
        object.__setattr__(self, "_lengths", lengths)
        object.__setattr__(self, "_total", sum(lengths))

    def point(self, t: float) -> tuple[float, float]:
        # arc-length parameterization over [0, 1]
        target = (t % 1.0) * self._total
        last = len(self._segments) - 1
        for idx, ((p, q), ell) in enumerate(zip(self._segments, self._lengths)):
            if target <= ell or idx == last:
                frac = min(target / ell, 1.0) if ell > 0 else 0.0
                return (p[0] + frac * (q[0] - p[0]), p[1] + frac * (q[1] - p[1]))
            target -= ell
        return self.vertices[0]

    def contains(self, xy: tuple[float, float]) -> bool:
        # even-odd ray casting
        x, y = xy
        inside = False
        for (x1, y1), (x2, y2) in self._segments:
            if (y1 > y) != (y2 > y):
                xcross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                if x < xcross:
                    inside = not inside
        return inside


@dataclass
class LoopResult:
    """Outcome of continuing the eigenvalue pair around a closed loop."""

    permutation: str  # "identity" or "swap"
    n_steps: int
    max_step_jump: float  # peak jump-to-gap ratio over accepted steps
    enclosed_eps: list[EPLocation] = field(default_factory=list)


def _sample_loop(sampler, loop, ts: np.ndarray):
    """Samples (a, b) at the loop points ``ts``, and per point the
    exception the sampler raised there, or None."""
    p1, p2 = (np.array(c) for c in zip(*map(loop.point, ts.tolist())))
    a, b, failed = sample_points(sampler, p1, p2)
    errors = np.full(ts.size, None)
    errors[list(failed)] = list(failed.values())
    return a, b, errors


def encircle(sampler: Callable[[float, float], tuple[complex, complex]],
             loop, n_steps: int = 256, *, jump_factor: float = 0.2,
             max_halvings: int = 40,
             known_eps: Optional[Iterable[EPLocation]] = None) -> LoopResult:
    """Continue the eigenvalue pair around a closed loop and classify the
    monodromy permutation.

    All ``n_steps + 1`` loop points are sampled in one call
    (:func:`~epkit.epfind.sample_points`). A step is rejected when the
    larger jump of its keep/swap pairing (:func:`~epkit.crossing.pairing`)
    exceeds ``jump_factor`` times the gap at its start. Neither changes
    when the samples at one end swap (at an exact tie the sampler order is
    kept), so the midpoints of all rejected steps are sampled in one call
    per round, until none is left, and the path is matched once at the
    end (:func:`~epkit.crossing.parity_runs`). The points are those of
    depth-first halving.

    A rejected step at ``2**-max_halvings`` of a step, or with no float
    between its ends, raises (the loop passes too close to an EP to
    continue unambiguously), as do a point
    with no gap and a sampler error (re-raised with a note naming t); of
    several, the first along the loop.
    """
    if n_steps < 64:
        raise ValueError("n_steps must be >= 64")
    floor_dt = (1.0 / n_steps) * 0.5 ** max_halvings
    ts = np.linspace(0.0, 1.0, n_steps + 1)
    a, b, errors = _sample_loop(sampler, loop, ts)
    while True:
        ra, rb, na, nb = a[:-1], b[:-1], a[1:], b[1:]
        flip, _, tie = pairing(ra, rb, na, nb, 0.0)
        x = np.where(flip, abs_diff(nb, ra), abs_diff(na, ra))
        y = np.where(flip, abs_diff(na, rb), abs_diff(nb, rb))
        jump, gap = np.where(y > x, y, x), abs_diff(ra, rb)  # Python's max(x, y)
        accept = jump <= jump_factor * gap
        mid = 0.5 * (ts[:-1] + ts[1:])
        floor = (np.diff(ts) <= floor_dt) | (mid == ts[:-1]) | (mid == ts[1:])
        # a sampler error at either end (the start's only counts for the
        # first step), no gap, or a rejected step at the floor
        event = (errors[:-1].astype(bool) | errors[1:].astype(bool)
                 | (gap == 0.0) | (~accept & floor))
        first = int(np.argmax(event)) if event.any() else event.size
        # at most n_steps per round, leftmost first: where many steps fail
        # (NaN samples), the first reaches its floor without all doubling
        redo = np.flatnonzero(~accept[:first])[:n_steps]
        if redo.size == 0:
            break
        ma, mb, merrors = _sample_loop(sampler, loop, mid[redo])
        ts, a, b, errors = (np.insert(v, redo + 1, m) for v, m in
                            ((ts, mid[redo]), (a, ma), (b, mb), (errors, merrors)))

    if first < event.size:
        for k in (first, first + 1):
            if errors[k] is not None:
                errors[k].add_note(f"the sampler failed at loop point t={ts[k]}")
                raise errors[k]
        if gap[first] == 0.0:
            raise RuntimeError(f"loop passes through an EP at t={ts[first]}")
        raise RuntimeError("loop too close to EP: step floor reached at "
                           f"t={ts[first]} without continuity")

    _, swapped = parity_runs(np.concatenate(([False], flip)),
                             np.concatenate(([True], tie)))
    a0, b0 = complex(a[0]), complex(b[0])
    end_a, end_b = complex(a[-1]), complex(b[-1])
    if swapped[-1]:
        end_a, end_b = end_b, end_a
    if abs(end_a - a0) <= END_MATCH_TOL and abs(end_b - b0) <= END_MATCH_TOL:
        permutation = IDENTITY
    elif abs(end_a - b0) <= END_MATCH_TOL and abs(end_b - a0) <= END_MATCH_TOL:
        permutation = SWAP
    else:
        raise RuntimeError("loop continuation did not return to the starting pair")

    enclosed = [ep for ep in (known_eps or []) if loop.contains((ep.p1, ep.p2))]
    max_ratio = float(np.fmax.reduce(jump / gap, initial=0.0))
    return LoopResult(permutation, ts.size, max_ratio, enclosed)


@dataclass(frozen=True)
class AnalyticOracle:
    """Multivalued reference functions with known branch structure.

    Two-point kind: +/- sqrt((z - z1)(z - z2)), the square-root pair with
    branch points at z1 and z2. Single-point kind: the N roots of
    (z - z0)^(1/N) (the first two are returned as the pair).
    """

    kind: str
    z1: complex = 0j
    z2: complex = 0j
    z0: complex = 0j
    order: int = 2

    @classmethod
    def two_point(cls, z1: complex, z2: complex) -> "AnalyticOracle":
        if complex(z1) == complex(z2):
            raise ValueError("two-point oracle needs distinct branch points")
        return cls(kind="two-point", z1=complex(z1), z2=complex(z2))

    @classmethod
    def single_point(cls, z0: complex, order: int = 2) -> "AnalyticOracle":
        if order < 2:
            raise ValueError("order must be >= 2")
        return cls(kind="single-point", z0=complex(z0), order=order)

    def branch_points(self) -> list[complex]:
        if self.kind == "two-point":
            return [self.z1, self.z2]
        return [self.z0]

    def sampler(self) -> Callable[[float, float], tuple[complex, complex]]:
        """Sampler of the oracle pair; two equal-shape arrays give two arrays."""
        def sample(p1: float, p2: float) -> tuple[complex, complex]:
            if isinstance(p1, np.ndarray):
                return _oracle_grid(self, p1, p2)
            return oracle_eval(self, complex(p1, p2))
        return sample


def oracle_eval(o: AnalyticOracle, z: complex) -> tuple[complex, complex]:
    """The two principal-branch values of the oracle at z: those of
    :func:`_oracle_grid` at the one point.

    At a branch point both values are 0 (the degenerate case is left to
    the caller to detect via the vanishing gap).
    """
    z = complex(z)
    # one-element arrays, not 0-d ones: numpy scalars multiply complex
    # values with other rounding than its array loops
    va, vb = _oracle_grid(o, np.array([z.real]), np.array([z.imag]))
    return complex(va[0]), complex(vb[0])


def _complex(re, im):
    return np.stack((re, im), axis=-1).view(complex)[..., 0]


def _oracle_grid(o: AnalyticOracle, p1: np.ndarray, p2: np.ndarray):
    """The oracle pair at every p1 + i p2. The two-point product is formed
    in real arithmetic as Python's complex multiply does, so it equals
    ``principal_sqrt((z - z1) * (z - z2))`` bitwise; the single-point
    roots are exp(log(w) / order), and 0 at w = 0."""
    if o.kind == "two-point":
        ar, ai = p1 - o.z1.real, p2 - o.z1.imag
        br, bi = p1 - o.z2.real, p2 - o.z2.imag
        s = principal_sqrt_grid(_complex(ar * br - ai * bi, ar * bi + ai * br))
        return s, -s
    w = _complex(p1 - o.z0.real, p2 - o.z0.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.exp(np.log(w) / o.order)
    at_z0 = w == 0
    return (np.where(at_z0, 0j, root),
            np.where(at_z0, 0j, root * cmath.exp(2j * cmath.pi / o.order)))
