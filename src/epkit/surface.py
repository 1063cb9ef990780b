"""Riemann-surface atlases over a 2-D parameter plane, and loop monodromy.

Sheets are matched row-major by :func:`~epkit.crossing.match_grid`, of
which a 1-D scan is one row: each cell continues from its left neighbour,
or from the one in the previous row where that is missing (first column,
failed cell). Cut extraction distinguishes:

  - matched cuts: grid edges where the matched assignment itself jumps.
    Only these depend on the path of the continuation, as a branch cut
    should, so tests assert their topology, not their geometry.
  - per-component seams: edges where the real (or imaginary) part of the
    pair difference a - b touches or crosses zero, read from a - b and
    D = (a - b)^2, which do not depend on the order of the pair. The real
    seam joins the two EPs while the imaginary seams leave them outward.

Neither depends on the delta mode.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (_require_finite, abs_diff, check_count, check_window,
                   is_real_number, principal_sqrt_grid)
from .crossing import match_grid
from .epfind import sample_points

Node = tuple[int, int]
Edge = tuple[Node, Node]

RAW = "raw"
DELTA = "delta"

IDENTITY = "identity"
SWAP = "swap"

STEP_FLOOR = "step floor"  # the kinds of a FollowEvent
ZERO_GAP = "D = 0"
SAMPLER_ERROR = "sampler error"
NON_FINITE = "non-finite pair"

MAX_STEP_PHASE = math.pi / 4  # radians, per accepted loop step
MAX_STEP_SHIFT = 0.2  # mean and half-gap move per accepted step, in gaps
MATCHED_CUT_JUMP = 10.0  # edge jump, in medians of the jumps along its axis
SEAM_CONTACT = 1e-3  # |component| of a - b, in its max over the grid
MIN_GRID = 16  # the fewest nodes per axis of a sheet grid
MAX_MISSING_FRAC = 0.01  # the largest share of grid cells that may fail
MIN_LOOP_STEPS = 64  # the fewest steps encircle starts from
MAX_HALVINGS = 40  # the most a step of a followed path is halved


_no_edges = functools.partial(np.zeros, (0, 2, 2), dtype=np.int64)


@dataclass
class CutSet:
    """Cut edges by kind as ``(E, 2, 2)`` int64 arrays, edge ``k`` joining
    the ``(i, j)`` nodes ``kind[k, 0]`` and ``kind[k, 1]``; on disk, the
    manifest's ``cut_edges``. Sets are equal when their arrays are."""

    matched: np.ndarray = field(default_factory=_no_edges)
    re: np.ndarray = field(default_factory=_no_edges)
    im: np.ndarray = field(default_factory=_no_edges)

    def __eq__(self, other):
        return isinstance(other, CutSet) and all(
            map(np.array_equal, vars(self).values(), vars(other).values()))


@dataclass
class SheetGrid:
    """Two continuity-matched eigenvalue sheets over a rectangular grid.

    ``sheet1[i, j]`` lives at (axis1[i], axis2[j]). In delta mode the
    sheets are the half-differences relative to the sheet average, so
    sheet2 == -sheet1 exactly, and the sheet CSV holds sheet1 alone
    (:func:`~epkit.io.write_sheetgrid_csv`). ``cut_cells`` holds the cuts
    as ``(E, 2, 2)`` arrays of node indices, for the manifest, not the CSV.
    """

    axis1: np.ndarray
    axis2: np.ndarray
    sheet1: np.ndarray
    sheet2: np.ndarray
    cut_cells: CutSet
    delta_mode: str
    missing: list[Node] = field(default_factory=list)


def connected_components(edges: np.ndarray | Sequence[Edge]) -> list[set[Node]]:
    """Node sets of connected cut-edge groups, from an ``(E, 2, 2)`` array
    of node indices (a :class:`CutSet` kind) or a sequence of node pairs.

    Two cut edges belong to the same component when they share a node or
    border the same grid plaquette: a seam crossing a column of cells flags
    one parallel edge per row, and plaquette adjacency chains those into
    one curve.
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2, 2)
    parent = list(range(len(e)))

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    # an edge borders the plaquettes of its lower node and of the node one
    # step across it: (i, j - 1) along axis 1, (i - 1, j) along axis 2
    lo = e.min(axis=1)
    across = np.where((e[:, 0, 1] == e[:, 1, 1])[:, None], [0, 1], [1, 0])
    keys = np.stack((e[:, 0], e[:, 1], lo - across, lo), axis=1).tolist()
    first: dict[tuple, int] = {}  # the first edge at each node and cell
    for k, row in enumerate(keys):
        for kind, key in zip("nncc", row):  # two nodes, two cells
            union(k, first.setdefault((kind, *key), k))

    groups: dict[int, set[Node]] = {}
    for k, (u, v, *_) in enumerate(keys):
        groups.setdefault(find(k), set()).update((tuple(u), tuple(v)))
    return sorted(groups.values(), key=lambda s: sorted(s)[0])


def _edges_where(ok, rule) -> np.ndarray:
    """Edges between two ok nodes where ``rule(u, v)`` holds, as an
    ``(E, 2, 2)`` int64 array of their node indices, in the order of rows,
    then columns, then the axis-1 edge of a node before its axis-2 edge.
    ``rule`` gets the node slices of all edges along one axis."""
    flags = np.zeros(ok.shape + (2,), dtype=bool)
    for k, (u, v) in enumerate(((np.s_[:-1, :], np.s_[1:, :]),
                                (np.s_[:, :-1], np.s_[:, 1:]))):
        flags[u + (k,)] = ok[u] & ok[v] & rule(u, v)
    i, j, k = np.nonzero(flags)
    node = np.stack((i, j), axis=1, dtype=np.int64)
    return np.stack((node, node + np.stack((1 - k, k), axis=1)), axis=1)


def _matched_cut_edges(e, ok):
    def jumps(u, v):
        jump = abs_diff(e[u], e[v])
        both = ok[u] & ok[v]
        med = float(np.median(jump[both])) if both.any() else 0.0
        return (jump > MATCHED_CUT_JUMP * med) & (med > 0)
    return _edges_where(ok, jumps)


def _seam_edges(diff, ok):
    """The ``re`` and ``im`` seams: edges where the real (imaginary) part
    of the pair difference ``diff`` touches or crosses zero.

    An edge is a contact when an endpoint's |component| is at most
    ``SEAM_CONTACT`` x its max over the grid (no seam if that is 0), and a
    crossing when D = diff**2 crosses the negative (``re``) or positive
    (``im``) real axis: Im D changes sign, with Re D < 0 (> 0) at both
    ends. Both rules hold for -diff too. The signs of D are read from
    diff, since its square can overflow.
    """
    x, y = diff.real, diff.imag
    re_d = np.abs(x) - np.abs(y)  # the sign of Re D = x**2 - y**2
    im_d = np.sign(x) * np.sign(y)  # the sign of Im D = 2 x y

    def seams(part, side):
        mag = np.abs(part)
        scale = float(np.max(mag[ok])) if ok.any() else 0.0
        if scale <= 0.0:
            return _no_edges()

        def seam(u, v):
            return ((np.minimum(mag[u], mag[v]) <= SEAM_CONTACT * scale)
                    | ((side * re_d[u] > 0) & (side * re_d[v] > 0)
                       & (im_d[u] * im_d[v] < 0)))
        return _edges_where(ok, seam)
    return seams(x, -1.0), seams(y, 1.0)


def build_surface(sampler: Callable[[float, float], tuple[complex, complex]],
                  window: tuple[tuple[float, float], tuple[float, float]],
                  n1: int, n2: int, delta_mode: str = DELTA) -> SheetGrid:
    """Sample, match, and cut-extract the two eigenvalue sheets.

    The sampler is called once on the whole grid (see
    :func:`~epkit.epfind.sample_points`). A cell where it fails or returns
    a value that is not finite is missing (skipped by matching and cut
    extraction); more than ``MAX_MISSING_FRAC`` missing cells aborts. A
    window axis that is not finite or has no width raises; a reversed one
    mirrors the axis.
    """
    n1, n2 = check_count("n1", n1, MIN_GRID), check_count("n2", n2, MIN_GRID)
    if delta_mode not in (RAW, DELTA):
        raise ValueError(f"delta_mode must be '{RAW}' or '{DELTA}'")
    (p1lo, p1hi), (p2lo, p2hi) = window
    check_window(window)
    axis1 = np.linspace(p1lo, p1hi, n1)
    axis2 = np.linspace(p2lo, p2hi, n2)

    va, vb, _ = sample_points(sampler, *np.meshgrid(axis1, axis2,
                                                     indexing="ij"))
    ok = np.isfinite(va) & np.isfinite(vb)  # a failed cell is NaN
    missing = list(map(tuple, np.argwhere(~ok).tolist()))
    if len(missing) > MAX_MISSING_FRAC * n1 * n2:
        raise RuntimeError(
            f"{len(missing)} of {n1 * n2} cells failed to sample"
        )

    d = va - vb
    swapped = match_grid(d, ok)
    e = 0.5 * np.where(swapped, vb - va, d)  # not -d, which turns +0.0 to -0.0
    cuts = CutSet(_matched_cut_edges(e, ok), *_seam_edges(d, ok))

    if delta_mode == DELTA:
        sheet1, sheet2 = e, -e
    else:
        sheet1, sheet2 = np.where(swapped, vb, va), np.where(swapped, va, vb)
    return SheetGrid(axis1, axis2, sheet1, sheet2, cuts, delta_mode, missing)


def _loop_point(v, name: str) -> tuple[float, float]:
    """``v`` as two floats; raises naming ``name`` unless it is two finite
    real numbers."""
    if isinstance(v, (list, np.ndarray)):
        v = tuple(v)
    if not (isinstance(v, tuple) and len(v) == 2 and all(
            is_real_number(c) and math.isfinite(c) for c in v)):
        raise ValueError(f"{name} must be two finite numbers, got {v!r}")
    return float(v[0]), float(v[1])


class _Loop:
    """A closed loop in the (p1, p2) plane, once around as t runs over
    [0, 1]. ``points`` is its one kernel."""

    def point(self, t: float) -> tuple[float, float]:
        """The loop point at t: :meth:`points` on a one-element array."""
        p1, p2 = self.points([t])
        return float(p1[0]), float(p2[0])


@dataclass(frozen=True)
class CircleLoop(_Loop):
    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _loop_point(self.center, "center"))
        if not is_real_number(self.radius):
            raise ValueError(f"radius must be a real number, got {self.radius!r}")
        if not 0 < self.radius < math.inf:
            raise ValueError(
                f"radius must be positive and finite, got {self.radius!r}")
        object.__setattr__(self, "radius", float(self.radius))

    def points(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """The p1 and p2 arrays of the loop points at the array ``ts``."""
        ang = 2.0 * np.pi * np.asarray(ts, dtype=float)
        return (self.center[0] + self.radius * np.cos(ang),
                self.center[1] + self.radius * np.sin(ang))

    def contains(self, xy: tuple[float, float]) -> bool:
        return math.hypot(xy[0] - self.center[0],
                          xy[1] - self.center[1]) < self.radius


@dataclass(frozen=True)
class PolylineLoop(_Loop):
    """Closed polygonal loop (the last vertex connects back to the first)."""

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not (isinstance(self.vertices, (tuple, list))
                and len(self.vertices) >= 3):
            raise ValueError("vertices must be at least 3 [p1, p2] points, "
                             f"got {self.vertices!r}")
        verts = tuple(_loop_point(v, f"vertex {k}")
                      for k, v in enumerate(self.vertices))
        segs = tuple(zip(verts, verts[1:] + verts[:1]))
        lengths = tuple(math.hypot(q[0] - p[0], q[1] - p[1]) for p, q in segs)
        total = sum(lengths)
        if not 0 < total < math.inf:
            raise ValueError("vertices must span a positive, finite perimeter, "
                             f"got {self.vertices!r}")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_segments", segs)
        object.__setattr__(self, "_lengths", lengths)
        object.__setattr__(self, "_total", total)

    def points(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """The p1 and p2 arrays of the loop points at the array ``ts``, at
        arc length ``(ts mod 1)`` of the perimeter from the first vertex.

        A point lies on the first segment whose length its remaining arc
        length does not exceed, or on the last one; the loop runs over the
        segments, not the points."""
        target = np.mod(np.asarray(ts, dtype=float), 1.0) * self._total
        p1, p2 = np.empty_like(target), np.empty_like(target)
        todo = np.ones(target.shape, dtype=bool)
        last = len(self._segments) - 1
        for idx, ((p, q), ell) in enumerate(zip(self._segments, self._lengths)):
            here = todo & (target <= ell) if idx < last else todo
            frac = np.minimum(target[here] / ell, 1.0) if ell > 0 else 0.0
            p1[here] = p[0] + frac * (q[0] - p[0])
            p2[here] = p[1] + frac * (q[1] - p[1])
            todo &= ~here
            target -= ell
        return p1, p2

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
    """Outcome of taking the eigenvalue pair around a closed loop."""

    permutation: str  # "identity" or "swap"
    winding: int  # turns of the discriminant (a - b)**2 around the loop
    n_steps: int
    max_step_phase: float  # peak |phase step| of the discriminant, radians


class FollowEvent(NamedTuple):
    """Where :func:`_follow` stops: the ``index`` in its ``ts`` of the point
    the event names, its ``kind``, and a sampler error's exception."""

    index: int
    kind: str  # STEP_FLOOR, ZERO_GAP, SAMPLER_ERROR or NON_FINITE
    error: Exception | None = None


def _follow(sampler, path, ts: np.ndarray):
    """The pair differences a - b at the points ``ts`` of ``path`` (an
    array of t -> the p1 and p2 arrays), refined, the phase step of
    D = (a - b)**2 over each step, and the first event along the path:
    ``(ts, diff, phase, event)``.

    D does not depend on the order of the pair, so nothing is matched. All
    ``ts`` are sampled in one call (:func:`~epkit.epfind.sample_points`).
    A step is accepted when its phase step ``angle(D[k+1] / D[k])`` is at
    most ``MAX_STEP_PHASE`` and the pair mean (a + b) / 2 and half-gap
    |a - b| / 2 each move by at most ``MAX_STEP_SHIFT`` times the gap at
    its start. So D is nonzero at its end, and a pair that jumps onto
    other values (across the cut of a sampler with more than two) is not
    followed. The midpoints of all other steps are sampled in one call per
    round, until none is left (the points of depth-first halving).

    ``event`` is None, or a :class:`FollowEvent` for the first of: a point
    where the sampler raised (``SAMPLER_ERROR``, with its exception) or
    whose a - b or mean is not finite (``NON_FINITE``), the start of a step
    with D = 0 there (``ZERO_GAP``), or of a rejected step at
    ``2**-MAX_HALVINGS`` of the mean step of ``ts`` or with no float
    between its ends (``STEP_FLOOR``: the path passes too close to an EP
    to follow). Every step before the event is accepted; the points after
    it are as first sampled."""
    n_steps = ts.size - 1
    floor_dt = ((ts[-1] - ts[0]) / n_steps) * 0.5 ** MAX_HALVINGS

    def sample(t):
        a, b, failed = sample_points(sampler, *path(t))
        errors = np.full(t.size, None)
        errors[list(failed)] = list(failed.values())
        with np.errstate(all="ignore"):
            return a - b, 0.5 * (a + b), errors

    diff, mean, errors = sample(ts)
    while True:
        with np.errstate(all="ignore"):  # 0 differences reject
            phase = np.angle((diff[1:] / diff[:-1]) ** 2)
            gap = np.abs(diff)
            shift = np.maximum(np.abs(np.diff(mean)), 0.5 * np.abs(np.diff(gap)))
        accept = ((np.abs(phase) <= MAX_STEP_PHASE)
                  & (shift <= MAX_STEP_SHIFT * gap[:-1]))
        mid = 0.5 * (ts[:-1] + ts[1:])
        floor = (np.diff(ts) <= floor_dt) | (mid == ts[:-1]) | (mid == ts[1:])
        bad = ~(np.isfinite(diff) & np.isfinite(mean))  # sampler errors too
        # a bad point at either end (the start's only counts for the first
        # step), D = 0 at the start, or a rejected step at the floor
        stop = bad[:-1] | bad[1:] | (diff[:-1] == 0) | (~accept & floor)
        first = int(np.argmax(stop)) if stop.any() else stop.size
        # at most n_steps per round, leftmost first: where many steps fail,
        # the first reaches its floor without all doubling
        redo = np.flatnonzero(~accept[:first])[:n_steps]
        if redo.size == 0:
            break
        mids = (mid[redo], *sample(mid[redo]))
        ts, diff, mean, errors = (np.insert(v, redo + 1, m) for v, m in
                                  zip((ts, diff, mean, errors), mids))

    event = None
    if first < stop.size:
        ends = (first, first + 1)
        error = next((k for k in ends if errors[k] is not None), None)
        if error is not None:
            event = FollowEvent(error, SAMPLER_ERROR, errors[error])
        elif diff[first] == 0:
            event = FollowEvent(first, ZERO_GAP)
        elif bad[first] or bad[first + 1]:
            event = FollowEvent(first if bad[first] else first + 1,
                                NON_FINITE)
        else:
            event = FollowEvent(first, STEP_FLOOR)
    return ts, diff, phase, event


def _event_error(ts, diff, event: FollowEvent) -> Exception:
    """The error :func:`encircle` raises for an event of :func:`_follow`,
    naming the loop point t of the event."""
    t = ts[event.index]
    if event.kind == SAMPLER_ERROR:
        event.error.add_note(f"the sampler failed at loop point t={t}")
        return event.error
    if event.kind == ZERO_GAP:
        return RuntimeError(f"loop passes through an EP at t={t}")
    if event.kind == NON_FINITE:
        return RuntimeError(f"non-finite pair at loop point t={t}: "
                            f"a - b = {complex(diff[event.index])!r}")
    return RuntimeError("loop too close to EP: step floor reached at "
                        f"t={t} without continuity")


def encircle(sampler: Callable[[float, float], tuple[complex, complex]],
             loop, n_steps: int = 256) -> LoopResult:
    """The ``winding`` of D = (a - b)**2 around a closed loop: the phase
    steps of :func:`_follow` over ``n_steps`` equal steps of t, in turns,
    which must sum to an integer. The pair swaps exactly when it is odd.
    An event of the loop raises (:func:`_event_error`)."""
    n_steps = check_count("n_steps", n_steps, MIN_LOOP_STEPS)
    ts, diff, phase, event = _follow(sampler, loop.points,
                                     np.linspace(0.0, 1.0, n_steps + 1))
    if event is not None:
        raise _event_error(ts, diff, event)
    turns = float(np.sum(phase)) / (2.0 * math.pi)
    winding = round(turns)
    if abs(turns - winding) > 1e-6:
        raise RuntimeError("loop continuation did not return to the starting pair")
    return LoopResult(SWAP if winding % 2 else IDENTITY, winding, ts.size,
                      float(np.max(np.abs(phase))))


@dataclass(frozen=True)
class AnalyticOracle:
    """The square-root pair +/- sqrt(w), w the product of (z - z_k) over
    its one or two branch points z_k: +/- sqrt(z - z0) for the
    single-point kind, +/- sqrt((z - z1)(z - z2)) for the two-point one.
    """

    points: tuple[complex, ...]

    @classmethod
    def two_point(cls, z1: complex, z2: complex) -> "AnalyticOracle":
        z1, z2 = _require_finite("z1", z1), _require_finite("z2", z2)
        if z1 == z2:
            raise ValueError("two-point oracle needs distinct branch points")
        return cls((z1, z2))

    @classmethod
    def single_point(cls, z0: complex) -> "AnalyticOracle":
        return cls((_require_finite("z0", z0),))

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
    """The oracle pair at every p1 + i p2. The product w is formed in real
    arithmetic as Python's complex multiply does, so the pair equals
    ``principal_sqrt(w)`` and its negative bitwise."""
    z, *rest = o.points
    wr, wi = p1 - z.real, p2 - z.imag
    for z in rest:
        br, bi = p1 - z.real, p2 - z.imag
        wr, wi = wr * br - wi * bi, wr * bi + wi * br
    s = principal_sqrt_grid(_complex(wr, wi))
    return s, -s
