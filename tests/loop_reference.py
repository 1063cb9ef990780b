"""Per-point loop implementations of the scan, grid and loop paths and of
the path follower, :mod:`cmath` and :mod:`math` versions of the scalar
square-root, oracle and loop-geometry kernels, and the crossing label as
read from matched branches, kept as references; a sampler of a root pair
that is not closed under a loop, :func:`root_pair`; and
:func:`node_pairs`, the library's cut-edge arrays as the lists of node
pairs the loops here return.

The library computes these quantities with array operations; the tests in
test_reference_oracles.py, test_grid_reference.py, test_core.py and
test_surface.py check it against the straightforward code here.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from epkit.core import DEGENERACY_THRESHOLD, Hamiltonian2, splitting
from epkit import crossing, surface
from epkit.crossing import LZ, WB, ClassReport, UnclassifiableScanError
from epkit.epfind import sample_points
from epkit.surface import (IDENTITY, MAX_STEP_PHASE, MAX_STEP_SHIFT, SWAP,
                           CircleLoop)
from epkit.toymodel import build_hamiltonian


def bits(z: complex) -> tuple[str, str]:
    """The exact floats of a complex value, signed zeros distinguished."""
    return z.real.hex(), z.imag.hex()


def principal_sqrt(w: complex) -> complex:
    """Square root with Re >= 0; Im >= 0 where w is real and negative."""
    s = cmath.sqrt(w)
    if w.imag == 0.0 and (s.real < 0.0 or (s.real == 0.0 and s.imag < 0.0)):
        s = -s
    return s


def oracle_eval(o, z: complex) -> tuple[complex, complex]:
    """The two principal-branch values of an AnalyticOracle at z: +/- the
    principal square root of the product of (z - z_k) over its branch
    points."""
    z = complex(z)
    first, *rest = o.points
    w = z - first
    for zk in rest:
        w *= z - zk
    s = principal_sqrt(w)
    return s, -s


def root_pair(order: int):
    """A sampler of two of the ``order`` roots of p1 + i p2, the principal
    root and the next one counterclockwise. For ``order >= 3`` a loop
    around 0 carries the pair onto other roots: it is not a two-sheeted
    cover."""
    turn = cmath.exp(2j * cmath.pi / order)

    def sample(p1, p2):
        w = np.array(p1, dtype=complex)
        w.imag = p2
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.exp(np.log(w) / order)  # 0 at w = 0
        return root, root * turn
    return sample


def eigvector(h: Hamiltonian2, lam: complex) -> np.ndarray:
    """Unit null vector of H - lam: the longer of (g, lam - xi1), (lam - xi2, g)."""
    u = np.array([h.g, lam - h.xi1], dtype=complex)
    v = np.array([lam - h.xi2, h.g], dtype=complex)
    cand = u if np.linalg.norm(u) >= np.linalg.norm(v) else v
    n = np.linalg.norm(cand)
    if n == 0.0:
        return np.array([1.0 + 0.0j, 0.0 + 0.0j])
    return cand / n


def diagonalize(h: Hamiltonian2):
    """(lambda_plus, lambda_minus, v_plus, v_minus, degenerate) of one matrix."""
    eta = splitting(h.xi1, h.xi2, h.g)
    mean = 0.5 * (h.xi1 + h.xi2)
    lp, lm = mean + eta, mean - eta
    if abs(eta) < DEGENERACY_THRESHOLD:
        v = eigvector(h, mean)
        return lp, lm, v, v.copy(), True
    return lp, lm, eigvector(h, lp), eigvector(h, lm), False


def sweep_pairs(p, alphas):
    """Eigenvalue pairs (N, 2) and eigenvectors (N, 2, 2), one point at a time."""
    pairs = np.empty((len(alphas), 2), dtype=complex)
    vectors = np.empty((len(alphas), 2, 2), dtype=complex)
    for k, alpha in enumerate(alphas):
        lp, lm, vp, vm, _ = diagonalize(build_hamiltonian(float(alpha), p))
        pairs[k] = (lp, lm)
        vectors[k] = (vp, vm)
    return pairs, vectors


def match_branches(pairs, vectors=None):
    """Greedy keep/swap matching on the pair difference: a point's pair is
    swapped where its ``d = a - b`` lies nearer ``-ref`` than ``ref``, the
    previous point's matched ``a - b``.

    Returns (branch_a, branch_b, vectors_a, vectors_b, ambiguous).
    """
    pairs = np.asarray(pairs, dtype=complex)
    n = pairs.shape[0]
    a = np.empty(n, dtype=complex)
    b = np.empty(n, dtype=complex)
    va = np.empty((n, 2), dtype=complex) if vectors is not None else None
    vb = np.empty((n, 2), dtype=complex) if vectors is not None else None
    ambiguous = []
    a[0], b[0] = pairs[0]
    if vectors is not None:
        va[0], vb[0] = vectors[0]
    for k in range(1, n):
        lp, lm = pairs[k]
        d, ref = lp - lm, a[k - 1] - b[k - 1]
        keep, swap = abs(d - ref), abs(d + ref)
        if not (keep < swap or swap < keep):  # equal, or NaN
            ambiguous.append(k)
            chosen_swap = False
        else:
            chosen_swap = swap < keep
        if chosen_swap:
            a[k], b[k] = lm, lp
        else:
            a[k], b[k] = lp, lm
        if vectors is not None:
            if chosen_swap:
                va[k], vb[k] = vectors[k][1], vectors[k][0]
            else:
                va[k], vb[k] = vectors[k][0], vectors[k][1]
    return a, b, va, vb, ambiguous


def overlap_curve(vectors_a, vectors_b) -> np.ndarray:
    """|<v_a, v_b>| / (|v_a| |v_b|) of each pair of vectors, one at a time."""
    out = []
    for va, vb in zip(vectors_a, vectors_b):
        va, vb = np.asarray(va, dtype=complex), np.asarray(vb, dtype=complex)
        na = math.sqrt(float(np.sum(np.abs(va) ** 2)))
        nb = math.sqrt(float(np.sum(np.abs(vb) ** 2)))
        out.append(float(abs(np.sum(np.conj(va) * vb)) / (na * nb)))
    return np.array(out)


def overlap_peaks(ts, o, floor: float = 1e-6) -> list[float]:
    return [
        float(ts[k])
        for k in range(1, o.size - 1)
        if o[k] > o[k - 1] and o[k] > o[k + 1] and o[k] > floor
    ]


def contact_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    runs = []
    k = 0
    n = mask.size
    while k < n:
        if mask[k]:
            start = k
            while k + 1 < n and mask[k + 1]:
                k += 1
            runs.append((start, k))
        k += 1
    return runs


def component_analysis(ts: np.ndarray, d: np.ndarray, gap_floor: float) -> dict:
    absd = np.abs(d)
    contact_mask = absd <= gap_floor
    runs = contact_runs(contact_mask)
    interior_runs = [r for r in runs if r[0] > 0 and r[1] < d.size - 1]

    cross_points: list[float] = []
    sign_change = False
    for k in range(d.size - 1):
        if contact_mask[k] or contact_mask[k + 1]:
            continue
        if d[k] * d[k + 1] < 0:
            sign_change = True
            t0, t1 = ts[k], ts[k + 1]
            cross_points.append(float(t0 - d[k] * (t1 - t0) / (d[k + 1] - d[k])))
    for start, stop in interior_runs:
        cross_points.append(float(ts[start]))
        if stop != start:
            cross_points.append(float(ts[stop]))

    contact = bool(contact_mask.any())
    ends_separated = absd[0] > gap_floor and absd[-1] > gap_floor
    ends_coincide = absd[0] <= gap_floor and absd[-1] <= gap_floor
    return {
        "min_gap": float(absd.min()),
        "max_gap": float(absd.max()),
        "cross_points": sorted(cross_points),
        "crossed": sign_change or (contact and ends_separated),
        "avoided": (not sign_change) and (not contact),
        "bifurcated": contact and ends_coincide and absd.max() > gap_floor,
    }


def matched_classify(ts, pairs, gap_floor: float = 1e-9,
                     edge_factor: float = 5.0) -> ClassReport:
    """The crossing label read from matched branches, without aligning the
    pair difference: the per-point :func:`match_branches`, then the label
    rules on the matched ``a - b``.
    """
    a, b, _, _, _ = match_branches(pairs)
    d = a - b
    re = crossing._component_analysis(ts, d.real, gap_floor)
    im = crossing._component_analysis(ts, d.imag, gap_floor)
    if re["avoided"] and im["crossed"]:
        label = LZ
    elif re["crossed"] and (im["avoided"] or im["bifurcated"]):
        label = WB
    else:
        raise UnclassifiableScanError(
            "scan fits neither the LZ nor the WB pattern",
            diagnostics={"re": re, "im": im})
    edges = None
    if label == WB:
        imd = np.abs(d.imag)
        above = imd > edge_factor * max(float(np.median(imd)), gap_floor)
        if above.any():
            k = np.flatnonzero(above)
            edges = (float(ts[k[0]]), float(ts[k[-1]]))
    return ClassReport(label, re["min_gap"], im["min_gap"],
                       re["cross_points"], im["cross_points"], edges)


# ---- 2-D grids: sampling, row-major matching, cut edges, cell windings -------

def sample_grid(sampler, axis1, axis2):
    """Point-by-point sampling; returns (va, vb, missing). A point is
    missing where the sampler raises or returns a value that is not finite."""
    n1, n2 = axis1.size, axis2.size
    va = np.full((n1, n2), np.nan, dtype=complex)
    vb = np.full((n1, n2), np.nan, dtype=complex)
    missing = []
    for i in range(n1):
        for j in range(n2):
            try:
                va[i, j], vb[i, j] = sampler(float(axis1[i]), float(axis2[j]))
            except Exception:
                va[i, j] = vb[i, j] = np.nan
            if not (cmath.isfinite(va[i, j]) and cmath.isfinite(vb[i, j])):
                missing.append((i, j))
    return va, vb, missing


def match_grid(va, vb, ok):
    """Row-major continuation by the rule of :func:`match_branches`, from
    the left neighbour, else the one above; returns matched (a, b) fields."""
    n1, n2 = va.shape
    a = va.copy()
    b = vb.copy()
    for j in range(n2):
        for i in range(n1):
            if not ok[i, j]:
                continue
            if j > 0 and ok[i, j - 1]:
                ref = a[i, j - 1] - b[i, j - 1]
            elif i > 0 and ok[i - 1, j]:
                ref = a[i - 1, j] - b[i - 1, j]
            else:
                continue  # seed cell keeps sampler order
            d = va[i, j] - vb[i, j]
            keep, swap = abs(d - ref), abs(d + ref)
            if swap < keep:
                a[i, j], b[i, j] = vb[i, j], va[i, j]
    return a, b


def grid_edges(n1, n2):
    for i in range(n1):
        for j in range(n2):
            if i + 1 < n1:
                yield (i, j), (i + 1, j)
            if j + 1 < n2:
                yield (i, j), (i, j + 1)


def node_pairs(edges) -> list:
    """An ``(E, 2, 2)`` int64 cut-edge array as its list of
    ``((i, j), (i', j'))`` node pairs, in order; anything else raises."""
    assert isinstance(edges, np.ndarray), type(edges)
    assert edges.dtype == np.int64 and edges.shape[1:] == (2, 2), (
        edges.dtype, edges.shape)
    return [(tuple(u), tuple(v)) for u, v in edges.tolist()]


def connected_components(pairs):
    """The node sets of the groups of cut edges ``pairs``, grown one edge
    at a time: two edges join when they share a node or border the same
    grid plaquette."""
    def cells(u, v):
        (i1, j1), (i2, j2) = u, v
        i, j = min(i1, i2), min(j1, j2)
        return {(i, j - 1), (i, j)} if j1 == j2 else {(i - 1, j), (i, j)}

    def touch(e, f):
        return bool(set(e) & set(f) or cells(*e) & cells(*f))

    groups, todo = [], list(pairs)
    while todo:
        group = [todo.pop(0)]
        for e in group:  # grows while it is walked
            near = [f for f in todo if touch(e, f)]
            group += near
            todo = [f for f in todo if f not in near]
        groups.append(set().union(*group))
    return sorted(groups, key=lambda s: sorted(s)[0])


def matched_cut_edges(e, ok, theta):
    n1, n2 = e.shape
    jumps = {0: [], 1: []}  # orientation: 0 along axis1, 1 along axis2
    per_edge = []
    for u, v in grid_edges(n1, n2):
        if not (ok[u] and ok[v]):
            continue
        orient = 0 if u[0] != v[0] else 1
        jump = abs(e[u] - e[v])
        jumps[orient].append(jump)
        per_edge.append((u, v, orient, jump))
    med = {k: (float(np.median(js)) if js else 0.0) for k, js in jumps.items()}
    out = []
    for u, v, orient, jump in per_edge:
        if med[orient] > 0 and jump > theta * med[orient]:
            out.append((u, v))
    return out


def component_seam_edges(d, ok, contact_rel, crossing_rel):
    """The seam rule on a matched component difference ``d``, used before
    the seams were read from the discriminant: a contact, or a sign change
    of d below ``crossing_rel`` x max|d|."""
    scale = float(np.max(np.abs(d[ok]))) if ok.any() else 0.0
    if scale <= 0.0:
        return []
    tau = contact_rel * scale
    veto = crossing_rel * scale
    out = []
    for u, v in grid_edges(*d.shape):
        if not (ok[u] and ok[v]):
            continue
        lo = min(abs(d[u]), abs(d[v]))
        if lo <= tau:
            out.append((u, v))
        elif d[u] * d[v] < 0 and lo <= veto:
            out.append((u, v))
    return out


def seam_edges(diff, ok, contact):
    """The ``re`` and ``im`` seams of the pair difference ``diff``: per edge,
    a contact (an endpoint's |component| at most ``contact`` x its max) or
    a crossing of D = diff**2 over the negative (re) or positive (im) real
    axis, with the signs of D in exact rational arithmetic."""
    def signs(z):  # of (Re D, Im D); None where z is NaN
        if not cmath.isfinite(z):
            return None
        x, y = Fraction(z.real), Fraction(z.imag)
        return [(w > 0) - (w < 0) for w in (x * x - y * y, 2 * x * y)]

    seams = []
    for comp, side in ((diff.real, -1), (diff.imag, 1)):
        scale = float(np.max(np.abs(comp[ok]))) if ok.any() else 0.0
        out = []
        for u, v in grid_edges(*diff.shape):
            if scale <= 0.0 or not (ok[u] and ok[v]):
                continue
            su, sv = signs(diff[u]), signs(diff[v])
            if min(abs(comp[u]), abs(comp[v])) <= contact * scale:
                out.append((u, v))
            elif (su is not None and sv is not None and su[0] == sv[0] == side
                  and su[1] * sv[1] < 0):
                out.append((u, v))
        seams.append(out)
    return tuple(seams)


def cell_winding(diff):
    """The charge and the unresolved flag of each grid cell, one cell at a
    time with :mod:`cmath`: the turns of D = diff**2 over the four edge
    steps counter-clockwise, each the phase of the squared ratio."""
    n1, n2 = diff.shape
    charge = np.zeros((n1 - 1, n2 - 1), dtype=int)
    unresolved = np.zeros((n1 - 1, n2 - 1), dtype=bool)
    for i in range(n1 - 1):
        for j in range(n2 - 1):
            ring = [complex(diff[i, j]), complex(diff[i + 1, j]),
                    complex(diff[i + 1, j + 1]), complex(diff[i, j + 1])]
            if any(z == 0 or not cmath.isfinite(z) for z in ring):
                unresolved[i, j] = True
                continue
            steps = []
            for p, q in zip(ring, ring[1:] + ring[:1]):
                r = q / p
                steps.append(cmath.phase(r * r))
            unresolved[i, j] = not all(abs(s) <= math.pi / 2 for s in steps)
            turns = sum(steps) / (2 * math.pi)
            if math.isfinite(turns):
                charge[i, j] = round(turns)
    return charge, unresolved


# ---- closed loops: geometry and depth-first continuation ---------------------

def loop_point(loop, t: float) -> tuple[float, float]:
    """The point at t of a CircleLoop or PolylineLoop, by scalar formulas;
    a polyline is parameterized by arc length over [0, 1]."""
    if isinstance(loop, CircleLoop):
        ang = 2.0 * math.pi * t
        return (loop.center[0] + loop.radius * math.cos(ang),
                loop.center[1] + loop.radius * math.sin(ang))
    verts = loop.vertices
    segments = list(zip(verts, verts[1:] + verts[:1]))
    lengths = [math.hypot(q[0] - p[0], q[1] - p[1]) for p, q in segments]
    target = (t % 1.0) * sum(lengths)
    last = len(segments) - 1
    for idx, ((p, q), ell) in enumerate(zip(segments, lengths)):
        if target <= ell or idx == last:
            frac = min(target / ell, 1.0) if ell > 0 else 0.0
            return (p[0] + frac * (q[0] - p[0]), p[1] + frac * (q[1] - p[1]))
        target -= ell


END_MATCH_TOL = 1e-8
JUMP_FACTOR = 0.2


def check_finite(t: float, d: complex, m: complex) -> None:
    """Raise as the library does where the pair difference ``d`` or mean
    ``m`` at loop point t is not finite."""
    if not (cmath.isfinite(d) and cmath.isfinite(m)):
        raise RuntimeError(f"non-finite pair at loop point t={t}: "
                           f"a - b = {complex(d)!r}")


def encircle(sampler, loop, n_steps: int = 256, *,
             max_halvings: int = 40) -> str:
    """Loop continuation one point at a time, halving depth-first.

    Each step keeps or swaps the pair, whichever jumps less; steps where
    the jump exceeds ``JUMP_FACTOR`` times the current gap are halved, and
    hitting the step floor raises, as does a pair that is not finite.
    Returns the permutation, read from the matched pair at the end.
    """
    if n_steps < 64:
        raise ValueError("n_steps must be >= 64")
    cache: dict[float, tuple[complex, complex]] = {}

    def sample(t: float) -> tuple[complex, complex]:
        if t not in cache:
            x, y = loop_point(loop, t)
            try:
                la, lb = sampler(x, y)
            except Exception as exc:
                exc.add_note(f"the sampler failed at loop point t={t}")
                raise
            cache[t] = (complex(la), complex(lb))
        return cache[t]

    floor_dt = (1.0 / n_steps) * 0.5 ** max_halvings
    a0, b0 = sample(0.0)
    cur_a, cur_b = a0, b0
    t_cur = 0.0

    for target in np.linspace(0.0, 1.0, n_steps + 1)[1:]:
        stack = [float(target)]
        while stack:
            t_next = stack[-1]
            la, lb = sample(t_next)
            gap = abs(cur_a - cur_b)
            if gap == 0.0:
                raise RuntimeError(f"loop passes through an EP at t={t_cur}")
            for t, x, y in ((t_cur, cur_a, cur_b), (t_next, la, lb)):
                check_finite(t, x - y, 0.5 * (x + y))
            keep = abs(la - cur_a) + abs(lb - cur_b)
            swap = abs(lb - cur_a) + abs(la - cur_b)
            na, nb = (lb, la) if swap < keep else (la, lb)
            jump = max(abs(na - cur_a), abs(nb - cur_b))
            if jump <= JUMP_FACTOR * gap:
                cur_a, cur_b = na, nb
                t_cur = t_next
                stack.pop()
            else:
                if t_next - t_cur <= floor_dt:
                    raise RuntimeError(
                        "loop too close to EP: step floor reached at "
                        f"t={t_cur} without continuity"
                    )
                stack.append(0.5 * (t_cur + t_next))

    if abs(cur_a - a0) <= END_MATCH_TOL and abs(cur_b - b0) <= END_MATCH_TOL:
        return IDENTITY
    if abs(cur_a - b0) <= END_MATCH_TOL and abs(cur_b - a0) <= END_MATCH_TOL:
        return SWAP
    raise RuntimeError("loop continuation did not return to the starting pair")


# ---- open and closed paths: the follower of D, one step at a time -----------

def follow(sampler, path, ts):
    """The refined points, pair differences and phase steps of
    D = (a - b)**2 along ``path`` from ``ts[0]`` to ``ts[-1]``, halving
    depth-first one step at a time; raises, in the texts of ``encircle``,
    at the event the library's follower returns.

    A step is accepted when its phase step is at most ``MAX_STEP_PHASE``
    and the pair mean and half-gap each move by at most ``MAX_STEP_SHIFT``
    times the gap at its start; otherwise its midpoint is pushed, unless
    the step is at most 2**-MAX_HALVINGS of the mean step of ``ts`` or has
    no float between its ends. Each point is sampled, and each step
    tested, on one-element arrays, which numpy rounds as it does the
    library's longer ones. A point whose a - b or mean is not finite
    raises when its step is tested, after D = 0 at the step's start.
    """
    floor_dt = ((ts[-1] - ts[0]) / (len(ts) - 1)) * 0.5 ** surface.MAX_HALVINGS

    def sample(t):
        a, b, failed = sample_points(sampler, *path(np.array([t])))
        for exc in failed.values():
            exc.add_note(f"the sampler failed at loop point t={t}")
            raise exc
        with np.errstate(all="ignore"):
            return a - b, 0.5 * (a + b)

    cur = float(ts[0])
    d0, m0 = sample(cur)
    out_t, out_d, out_phase = [cur], [d0[0]], []
    for target in ts[1:]:
        stack = [float(target)]
        while stack:
            nxt = stack[-1]
            d1, m1 = sample(nxt)
            if d0[0] == 0:
                raise RuntimeError(f"loop passes through an EP at t={cur}")
            for t, d, m in ((cur, d0, m0), (nxt, d1, m1)):
                check_finite(t, d[0], m[0])
            with np.errstate(all="ignore"):
                phase = np.angle((d1 / d0) ** 2)
                shift = np.maximum(np.abs(m1 - m0),
                                   0.5 * np.abs(np.abs(d1) - np.abs(d0)))
            accept = ((np.abs(phase) <= MAX_STEP_PHASE)
                      & (shift <= MAX_STEP_SHIFT * np.abs(d0)))
            if accept[0]:
                cur, d0, m0 = nxt, d1, m1
                out_t.append(cur)
                out_d.append(d0[0])
                out_phase.append(phase[0])
                stack.pop()
                continue
            mid = 0.5 * (cur + nxt)
            if nxt - cur <= floor_dt or mid in (cur, nxt):
                raise RuntimeError("loop too close to EP: step floor reached "
                                   f"at t={cur} without continuity")
            stack.append(mid)
    return np.array(out_t), np.array(out_d), np.array(out_phase)
