"""1-D scan analysis: branch matching, crossing classification, transitions.

A scan produces an unordered eigenvalue pair per point, whose members the
one keep/swap rule (:func:`pairing`) tells apart by ``d = a - b`` alone:
each point takes the sign of ``d`` nearer the previous point's, so a mean
added to both members changes no choice. Classification aligns ``d`` by
it and inspects the real and imaginary parts, so no pair order matters:

  LZ  - real parts avoid while imaginary parts cross (real-dominated
        coupling);
  WB  - real parts cross (transversally, or by sticking together over a
        finite interval) while imaginary parts stay separated or bifurcate
        around the contact region (imaginary-dominated coupling).

Greedy continuity matching by the same rule turns the pairs into two
branches for export: a scan is one row of the grid matcher
:func:`match_grid`, and only an exact tie keeps the sampled order.
Sticking renders as a run of gaps at rounding level, so contact is judged
against ``GAP_FLOOR`` rather than exact zeros. The eigenstate overlap reads
the eigenvector pair in either order too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import _eigvectors, _mean_eta, abs_diff, eigvalues_grid
from .toymodel import ToyParams, scan_entries

LZ = "LZ"
WB = "WB"

MIN_SCAN_POINTS = 3  # the fewest points a ScanTrajectory holds
GAP_FLOOR = 1e-9  # a component gap at or below this is contact
EDGE_FACTOR = 5.0  # WB edges: imaginary gap above this times its baseline
OVERLAP_FLOOR = 1e-6  # overlap maxima at or below this are no peaks


class UnclassifiableScanError(RuntimeError):
    """Raised when neither the LZ nor the WB pattern fits a scan."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class ScanTrajectory:
    """Two eigenvalue series, in any pair order, over an increasing scan."""

    ts: np.ndarray
    branch_a: np.ndarray
    branch_b: np.ndarray

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.branch_a = np.asarray(self.branch_a, dtype=complex)
        self.branch_b = np.asarray(self.branch_b, dtype=complex)
        n = self.ts.size
        if n < MIN_SCAN_POINTS:
            raise ValueError(f"a scan needs at least {MIN_SCAN_POINTS} points")
        if self.branch_a.size != n or self.branch_b.size != n:
            raise ValueError("branches must match the scan length")
        if not np.all(self.ts[1:] > self.ts[:-1]):
            raise ValueError("scan values must be strictly increasing")


@dataclass
class ClassReport:
    label: str
    re_min_gap: float
    im_min_gap: float
    re_cross_points: list[float]
    im_cross_points: list[float]
    bifurcation_edges: Optional[tuple[float, float]] = None


def pairing(ref, d):
    """Greedy keep/swap rule of pair differences ``d = a - b`` against
    reference differences: where swapping the pair, which negates ``d``,
    brings it nearer ``ref``, and where the rule keeps the order because
    neither is nearer (the distances are equal, or one is NaN). A shift of
    both members by the same amount changes neither."""
    keep, swap = abs_diff(d, ref), abs_diff(d, -ref)
    flip = swap < keep
    return flip, ~(flip | (keep < swap))


def match_grid(d, ok):
    """Row-major continuation of unordered pairs from their differences
    ``d = a - b``; returns where each cell's pair is swapped.

    An ok cell continues from its left neighbour if that is ok, else from
    the one above, else it is a seed; a seed, and a cell whose pairings
    tie, keeps the sampled order and starts a run. Along a run, a cell is
    swapped by the parity of the flips of :func:`pairing` since the run
    start, xor the swap of the run start: 0 unless it continues from the
    cell above, else its flip from above xor that cell's final swap, which
    is that cell's parity xor the swap of its own run start. So run starts
    chain up the grid to a seed or a tie, and pointer doubling (Hillis &
    Steele, CACM 29, 1170 (1986)) resolves the chains in ceil(log2 n1) rounds.
    """
    left = np.zeros_like(ok)
    left[:, 1:] = ok[:, 1:] & ok[:, :-1]
    flip = np.zeros_like(ok)
    restart = ~left
    flip[:, 1:], tie = pairing(d[:, :-1], d[:, 1:])
    restart[:, 1:] |= tie
    runs = np.flatnonzero(restart)  # flat; each row starts with a run
    lengths = np.diff(runs, append=ok.size)
    start = np.repeat(runs, lengths).reshape(ok.shape)
    parity = np.logical_xor.accumulate(flip, axis=1)
    swapped = parity ^ parity.take(start)

    i, j = np.nonzero(ok[1:] & ok[:-1] & ~left[1:])  # run starts in row i + 1
    if i.size:
        up_flip, tie = pairing(d[i, j], d[i + 1, j])
        up = (i * ok.shape[1] + j)[~tie]  # a tie keeps the sampled order
        # run k continues from run ptr[k], with the swap val[k] relative to it
        ptr, val = np.arange(runs.size), np.zeros(runs.size, dtype=bool)
        k = np.searchsorted(runs, up + ok.shape[1])
        ptr[k] = np.searchsorted(runs, start.flat[up])
        val[k] = up_flip[~tie] ^ swapped.flat[up]
        while not np.array_equal(nxt := ptr[ptr], ptr):
            val ^= val[ptr]
            ptr = nxt
        swapped ^= np.repeat(val, lengths).reshape(ok.shape)
    return swapped


def _scan_swaps(traj: ScanTrajectory):
    """``d = branch_a - branch_b`` and where row 0 of :func:`match_grid`
    swaps it. Raises ``ValueError`` naming the first scan point where
    ``d`` is not finite: a member is not, or their difference overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = traj.branch_a - traj.branch_b
    finite = np.isfinite(d)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"pair difference a - b at scan point {k} "
                         f"(t={float(traj.ts[k])!r}) is not finite: "
                         f"{complex(d[k])!r}")
    return d, match_grid(d[None], finite[None])[0]


def match_branches(ts, pairs) -> ScanTrajectory:
    """Greedy continuity matching of per-point unordered eigenvalue pairs.

    One row of :func:`match_grid`: each pair takes the order whose ``a - b``
    lies nearer the previous point's; only where both lie exactly as near
    does the point keep its sampled order and start a new run. Raises
    ``ValueError`` naming the first point whose ``a - b`` is not finite.
    """
    ts = np.asarray(ts, dtype=float)
    pairs = np.asarray(pairs, dtype=complex)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must have shape (N, 2)")
    a, b = pairs.T
    _, swapped = _scan_swaps(ScanTrajectory(ts, a, b))
    return ScanTrajectory(ts, np.where(swapped, b, a), np.where(swapped, a, b))


def _toy_sweep(p: ToyParams, alphas):
    """:func:`sweep_toy`, and the :func:`overlap_peaks` of the eigenvector
    pairs from the same entries, mean and eta."""
    alphas = np.asarray(alphas, dtype=float)
    with np.errstate(all="ignore"):  # match_branches names a non-finite point
        entries = scan_entries(alphas, p)
        mean, eta = _mean_eta(*entries)
        pairs = np.stack((mean + eta, mean - eta), axis=1)
        vectors = _eigvectors(*entries, mean, eta)
    return match_branches(alphas, pairs), overlap_peaks(alphas, *vectors)


def sweep_toy(p: ToyParams, alphas) -> ScanTrajectory:
    """Scan the toy model over alpha: matched branches."""
    return _toy_sweep(p, alphas)[0]


def _component_analysis(ts: np.ndarray, d: np.ndarray, gap_floor: float) -> dict:
    absd = np.abs(d)
    contact_mask = absd <= gap_floor

    # transversal sign changes between adjacent separated points
    k = np.flatnonzero(~contact_mask[:-1] & ~contact_mask[1:] & (d[:-1] * d[1:] < 0))
    t0, t1 = ts[k], ts[k + 1]
    cross_points = (t0 - d[k] * (t1 - t0) / (d[k + 1] - d[k])).tolist()
    sign_change = k.size > 0
    # interior contact runs count as crossings (sticking or tangency at EPs)
    edges = np.diff(contact_mask.astype(np.int8), prepend=0, append=0)
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1
    interior = (starts > 0) & (stops < d.size - 1)
    starts, stops = starts[interior], stops[interior]
    cross_points += ts[starts].tolist() + ts[stops[stops != starts]].tolist()

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


def classify(traj: ScanTrajectory) -> ClassReport:
    """Label a scan as Landau-Zener (LZ) or width bifurcation (WB).

    ``d = branch_a - branch_b`` is aligned as row 0 of :func:`match_grid`,
    so no pair order changes the label; only a step with
    ``|d[k+1] + d[k]| == |d[k+1] - d[k]|`` keeps the sampled order.

    Raises ``ValueError`` naming the first scan point where ``d`` is not
    finite, and :class:`UnclassifiableScanError` when both components
    cross or both avoid (which happens exactly at the transition point).

    ``bifurcation_edges`` brackets the region where the imaginary gap
    exceeds ``EDGE_FACTOR`` times its baseline (the scan median, floored
    at ``GAP_FLOOR``); reported for WB scans only, and only when the
    region is resolved.
    """
    d, swapped = _scan_swaps(traj)
    d = np.where(swapped, -d, d)
    re = _component_analysis(traj.ts, d.real, GAP_FLOOR)
    im = _component_analysis(traj.ts, d.imag, GAP_FLOOR)

    if re["avoided"] and im["crossed"]:
        label = LZ
    elif re["crossed"] and (im["avoided"] or im["bifurcated"]):
        label = WB
    else:
        raise UnclassifiableScanError(
            "scan fits neither the LZ nor the WB pattern",
            diagnostics={"re": re, "im": im},
        )

    edges = None
    if label == WB:
        imd = np.abs(d.imag)
        baseline = max(float(np.median(imd)), GAP_FLOOR)
        above = imd > EDGE_FACTOR * baseline
        if above.any():
            first = int(np.argmax(above))
            last = int(above.size - 1 - np.argmax(above[::-1]))
            edges = (float(traj.ts[first]), float(traj.ts[last]))

    return ClassReport(
        label=label,
        re_min_gap=re["min_gap"],
        im_min_gap=im["min_gap"],
        re_cross_points=re["cross_points"],
        im_cross_points=im["cross_points"],
        bifurcation_edges=edges,
    )


def beta_transition(p: ToyParams, beta_window: tuple[float, float], *,
                    alpha_range: tuple[float, float] = (0.2, 1.0),
                    n_alpha: int = 801, tol: float = 1e-3) -> float:
    """Bisect the LZ-to-WB transition coefficient beta_c in a window.

    ``p.beta`` is ignored; the scan setup (alpha range and resolution) is
    held fixed while beta is bisected on the classification label, until
    the bracket is at most ``tol`` wide or cannot be split further. Raises
    ``ValueError`` when both window ends carry the same label, and before
    any sweep when ``tol`` is not positive and finite or ``alpha_range``
    does not satisfy 0 <= lo < hi < inf. A window end that fits neither
    label raises :class:`UnclassifiableScanError`, with a note that names
    its beta.
    """
    lo, hi = float(beta_window[0]), float(beta_window[1])
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError("beta window must satisfy 0 <= lo < hi <= 1, "
                         f"got {(lo, hi)!r}")
    a0, a1 = float(alpha_range[0]), float(alpha_range[1])
    if not 0.0 <= a0 < a1 < math.inf:
        raise ValueError("alpha_range must satisfy 0 <= lo < hi < inf, "
                         f"got {(a0, a1)!r}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    alphas = np.linspace(a0, a1, n_alpha)

    def label_at(beta: float) -> str:
        with np.errstate(all="ignore"):  # classify names a non-finite point
            pair = eigvalues_grid(*scan_entries(alphas, p, beta=beta))
        return classify(ScanTrajectory(alphas, *pair)).label

    def end_label(beta: float) -> str:
        try:
            return label_at(beta)
        except UnclassifiableScanError as exc:
            exc.add_note(f"at the beta window end beta={beta!r}")
            raise

    lab_lo, lab_hi = end_label(lo), end_label(hi)
    if lab_lo == lab_hi:
        raise ValueError(
            f"no transition in window: label {lab_lo} at both ends ({lo}, {hi})"
        )
    if lab_lo == WB:  # orient so LZ sits below
        lo, hi = hi, lo

    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats: no point left between them
            break
        try:
            lab = label_at(mid)
        except UnclassifiableScanError:
            # the midpoint sits exactly on the transition
            return mid
        if lab == LZ:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def overlap_curve(va, vb) -> np.ndarray:
    """Eigenstate overlap |<v_a, v_b>| / (|v_a| |v_b|) of (N, 2) vector rows.

    Swapping the pair at any point changes no bit of the result.
    """
    va, vb = np.asarray(va, dtype=complex), np.asarray(vb, dtype=complex)
    # <v_a, v_b> from real products, whose imaginary part only changes sign
    re = np.sum(va.real * vb.real + va.imag * vb.imag, axis=1)
    im = np.sum(va.real * vb.imag - va.imag * vb.real, axis=1)
    na = np.sqrt(np.sum(np.abs(va) ** 2, axis=1))
    nb = np.sqrt(np.sum(np.abs(vb) ** 2, axis=1))
    return np.hypot(re, im) / (na * nb)


def entropy_curve(v) -> np.ndarray:
    """Shannon entropy (natural log) of the normalized intensities |v_k|^2
    of (N, 2) vector rows; a zero row gives NaN."""
    p = np.abs(np.asarray(v, dtype=complex)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        p = p / np.sum(p, axis=1, keepdims=True)
        return -np.sum(np.where(p == 0.0, 0.0, p * np.log(p)), axis=1)


def overlap_peaks(ts, va, vb) -> list[float]:
    """Scan positions of local maxima of the eigenstate overlap.

    ``va`` and ``vb`` are (N, 2) vector rows, the pair in either order at
    each point. Maxima at or below ``OVERLAP_FLOOR`` are ignored, so fully
    decoupled scans report no peaks.
    """
    o = overlap_curve(va, vb)
    mid = o[1:-1]
    peak = (mid > o[:-2]) & (mid > o[2:]) & (mid > OVERLAP_FLOOR)
    return np.asarray(ts, dtype=float)[1:-1][peak].tolist()
