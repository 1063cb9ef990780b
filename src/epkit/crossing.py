"""1-D scan analysis: branch matching, crossing classification, transitions.

A scan produces an unordered eigenvalue pair per point; greedy continuity
matching turns it into two branches. Classification then inspects the
matched real and imaginary differences:

  LZ  - real parts avoid while imaginary parts cross (real-dominated
        coupling);
  WB  - real parts cross (transversally, or by sticking together over a
        finite interval) while imaginary parts stay separated or bifurcate
        around the contact region (imaginary-dominated coupling).

Sticking renders as a run of gaps at rounding level, so contact is judged
against ``gap_floor`` rather than exact zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import abs_diff, eigvalues_grid, eigvectors_grid
from .toymodel import ToyParams, scan_entries

LZ = "LZ"
WB = "WB"

AMBIGUITY_TOL = 1e-14


class UnclassifiableScanError(RuntimeError):
    """Raised when neither the LZ nor the WB pattern fits a scan."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class ScanTrajectory:
    """Continuity-matched eigenvalue branches over a strictly increasing scan."""

    ts: np.ndarray
    branch_a: np.ndarray
    branch_b: np.ndarray
    vectors_a: Optional[np.ndarray] = None  # (N, 2) unit eigenvectors, if tracked
    vectors_b: Optional[np.ndarray] = None
    ambiguous: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.branch_a = np.asarray(self.branch_a, dtype=complex)
        self.branch_b = np.asarray(self.branch_b, dtype=complex)
        n = self.ts.size
        if n < 3:
            raise ValueError("a scan needs at least 3 points")
        if self.branch_a.size != n or self.branch_b.size != n:
            raise ValueError("branches must match the scan length")
        if not np.all(np.diff(self.ts) > 0):
            raise ValueError("scan values must be strictly increasing")


@dataclass
class ClassReport:
    label: str
    re_min_gap: float
    im_min_gap: float
    re_cross_points: list[float]
    im_cross_points: list[float]
    bifurcation_edges: Optional[tuple[float, float]] = None


def pairing(ref_a, ref_b, a, b, tol: float):
    """Greedy keep/swap rule of pairs (a, b) against reference pairs: where
    swapping costs less, where the costs tie within ``tol``, and where the
    rule keeps the order instead (ties, and costs that are NaN)."""
    straight = abs_diff(a, ref_a) + abs_diff(b, ref_b)
    cross = abs_diff(b, ref_a) + abs_diff(a, ref_b)
    gap = np.abs(straight - cross)
    return cross < straight, gap <= tol, ~(gap > tol)


def parity_runs(flip, restart):
    """The greedy keep/swap rule as a segmented cumulative parity.

    Keeping the order of point k-1 costs `straight` if k-1 is stored as
    sampled and `cross` if swapped, so the greedy choice is swapped_k =
    swapped_(k-1) XOR flip_k with flip_k = (cross < straight), except where
    ``restart`` is set (position 0 must be). Along the last axis, returns
    the run start at or before each position and the parity of the flips
    after it: swapped_k = swapped_(start_k) XOR odd_k.
    """
    start = np.maximum.accumulate(
        np.where(restart, np.arange(restart.shape[-1]), 0), axis=-1)
    flips = np.cumsum(flip, axis=-1)
    return start, (flips - np.take_along_axis(flips, start, axis=-1)) % 2 == 1


def match_branches(ts, pairs, vectors=None) -> ScanTrajectory:
    """Greedy continuity matching of per-point unordered eigenvalue pairs.

    At each step the pairing minimizing the summed jump is chosen; when
    both pairings agree within ``AMBIGUITY_TOL`` the previous ordering is
    kept and the point index is flagged. ``vectors`` (N, 2, 2), ordered
    like ``pairs``, are permuted alongside when given. Raises
    ``ValueError`` on a pair that is not finite.
    """
    ts = np.asarray(ts, dtype=float)
    pairs = np.asarray(pairs, dtype=complex)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must have shape (N, 2)")
    finite = np.isfinite(pairs).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"pairs row {k} is not finite: {pairs[k].tolist()}")
    if vectors is not None:
        vectors = np.asarray(vectors, dtype=complex)
        if vectors.shape != (pairs.shape[0], 2, 2):
            raise ValueError("vectors must have shape (N, 2, 2)")

    flip, tie, restart = pairing(pairs[:-1, 0], pairs[:-1, 1], pairs[1:, 0],
                                 pairs[1:, 1], AMBIGUITY_TOL)
    _, swapped = parity_runs(np.concatenate(([False], flip)),
                             np.concatenate(([True], restart)))
    a = np.where(swapped, pairs[:, 1], pairs[:, 0])
    b = np.where(swapped, pairs[:, 0], pairs[:, 1])
    va = vb = None
    if vectors is not None:
        va = np.where(swapped[:, None], vectors[:, 1], vectors[:, 0])
        vb = np.where(swapped[:, None], vectors[:, 0], vectors[:, 1])
    ambiguous = (np.flatnonzero(tie) + 1).tolist()
    return ScanTrajectory(ts, a, b, va, vb, ambiguous)


def sweep_toy(p: ToyParams, alphas, with_vectors: bool = True) -> ScanTrajectory:
    """Scan the toy model over alpha and return matched branches."""
    alphas = np.asarray(alphas, dtype=float)
    entries = scan_entries(alphas, p)
    pairs = np.stack(eigvalues_grid(*entries), axis=1)
    vectors = np.stack(eigvectors_grid(*entries), axis=1) if with_vectors else None
    return match_branches(alphas, pairs, vectors)


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


def classify(traj: ScanTrajectory, gap_floor: float = 1e-9,
             edge_factor: float = 5.0) -> ClassReport:
    """Label a matched scan as Landau-Zener (LZ) or width bifurcation (WB).

    Raises :class:`UnclassifiableScanError` when both components cross or
    both avoid (which happens exactly at the transition point).

    ``bifurcation_edges`` brackets the region where the imaginary gap
    exceeds ``edge_factor`` times its baseline (the scan median, floored
    at ``gap_floor``); reported for WB scans only, and only when the
    region is resolved.
    """
    d = traj.branch_a - traj.branch_b
    re = _component_analysis(traj.ts, d.real, gap_floor)
    im = _component_analysis(traj.ts, d.imag, gap_floor)

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
        baseline = max(float(np.median(imd)), gap_floor)
        above = imd > edge_factor * baseline
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
                    n_alpha: int = 801, tol: float = 1e-3,
                    gap_floor: float = 1e-9) -> float:
    """Bisect the LZ-to-WB transition coefficient beta_c in a window.

    ``p.beta`` is ignored; the scan setup (alpha range and resolution) is
    held fixed while beta is bisected on the classification label, until
    the bracket is at most ``tol`` wide or cannot be split further. Raises
    ``ValueError`` when both window ends carry the same label, and before
    any sweep when ``tol`` is not positive and finite.
    """
    lo, hi = float(beta_window[0]), float(beta_window[1])
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError("beta window must satisfy 0 <= lo < hi <= 1")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    alphas = np.linspace(alpha_range[0], alpha_range[1], n_alpha)

    def label_at(beta: float) -> str:
        traj = sweep_toy(p.with_beta(beta), alphas, with_vectors=False)
        return classify(traj, gap_floor=gap_floor).label

    lab_lo, lab_hi = label_at(lo), label_at(hi)
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


def overlap_curve(traj: ScanTrajectory) -> np.ndarray:
    """Eigenstate overlap |<v_a, v_b>| / (|v_a| |v_b|) along the scan."""
    if traj.vectors_a is None or traj.vectors_b is None:
        raise ValueError("trajectory carries no eigenvectors")
    va, vb = traj.vectors_a, traj.vectors_b
    na = np.sqrt(np.sum(np.abs(va) ** 2, axis=1))
    nb = np.sqrt(np.sum(np.abs(vb) ** 2, axis=1))
    return np.abs(np.sum(np.conj(va) * vb, axis=1)) / (na * nb)


def overlap_peaks(traj: ScanTrajectory, floor: float = 1e-6) -> list[float]:
    """Scan positions of local maxima of the eigenstate overlap.

    Maxima at or below ``floor`` are ignored, so fully decoupled scans
    report no peaks.
    """
    o = overlap_curve(traj)
    mid = o[1:-1]
    peak = (mid > o[:-2]) & (mid > o[2:]) & (mid > floor)
    return traj.ts[1:-1][peak].tolist()
