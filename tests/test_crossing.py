import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epkit import crossing
from epkit.crossing import (LZ, WB, ScanTrajectory, UnclassifiableScanError,
                            beta_transition, classify, entropy_curve,
                            match_branches, overlap_curve, overlap_peaks,
                            sweep_toy)
from epkit.core import eigvectors_grid
from epkit.toymodel import ToyParams, preset, scan_entries

DOUBLE_EP = ToyParams(g_c=0.05, beta=1.0, gamma1=1.05, gamma2=1.05)
EP1_ALPHA = 0.4541453828492342
EP2_ALPHA = 0.6214307910107969


class TestMatchBranches:
    def test_constant_branches_keep_identity(self):
        ts = np.linspace(0, 1, 11)
        pairs = np.tile([1.0 + 0j, 2j], (11, 1))
        traj = match_branches(ts, pairs)
        assert np.all(traj.branch_a == 1.0)
        assert np.all(traj.branch_b == 2j)

    def test_synthetic_square_root_pair(self):
        # lambda(t) = +/- sqrt(t + 0.01i): smooth two-branch field; the
        # matched branches must follow the closed-form continuation
        ts = np.linspace(-1, 1, 401)
        f = np.sqrt(ts + 0.01j)
        pairs = np.stack([f, -f], axis=1)
        # scramble the per-point order to exercise the matcher
        rng = np.random.default_rng(0)
        flip = rng.random(ts.size) < 0.5
        pairs[flip] = pairs[flip][:, ::-1]
        traj = match_branches(ts, pairs)
        assert np.allclose(traj.branch_a, f) or np.allclose(traj.branch_a, -f)
        step = np.abs(np.diff(traj.branch_a))
        assert step.max() < 10 * np.median(step)

    def test_toy_scan_through_both_eps_converges(self):
        jumps = []
        for n in (400, 800):
            traj = sweep_toy(DOUBLE_EP, np.linspace(0.3, 0.8, n))
            jumps.append(np.abs(np.diff(traj.branch_a)).max())
        assert jumps[1] < jumps[0]

    def test_tie_keeps_the_sampled_order(self):
        ts = np.array([0.0, 1.0, 2.0])
        pairs = np.array([[1 + 0j, -1 + 0j],
                          [1j, -1j],  # equidistant under either pairing
                          [1 + 0j, -1 + 0j]])
        for order in (pairs, pairs[:, ::-1]):
            traj = match_branches(ts, order)
            np.testing.assert_array_equal(traj.branch_a, order[:, 0])
            np.testing.assert_array_equal(traj.branch_b, order[:, 1])

    def test_near_tie_is_decided_by_the_costs(self):
        # at the middle step the pairings cost 1 +/- 2e-15: only an exact
        # tie keeps the sampled order, so the cheaper swap is taken
        pairs = np.array([[0, 1], [0.5 + 1e-15, 0.5 - 1e-15], [0.6, 0.4]],
                         dtype=complex)
        traj = match_branches([0.0, 1.0, 2.0], pairs)
        np.testing.assert_array_equal(traj.branch_a.real,
                                      [0.0, 0.499999999999999, 0.4])
        np.testing.assert_array_equal(traj.branch_b.real,
                                      [1.0, 0.500000000000001, 0.6])

    @pytest.mark.parametrize("bad", [complex("nan"), complex(0, float("inf")),
                                     complex(float("-inf"), 0)])
    def test_nonfinite_row_named(self, bad):
        pairs = np.tile([1.0 + 0j, 2j], (6, 1))
        pairs[4, 1] = bad
        pairs[5, 0] = bad
        with pytest.raises(ValueError,
                           match=r"scan point 4 \(t=4\.0\) is not finite"):
            match_branches(np.arange(6.0), pairs)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            match_branches([0, 1], [[1, 2], [3, 4]])  # too short
        with pytest.raises(ValueError):
            match_branches([0, 1, 2], [[1, 2, 3]] * 3)


class TestClassify:
    def test_class1_is_lz(self):
        traj = sweep_toy(preset("class1"), np.linspace(0.2, 1.0, 801))
        report = classify(traj)
        assert report.label == LZ
        assert report.re_cross_points == []
        assert len(report.im_cross_points) >= 1
        assert report.re_min_gap > 1e-9

    def test_double_ep_scan_is_wb_with_edges(self):
        traj = sweep_toy(DOUBLE_EP, np.linspace(0.3, 0.8, 2001))
        report = classify(traj)
        assert report.label == WB
        assert report.bifurcation_edges is not None
        lo, hi = report.bifurcation_edges
        assert lo == pytest.approx(EP1_ALPHA, abs=0.01)
        assert hi == pytest.approx(EP2_ALPHA, abs=0.01)

    def test_real_coupling_scan_is_lz_at_the_level_crossing(self):
        p = ToyParams(g_c=0.043, beta=0.0, gamma1=1.05, gamma2=1.07)
        traj = sweep_toy(p, np.linspace(0.2, 1.0, 1601))
        report = classify(traj)
        assert report.label == LZ
        # the avoided crossing sits where the level real parts would cross
        gap = np.abs((traj.branch_a - traj.branch_b).real)
        alpha_cross = 0.5358983848622454
        assert abs(traj.ts[np.argmin(gap)] - alpha_cross) < 0.05

    def test_class2_is_wb(self):
        traj = sweep_toy(preset("class2"), np.linspace(0.2, 1.0, 801))
        report = classify(traj)
        assert report.label == WB
        assert len(report.re_cross_points) >= 1
        assert report.im_min_gap > 1e-9

    @pytest.mark.parametrize("name,expected", [
        ("class1", LZ), ("class2", WB), ("class3a", WB), ("class3b", WB),
        ("class4", WB), ("class5", LZ),
    ])
    def test_reference_classes(self, name, expected):
        traj = sweep_toy(preset(name), np.linspace(0.2, 1.0, 801))
        assert classify(traj).label == expected

    @pytest.mark.parametrize("name", ["class1", "class3a"])
    def test_stable_under_resolution_doubling(self, name):
        labels = set()
        for n in (401, 801, 1601):
            traj = sweep_toy(preset(name), np.linspace(0.2, 1.0, n))
            labels.add(classify(traj).label)
        assert len(labels) == 1

    def test_unclassifiable_scan_raises_with_diagnostics(self):
        # fully decoupled identical levels: both components stay in contact
        ts = np.linspace(0, 1, 64)
        pairs = np.stack([np.ones(64) + 0j, np.ones(64) + 0j], axis=1)
        with pytest.raises(UnclassifiableScanError) as err:
            classify(match_branches(ts, pairs))
        assert "re" in err.value.diagnostics

    def test_exact_pi_turn_keeps_the_sampled_order(self):
        # |d1 + d0| == |d1 - d0|: D = d**2 goes from 2i to -2i, by pi either
        # way round, so the samples cannot tell whether it crossed the
        # negative real axis (Re d changes sign) or the positive one (Im d);
        # after a flip too, the tied point starts a new run as sampled
        ts = np.arange(3.0)
        for d, label in (([1 + 1j, -1 + 1j, -1 + 1j], WB),
                         ([1 + 1j, 1 - 1j, 1 - 1j], LZ),
                         ([1 + 1j, -1 - 1j, 1 - 1j], LZ)):
            d = np.array(d)
            assert classify(ScanTrajectory(ts, d / 2, -d / 2)).label == label

    @pytest.mark.parametrize("a2, b2, shown", [
        (np.nan, 0.0, "(nan+0j)"),
        (1e308, -1e308, "(inf+0j)"),  # finite members, overflowing difference
    ])
    def test_pair_difference_not_finite_names_the_point(self, a2, b2, shown):
        ts = np.linspace(0.0, 1.0, 5)
        a, b = np.ones(5, dtype=complex), np.zeros(5, dtype=complex)
        a[2], b[2] = a2, b2
        message = ("pair difference a - b at scan point 2 (t=0.5) is not "
                   f"finite: {shown}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                classify(ScanTrajectory(ts, a, b))

    def test_wb_real_parts_coincide_between_edges(self):
        traj = sweep_toy(DOUBLE_EP, np.linspace(0.3, 0.8, 2001))
        report = classify(traj)
        lo, hi = report.bifurcation_edges
        inside = (traj.ts > lo) & (traj.ts < hi)
        d = (traj.branch_a - traj.branch_b).real
        assert np.max(np.abs(d[inside])) < 1e-9


class TestBetaTransition:
    def test_transition_window(self):
        p = ToyParams(g_c=0.043, beta=0.0, gamma1=1.05, gamma2=1.07)
        beta_c = beta_transition(p, (0.7, 0.85))
        assert 0.76 <= beta_c <= 0.78

    def test_no_transition_in_low_window(self):
        p = ToyParams(g_c=0.043, beta=0.0, gamma1=1.05, gamma2=1.07)
        with pytest.raises(ValueError, match="no transition in window"):
            beta_transition(p, (0.0, 0.1))

    def test_resolution_invariance(self):
        p = ToyParams(g_c=0.043, beta=0.0, gamma1=1.05, gamma2=1.07)
        coarse = beta_transition(p, (0.7, 0.85), n_alpha=801, tol=1e-4)
        fine = beta_transition(p, (0.7, 0.85), n_alpha=1601, tol=1e-4)
        assert abs(coarse - fine) < 1e-3

    @pytest.mark.parametrize("window", [(0.9, 0.7), (0.7, 1.5), (-0.1, 0.5)])
    def test_invalid_window(self, window):
        p = ToyParams(g_c=0.043, beta=0.0, gamma1=1.05, gamma2=1.07)
        message = f"beta window must satisfy 0 <= lo < hi <= 1, got {window}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            beta_transition(p, window)

    @staticmethod
    def fail_call(monkeypatch, n):
        """Make the n-th classify call raise, as a scan on the transition."""
        real, calls = crossing.classify, []

        def classify_or_fail(traj):
            calls.append(None)
            if len(calls) == n:
                raise UnclassifiableScanError("scan fits neither pattern")
            return real(traj)

        monkeypatch.setattr(crossing, "classify", classify_or_fail)

    def test_unclassifiable_window_end_names_its_beta(self, monkeypatch):
        self.fail_call(monkeypatch, 2)  # the upper end
        p = ToyParams(g_c=0.043, beta=0.0, gamma1=1.05, gamma2=1.07)
        with pytest.raises(UnclassifiableScanError) as info:
            beta_transition(p, (0.7, 0.85))
        assert info.value.__notes__ == ["at the beta window end beta=0.85"]

    def test_unclassifiable_midpoint_is_the_transition(self, monkeypatch):
        self.fail_call(monkeypatch, 3)  # the first midpoint
        p = ToyParams(g_c=0.043, beta=0.0, gamma1=1.05, gamma2=1.07)
        assert beta_transition(p, (0.7, 0.85)) == 0.5 * (0.7 + 0.85)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_a_bad_tolerance_before_sweeping(self, tol, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before checking tol")

        monkeypatch.setattr(crossing, "eigvalues_grid", no_sweep)
        p = ToyParams(g_c=0.043, beta=0.0, gamma1=1.05, gamma2=1.07)
        with pytest.raises(ValueError, match=rf"^tol must be positive and "
                                             rf"finite, got {tol!r}$"):
            beta_transition(p, (0.7, 0.85), tol=tol)

    @pytest.mark.parametrize("alpha_range", [(0.2, float("inf")), (1.0, 0.2),
                                             (-0.1, 1.0), (float("nan"), 1.0)])
    def test_rejects_a_bad_alpha_range_before_sweeping(self, alpha_range,
                                                       monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before checking alpha_range")

        monkeypatch.setattr(crossing, "eigvalues_grid", no_sweep)
        p = ToyParams(g_c=0.043, beta=0.0, gamma1=1.05, gamma2=1.07)
        message = ("alpha_range must satisfy 0 <= lo < hi < inf, "
                   f"got {alpha_range}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # checked before np.linspace warns
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                beta_transition(p, (0.7, 0.85), alpha_range=alpha_range)

    def test_tolerance_below_float_spacing_stops(self, monkeypatch):
        # the bracket shrinks to two adjacent floats and can split no further
        sweep, calls = crossing.eigvalues_grid, []

        def bounded_sweep(*args, **kwargs):
            calls.append(None)
            if len(calls) > 100:  # a 0.15 bracket halves to 1e-16 in ~50
                raise AssertionError("bisection did not stop")
            return sweep(*args, **kwargs)

        monkeypatch.setattr(crossing, "eigvalues_grid", bounded_sweep)
        p = ToyParams(g_c=0.043, beta=0.0, gamma1=1.05, gamma2=1.07)
        beta_c = beta_transition(p, (0.7, 0.85), tol=1e-300)
        assert abs(beta_c - beta_transition(p, (0.7, 0.85), tol=1e-12)) < 1e-12


def eigvectors(p, alphas):
    """The unmatched pair (v_plus, v_minus) of (N, 2) rows along a scan."""
    return eigvectors_grid(*scan_entries(alphas, p))


class TestOverlapPeaks:
    def test_wb_scan_has_peaks_at_both_eps(self):
        alphas = np.linspace(0.3, 0.8, 2001)
        peaks = overlap_peaks(alphas, *eigvectors(DOUBLE_EP, alphas))
        assert len(peaks) == 2
        assert peaks[0] == pytest.approx(EP1_ALPHA, abs=0.01)
        assert peaks[1] == pytest.approx(EP2_ALPHA, abs=0.01)

    def test_lz_scan_has_single_central_peak(self):
        p = ToyParams(g_c=0.043, beta=0.0, gamma1=1.05, gamma2=1.07)
        alphas = np.linspace(0.2, 1.0, 1601)
        peaks = overlap_peaks(alphas, *eigvectors(p, alphas))
        assert len(peaks) == 1
        report = classify(sweep_toy(p, alphas))
        # the peak sits inside the avoided-crossing region, near where the
        # imaginary parts cross
        assert abs(peaks[0] - report.im_cross_points[0]) < 0.1

    def test_decoupled_scan_has_no_peaks(self):
        ts = np.linspace(0, 1, 101)
        va = np.tile(np.array([1, 0], dtype=complex), (101, 1))
        assert overlap_peaks(ts, va, va[:, ::-1]) == []

    def test_entropy_maxima_track_overlap_peaks_wb(self):
        # between the EPs the intensities are exactly (1/2, 1/2), so the
        # entropy maximum is a plateau at log 2 whose edges sit at the
        # overlap peaks
        alphas = np.linspace(0.3, 0.8, 1001)
        vp, vm = eigvectors(DOUBLE_EP, alphas)
        h = entropy_curve(vp)
        step = alphas[1] - alphas[0]
        plateau = alphas[h >= h.max() - 1e-9]
        for op in overlap_peaks(alphas, vp, vm):
            assert np.min(np.abs(plateau - op)) <= step + 1e-12

    def test_entropy_argmax_tracks_overlap_argmax_lz(self):
        p = ToyParams(g_c=0.043, beta=0.0, gamma1=1.05, gamma2=1.07)
        alphas = np.linspace(0.2, 1.0, 1601)
        vp, vm = eigvectors(p, alphas)
        o = overlap_curve(vp, vm)
        h = entropy_curve(vp)
        step = alphas[1] - alphas[0]
        assert abs(alphas[np.argmax(o)] - alphas[np.argmax(h)]) <= step + 1e-12


class TestOverlapCurve:
    def test_orthogonal(self):
        assert overlap_curve([[1, 0]], [[0, 1]]).tolist() == [0.0]

    def test_self_overlap(self):
        v = [[0.6, 0.8j]]
        assert overlap_curve(v, v)[0] == pytest.approx(1.0, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(3)
        va, vb = (rng.standard_normal((100, 2)) + 1j * rng.standard_normal((100, 2))
                  for _ in range(2))
        o = overlap_curve(va, vb)
        assert np.all((0.0 <= o) & (o <= 1.0 + 1e-12))

    def test_zero_row_is_nan(self):
        with np.errstate(invalid="ignore"):
            assert np.isnan(overlap_curve([[0, 0]], [[1, 0]])[0])

    def test_symmetric(self):
        va, vb = [[1 + 2j, 0.5]], [[0.2, 1 - 1j]]
        assert overlap_curve(va, vb)[0] == pytest.approx(
            overlap_curve(vb, va)[0], abs=1e-14)

    @given(st.floats(min_value=-math.pi, max_value=math.pi))
    @settings(max_examples=50, deadline=None)
    def test_phase_invariance(self, phase):
        va, vb = np.array([[1 + 2j, -0.3j]]), [[0.2, 1 - 1j]]
        rotated = va * cmath.exp(1j * phase)
        assert overlap_curve(rotated, vb)[0] == pytest.approx(
            overlap_curve(va, vb)[0], abs=1e-12)


class TestEntropyCurve:
    def test_uniform_is_log_2(self):
        assert entropy_curve([[1, 1]])[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_delta_is_zero(self):
        assert entropy_curve([[0, 3j], [-2, 0]]).tolist() == [0.0, 0.0]

    def test_frozen_two_level_value(self):
        h = entropy_curve([[math.sqrt(0.75), math.sqrt(0.25)]])[0]
        assert h == pytest.approx(0.5623351446188084, abs=1e-12)

    def test_zero_row_is_nan(self):
        assert np.isnan(entropy_curve([[0, 0]])[0])

    @given(st.floats(min_value=0.01, max_value=100),
           st.floats(min_value=-math.pi, max_value=math.pi))
    @settings(max_examples=50, deadline=None)
    def test_scale_and_phase_invariance(self, scale, phase):
        v = np.array([[1 + 1j, 0.3], [2j, -0.7]])
        h = entropy_curve(v * scale * cmath.exp(1j * phase))
        np.testing.assert_allclose(h, entropy_curve(v), rtol=0, atol=1e-10)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        h = entropy_curve(rng.standard_normal((50, 2))
                          + 1j * rng.standard_normal((50, 2)))
        assert np.all((-1e-12 <= h) & (h <= math.log(2) + 1e-12))
