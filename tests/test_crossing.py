import numpy as np
import pytest

from epkit import crossing
from epkit.crossing import (LZ, WB, UnclassifiableScanError, beta_transition,
                            classify, match_branches, overlap_curve,
                            overlap_peaks, sweep_toy)
from epkit.core import DiscreteField, shannon_entropy
from epkit.toymodel import ToyParams, preset

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
        assert traj.ambiguous == []

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
            traj = sweep_toy(DOUBLE_EP, np.linspace(0.3, 0.8, n),
                             with_vectors=False)
            jumps.append(np.abs(np.diff(traj.branch_a)).max())
        assert jumps[1] < jumps[0]

    def test_ambiguous_points_are_flagged(self):
        ts = np.array([0.0, 1.0, 2.0])
        pairs = np.array([[1 + 0j, -1 + 0j],
                          [1j, -1j],  # equidistant under either pairing
                          [1 + 0j, -1 + 0j]])
        traj = match_branches(ts, pairs)
        assert 1 in traj.ambiguous

    @pytest.mark.parametrize("bad", [complex("nan"), complex(0, float("inf")),
                                     complex(float("-inf"), 0)])
    def test_nonfinite_row_named(self, bad):
        pairs = np.tile([1.0 + 0j, 2j], (6, 1))
        pairs[4, 1] = bad
        pairs[5, 0] = bad
        with pytest.raises(ValueError, match="row 4 is not finite"):
            match_branches(np.arange(6.0), pairs)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            match_branches([0, 1], [[1, 2], [3, 4]])  # too short
        with pytest.raises(ValueError):
            match_branches([0, 1, 2], [[1, 2, 3]] * 3)


class TestClassify:
    def test_class1_is_lz(self):
        traj = sweep_toy(preset("class1"), np.linspace(0.2, 1.0, 801),
                         with_vectors=False)
        report = classify(traj)
        assert report.label == LZ
        assert report.re_cross_points == []
        assert len(report.im_cross_points) >= 1
        assert report.re_min_gap > 1e-9

    def test_double_ep_scan_is_wb_with_edges(self):
        traj = sweep_toy(DOUBLE_EP, np.linspace(0.3, 0.8, 2001),
                         with_vectors=False)
        report = classify(traj)
        assert report.label == WB
        assert report.bifurcation_edges is not None
        lo, hi = report.bifurcation_edges
        assert lo == pytest.approx(EP1_ALPHA, abs=0.01)
        assert hi == pytest.approx(EP2_ALPHA, abs=0.01)

    def test_real_coupling_scan_is_lz_at_the_level_crossing(self):
        p = ToyParams(g_c=0.043, beta=0.0, gamma1=1.05, gamma2=1.07)
        traj = sweep_toy(p, np.linspace(0.2, 1.0, 1601), with_vectors=False)
        report = classify(traj)
        assert report.label == LZ
        # the avoided crossing sits where the level real parts would cross
        gap = np.abs((traj.branch_a - traj.branch_b).real)
        alpha_cross = 0.5358983848622454
        assert abs(traj.ts[np.argmin(gap)] - alpha_cross) < 0.05

    def test_class2_is_wb(self):
        traj = sweep_toy(preset("class2"), np.linspace(0.2, 1.0, 801),
                         with_vectors=False)
        report = classify(traj)
        assert report.label == WB
        assert len(report.re_cross_points) >= 1
        assert report.im_min_gap > 1e-9

    @pytest.mark.parametrize("name,expected", [
        ("class1", LZ), ("class2", WB), ("class3a", WB), ("class3b", WB),
        ("class4", WB), ("class5", LZ),
    ])
    def test_reference_classes(self, name, expected):
        traj = sweep_toy(preset(name), np.linspace(0.2, 1.0, 801),
                         with_vectors=False)
        assert classify(traj).label == expected

    @pytest.mark.parametrize("name", ["class1", "class3a"])
    def test_stable_under_resolution_doubling(self, name):
        labels = set()
        for n in (401, 801, 1601):
            traj = sweep_toy(preset(name), np.linspace(0.2, 1.0, n),
                             with_vectors=False)
            labels.add(classify(traj).label)
        assert len(labels) == 1

    def test_unclassifiable_scan_raises_with_diagnostics(self):
        # fully decoupled identical levels: both components stay in contact
        ts = np.linspace(0, 1, 64)
        pairs = np.stack([np.ones(64) + 0j, np.ones(64) + 0j], axis=1)
        with pytest.raises(UnclassifiableScanError) as err:
            classify(match_branches(ts, pairs))
        assert "re" in err.value.diagnostics

    def test_wb_real_parts_coincide_between_edges(self):
        traj = sweep_toy(DOUBLE_EP, np.linspace(0.3, 0.8, 2001),
                         with_vectors=False)
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

    def test_invalid_window(self):
        p = ToyParams(g_c=0.043, beta=0.0, gamma1=1.05, gamma2=1.07)
        with pytest.raises(ValueError):
            beta_transition(p, (0.9, 0.7))

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_a_bad_tolerance_before_sweeping(self, tol, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before checking tol")

        monkeypatch.setattr(crossing, "sweep_toy", no_sweep)
        p = ToyParams(g_c=0.043, beta=0.0, gamma1=1.05, gamma2=1.07)
        with pytest.raises(ValueError, match=rf"^tol must be positive and "
                                             rf"finite, got {tol!r}$"):
            beta_transition(p, (0.7, 0.85), tol=tol)

    def test_tolerance_below_float_spacing_stops(self, monkeypatch):
        # the bracket shrinks to two adjacent floats and can split no further
        sweep, calls = crossing.sweep_toy, []

        def bounded_sweep(*args, **kwargs):
            calls.append(None)
            if len(calls) > 100:  # a 0.15 bracket halves to 1e-16 in ~50
                raise AssertionError("bisection did not stop")
            return sweep(*args, **kwargs)

        monkeypatch.setattr(crossing, "sweep_toy", bounded_sweep)
        p = ToyParams(g_c=0.043, beta=0.0, gamma1=1.05, gamma2=1.07)
        beta_c = beta_transition(p, (0.7, 0.85), tol=1e-300)
        assert abs(beta_c - beta_transition(p, (0.7, 0.85), tol=1e-12)) < 1e-12


class TestOverlapPeaks:
    def test_wb_scan_has_peaks_at_both_eps(self):
        traj = sweep_toy(DOUBLE_EP, np.linspace(0.3, 0.8, 2001))
        peaks = overlap_peaks(traj)
        assert len(peaks) == 2
        assert peaks[0] == pytest.approx(EP1_ALPHA, abs=0.01)
        assert peaks[1] == pytest.approx(EP2_ALPHA, abs=0.01)

    def test_lz_scan_has_single_central_peak(self):
        p = ToyParams(g_c=0.043, beta=0.0, gamma1=1.05, gamma2=1.07)
        traj = sweep_toy(p, np.linspace(0.2, 1.0, 1601))
        peaks = overlap_peaks(traj)
        assert len(peaks) == 1
        report = classify(traj)
        # the peak sits inside the avoided-crossing region, near where the
        # imaginary parts cross
        assert abs(peaks[0] - report.im_cross_points[0]) < 0.1

    def test_decoupled_scan_has_no_peaks(self):
        ts = np.linspace(0, 1, 101)
        pairs = np.stack([ts + 1j, 2.0 - ts + 2j], axis=1)
        vectors = np.tile(np.array([[[1, 0], [0, 1]]], dtype=complex),
                          (101, 1, 1))
        traj = match_branches(ts, pairs, vectors)
        assert overlap_peaks(traj) == []

    def test_requires_vectors(self):
        traj = sweep_toy(DOUBLE_EP, np.linspace(0.3, 0.8, 64),
                         with_vectors=False)
        with pytest.raises(ValueError, match="no eigenvectors"):
            overlap_peaks(traj)

    def test_entropy_maxima_track_overlap_peaks_wb(self):
        # between the EPs the intensities are exactly (1/2, 1/2), so the
        # entropy maximum is a plateau at log 2 whose edges sit at the
        # overlap peaks
        traj = sweep_toy(DOUBLE_EP, np.linspace(0.3, 0.8, 1001))
        h = np.array([shannon_entropy(DiscreteField(v))
                      for v in traj.vectors_a])
        step = traj.ts[1] - traj.ts[0]
        plateau = traj.ts[h >= h.max() - 1e-9]
        for op in overlap_peaks(traj):
            assert np.min(np.abs(plateau - op)) <= step + 1e-12

    def test_entropy_argmax_tracks_overlap_argmax_lz(self):
        p = ToyParams(g_c=0.043, beta=0.0, gamma1=1.05, gamma2=1.07)
        traj = sweep_toy(p, np.linspace(0.2, 1.0, 1601))
        o = overlap_curve(traj)
        h = np.array([shannon_entropy(DiscreteField(v))
                      for v in traj.vectors_a])
        step = traj.ts[1] - traj.ts[0]
        assert abs(traj.ts[np.argmax(o)] - traj.ts[np.argmax(h)]) <= step + 1e-12
