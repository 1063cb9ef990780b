"""The array scan path against the per-point loops in loop_reference.py.

Matching, peak detection and crossing analysis must agree exactly; the
eigenpairs agree to rounding. With equal widths and beta = 1 the entries
have no mixed real/imaginary products, so the array and scalar arithmetic
coincide and the comparison holds up to the EPs themselves; elsewhere the
per-point splitting rounds differently, which an EP would amplify.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference as ref
from epkit.core import (Hamiltonian2, diagonalize, eigvalues_grid,
                        eigvectors_grid)
from epkit.crossing import (ScanTrajectory, _component_analysis, match_branches,
                            overlap_curve, overlap_peaks, sweep_toy)
from epkit.epfind import toy_ep_roots
from epkit.toymodel import (FULL_COMPLEX, PRESETS, REAL_PART, ToyParams,
                            coupling, preset, scan_entries, xi)

SETTINGS = settings(max_examples=60, deadline=None)

# small lattice values make exact ties and repeated pairs likely
lattice = st.sampled_from([0, 1, -1, 1j, -1j, 1 + 1j, 2, 0.5j, -2 + 1j])
floats = st.floats(min_value=-10, max_value=10, allow_nan=False)
values = st.one_of(lattice, st.builds(complex, floats, floats))
unit_lattice = st.sampled_from([(1, 0), (0, 1), (1, 1), (1, 1j)])


@st.composite
def scrambled_pairs(draw):
    """(N, 2) pairs in random per-row order, some rows with lp == lm."""
    n = draw(st.integers(3, 40))
    if draw(st.booleans()):
        rows = draw(st.lists(st.tuples(values, values), min_size=n, max_size=n))
        pairs = np.array(rows, dtype=complex)
    else:  # two smooth branches that cross, like a scan through a crossing
        t = np.linspace(-1, 1, n)
        c = draw(st.tuples(values, values, values))
        f = c[0] + c[1] * t + c[2] * np.sqrt(t + 0.01j)
        pairs = np.stack([f, -f], axis=1)
    tie = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    pairs[tie, 1] = pairs[tie, 0]
    swap = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    pairs[swap] = pairs[swap, ::-1]
    return pairs


def phase_distance(fast, reference):
    """Largest |fast - reference * phase| over rows, with the best unit phase."""
    inner = np.sum(np.conj(reference) * fast, axis=-1)
    mag = np.abs(inner)
    phase = np.where(mag > 0, inner / np.where(mag > 0, mag, 1.0), 1.0)
    return np.max(np.linalg.norm(fast - reference * phase[..., None], axis=-1))


toy_params = st.builds(
    ToyParams,
    g_c=st.floats(0.005, 0.2),
    beta=st.floats(0.0, 1.0),
    gamma1=st.floats(0.5, 1.5),
    gamma2=st.floats(0.5, 1.5),
    lambda_mode=st.sampled_from([FULL_COMPLEX, REAL_PART]),
)


class TestMatchBranches:
    @given(scrambled_pairs(), st.integers(0, 2**32 - 1))
    @SETTINGS
    def test_matches_loop(self, pairs, seed):
        rng = np.random.default_rng(seed)
        vectors = (rng.standard_normal((len(pairs), 2, 2))
                   + 1j * rng.standard_normal((len(pairs), 2, 2)))
        ts = np.arange(len(pairs), dtype=float)
        fast = match_branches(ts, pairs, vectors)
        a, b, va, vb, ambiguous = ref.match_branches(pairs, vectors)
        np.testing.assert_array_equal(fast.branch_a, a)
        np.testing.assert_array_equal(fast.branch_b, b)
        np.testing.assert_array_equal(fast.vectors_a, va)
        np.testing.assert_array_equal(fast.vectors_b, vb)
        assert fast.ambiguous == ambiguous

    def test_overflowed_jumps_keep_the_order_like_the_loop(self):
        # row 1 swaps; from row 1 to row 2 both jump sums overflow to inf,
        # compare neither way, and the loop goes back to keeping the order
        pairs = np.array([[1, 2], [2, 1], [1e308, 1e308j], [1e308, 1e308j]],
                         dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            fast = match_branches(np.arange(4.0), pairs)
            a, b, _, _, ambiguous = ref.match_branches(pairs)
        np.testing.assert_array_equal(fast.branch_a, a)
        np.testing.assert_array_equal(fast.branch_b, b)
        assert fast.ambiguous == ambiguous


def entries_near_eps(rng, n):
    """Random entries, exact EPs, points within the threshold and diagonals."""
    c = rng.standard_normal(n)  # real, so xi1 - xi2 is exactly 2ih
    h = rng.uniform(0.1, 2.0, n)
    eps = 10.0 ** rng.uniform(-19, -12, n)
    kind = rng.integers(0, 5, n)
    xi1 = np.where(kind == 0, rng.standard_normal(n) + 1j * rng.standard_normal(n),
                   c + 1j * h)
    xi2 = np.where(kind == 0, rng.standard_normal(n) + 1j * rng.standard_normal(n),
                   c - 1j * h)
    g = np.select(
        [kind == 0, kind == 1, kind == 2, kind == 3],
        [rng.standard_normal(n) + 1j * rng.standard_normal(n),
         h + 0j,                      # exact EP: eta == 0
         h + 1j * eps,                # |eta| ~ sqrt(2 h eps), around the threshold
         0j],                         # diagonal, unequal entries
        0j)
    same = kind == 4                  # diagonal with equal entries: zero null vector
    xi2 = np.where(same, xi1, xi2)
    return xi1, xi2, g


class TestEigenpairs:
    @given(st.integers(0, 2**32 - 1))
    @SETTINGS
    def test_diagonalize_matches_loop(self, seed):
        xi1, xi2, g = entries_near_eps(np.random.default_rng(seed), 32)
        for e in zip(xi1, xi2, g):
            h = Hamiltonian2(*e)
            s = diagonalize(h)
            lp, lm, vp, vm, degenerate = ref.diagonalize(h)
            assert (s.lambda_plus, s.lambda_minus) == (lp, lm)
            assert s.degenerate == degenerate
            assert phase_distance(np.array([s.v_plus, s.v_minus]),
                                  np.array([vp, vm])) < 1e-12
            if degenerate:
                np.testing.assert_array_equal(s.v_plus, s.v_minus)

    @given(st.integers(0, 2**32 - 1))
    @SETTINGS
    def test_grid_matches_loop_at_constructed_eps(self, seed):
        # these entries round identically in both paths, EPs included
        xi1, xi2, g = entries_near_eps(np.random.default_rng(seed), 32)
        lp, lm = eigvalues_grid(xi1, xi2, g)
        vp, vm = eigvectors_grid(xi1, xi2, g)
        for k, e in enumerate(zip(xi1, xi2, g)):
            rlp, rlm, rvp, rvm, _ = ref.diagonalize(Hamiltonian2(*e))
            scale = 1.0 + abs(rlp) + abs(rlm)
            assert abs(lp[k] - rlp) + abs(lm[k] - rlm) <= 1e-14 * scale
            assert phase_distance(np.array([vp[k], vm[k]]),
                                  np.array([rvp, rvm])) < 1e-12

    @given(st.floats(0.005, 0.08), st.floats(0.5, 1.5), st.integers(0, 2**32 - 1))
    @SETTINGS
    def test_sweep_matches_loop_through_double_eps(self, g_c, gamma, seed):
        p = ToyParams(g_c=g_c, beta=1.0, gamma1=gamma, gamma2=gamma)
        alphas = list(np.random.default_rng(seed).uniform(0.01, 2.0, 20))
        for root in toy_ep_roots(p, (0.01, 4.0)):
            a = root.p1
            for _ in range(4):  # within a few ulps of the EP, |eta| < threshold
                alphas += [a, 2 * root.p1 - a]
                a = np.nextafter(a, np.inf)
        alphas = np.unique(alphas)
        fast = sweep_toy(p, alphas)
        pairs, vectors = ref.sweep_pairs(p, alphas)
        a, b, va, vb, ambiguous = ref.match_branches(pairs, vectors)
        np.testing.assert_array_equal(fast.branch_a, a)
        np.testing.assert_array_equal(fast.branch_b, b)
        assert fast.ambiguous == ambiguous
        assert phase_distance(fast.vectors_a, va) < 1e-12
        assert phase_distance(fast.vectors_b, vb) < 1e-12

    @given(toy_params, st.integers(0, 2**32 - 1))
    @SETTINGS
    def test_sweep_pairs_match_loop(self, p, seed):
        alphas = np.sort(np.random.default_rng(seed).uniform(0.0, 3.0, 40))
        entries = scan_entries(alphas, p)
        lp, lm = eigvalues_grid(*entries)
        vp, vm = eigvectors_grid(*entries)
        pairs, vectors = ref.sweep_pairs(p, alphas)
        # away from EPs, where the splitting is well conditioned
        ok = np.abs(lp - lm) > 2e-6
        np.testing.assert_allclose(lp[ok], pairs[ok, 0], rtol=0, atol=1e-13)
        np.testing.assert_allclose(lm[ok], pairs[ok, 1], rtol=0, atol=1e-13)
        fast = np.stack([vp, vm], axis=1)[ok]
        assert phase_distance(fast, vectors[ok]) < 1e-10


class TestOverlapsAndClasses:
    @given(toy_params, st.integers(0, 2**32 - 1))
    @SETTINGS
    def test_overlap_curve_and_peaks_match_loop(self, p, seed):
        alphas = np.sort(np.random.default_rng(seed).uniform(0.0, 3.0, 200))
        traj = sweep_toy(p, np.unique(alphas))
        o = overlap_curve(traj)
        expected = ref.overlap_curve(traj.vectors_a, traj.vectors_b)
        np.testing.assert_allclose(o, expected, rtol=0, atol=1e-14)
        assert overlap_peaks(traj) == ref.overlap_peaks(traj.ts, expected)

    @given(st.lists(st.tuples(unit_lattice, unit_lattice), min_size=3, max_size=40))
    @SETTINGS
    def test_overlap_plateaus_match_loop(self, picks):
        # few distinct vectors give equal overlaps at neighbouring points
        v = np.array(picks, dtype=complex)
        ts = np.arange(len(v), dtype=float)
        traj = ScanTrajectory(ts, ts + 0j, ts + 1j, v[:, 0], v[:, 1])
        expected = ref.overlap_curve(traj.vectors_a, traj.vectors_b)
        np.testing.assert_allclose(overlap_curve(traj), expected, rtol=0, atol=1e-14)
        assert overlap_peaks(traj) == ref.overlap_peaks(ts, expected)

    @given(st.lists(st.sampled_from([0.0, 1e-10, -1e-10, 0.3, -0.3, 2.0, -1.5]),
                    min_size=3, max_size=60),
           st.integers(0, 2**32 - 1))
    @SETTINGS
    def test_component_analysis_matches_loop(self, d, seed):
        # runs of contact (|d| <= floor) at the ends and inside, sign changes
        d = np.array(d) + np.random.default_rng(seed).uniform(-0.05, 0.05, len(d)) * (
            np.abs(d) > 1e-9)
        ts = np.cumsum(np.random.default_rng(seed).uniform(0.01, 1.0, len(d)))
        assert _component_analysis(ts, d, 1e-9) == ref.component_analysis(ts, d, 1e-9)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_reports_match_loop(self, name):
        traj = sweep_toy(preset(name), np.linspace(0.2, 1.0, 2001))
        d = traj.branch_a - traj.branch_b
        for part in (d.real, d.imag):
            assert (_component_analysis(traj.ts, part, 1e-9)
                    == ref.component_analysis(traj.ts, part, 1e-9))
        o = ref.overlap_curve(traj.vectors_a, traj.vectors_b)
        assert overlap_peaks(traj) == ref.overlap_peaks(traj.ts, o)


class TestToyEntries:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("mode", [FULL_COMPLEX, REAL_PART])
    def test_scalar_entries_equal_array_entries(self, name, mode):
        p = ToyParams(**{**PRESETS[name]["params"], "lambda_mode": mode})
        alphas = np.random.default_rng(3).uniform(0.0, 4.0, 257)
        xi1, xi2, g = scan_entries(alphas, p)
        for k, alpha in enumerate(alphas):
            assert xi(float(alpha), p) == (xi1[k], xi2[k])
            assert coupling(float(alpha), p) == g[k]
