"""The array scan path against the per-point loops in loop_reference.py.

Matching, peak detection and crossing analysis must agree exactly; the
eigenpairs agree to rounding. With equal widths and beta = 1 the entries
have no mixed real/imaginary products, so the array and scalar arithmetic
coincide and the comparison holds up to the EPs themselves; elsewhere the
per-point splitting rounds differently, which an EP would amplify. The
order-free crossing label must equal the label read from matched branches,
and no pair order may change it.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import loop_reference as ref
from epkit.core import (Hamiltonian2, abs_diff, diagonalize, eigvalues_grid,
                        eigvectors_grid)
from epkit.crossing import (ScanTrajectory, UnclassifiableScanError,
                            _component_analysis, classify, match_branches,
                            match_grid, overlap_curve, overlap_peaks,
                            sweep_toy)
from epkit.epfind import equal_width_eps
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


def assert_ties_keep_sampled_order(traj, pairs, ties):
    """At a step whose two pairings cost the same, the pair is as sampled."""
    np.testing.assert_array_equal(traj.branch_a[ties], pairs[ties, 0])
    np.testing.assert_array_equal(traj.branch_b[ties], pairs[ties, 1])


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
    @given(scrambled_pairs())
    @SETTINGS
    def test_matches_loop(self, pairs):
        fast = match_branches(np.arange(len(pairs), dtype=float), pairs)
        a, b, _, _, ties = ref.match_branches(pairs)
        np.testing.assert_array_equal(fast.branch_a, a)
        np.testing.assert_array_equal(fast.branch_b, b)
        assert_ties_keep_sampled_order(fast, pairs, ties)

    def test_overflowed_difference_fails_naming_the_point(self):
        # both members of rows 2 and 3 are finite, but their difference
        # overflows to inf: no distance to it can be compared
        pairs = np.array([[1, 2], [2, 1], [1e308, -1e308], [1e308, -1e308]],
                         dtype=complex)
        with pytest.raises(ValueError, match=r"^pair difference a - b at scan "
                           r"point 2 \(t=2\.0\) is not finite: \(inf\+0j\)$"):
            match_branches(np.arange(4.0), pairs)


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
        for root in equal_width_eps(p):
            a = root.p1
            for _ in range(4):  # within a few ulps of the EP, |eta| < threshold
                alphas += [a, 2 * root.p1 - a]
                a = np.nextafter(a, np.inf)
        alphas = np.unique(alphas)
        fast = sweep_toy(p, alphas)
        pairs, vectors = ref.sweep_pairs(p, alphas)
        a, b, _, _, ties = ref.match_branches(pairs)
        np.testing.assert_array_equal(fast.branch_a, a)
        np.testing.assert_array_equal(fast.branch_b, b)
        assert_ties_keep_sampled_order(fast, pairs, ties)
        vp, vm = eigvectors_grid(*scan_entries(alphas, p))
        assert phase_distance(np.stack([vp, vm], axis=1), vectors) < 1e-12

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


def matched_overlap(p, alphas):
    """The unmatched pair (v_plus, v_minus) along a toy scan, and the loop
    overlap of the pair as the loop matching orders it."""
    entries = scan_entries(alphas, p)
    vp, vm = eigvectors_grid(*entries)
    pairs = np.stack(eigvalues_grid(*entries), axis=1)
    _, _, va, vb, _ = ref.match_branches(pairs, np.stack([vp, vm], axis=1))
    return vp, vm, ref.overlap_curve(va, vb)


class TestOverlapsAndClasses:
    @given(toy_params, st.integers(0, 2**32 - 1))
    @SETTINGS
    def test_overlap_curve_and_peaks_match_loop(self, p, seed):
        alphas = np.unique(np.random.default_rng(seed).uniform(0.0, 3.0, 200))
        vp, vm, expected = matched_overlap(p, alphas)
        np.testing.assert_allclose(overlap_curve(vp, vm), expected, rtol=0,
                                   atol=1e-14)
        assert overlap_peaks(alphas, vp, vm) == ref.overlap_peaks(alphas, expected)

    @given(toy_params, st.integers(0, 2**32 - 1))
    @SETTINGS
    def test_overlap_takes_the_pair_in_either_order(self, p, seed):
        rng = np.random.default_rng(seed)
        alphas = np.unique(rng.uniform(0.0, 3.0, 200))
        vp, vm = eigvectors_grid(*scan_entries(alphas, p))
        swap = (rng.random(alphas.size) < 0.5)[:, None]
        va, vb = np.where(swap, vm, vp), np.where(swap, vp, vm)
        np.testing.assert_array_equal(overlap_curve(va, vb), overlap_curve(vp, vm))
        assert overlap_peaks(alphas, va, vb) == overlap_peaks(alphas, vp, vm)

    @given(st.lists(st.tuples(unit_lattice, unit_lattice), min_size=3, max_size=40))
    @SETTINGS
    def test_overlap_plateaus_match_loop(self, picks):
        # few distinct vectors give equal overlaps at neighbouring points
        v = np.array(picks, dtype=complex)
        ts = np.arange(len(v), dtype=float)
        expected = ref.overlap_curve(v[:, 0], v[:, 1])
        np.testing.assert_allclose(overlap_curve(v[:, 0], v[:, 1]), expected,
                                   rtol=0, atol=1e-14)
        assert overlap_peaks(ts, v[:, 0], v[:, 1]) == ref.overlap_peaks(ts, expected)

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
        alphas = np.linspace(0.2, 1.0, 2001)
        traj = sweep_toy(preset(name), alphas)
        d = traj.branch_a - traj.branch_b
        for part in (d.real, d.imag):
            assert (_component_analysis(alphas, part, 1e-9)
                    == ref.component_analysis(alphas, part, 1e-9))
        vp, vm, o = matched_overlap(preset(name), alphas)
        assert overlap_peaks(alphas, vp, vm) == ref.overlap_peaks(alphas, o)


def outcome(label_scan, *args):
    """A scan's ClassReport, or the type, message and diagnostics of the
    UnclassifiableScanError it raises."""
    try:
        return label_scan(*args)
    except UnclassifiableScanError as err:
        return type(err), str(err), err.diagnostics


# one entry per distinct preset once beta is overridden
DISTINCT_PRESETS = sorted({tuple(sorted((k, v) for k, v in p["params"].items()
                                        if k != "beta")): name
                           for name, p in sorted(PRESETS.items())}.values())


def pair_sequence(seed):
    """(N, 2) finite pairs whose difference jumps at random, with parts that
    are separated, at rounding level or exactly zero, or follows a smooth
    crossing; and random per-row swaps to apply."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 41))
    if rng.random() < 0.5:
        kind = rng.integers(0, 3, (2, n))
        re, im = np.where(kind == 0, 0.0, np.where(
            kind == 1, rng.choice([-1e-10, 1e-10], (2, n)),
            rng.uniform(-10, 10, (2, n))))
        d = re + 1j * im
    else:
        t = np.linspace(-1, 1, n)
        c = rng.uniform(-2, 2, 6)
        d = (c[0] + 1j * c[1]) * t + (c[2] + 1j * c[3]) * np.sqrt(
            t + 0.01j * rng.integers(0, 2)) + c[4]
    mean = rng.uniform(-10, 10, n) + 1j * rng.uniform(-10, 10, n)
    return np.stack([mean + d, mean - d], axis=1), rng.random(n) < 0.5


class TestOrderFreeClassify:
    @pytest.mark.parametrize("name", DISTINCT_PRESETS)
    @pytest.mark.parametrize("mode", [FULL_COMPLEX, REAL_PART])
    def test_equals_the_matched_label(self, name, mode):
        # every beta in [0, 1] at 41 values, four resolutions, the pair
        # as sampled and scrambled per point
        rng = np.random.default_rng(16)
        for beta in np.linspace(0.0, 1.0, 41):
            p = ToyParams(**{**PRESETS[name]["params"], "beta": beta,
                             "lambda_mode": mode})
            for n in (51, 201, 801, 4001):
                alphas = np.linspace(0.2, 1.0, n)
                pairs = np.stack(eigvalues_grid(*scan_entries(alphas, p)), axis=1)
                expected = outcome(ref.matched_classify, alphas, pairs)
                swap = rng.random(n) < 0.5
                for order in (pairs, np.where(swap[:, None], pairs[:, ::-1], pairs)):
                    got = outcome(classify, ScanTrajectory(alphas, *order.T))
                    assert got == expected, (name, mode, beta, n)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=500, deadline=None)
    def test_no_pair_order_changes_the_label(self, seed):
        pairs, swap = pair_sequence(seed)
        ts = np.arange(len(pairs), dtype=float)
        d = pairs[:, 0] - pairs[:, 1]
        separated = (np.abs(d[:-1]) > 1e-9) & (np.abs(d[1:]) > 1e-9)
        # D turns by exactly pi: the samples cannot tell the signs apart
        tied = abs_diff(d[1:], -d[:-1]) == abs_diff(d[1:], d[:-1])
        assume(not np.any(separated & tied))
        swapped = np.where(swap[:, None], pairs[:, ::-1], pairs)
        assert (outcome(classify, ScanTrajectory(ts, *swapped.T))
                == outcome(classify, ScanTrajectory(ts, *pairs.T)))


# Gaussian integers: a + m, b + m and their difference are exact
gaussian = st.builds(complex, st.integers(-4, 4), st.integers(-4, 4))
means = st.builds(complex, st.integers(-1000, 1000), st.integers(-1000, 1000))


class TestMeanShift:
    """Adding a mean m to both members of every pair, even an m that jumps
    from point to point, moves both eigenvalues alike and so changes no
    choice of sheet."""

    @given(st.data())
    @SETTINGS
    def test_changes_no_swap_of_a_scan_and_no_report(self, data):
        n = data.draw(st.integers(3, 30))
        pairs = np.array(data.draw(st.lists(st.tuples(gaussian, gaussian),
                                            min_size=n, max_size=n)))
        m = np.array(data.draw(st.lists(means, min_size=n, max_size=n)))
        shifted = pairs + m[:, None]
        ts = np.arange(n, dtype=float)
        fast = match_branches(ts, pairs)
        moved = match_branches(ts, shifted)
        np.testing.assert_array_equal(moved.branch_a, fast.branch_a + m)
        np.testing.assert_array_equal(moved.branch_b, fast.branch_b + m)
        assert (outcome(classify, ScanTrajectory(ts, *shifted.T))
                == outcome(classify, ScanTrajectory(ts, *pairs.T)))

    @given(st.data())
    @SETTINGS
    def test_changes_no_swap_of_a_grid_with_holes(self, data):
        n1, n2 = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))

        def cells(values):
            return np.array(data.draw(st.lists(
                values, min_size=n1 * n2, max_size=n1 * n2))).reshape(n1, n2)
        va, vb, m = cells(gaussian), cells(gaussian), cells(means)
        ok = cells(st.booleans())
        np.testing.assert_array_equal(match_grid((va + m) - (vb + m), ok),
                                      match_grid(va - vb, ok))


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
