"""The array grid path against the per-point loops in loop_reference.py.

Matching, cut extraction, missing cells and gap minima must agree exactly;
batch samplers must give the point-by-point values bitwise (the
single-point oracle to 1e-15, since numpy's complex log and exp round
differently from cmath).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference as ref
from epkit.core import abs_diff
from epkit.epfind import _local_minima, grid_ep_search, sample_grid
from epkit.surface import (AnalyticOracle, _component_seam_edges, _match_grid,
                           _matched_cut_edges, build_surface)
from epkit.toymodel import (FULL_COMPLEX, PRESETS, REAL_PART, ToyParams,
                            eigenpair_sampler)

SETTINGS = settings(max_examples=60, deadline=None)

# small lattice values make exact ties (va == vb, straight == cross) likely
lattice = st.sampled_from([0, 1, -1, 1j, -1j, 1 + 1j, 2, 0.5j, -2 + 1j])
floats = st.floats(min_value=-10, max_value=10, allow_nan=False)
values = st.one_of(lattice, st.builds(complex, floats, floats))


def bits(x):
    """Raw bits, so signed zeros and NaN positions compare too."""
    return np.ascontiguousarray(x).view(np.uint64)


@st.composite
def fields(draw, min_side=1, max_side=12):
    """(va, vb, ok): sampled pairs with holes, ties and NaN values."""
    n1 = draw(st.integers(min_side, max_side))
    n2 = draw(st.integers(min_side, max_side))
    cells = n1 * n2
    va = np.array(draw(st.lists(values, min_size=cells, max_size=cells)),
                  dtype=complex).reshape(n1, n2)
    vb = np.array(draw(st.lists(values, min_size=cells, max_size=cells)),
                  dtype=complex).reshape(n1, n2)
    flags = st.lists(st.booleans(), min_size=cells, max_size=cells)
    tie = np.array(draw(flags)).reshape(n1, n2)
    vb[tie] = va[tie]
    if draw(st.booleans()):  # smooth sheets with a branch-point-like swap
        x, y = np.meshgrid(np.linspace(-1, 1, n1), np.linspace(-1, 1, n2),
                           indexing="ij")
        s = np.sqrt((x + 1j * y) ** 2 - 0.25 + 0.01j)
        swap = np.array(draw(flags)).reshape(n1, n2)
        va, vb = np.where(swap, -s, s), np.where(swap, s, -s)
    ok = ~np.array(draw(st.lists(st.sampled_from([False] * 4 + [True]),
                                 min_size=cells, max_size=cells))).reshape(n1, n2)
    if draw(st.booleans()):
        ok[0, 0] = False          # missing seed cell
    if draw(st.booleans()):
        ok[:, 0] = False          # missing first column
    if draw(st.booleans()):  # a NaN sample value, not a missing cell
        va[draw(st.integers(0, n1 - 1)), draw(st.integers(0, n2 - 1))] = np.nan
    va[~ok] = vb[~ok] = np.nan
    return va, vb, ok


class TestMatchAndCuts:
    @given(fields(), st.sampled_from([2.0, 10.0]))
    @SETTINGS
    def test_matching_and_cuts_match_loop(self, field, theta):
        va, vb, ok = field
        a, b = _match_grid(va, vb, ok)
        ra, rb = ref.match_grid(va, vb, ok)
        np.testing.assert_array_equal(bits(a), bits(ra))
        np.testing.assert_array_equal(bits(b), bits(rb))

        e = 0.5 * (ra - rb)
        assert _matched_cut_edges(e, ok, theta) == ref.matched_cut_edges(e, ok, theta)
        for d in (2.0 * e.real, 2.0 * e.imag):
            for rel in ((1e-3, 0.05), (0.5, 1.0), (1.0, 1.0)):  # lo == tau
                assert (_component_seam_edges(d, ok, *rel)
                        == ref.component_seam_edges(d, ok, *rel))

    def test_abs_diff_rounds_like_abs(self):
        # the loops compare abs() of complex scalars; np.abs would not match
        rng = np.random.default_rng(11)
        u, v = (rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
                for _ in range(2))
        expected = np.array([abs(x - y) for x, y in zip(u.tolist(), v.tolist())])
        np.testing.assert_array_equal(bits(abs_diff(u, v)), bits(expected))

    def test_contact_bound_is_inclusive(self):
        # two nodes exactly at contact_rel x max|d| touch: their edges are seams
        d = np.ones((16, 16))
        d[5, 5:7] = 1e-3
        ok = np.ones((16, 16), dtype=bool)
        seams = _component_seam_edges(d, ok, 1e-3, 0.05)
        assert seams == ref.component_seam_edges(d, ok, 1e-3, 0.05)
        assert ((5, 5), (5, 6)) in seams and len(seams) == 7

    def test_all_zero_component_has_no_seams(self):
        # scale == 0: every node coincides, and no seam is reported
        d = np.zeros((16, 16))
        ok = np.ones((16, 16), dtype=bool)
        assert _component_seam_edges(d, ok, 1e-3, 0.05) == []
        assert ref.component_seam_edges(d, ok, 1e-3, 0.05) == []

    @given(fields(min_side=16, max_side=18), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_build_surface_matches_loop_pipeline(self, field, batch):
        # a table sampler that raises on the holes; its batch call raises
        # when the grid has one, so those grids go through the fallback
        va, vb, ok = field
        n1, n2 = va.shape

        def table(p1, p2):
            i = np.rint(np.asarray(p1) * (n1 - 1)).astype(int)
            j = np.rint(np.asarray(p2) * (n2 - 1)).astype(int)
            if not batch and np.ndim(p1):
                raise TypeError("scalar sampler")
            if not ok[i, j].all():
                raise RuntimeError("hole")
            if np.ndim(p1):
                return va[i, j], vb[i, j]
            return complex(va[i, j]), complex(vb[i, j])

        grid = build_surface(table, ((0.0, 1.0), (0.0, 1.0)), n1, n2, "raw",
                             max_missing_frac=1.0)
        axis = np.linspace(0.0, 1.0, n1), np.linspace(0.0, 1.0, n2)
        sa, sb, missing = ref.sample_grid(table, *axis)
        assert grid.missing == missing
        ra, rb = ref.match_grid(sa, sb, ok)
        np.testing.assert_array_equal(bits(grid.sheet1), bits(ra))
        np.testing.assert_array_equal(bits(grid.sheet2), bits(rb))
        e = 0.5 * (ra - rb)
        assert grid.cut_cells.matched == ref.matched_cut_edges(e, ok, 10.0)
        assert grid.cut_cells.re == ref.component_seam_edges(2.0 * e.real, ok,
                                                             1e-3, 0.05)
        assert grid.cut_cells.im == ref.component_seam_edges(2.0 * e.imag, ok,
                                                             1e-3, 0.05)


class TestLocalMinima:
    @given(st.integers(1, 10), st.integers(1, 10), st.data())
    @SETTINGS
    def test_matches_loop(self, n1, n2, data):
        cells = st.sampled_from([0.0, 1.0, 1.0, 2.0, 0.5, np.nan, np.inf, -np.inf])
        gaps = np.array(data.draw(st.lists(cells, min_size=n1 * n2,
                                           max_size=n1 * n2))).reshape(n1, n2)
        assert _local_minima(gaps) == ref.local_minima(gaps)


class TestBatchSamplers:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("mode", [FULL_COMPLEX, REAL_PART])
    def test_toy_batch_equals_scalar(self, name, mode):
        p = ToyParams(**{**PRESETS[name]["params"], "lambda_mode": mode})
        rng = np.random.default_rng(5)
        alpha = rng.uniform(0.0, 3.0, (24, 16))
        beta = rng.uniform(-0.5, 1.5, (24, 16))
        sample = eigenpair_sampler(p)
        la, lb = sample(alpha, beta)
        scalar = np.array([sample(x, y) for x, y in
                           zip(alpha.ravel().tolist(), beta.ravel().tolist())])
        np.testing.assert_array_equal(bits(la.ravel()), bits(scalar[:, 0]))
        np.testing.assert_array_equal(bits(lb.ravel()), bits(scalar[:, 1]))

    def oracle_grid(self, oracle, seed):
        rng = np.random.default_rng(seed)
        p1 = rng.uniform(-2.0, 2.0, (20, 12))
        p2 = rng.uniform(-2.0, 2.0, (20, 12))
        z = oracle.branch_points()[0]
        p1[3, 4], p2[3, 4] = z.real, z.imag  # one node on a branch point
        sample = oracle.sampler()
        la, lb = sample(p1, p2)
        scalar = np.array([sample(x, y) for x, y in
                           zip(p1.ravel().tolist(), p2.ravel().tolist())])
        return la.ravel(), lb.ravel(), scalar

    @given(values, values, st.integers(0, 2**32 - 1))
    @SETTINGS
    def test_two_point_oracle_batch_equals_scalar(self, z1, z2, seed):
        if z1 == z2:
            z2 += 1
        la, lb, scalar = self.oracle_grid(AnalyticOracle.two_point(z1, z2), seed)
        np.testing.assert_array_equal(bits(la), bits(scalar[:, 0]))
        np.testing.assert_array_equal(bits(lb), bits(scalar[:, 1]))

    @given(values, st.integers(2, 5), st.integers(0, 2**32 - 1))
    @SETTINGS
    def test_single_point_oracle_batch_within_1e15(self, z0, order, seed):
        oracle = AnalyticOracle.single_point(z0, order)
        la, lb, scalar = self.oracle_grid(oracle, seed)
        np.testing.assert_allclose(la, scalar[:, 0], rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(lb, scalar[:, 1], rtol=1e-15, atol=1e-15)
        at_z0 = scalar[:, 0] == 0
        assert at_z0.any()
        np.testing.assert_array_equal(bits(la[at_z0]), bits(scalar[at_z0, 0]))
        np.testing.assert_array_equal(bits(lb[at_z0]), bits(scalar[at_z0, 1]))


class TestFallback:
    def test_wrong_shape_falls_back_to_points(self):
        calls = []

        def constant(p1, p2):
            calls.append(np.ndim(p1))
            return 0.5 + 0j, -0.5 + 0j

        va, vb, missing = sample_grid(constant, np.arange(3.0), np.arange(2.0))
        assert calls == [2] + [0] * 6
        assert missing == []
        np.testing.assert_array_equal(va, np.full((3, 2), 0.5 + 0j))

    def test_scalar_only_sampler_gives_the_same_results(self):
        orc = AnalyticOracle.two_point(0.45 + 1.0j, 0.62 + 1.0j).sampler()

        def scalar_only(p1, p2):
            return orc(float(p1), float(p2))  # raises on arrays

        window = ((0.3, 0.8), (0.9, 1.1))
        fast, slow = (build_surface(s, window, 40, 24) for s in (orc, scalar_only))
        np.testing.assert_array_equal(bits(fast.sheet1), bits(slow.sheet1))
        assert fast.cut_cells == slow.cut_cells
        fast, slow = (grid_ep_search(s, window, 24) for s in (orc, scalar_only))
        assert fast.locations == slow.locations
        assert (fast.median_gap, fast.sampler_failures) == (slow.median_gap, 0)
