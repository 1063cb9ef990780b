"""The array grid and loop paths against the per-point loops in
loop_reference.py.

Matching, cut extraction, missing cells and cell windings must agree exactly;
batch samplers must give the point-by-point values bitwise. The winding
of the discriminant around a loop must give the permutation, or the
error, of depth-first continuation.
"""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import loop_reference as ref
from epkit import surface
from epkit.core import abs_diff
from epkit.crossing import match_grid
from epkit.epfind import (cell_winding, equal_width_eps, grid_ep_search,
                          sample_points)
from epkit.surface import (MATCHED_CUT_JUMP, SEAM_CONTACT, AnalyticOracle,
                           CircleLoop, PolylineLoop, _matched_cut_edges,
                           _seam_edges, build_surface, encircle)
from epkit.toymodel import (FULL_COMPLEX, PRESETS, REAL_PART, ToyParams,
                            eigenpair_sampler)

SETTINGS = settings(max_examples=60, deadline=None)

# small lattice values make exact ties (va == vb, |d - r| == |d + r|) likely
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


def table_sampler(va, vb, ok, batch=True):
    """A sampler of the field (va, vb) on the unit square that raises on the
    holes; its batch call raises when the grid has one, so those grids go
    through the fallback."""
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
    return table


class TestMatchAndCuts:
    @given(fields(), st.sampled_from([2.0, 10.0]))
    @SETTINGS
    def test_matching_and_cuts_match_loop(self, field, jump):
        va, vb, ok = field
        swapped = match_grid(va - vb, ok)
        a, b = np.where(swapped, vb, va), np.where(swapped, va, vb)
        ra, rb = ref.match_grid(va, vb, ok)
        np.testing.assert_array_equal(bits(a), bits(ra))
        np.testing.assert_array_equal(bits(b), bits(rb))

        e = 0.5 * (ra - rb)
        with mock.patch.object(surface, "MATCHED_CUT_JUMP", jump):
            assert _matched_cut_edges(e, ok) == ref.matched_cut_edges(e, ok, jump)
        for contact in (SEAM_CONTACT, 0.5, 1.0):  # 1.0: lo == tau
            with mock.patch.object(surface, "SEAM_CONTACT", contact):
                assert (_seam_edges(va - vb, ok)
                        == ref.seam_edges(va - vb, ok, contact))

    def test_abs_diff_rounds_like_abs(self):
        # the loops compare abs() of complex scalars; np.abs would not match
        rng = np.random.default_rng(11)
        u, v = (rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
                for _ in range(2))
        expected = np.array([abs(x - y) for x, y in zip(u.tolist(), v.tolist())])
        np.testing.assert_array_equal(bits(abs_diff(u, v)), bits(expected))

    def test_contact_bound_is_inclusive(self):
        # two nodes exactly at SEAM_CONTACT x max|Re| touch: their edges are
        # re seams; no Im part means no im seam
        d = np.ones((16, 16), dtype=complex)
        d[5, 5:7] = SEAM_CONTACT
        ok = np.ones((16, 16), dtype=bool)
        seams = _seam_edges(d, ok)
        assert seams == ref.seam_edges(d, ok, SEAM_CONTACT)
        assert ((5, 5), (5, 6)) in seams[0] and len(seams[0]) == 7
        assert seams[1] == []

    def test_all_zero_component_has_no_seams(self):
        # scale == 0: every node coincides, and no seam is reported
        d = np.zeros((16, 16), dtype=complex)
        ok = np.ones((16, 16), dtype=bool)
        assert _seam_edges(d, ok) == ref.seam_edges(d, ok, SEAM_CONTACT) == ([], [])

    @given(fields(min_side=16, max_side=18), st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_build_surface_matches_loop_pipeline(self, field, batch, seed):
        va, vb, ok = field
        n1, n2 = va.shape
        table = table_sampler(va, vb, ok, batch)
        window = ((0.0, 1.0), (0.0, 1.0))
        with mock.patch.object(surface, "MAX_MISSING_FRAC", 1.0):
            grid = build_surface(table, window, n1, n2, "raw")
        axis = np.linspace(0.0, 1.0, n1), np.linspace(0.0, 1.0, n2)
        sa, sb, missing = ref.sample_grid(table, *axis)
        assert grid.missing == missing
        ok = ok & np.isfinite(va)  # a NaN sample value is a missing cell here
        ra, rb = ref.match_grid(sa, sb, ok)
        np.testing.assert_array_equal(bits(grid.sheet1), bits(ra))
        np.testing.assert_array_equal(bits(grid.sheet2), bits(rb))
        e = 0.5 * (ra - rb)
        assert grid.cut_cells.matched == ref.matched_cut_edges(e, ok,
                                                               MATCHED_CUT_JUMP)
        seams = (grid.cut_cells.re, grid.cut_cells.im)
        assert seams == ref.seam_edges(sa - sb, ok, SEAM_CONTACT)

        # the seams do not depend on the sampler's order at any cell
        swap = np.random.default_rng(seed).random((n1, n2)) < 0.5
        with mock.patch.object(surface, "MAX_MISSING_FRAC", 1.0):
            swapped = build_surface(
                table_sampler(np.where(swap, vb, va), np.where(swap, va, vb),
                              ok, batch), window, n1, n2, "raw")
        assert (swapped.cut_cells.re, swapped.cut_cells.im) == seams

    def test_matched_pair_rule_agrees_on_the_default_toy_window(self):
        # the seams used to come from the matched sheets, with a veto on
        # their sign flips above 0.05 x max; on the `surface` command's
        # default window and grid the two rules flag the same edges
        grid = build_surface(eigenpair_sampler(ToyParams(
            **PRESETS["double-ep"]["params"])), ((0.3, 0.8), (0.9, 1.0)), 256, 64)
        e = grid.sheet1
        ok = np.ones(e.shape, dtype=bool)
        assert grid.cut_cells.re == ref.component_seam_edges(
            2.0 * e.real, ok, SEAM_CONTACT, 0.05)
        assert grid.cut_cells.im == ref.component_seam_edges(
            2.0 * e.imag, ok, SEAM_CONTACT, 0.05)
        assert (len(grid.cut_cells.re), len(grid.cut_cells.im)) == (314, 574)


class TestCellWinding:
    @given(st.integers(1, 10), st.integers(1, 10), st.data())
    @SETTINGS
    def test_matches_loop(self, n1, n2, data):
        # parts 0 or of magnitude 1e-100 to 10: a squared ratio of corners
        # 1e154 apart overflows, and there numpy's complex multiply gives
        # infinities where cmath's gives NaN
        part = st.one_of(st.just(0.0), st.floats(1e-100, 10),
                         st.floats(-10, -1e-100))
        cells = st.one_of(lattice, st.builds(complex, part, part),
                          st.sampled_from([complex(np.nan, 0), complex(np.inf, 1),
                                           complex(1, -np.inf)]))
        diff = np.array(data.draw(st.lists(cells, min_size=n1 * n2,
                                           max_size=n1 * n2)),
                        dtype=complex).reshape(n1, n2)
        charge, unresolved = cell_winding(diff)
        ref_charge, ref_unresolved = ref.cell_winding(diff)
        assert charge.shape == unresolved.shape == (n1 - 1, n2 - 1)
        np.testing.assert_array_equal(charge, ref_charge)
        np.testing.assert_array_equal(unresolved, ref_unresolved)


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
        z = oracle.points[0]
        p1[3, 4], p2[3, 4] = z.real, z.imag  # one node on a branch point
        sample = oracle.sampler()
        la, lb = sample(p1, p2)
        scalar = np.array([sample(x, y) for x, y in
                           zip(p1.ravel().tolist(), p2.ravel().tolist())])
        return la.ravel(), lb.ravel(), scalar

    @given(values, st.one_of(st.none(), values), st.integers(0, 2**32 - 1))
    @SETTINGS
    def test_oracle_batch_equals_scalar(self, z1, z2, seed):
        # z2 None is the single-point oracle at z1
        if z2 is None:
            oracle = AnalyticOracle.single_point(z1)
        else:
            oracle = AnalyticOracle.two_point(z1, z2 if z2 != z1 else z2 + 1)
        la, lb, scalar = self.oracle_grid(oracle, seed)
        np.testing.assert_array_equal(bits(la), bits(scalar[:, 0]))
        np.testing.assert_array_equal(bits(lb), bits(scalar[:, 1]))


class TestFallback:
    def test_wrong_shape_falls_back_to_points(self):
        calls = []

        def constant(p1, p2):
            calls.append(np.ndim(p1))
            return 0.5 + 0j, -0.5 + 0j

        p1, p2 = np.meshgrid(np.arange(3.0), np.arange(2.0), indexing="ij")
        va, vb, failed = sample_points(constant, p1, p2)
        assert calls == [2] + [0] * 6
        assert failed == {}
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
        assert fast.sampler_failures == slow.sampler_failures == 0


# ---- loop continuation ------------------------------------------------------

DOUBLE_EP = ToyParams(**PRESETS["double-ep"]["params"])
EP_ALPHAS = (0.4541, 0.6214)  # the double-EP preset's EPs, to 4 digits, at beta 1
BASES = {
    "toy": eigenpair_sampler(DOUBLE_EP),
    "oracle": AnalyticOracle.two_point(complex(EP_ALPHAS[0], 1.0),
                                       complex(EP_ALPHAS[1], 1.0)).sampler(),
}


def with_mode(base, mode, cut):
    """``base`` altered on p1 > cut: NaN values ("nan"), a ValueError
    ("raises"); "scalar-only" raises on arrays everywhere."""
    if mode == "scalar-only":
        return lambda p1, p2: base(float(p1), float(p2))

    def sample(p1, p2):
        bad = np.asarray(p1) > cut
        if mode == "raises" and bad.any():
            raise ValueError(f"no sample at p1={p1}")
        la, lb = base(p1, p2)
        if mode == "nan":
            la, lb = np.where(bad, np.nan, la), np.where(bad, np.nan, lb)
            if not np.ndim(p1):
                la, lb = complex(la), complex(lb)
        return la, lb
    return sample


def outcome(fn, *args, **kwargs):
    """What the call returns, or the error's type, message and notes."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "__notes__", [])


def permutation(*args, **kwargs):
    return encircle(*args, **kwargs).permutation


def loop_fields(*args, **kwargs):
    """Every field of the encircle result, with max_step_phase as bits."""
    res = encircle(*args, **kwargs)
    return (res.permutation, res.winding, res.n_steps,
            bits(np.float64(res.max_step_phase)))


@st.composite
def loops(draw):
    """Circles and polygons around or near one or both EPs."""
    near = st.sampled_from(EP_ALPHAS + (0.5378,))
    cx = draw(near) + draw(st.floats(-0.03, 0.03))
    cy = 1.0 + draw(st.floats(-0.03, 0.03))
    if draw(st.booleans()):
        return CircleLoop((cx, cy), draw(st.floats(0.002, 0.15)))
    n = draw(st.integers(3, 6))
    radii = draw(st.lists(st.floats(0.01, 0.15), min_size=n, max_size=n))
    angles = np.sort(draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n,
                                   max_size=n, unique=True)))
    return PolylineLoop(tuple((cx + r * np.cos(a), cy + r * np.sin(a))
                              for r, a in zip(radii, angles)))


coordinates = st.floats(-10.0, 10.0)
# 0, 1, dyadic midpoints (the points of halved steps), any t in [0, 1], and
# t outside it, which wraps
loop_ts = st.one_of(st.sampled_from([0.0, 1.0]),
                    st.integers(0, 2**20).map(lambda k: k / 2**20),
                    st.floats(0.0, 1.0), st.floats(-3.0, 3.0))


@st.composite
def any_loops(draw):
    """Circles, and polygons whose vertices may repeat (zero-length
    segments, the last one included) but not all coincide."""
    if draw(st.booleans()):
        return CircleLoop((draw(coordinates), draw(coordinates)),
                          draw(st.floats(1e-6, 10.0)))
    pool = draw(st.lists(st.tuples(coordinates, coordinates), min_size=2,
                         max_size=4, unique=True))
    vertices = draw(st.lists(st.sampled_from(pool), min_size=3, max_size=8))
    assume(len(set(vertices)) > 1)  # a loop of zero perimeter is rejected
    return PolylineLoop(tuple(vertices))


class TestLoopKernels:
    @given(any_loops(), st.lists(loop_ts, min_size=1, max_size=40))
    @SETTINGS
    def test_points_match_the_scalar_formulas(self, loop, ts):
        p1, p2 = loop.points(np.array(ts))
        want = np.array([ref.loop_point(loop, t) for t in ts])
        assert bits(np.stack([p1, p2], axis=1)).tolist() == bits(want).tolist()

    @given(any_loops(), st.lists(loop_ts, min_size=1, max_size=40))
    @SETTINGS
    def test_point_is_points_at_one_value(self, loop, ts):
        # at any position of any array, as encircle samples a loop point in
        # its first pass or in any round of midpoints
        p1, p2 = loop.points(np.array(ts))
        one = np.array([loop.point(t) for t in ts])
        assert bits(one).tolist() == bits(np.stack([p1, p2], axis=1)).tolist()

    def test_numpy_cos_and_sin_are_those_of_math(self):
        # CircleLoop.points calls numpy's cos and sin, the scalar formulas
        # math's: a numpy that rounds them otherwise changes loop points,
        # and with them the bytes of every loop artifact
        angles = 2.0 * np.pi * np.random.default_rng(7).random(100_000)
        for array_f, scalar_f in ((np.cos, math.cos), (np.sin, math.sin)):
            want = np.array([scalar_f(a) for a in angles.tolist()])
            differ = np.flatnonzero(bits(array_f(angles)) != bits(want))
            assert differ.size == 0, (
                f"numpy {np.__version__} {array_f.__name__} differs from "
                f"math.{scalar_f.__name__} at {differ.size} of {angles.size} "
                f"angles, first {angles[differ[0]]!r}")


class TestEncircle:
    @given(loops(), st.sampled_from(sorted(BASES)),
           st.sampled_from(["plain", "nan", "raises", "scalar-only"]),
           st.floats(0.3, 0.8), st.sampled_from([64, 100, 256]))
    @settings(max_examples=80, deadline=None)
    def test_matches_depth_first_halving(self, loop, base, mode, cut, n_steps):
        sampler = with_mode(BASES[base], mode, cut)
        assert (outcome(permutation, sampler, loop, n_steps)
                == outcome(ref.encircle, sampler, loop, n_steps))

    @given(loops(), st.sampled_from(sorted(BASES)), st.integers(1, 6))
    @SETTINGS
    def test_step_floor_matches(self, loop, base, max_halvings):
        # a coarse floor may stop the loop early, but never changes the
        # permutation the loop returns
        try:
            with mock.patch.object(surface, "MAX_HALVINGS", max_halvings):
                res = encircle(BASES[base], loop, 64)
        except RuntimeError as exc:
            assert "step floor reached" in str(exc)
            return
        assert res.permutation == ref.encircle(BASES[base], loop, 64)

    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.05, 1.0),
           st.integers(0, 63), st.floats(0.1, 2.0), st.floats(0.0, 1.2))
    @SETTINGS
    def test_loop_through_a_branch_point_matches(self, cx, cy, radius, k, far,
                                                 cut):
        # a branch point on the k-th loop point; the sampler raises above
        # p2 = cy + cut * radius, which the start (at p2 = cy) never is
        loop = CircleLoop((cx, cy), radius)
        z1 = complex(*loop.point(k / 64))
        oracle = AnalyticOracle.two_point(z1, z1 + far).sampler()

        def sampler(p1, p2):
            if np.any(np.asarray(p2) > cy + cut * radius):
                raise ValueError("no sample above the cut")
            return oracle(p1, p2)

        assert (outcome(permutation, sampler, loop, 64)
                == outcome(ref.encircle, sampler, loop, 64))

    def test_loop_along_a_branch_point_matches(self):
        # the oracle's EP2 lies on the first edge, at beta = 1: D shrinks
        # towards it at a fixed phase, so only the gap rule stops the loop
        loop = PolylineLoop(((0.60644375, 1.0), (0.62206875, 1.0),
                             (0.5489815382335175, 1.105183873100987),
                             (0.49028590020846285, 1.1246868733255069),
                             (0.4294253954316072, 1.1136621783532101)))
        assert (outcome(permutation, BASES["oracle"], loop, 64)
                == outcome(ref.encircle, BASES["oracle"], loop, 64)
                == (RuntimeError, "loop too close to EP: step floor reached at "
                    "t=0.0313037485084493 without continuity", []))

    @pytest.mark.parametrize("order", [3, 16, 64])
    def test_root_pair_across_its_cut_matches(self, order):
        # two of the roots of z**(1/order): across the cut the pair turns
        # into other roots, and the mean moves by about a gap, while D
        # turns by only 4 pi / order
        sampler = ref.root_pair(order)
        loop = CircleLoop((0.1, 0.05), 0.5)
        new = outcome(permutation, sampler, loop, 64)
        assert new == outcome(ref.encircle, sampler, loop, 64)
        assert new[0] is RuntimeError and "step floor reached" in new[1]

    @given(loops(), st.sampled_from(sorted(BASES)),
           st.sampled_from(["plain", "nan", "raises"]), st.floats(0.3, 0.8),
           st.integers(0, 2**32 - 1))
    @SETTINGS
    def test_sampler_order_does_not_matter(self, loop, base, mode, cut, salt):
        # the same sampler with its pair swapped at pseudo-random points
        sampler = with_mode(BASES[base], mode, cut)

        def shuffled(p1, p2):
            la, lb = sampler(p1, p2)
            swap = (np.floor(np.asarray(p1) * 1e9 + salt) % 2 == 1)
            if not np.ndim(p1):
                return (lb, la) if swap else (la, lb)
            return np.where(swap, lb, la), np.where(swap, la, lb)

        assert (outcome(loop_fields, shuffled, loop, 64)
                == outcome(loop_fields, sampler, loop, 64))

    @given(st.lists(lattice, min_size=2, max_size=12), st.integers(2, 40),
           st.sampled_from([64, 100]))
    @SETTINGS
    def test_lattice_pairs_in_either_order(self, values, bins, n_steps):
        # pairs (s, -s) with s on a lattice: the discriminant 4 s**2 steps
        # by quarter and half turns between bins; returning (-s, s) instead
        # on odd bins changes nothing
        table = np.array(values, dtype=complex)

        def sampler(flip_odd):
            def sample(p1, p2):
                k = np.floor(np.asarray(p1) * bins).astype(int)
                s = table[k % table.size] * np.where(flip_odd & (k % 2 == 1), -1, 1)
                return (s, -s) if np.ndim(p1) else (complex(s), complex(-s))
            return sample

        loop = CircleLoop((0.0, 0.0), 1.0)
        assert (outcome(loop_fields, sampler(True), loop, n_steps)
                == outcome(loop_fields, sampler(False), loop, n_steps))

    def test_errors(self):
        loop = CircleLoop((0.5, 0.5), 0.25)
        on_start = AnalyticOracle.two_point(complex(*loop.point(0.0)), 3j).sampler()
        assert outcome(permutation, on_start, loop, 64) == (
            RuntimeError, "loop passes through an EP at t=0.0", [])
        on_loop = AnalyticOracle.two_point(complex(*loop.point(0.25)), 3j).sampler()
        kind, message, _ = outcome(permutation, on_loop, loop, 64)
        assert kind is RuntimeError and "step floor reached" in message
        rect = PolylineLoop(((0.4, 0.95), (0.68, 0.95), (0.68, 1.05), (0.4, 1.05)))
        with pytest.raises(ValueError, match="no sample") as info:
            encircle(with_mode(BASES["oracle"], "raises", 0.6), rect, 64)
        # the first loop point past p1 = 0.6 is 17/64 of the perimeter along
        assert info.value.__notes__ == [
            "the sampler failed at loop point t=0.265625"]

    def test_non_finite_pair_ends_the_loop_in_one_round(self):
        # the toy overflows at every point of a circle of radius 1e300, or
        # raises at alpha < 0: the loop ends at its start, before any step
        # is halved
        calls = []

        def counted(p1, p2):
            calls.append(np.ndim(p1))
            return BASES["toy"](p1, p2)

        with pytest.raises(RuntimeError) as info:
            encircle(counted, CircleLoop((0.2, 1.0), 1e300), 64)
        assert str(info.value) == ("non-finite pair at loop point t=0.0: "
                                   "a - b = (inf+0j)")
        assert calls.count(1) == 1

    def test_floor_below_float_resolution_raises(self):
        # 2**-60 of a step is below the spacing of floats near t = 1/4, so
        # the step floor is where no float lies between a step's ends
        loop = CircleLoop((0.0, 0.0), 1.0)
        z = complex(*loop.point(0.25))
        sampler = AnalyticOracle.two_point(z, z + 1).sampler()
        with (pytest.raises(RuntimeError, match="step floor reached at t=0.2499"),
              mock.patch.object(surface, "MAX_HALVINGS", 60)):
            encircle(sampler, loop, 64)

    def test_one_batch_call_per_refinement(self):
        calls, points = [], []

        def counted(p1, p2):
            calls.append(1)
            points.append(np.size(p1))
            return BASES["toy"](p1, p2)

        class PointsOnly(CircleLoop):  # the loop's points come in arrays
            def point(self, t):
                raise AssertionError("encircle asked for one loop point")

        res = encircle(counted, PointsOnly((EP_ALPHAS[0], 1.0), 0.05), 256)
        assert (res.permutation, res.winding) == ("swap", 1)
        assert sum(points) == res.n_steps  # every loop point sampled once
        assert len(calls) <= 3


def segment(start, end):
    """The straight path from ``start`` (t = 0) to ``end`` (t = 1)."""
    (x0, y0), (x1, y1) = start, end

    def path(ts):
        ts = np.asarray(ts, dtype=float)
        return x0 + ts * (x1 - x0), y0 + ts * (y1 - y0)
    return path


def followed(fn, *args):
    """The bits of the refined points, differences and phase steps that
    ``fn(*args)`` returns, or its error (see ``outcome``)."""
    return outcome(lambda: tuple(bits(v).tolist() for v in fn(*args)))


def follow_or_raise(sampler, path, ts):
    """``surface._follow``, raising at its event as ``encircle`` does."""
    ts, diff, phase, event = surface._follow(sampler, path, ts)
    if event is not None:
        raise surface._event_error(ts, diff, event)
    return ts, diff, phase


@st.composite
def scan_segments(draw):
    """The toy's scan line at a beta within 0.05 of 1, over an alpha range
    starting near either EP, or a segment in any direction near either of
    the oracle's branch points."""
    near = draw(st.sampled_from(EP_ALPHAS))
    if draw(st.booleans()):
        beta = draw(st.one_of(st.just(1.0), st.floats(0.95, 1.05)))
        a0 = near + draw(st.floats(-0.1, 0.1))
        a1 = a0 + draw(st.one_of(st.floats(-0.2, -1e-3), st.floats(1e-3, 0.2)))
        return "toy", segment((a0, beta), (a1, beta))
    ends = st.tuples(st.floats(near - 0.1, near + 0.1), st.floats(0.9, 1.1))
    start, end = draw(ends), draw(ends)
    assume(math.dist(start, end) > 1e-3)
    return "oracle", segment(start, end)


class TestFollow:
    """The array follower of D on open paths against halving one step at a
    time (loop_reference.follow)."""

    @given(scan_segments(), st.sampled_from([4, 16, 64]),
           st.sampled_from(["plain", "nan", "raises"]), st.floats(0.3, 0.8))
    @SETTINGS
    def test_open_path_matches_depth_first_halving(self, base_path, n_steps,
                                                   mode, cut):
        base, path = base_path
        sampler = with_mode(BASES[base], mode, cut)
        ts = np.linspace(0.0, 1.0, n_steps + 1)
        assert (followed(follow_or_raise, sampler, path, ts)
                == followed(ref.follow, sampler, path, ts))

    def test_scan_line_through_an_ep_reaches_the_floor_there(self):
        # on beta = 1 the half-gap shrinks to 0 at the EP, so accepted
        # steps close in on it until one is at the step floor
        ep = equal_width_eps(DOUBLE_EP)[0]
        path, ts = segment((0.3, 1.0), (0.5, 1.0)), np.linspace(0.0, 1.0, 65)
        refined, _, _, event = surface._follow(BASES["toy"], path, ts)
        assert event.kind == surface.STEP_FLOOR and event.error is None
        with pytest.raises(RuntimeError, match="step floor reached") as info:
            ref.follow(BASES["toy"], path, ts)
        t = float(re.search(r"t=(\S+)", str(info.value)).group(1))
        assert t == refined[event.index]
        assert path(t)[0] == pytest.approx(ep.p1, abs=1e-12)

    def test_path_without_an_event(self):
        path, ts = segment((0.3, 1.05), (0.5, 1.05)), np.linspace(0.0, 1.0, 17)
        refined, diff, phase, event = surface._follow(BASES["toy"], path, ts)
        assert event is None
        assert refined.size == diff.size == phase.size + 1 >= ts.size

    @pytest.mark.parametrize("mode, kind", [("nan", surface.NON_FINITE),
                                            ("raises", surface.SAMPLER_ERROR)])
    def test_a_bad_point_stops_the_path_in_one_round(self, mode, kind):
        # the first point past p1 = 0.42 of 16 equal steps over [0.3, 0.5]
        # is at t = 10/16, and it is the event: no step before it is
        # halved, and no step towards it either
        calls = []

        def counted(p1, p2):
            calls.append(np.ndim(p1))
            return with_mode(BASES["toy"], mode, 0.42)(p1, p2)

        path, ts = segment((0.3, 1.05), (0.5, 1.05)), np.linspace(0.0, 1.0, 17)
        refined, diff, _, event = surface._follow(counted, path, ts)
        assert (event.index, event.kind) == (10, kind)
        assert refined[event.index] == 0.625
        assert calls.count(1) == 1  # one batch round, then single points
        if mode == "nan":
            assert event.error is None and np.isnan(diff[event.index])
        else:
            assert isinstance(event.error, ValueError)
