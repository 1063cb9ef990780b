import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import loop_reference as ref
from epkit.cli import CAVITY_EP1, CAVITY_EP2
from epkit.epfind import EPLocation, equal_width_eps
from epkit.surface import (DELTA, MAX_STEP_PHASE, RAW, AnalyticOracle,
                           CircleLoop, PolylineLoop, build_surface,
                           connected_components, encircle, oracle_eval)
from epkit.toymodel import (FULL_COMPLEX, REAL_PART, ToyParams,
                            eigenpair_sampler)

DOUBLE_EP = ToyParams(g_c=0.05, beta=1.0, gamma1=1.05, gamma2=1.05)
EP1_ALPHA = 0.4541453828492342
EP2_ALPHA = 0.6214307910107969
TOY_WINDOW = ((0.3, 0.8), (0.9, 1.0))
BOTH_EP_RECT = PolylineLoop(((0.40, 0.95), (0.68, 0.95),
                             (0.68, 1.05), (0.40, 1.05)))


def component_extent(grid, component, axis):
    values = sorted((grid.axis1 if axis == 0 else grid.axis2)[n[axis]]
                    for n in component)
    return values[0], values[-1]


class TestOracleEval:
    def test_sqrt_of_minus_one(self):
        o = AnalyticOracle.two_point(-1, 1)
        va, vb = oracle_eval(o, 0)
        assert va == 1j and vb == -1j

    def test_frozen_value(self):
        o = AnalyticOracle.two_point(-1, 1)
        va, vb = oracle_eval(o, 3)
        assert va == pytest.approx(math.sqrt(8), abs=1e-12)
        assert vb == pytest.approx(-math.sqrt(8), abs=1e-12)

    def test_branch_point_returns_double_zero(self):
        o = AnalyticOracle.two_point(-1, 1)
        assert oracle_eval(o, 1) == (0j, 0j)
        sp = AnalyticOracle.single_point(2j)
        assert oracle_eval(sp, 2j) == (0j, 0j)

    def test_derivative_diverges_at_branch_points(self):
        # |f'| grows without bound approaching z1 (finite differences)
        o = AnalyticOracle.two_point(-1, 1)
        z1 = complex(-1, 0)
        step_sizes = [1e-2, 1e-4, 1e-6]
        derivs = []
        for h in step_sizes:
            z = z1 + 2 * h
            d = abs(oracle_eval(o, z + h)[0] - oracle_eval(o, z - h)[0]) / (2 * h)
            derivs.append(d)
        assert derivs[0] < derivs[1] < derivs[2]
        assert derivs[2] > 100

    def test_single_point_pair(self):
        sp = AnalyticOracle.single_point(0)
        assert oracle_eval(sp, 4) == (2.0, -2.0)
        assert oracle_eval(sp, -4) == (2j, -2j)

    def test_validation(self):
        with pytest.raises(ValueError):
            AnalyticOracle.two_point(1j, 1j)

    @pytest.mark.parametrize("name", ["z1", "z2", "z0"])
    @pytest.mark.parametrize("z", [complex("inf"), complex("nan"),
                                   complex(0, float("-inf"))])
    def test_branch_point_not_finite_is_named(self, name, z):
        make = {"z1": lambda: AnalyticOracle.two_point(z, 1j),
                "z2": lambda: AnalyticOracle.two_point(1j, z),
                "z0": lambda: AnalyticOracle.single_point(z)}[name]
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make()


# coordinates of modest size, none so small that a product of differences
# becomes subnormal
coordinate = st.one_of(st.just(0.0), st.floats(-10, 10).filter(
    lambda v: abs(v) > 1e-60))
points = st.builds(complex, coordinate, coordinate)


class TestOracleEvalReference:
    """The array kernel at one point against the cmath reference in
    loop_reference.py."""

    @given(points, points, points)
    @settings(max_examples=300, deadline=None)
    def test_two_point_equals_reference_bitwise(self, z1, z2, z):
        assume(z1 != z2)
        w = (z - z1) * (z - z2)
        # a pure imaginary product has the rounding of principal_sqrt's
        # own test (test_core.py)
        assume(w.real != 0.0 or w.imag == 0.0)
        o = AnalyticOracle.two_point(z1, z2)
        got, want = oracle_eval(o, z), ref.oracle_eval(o, z)
        assert [ref.bits(v) for v in got] == [ref.bits(v) for v in want]

    @given(points, points)
    @settings(max_examples=300, deadline=None)
    def test_single_point_equals_reference_bitwise(self, z0, z):
        w = z - z0
        assume(w.real != 0.0 or w.imag == 0.0)  # as in the two-point test
        o = AnalyticOracle.single_point(z0)
        got, want = oracle_eval(o, z), ref.oracle_eval(o, z)
        assert [ref.bits(v) for v in got] == [ref.bits(v) for v in want]

    @given(points, points)
    @settings(max_examples=100, deadline=None)
    def test_scalar_call_is_the_batch_value(self, z0, z):
        for o in (AnalyticOracle.single_point(z0),
                  AnalyticOracle.two_point(z0, z0 + 1)):
            batch = o.sampler()(np.array([z.real]), np.array([z.imag]))
            scalar = o.sampler()(z.real, z.imag)
            assert [ref.bits(complex(v[0])) for v in batch] == [
                ref.bits(v) for v in scalar]


class TestBuildSurface:
    def test_toy_window_cut_topology(self):
        grid = build_surface(eigenpair_sampler(DOUBLE_EP), TOY_WINDOW, 128, 32)
        h1 = grid.axis1[1] - grid.axis1[0]

        re_comps = connected_components(grid.cut_cells.re)
        assert len(re_comps) == 1
        lo, hi = component_extent(grid, re_comps[0], 0)
        assert abs(lo - EP1_ALPHA) <= 2 * h1
        assert abs(hi - EP2_ALPHA) <= 2 * h1

        im_comps = connected_components(grid.cut_cells.im)
        assert len(im_comps) == 2
        for comp in im_comps:
            lo, hi = component_extent(grid, comp, 0)
            touches_boundary = (lo == grid.axis1[0]) or (hi == grid.axis1[-1])
            near_ep = min(abs(lo - EP1_ALPHA), abs(hi - EP1_ALPHA),
                          abs(lo - EP2_ALPHA), abs(hi - EP2_ALPHA))
            assert touches_boundary
            assert near_ep <= 2 * h1

    @pytest.mark.parametrize("kind, n1, n2, counts", [
        ("toy", 256, 64, (1, 2)), ("toy", 128, 128, (1, 2)),
        ("oracle", 256, 64, (2, 2))])
    def test_every_seam_component_ends_at_an_ep(self, kind, n1, n2, counts):
        # the toy over both EPs, and the `oracle` command's default window;
        # a component that does not reach the window edge joins both EPs
        if kind == "toy":
            sampler, window = eigenpair_sampler(DOUBLE_EP), ((0.3, 0.8), (0.9, 1.1))
            eps = [(ep.p1, ep.p2) for ep in equal_width_eps(DOUBLE_EP)]
        else:
            oracle = AnalyticOracle.two_point(complex(*CAVITY_EP1),
                                              complex(*CAVITY_EP2))
            sampler, window = oracle.sampler(), ((2.5, 3.0), (0.45, 0.7))
            eps = [(z.real, z.imag) for z in oracle.points]
        grid = build_surface(sampler, window, n1, n2)
        h1, h2 = grid.axis1[1] - grid.axis1[0], grid.axis2[1] - grid.axis2[0]
        for edges, count in zip((grid.cut_cells.re, grid.cut_cells.im), counts):
            comps = connected_components(edges)
            assert len(comps) == count
            for comp in comps:
                i, j = np.array(sorted(comp)).T
                cells = [np.min(np.maximum(np.abs(grid.axis1[i] - x) / h1,
                                           np.abs(grid.axis2[j] - y) / h2))
                         for x, y in eps]  # to the nearest node, in cells
                on_edge = np.any((i == 0) | (i == n1 - 1) | (j == 0) | (j == n2 - 1))
                assert (min(cells) if on_edge else max(cells)) <= 1.0

    def test_delta_sheets_are_exact_negatives(self):
        grid = build_surface(eigenpair_sampler(DOUBLE_EP), TOY_WINDOW, 32, 16,
                             DELTA)
        np.testing.assert_array_equal(grid.sheet1, -grid.sheet2)

    def test_raw_sheets_sum_to_trace(self):
        grid = build_surface(eigenpair_sampler(DOUBLE_EP), TOY_WINDOW, 32, 16,
                             RAW)
        for i in (0, 7, 31):
            for j in (0, 5, 15):
                alpha = grid.axis1[i]
                trace = (1 - 0.5 * alpha + 1.05j) + (math.sqrt(alpha) + 1.05j)
                total = grid.sheet1[i, j] + grid.sheet2[i, j]
                assert abs(total - trace) < 1e-10

    def test_oracle_matches_toy_cut_topology(self):
        oracle = AnalyticOracle.two_point(complex(EP1_ALPHA, 1.0),
                                          complex(EP2_ALPHA, 1.0))
        toy = build_surface(eigenpair_sampler(DOUBLE_EP), TOY_WINDOW, 128, 32)
        orc = build_surface(oracle.sampler(), TOY_WINDOW, 128, 32)
        h1 = toy.axis1[1] - toy.axis1[0]
        for name in ("re", "im"):
            toy_comps = connected_components(getattr(toy.cut_cells, name))
            orc_comps = connected_components(getattr(orc.cut_cells, name))
            assert len(toy_comps) == len(orc_comps)
            for tc, oc in zip(toy_comps, orc_comps):
                t_lo, t_hi = component_extent(toy, tc, 0)
                o_lo, o_hi = component_extent(orc, oc, 0)
                assert abs(t_lo - o_lo) <= 2 * h1
                assert abs(t_hi - o_hi) <= 2 * h1

    def test_oracle_real_seam_converges_to_principal_cut(self):
        # the real seam must approach {(z - z1)(z - z2) real <= 0} at the
        # grid-spacing rate
        z1, z2 = 0.3 - 0.4j, -0.5 + 0.2j
        oracle = AnalyticOracle.two_point(z1, z2)
        window = ((-1.2, 1.2), (-1.2, 1.2))

        def locus_distance(z, samples=20001):
            # distance to the parametric principal-branch cut locus
            c, d2 = 0.5 * (z1 + z2), (0.5 * (z1 - z2)) ** 2
            s = np.linspace(0.0, 25.0, samples)
            u = np.sqrt(d2 - s)
            pts = np.concatenate([c + u, c - u])
            return np.min(np.abs(z - pts))

        errors = []
        for n in (32, 64, 128):
            grid = build_surface(oracle.sampler(), window, n, n)
            spacing = grid.axis1[1] - grid.axis1[0]
            nodes = {node for edge in grid.cut_cells.re for node in edge}
            assert nodes
            worst = max(
                locus_distance(complex(grid.axis1[i], grid.axis2[j]))
                for i, j in nodes
            )
            errors.append((spacing, worst))
        for spacing, worst in errors:
            assert worst <= 2.5 * spacing
        assert errors[-1][1] < errors[0][1]

    def test_missing_cells_over_budget_raise(self):
        def flaky(p1, p2):
            if p1 > 0.5:
                raise RuntimeError("gap in the data")
            return eigenpair_sampler(DOUBLE_EP)(p1, p2)

        with pytest.raises(RuntimeError, match="failed to sample"):
            build_surface(flaky, TOY_WINDOW, 32, 16)

    def test_sparse_missing_cells_are_tolerated(self):
        base = eigenpair_sampler(DOUBLE_EP)
        bad = {(0.3, 0.9)}

        def flaky(p1, p2):
            if (p1, p2) in bad:
                raise RuntimeError("one bad pixel")
            return base(p1, p2)

        grid = build_surface(flaky, TOY_WINDOW, 32, 16)
        assert grid.missing == [(0, 0)]

    def test_a_nan_value_is_a_missing_cell(self):
        # a sampler may return NaN instead of raising; that cell is missing,
        # and the grid-wide scales of the cut rules skip it
        base = eigenpair_sampler(DOUBLE_EP)
        hole = (np.linspace(0.3, 0.8, 256)[3], np.linspace(0.9, 1.0, 64)[3])

        def holed(p1, p2):
            la, lb = base(p1, p2)
            bad = (np.asarray(p1) == hole[0]) & (np.asarray(p2) == hole[1])
            return np.where(bad, np.nan, la), np.where(bad, np.nan, lb)

        clean = build_surface(base, TOY_WINDOW, 256, 64).cut_cells
        cuts = build_surface(holed, TOY_WINDOW, 256, 64)
        assert cuts.missing == [(3, 3)]
        cuts = cuts.cut_cells
        assert cuts.matched == clean.matched and len(cuts.matched) == 7
        for kind in ("re", "im"):
            assert getattr(cuts, kind) == [
                edge for edge in getattr(clean, kind) if (3, 3) not in edge]

    @pytest.mark.parametrize("window", [((-1e308, 1e308), (0.9, 1.0)),
                                        ((0.3, 0.8), (-math.inf, 1.0)),
                                        ((0.3, 0.8), (1.0, 1.0))])
    def test_window_must_span_a_finite_nonzero_width(self, window):
        with pytest.raises(ValueError, match="must span a finite, nonzero width"):
            build_surface(eigenpair_sampler(DOUBLE_EP), window, 16, 16)

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            build_surface(eigenpair_sampler(DOUBLE_EP), TOY_WINDOW, 8, 64)


class TestEncircle:
    def test_single_ep_loops_swap(self):
        samp = eigenpair_sampler(DOUBLE_EP)
        for alpha, winding in ((EP1_ALPHA, 1), (EP2_ALPHA, -1)):
            res = encircle(samp, CircleLoop((alpha, 1.0), 0.05), 128)
            assert (res.permutation, res.winding) == ("swap", winding)
            assert 0.0 < res.max_step_phase <= MAX_STEP_PHASE

    def test_both_ep_loop_is_identity(self):
        res = encircle(eigenpair_sampler(DOUBLE_EP), BOTH_EP_RECT, 128)
        # 129 loop points and 7 midpoints, where the pair moves fastest
        assert (res.permutation, res.winding, res.n_steps) == ("identity", 0, 136)

    def test_oracle_same_geometry_agrees(self):
        oracle = AnalyticOracle.two_point(complex(EP1_ALPHA, 1.0),
                                          complex(EP2_ALPHA, 1.0))
        assert encircle(oracle.sampler(),
                        CircleLoop((EP1_ALPHA, 1.0), 0.05), 128).permutation == "swap"
        assert encircle(oracle.sampler(), BOTH_EP_RECT, 128).permutation == "identity"

    def test_single_point_oracle(self):
        sp = AnalyticOracle.single_point(0.5 + 0.5j)
        around = encircle(sp.sampler(), CircleLoop((0.5, 0.5), 0.25), 64)
        away = encircle(sp.sampler(), CircleLoop((3.0, 3.0), 0.25), 64)
        assert (around.permutation, around.winding) == ("swap", 1)
        assert (away.permutation, away.winding) == ("identity", 0)

    def test_pair_not_closed_under_the_loop_fails(self):
        # two of the three cube roots of 0.9 - p1 + i p2, whose cut runs
        # from p1 = 0.9 to the right: the loop crosses it only where it
        # starts and ends, so D winds a non-integer 2/3 of a turn
        cube = ref.root_pair(3)
        with pytest.raises(RuntimeError, match="did not return"):
            encircle(lambda p1, p2: cube(0.9 - p1, p2),
                     CircleLoop((0.0, 0.0), 1.0), 64)

    def test_homotopy_invariance(self):
        samp = eigenpair_sampler(DOUBLE_EP)
        rng = np.random.default_rng(42)
        for _ in range(10):
            radius = float(rng.uniform(0.02, 0.07))
            dx = float(rng.uniform(-0.01, 0.01))
            dy = float(rng.uniform(-0.01, 0.01))
            res = encircle(samp, CircleLoop((EP1_ALPHA + dx, 1.0 + dy), radius),
                           128)
            assert res.permutation == "swap"

    def test_composition_of_single_loops_matches_double_loop(self):
        # two swaps compose to the identity, matching the both-EP loop
        samp = eigenpair_sampler(DOUBLE_EP)
        perms = [encircle(samp, CircleLoop((a, 1.0), 0.05), 128).permutation
                 for a in (EP1_ALPHA, EP2_ALPHA)]
        assert perms == ["swap", "swap"]
        both = encircle(samp, BOTH_EP_RECT, 128)
        assert both.permutation == "identity"

    def test_enclosed_eps_annotation(self):
        # the encircle command reports the known EPs that the loop contains
        samp = eigenpair_sampler(DOUBLE_EP)
        known = [EPLocation(EP1_ALPHA, 1.0, 0.0), EPLocation(EP2_ALPHA, 1.0, 0.0)]
        for loop, want, permutation in (
                (CircleLoop((EP1_ALPHA, 1.0), 0.05), [EP1_ALPHA], "swap"),
                (BOTH_EP_RECT, [EP1_ALPHA, EP2_ALPHA], "identity")):
            assert [e.p1 for e in known if loop.contains((e.p1, e.p2))] == want
            assert encircle(samp, loop, 128).permutation == permutation

    @given(st.floats(0.01, 3.0), st.floats(0.5, 1.5), st.floats(0.0, 1.0),
           st.sampled_from([FULL_COMPLEX, REAL_PART]), st.sampled_from([0, -1]),
           st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(0.01, 0.6))
    @settings(max_examples=60, deadline=None)
    def test_winding_is_the_enclosed_charge(self, g_c, gamma, beta, mode,
                                            near, dx, dy, radius):
        # equal widths: the EPs are the closed-form ones, charge +1 where
        # d = 1 - alpha/2 - sqrt(alpha) > 0 (the smaller alpha), -1 where
        # d < 0, for a counter-clockwise loop in (alpha, beta); the circle
        # is centred within 1.5 radii of the first or last EP
        p = ToyParams(g_c=g_c, beta=beta, gamma1=gamma, gamma2=gamma,
                      lambda_mode=mode)
        eps = equal_width_eps(p)
        cx, cy = eps[near].p1 + dx * radius, 1.0 + dy * radius
        assume(cx - radius > 1e-3)  # the toy has no alpha < 0
        assume(all(abs(math.hypot(ep.p1 - cx, ep.p2 - cy) - radius)
                   > 0.1 * radius for ep in eps))
        loop = CircleLoop((cx, cy), radius)
        res = encircle(eigenpair_sampler(p), loop, 64)
        enclosed = [ep for ep in eps if loop.contains((ep.p1, ep.p2))]
        charge = [1 if 1.0 - ep.p1 / 2 - math.sqrt(ep.p1) > 0 else -1
                  for ep in enclosed]
        assert res.winding == sum(charge)
        assert (res.permutation == "swap") == (len(enclosed) % 2 == 1)

    def test_loop_through_ep_fails(self):
        samp = eigenpair_sampler(DOUBLE_EP)
        # passes exactly through EP2 while winding around EP1
        bad = CircleLoop((EP1_ALPHA, 1.0), EP2_ALPHA - EP1_ALPHA)
        with pytest.raises(RuntimeError):
            encircle(samp, bad, 128)

    def test_step_count_validation(self):
        with pytest.raises(ValueError):
            encircle(eigenpair_sampler(DOUBLE_EP),
                     CircleLoop((EP1_ALPHA, 1.0), 0.05), 32)


class TestLoops:
    def test_circle_contains(self):
        loop = CircleLoop((1.0, 2.0), 0.5)
        assert loop.contains((1.2, 2.1))
        assert not loop.contains((2.0, 2.0))

    def test_polyline_contains(self):
        rect = PolylineLoop(((0, 0), (2, 0), (2, 1), (0, 1)))
        assert rect.contains((1.0, 0.5))
        assert not rect.contains((3.0, 0.5))

    def test_polyline_closes(self):
        rect = PolylineLoop(((0, 0), (2, 0), (2, 1), (0, 1)))
        assert rect.point(0.0) == rect.point(1.0)

    def test_polyline_parameterization_is_continuous(self):
        rect = PolylineLoop(((0, 0), (2, 0), (2, 1), (0, 1)))
        pts = [rect.point(t) for t in np.linspace(0, 1, 601)]
        steps = [math.hypot(b[0] - a[0], b[1] - a[1])
                 for a, b in zip(pts, pts[1:])]
        assert max(steps) < 3 * (sum(steps) / len(steps))

    def test_polyline_needs_three_vertices(self):
        with pytest.raises(ValueError):
            PolylineLoop(((0, 0), (1, 1)))

    @pytest.mark.parametrize("vertices", [((0.5, 1.0),) * 3,
                                          ((0, 0), (1e308, 0), (-1e308, 0))])
    def test_polyline_needs_a_positive_finite_perimeter(self, vertices):
        with pytest.raises(ValueError, match="vertices must span a positive, "
                                             "finite perimeter"):
            PolylineLoop(vertices)
