import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epkit import surface
from epkit.core import principal_sqrt
from epkit.epfind import (REFINE_REL, EPLocation, cell_winding,
                          equal_width_eps, grid_ep_search, sample_points)
from epkit.surface import AnalyticOracle, PolylineLoop, build_surface, encircle
from epkit.toymodel import (FULL_COMPLEX, PRESETS, REAL_PART, ToyParams,
                            eigenpair_sampler)

DOUBLE_EP = ToyParams(g_c=0.05, beta=1.0, gamma1=1.05, gamma2=1.05)
EP1_ALPHA = 0.4541453828492342
EP2_ALPHA = 0.6214307910107969

# microcavity EP coordinates used as oracle branch points
Z1 = 2.6257 + 0.601j
Z2 = 2.9036 + 0.53j


def oracle_sampler(z1, z2):
    def sample(p1, p2):
        s = principal_sqrt((complex(p1, p2) - z1) * (complex(p1, p2) - z2))
        return s, -s
    return sample


def brute_force_gap_minima(p, lo, hi, resolution=1e-6):
    """Independent scan of the splitting magnitude at fixed resolution:
    the interior local minima of |eta|, as (alpha, |eta|)."""
    alphas = np.arange(lo, hi, resolution)
    xi1 = (1.0 - 0.5 * alphas) + 1j * p.gamma1
    xi2 = np.sqrt(alphas) + 1j * p.gamma2
    diff = xi1 - xi2
    if p.lambda_mode == REAL_PART:
        diff = diff.real
    g = p.g_c * ((1.0 - p.beta) + 1j * p.beta) * np.exp(-(diff ** 2))
    eta_abs = np.abs(np.sqrt(0.25 * (xi1 - xi2) ** 2 + g * g))
    k = np.where((eta_abs[1:-1] <= eta_abs[:-2]) & (eta_abs[1:-1] < eta_abs[2:]))[0] + 1
    return [(float(alphas[i]), float(eta_abs[i])) for i in k]


def closed_form_double_ep(g_c):
    """EP alphas of the equal-width beta = 1 model, where eta^2 =
    abar^2/4 - g_c^2 exp(-2 abar^2) with abar = 1 - alpha/2 - sqrt(alpha):
    bisect d0/2 = g_c exp(-d0^2), then solve abar = +d0 and -d0 for
    sqrt(alpha) = sqrt(3 - 2 abar) - 1, keeping the solutions >= 0."""
    lo, hi = 0.0, 2.0 * g_c
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mid / 2 < g_c * math.exp(-mid * mid):
            lo = mid
        else:
            hi = mid
    roots = [math.sqrt(3.0 + s * 2.0 * lo) - 1.0 for s in (-1, 1)
             if 3.0 + s * 2.0 * lo >= 0.0]
    return [r * r for r in roots if r >= 0.0]


class TestEqualWidthEps:
    @given(st.floats(0.005, 3.0), st.floats(0.0, 2.0), st.floats(0.0, 1.0),
           st.sampled_from([FULL_COMPLEX, REAL_PART]))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_closed_form_reference(self, g_c, gamma, beta, mode):
        p = ToyParams(g_c=g_c, beta=beta, gamma1=gamma, gamma2=gamma,
                      lambda_mode=mode)
        eps = equal_width_eps(p)
        alphas = [ep.p1 for ep in eps]
        # math.e is the largest float below e, so this is 2 g_c < e
        assert len(eps) == (2 if 2.0 * g_c <= math.e else 1)
        assert alphas == sorted(alphas)
        assert all(ep.p2 == 1.0 and ep.residual < 1e-6 for ep in eps)
        assert eps == equal_width_eps(dataclasses.replace(p, beta=1.0))
        expected = closed_form_double_ep(g_c)
        assert len(expected) == len(alphas)
        for alpha, ref in zip(alphas, expected):
            assert abs(alpha - ref) < 1e-12

    @given(st.floats(0.005, 3.0), st.floats(0.0, 2.0),
           st.sampled_from([FULL_COMPLEX, REAL_PART]))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_brute_force_minima(self, g_c, gamma, mode):
        # on beta = 1 every interior minimum of |eta| is an EP, and every EP
        # away from the scan's first point is such a minimum
        p = ToyParams(g_c=g_c, beta=1.0, gamma1=gamma, gamma2=gamma,
                      lambda_mode=mode)
        step = 1e-5
        minima = [a for a, _ in brute_force_gap_minima(p, 0.0, 4.0, step)]
        alphas = [ep.p1 for ep in equal_width_eps(p)]
        assert all(any(abs(a - m) <= step for a in alphas) for m in minima)
        assert all(any(abs(a - m) <= step for m in minima)
                   for a in alphas if a > 2 * step)

    def test_matches_transcendental_relation(self):
        # abar^2 exp(2 abar^2) = 4 g_c^2 at an EP
        for ep in equal_width_eps(DOUBLE_EP):
            abar = 1.0 - 0.5 * ep.p1 - math.sqrt(ep.p1)
            assert abs(abar) == pytest.approx(0.09902421253765573, abs=1e-6)
            residual = abar**2 * math.exp(2 * abar**2) - 4 * 0.05**2
            assert abs(residual) < 1e-9

    def test_published_double_ep(self):
        ep1, ep2 = equal_width_eps(DOUBLE_EP)
        assert ep1.p1 == pytest.approx(EP1_ALPHA, abs=1e-15)
        assert ep2.p1 == pytest.approx(EP2_ALPHA, abs=1e-15)
        assert ep1.p2 == ep2.p2 == 1.0
        assert max(ep1.residual, ep2.residual) < 1e-8

    @pytest.mark.parametrize("mode", [FULL_COMPLEX, REAL_PART])
    def test_double_ep_is_the_two_deep_gap_minima(self, mode):
        p = dataclasses.replace(DOUBLE_EP, lambda_mode=mode)
        deep = [a for a, v in brute_force_gap_minima(p, 0.3, 0.8) if v < 1e-3]
        eps = equal_width_eps(p)
        assert len(deep) == len(eps) == 2
        for got, expected in zip(eps, sorted(deep)):
            assert got.p1 == pytest.approx(expected, abs=1e-5)

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 0.75, 0.9])
    def test_eps_lie_on_the_beta_1_line_only(self, beta):
        # off beta = 1 the splitting has no zero: no deep gap minimum
        p = dataclasses.replace(DOUBLE_EP, beta=beta)
        assert [a for a, v in brute_force_gap_minima(p, 0.01, 2.0)
                if v < 1e-3] == []
        assert equal_width_eps(p) == equal_width_eps(DOUBLE_EP)

    def test_strong_coupling_leaves_one_ep(self):
        # 2 g_c = e puts the d = +d0 EP at alpha = 0; above it, at alpha < 0
        small, large = equal_width_eps(ToyParams(
            g_c=math.e / 2, beta=1.0, gamma1=1.0, gamma2=1.0))
        assert 0.0 <= small.p1 < 1e-30
        (ep,) = equal_width_eps(ToyParams(g_c=math.nextafter(math.e / 2, 2.0),
                                          beta=1.0, gamma1=1.0, gamma2=1.0))
        assert ep.p1 == pytest.approx(large.p1, abs=1e-12)

    def test_strong_coupling_ep_is_the_one_gap_minimum(self):
        # for g_c = 1.5 > e/2, |eta| rises from alpha = 0 up to the -d0 EP
        p = ToyParams(g_c=1.5, beta=1.0, gamma1=1.05, gamma2=1.05)
        (ep,) = equal_width_eps(p)
        ((alpha, _),) = brute_force_gap_minima(p, 0.0, 4.0, 1e-5)
        assert ep.p1 == pytest.approx(alpha, abs=1e-5)
        assert ep.p1 == pytest.approx(closed_form_double_ep(1.5)[0], abs=1e-12)
        assert ep.residual < 1e-6

    def test_unequal_widths_rejected(self):
        with pytest.raises(ValueError, match="gamma1 == gamma2, got 1.05 and"
                                             " 1.07"):
            equal_width_eps(ToyParams(**PRESETS["class3a"]["params"]))


class TestGridEpSearch:
    def test_recovers_oracle_branch_points(self):
        eps = grid_ep_search(oracle_sampler(Z1, Z2), ((2.5, 3.0), (0.45, 0.7)),
                             coarse_n=48).locations
        assert len(eps) == 2
        assert abs(complex(eps[0].p1, eps[0].p2) - Z1) < 1e-4
        assert abs(complex(eps[1].p1, eps[1].p2) - Z2) < 1e-4

    def test_agrees_with_the_closed_form(self):
        res = grid_ep_search(eigenpair_sampler(DOUBLE_EP),
                             ((0.3, 0.8), (0.9, 1.0)), coarse_n=48)
        eps = equal_width_eps(DOUBLE_EP)
        assert len(res.locations) == len(eps) == 2
        for got, expected in zip(res.locations, eps):
            assert got.p1 == pytest.approx(expected.p1, abs=1e-4)
            assert got.p2 == pytest.approx(1.0, abs=1e-4)

    def test_constant_gap_finds_nothing(self):
        res = grid_ep_search(lambda a, b: (0.5 + 0j, -0.5 + 0j),
                             ((0.0, 1.0), (0.0, 1.0)), coarse_n=16)
        assert res.locations == []

    def test_residuals_below_documented_tolerance(self):
        res = grid_ep_search(oracle_sampler(Z1, Z2), ((2.5, 3.0), (0.45, 0.7)),
                             coarse_n=32)
        assert len(res.locations) == 2
        for ep in res.locations:
            assert ep.residual < REFINE_REL * math.hypot(0.5, 0.25)

    def test_seed_perturbation_invariance(self):
        # shifting the coarse grid by about one cell must not move the roots
        base = grid_ep_search(oracle_sampler(Z1, Z2), ((2.5, 3.0), (0.45, 0.7)),
                              coarse_n=48)
        shifted = grid_ep_search(oracle_sampler(Z1, Z2),
                                 ((2.5 + 0.01, 3.0 + 0.01), (0.45, 0.7)),
                                 coarse_n=47)
        assert len(base.locations) == len(shifted.locations) == 2
        for a, b in zip(base.locations, shifted.locations):
            assert math.hypot(a.p1 - b.p1, a.p2 - b.p2) < 1e-6

    def test_sampler_failures_are_counted_and_skipped(self):
        def flaky(p1, p2):
            if p1 < 2.52:
                raise RuntimeError("detector hole")
            return oracle_sampler(Z1, Z2)(p1, p2)

        res = grid_ep_search(flaky, ((2.5, 3.0), (0.45, 0.7)), coarse_n=32)
        assert res.sampler_failures > 0
        assert len(res.locations) == 2

    def test_cells_without_a_sampled_corner_get_no_seed(self):
        # alpha < 0 fails to sample: the first 6 of 48 alpha nodes, so 288
        # coarse-grid failures and no seed in the 5 x 47 cells between them
        res = grid_ep_search(eigenpair_sampler(DOUBLE_EP),
                             ((-0.1, 0.8), (0.9, 1.1)), coarse_n=48)
        assert res.sampler_failures == 6 * 48
        assert res.locations == [
            EPLocation(0.45414538284923417, 1.0, 2.9451006078318187e-09),
            EPLocation(0.6214307910107969, 1.0, 4.165001232792065e-09)]

    def test_small_coarse_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_ep_search(oracle_sampler(Z1, Z2), ((2.5, 3.0), (0.45, 0.7)),
                           coarse_n=4)

    @pytest.mark.parametrize("window", [((0.8, 0.3), (0.9, 1.1)),
                                        ((0.3, 0.8), (1.1, 0.9)),
                                        ((0.3, 0.8), (0.9, 0.9))])
    def test_empty_window_rejected(self, window):
        # the window ((0.3, 0.8), (0.9, 1.1)) holds both branch points
        sample = oracle_sampler(complex(0.4, 0.95), complex(0.6, 1.0))
        found = grid_ep_search(sample, ((0.3, 0.8), (0.9, 1.1))).locations
        assert len(found) == 2
        with pytest.raises(ValueError, match=r"lo < hi on both axes, got "
                           + re.escape(repr(window))):
            grid_ep_search(sample, window)

    @pytest.mark.parametrize("window", [((2.5, math.inf), (0.45, 0.7)),
                                        ((2.5, 3.0), (-math.inf, 0.7)),
                                        ((-1e308, 1e308), (0.45, 0.7))])
    def test_infinite_window_rejected(self, window):
        with pytest.raises(ValueError, match="must span a finite, nonzero "
                                             "width"):
            grid_ep_search(oracle_sampler(Z1, Z2), window)

    def test_shallow_avoided_crossing_rejected(self):
        # a gap with a smooth nonzero dip is not an EP
        def dipped(p1, p2):
            gap = 0.2 + (p1 - 0.5) ** 2 + (p2 - 0.5) ** 2
            return complex(gap, 0), 0j

        res = grid_ep_search(dipped, ((0.0, 1.0), (0.0, 1.0)), coarse_n=16)
        assert res.locations == []

    def test_close_pair_gives_both_eps(self):
        # 0.036 apart, under two cells: one 8-neighbour gap minimum served
        # both, but each EP winds D around a cell of its own
        z1, z2 = 0.759 + 0.702j, 0.785 + 0.676j
        sample = AnalyticOracle.two_point(z1, z2).sampler()
        eps = grid_ep_search(sample, ((0.359, 1.334), (0.173, 1.187))).locations
        assert len(eps) == 2
        for ep, z in zip(eps, (z1, z2)):
            assert abs(complex(ep.p1, ep.p2) - z) < 1e-10

    @pytest.mark.parametrize("corner", [0j, 47 + 0j, 47j, 47 + 47j])
    def test_branch_point_on_a_window_corner_found(self, corner):
        # D = 0 at the corner node, which leaves the one cell there
        # unresolved rather than charged
        sample = AnalyticOracle.single_point(corner).sampler()
        (ep,) = grid_ep_search(sample, ((0.0, 47.0), (0.0, 47.0))).locations
        assert complex(ep.p1, ep.p2) == corner
        assert ep.residual == 0.0

    def test_eps_outside_the_window_not_returned(self):
        # class2's second EP, near (0.627, 1.240), lies above the window
        sample = eigenpair_sampler(ToyParams(**PRESETS["class2"]["params"]))
        (ep,) = grid_ep_search(sample, ((0.01, 1.5), (0.0, 1.2))).locations
        assert ep.p1 == pytest.approx(0.4813374, abs=1e-6)
        assert ep.p2 == pytest.approx(0.7645287, abs=1e-6)

    @given(st.sampled_from(["class2", "class4", "double-ep", "oracle"]),
           st.floats(0.01, 1.0), st.floats(0.05, 1.5), st.floats(-0.5, 1.5),
           st.floats(0.05, 1.5), st.sampled_from([8, 16, 32]))
    @settings(max_examples=60, deadline=None)
    def test_every_ep_lies_in_its_window(self, name, a0, width, b0, height, n):
        if name == "oracle":
            sample = oracle_sampler(0.454 + 1.0j, 0.621 + 1.0j)
        else:
            sample = eigenpair_sampler(ToyParams(**PRESETS[name]["params"]))
        window = ((a0, a0 + width), (b0, b0 + height))
        for ep in grid_ep_search(sample, window, n).locations:
            assert a0 <= ep.p1 <= a0 + width and b0 <= ep.p2 <= b0 + height

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-1.0, 1.0),
           st.floats(-1.0, 1.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0),
           st.sampled_from([24, 32, 48]))
    @settings(max_examples=60, deadline=None)
    def test_recovers_random_two_point_oracles(self, x1, y1, dx, dy, mx, my, n):
        z1, z2 = complex(x1, y1), complex(x1 + dx, y1 + dy)
        window = ((min(z1.real, z2.real) - mx, max(z1.real, z2.real) + mx),
                  (min(z1.imag, z2.imag) - my, max(z1.imag, z2.imag) + my))
        cell = max(hi - lo for lo, hi in window) / (n - 1)
        assume(abs(z2 - z1) > 4 * cell)  # the grid resolves the two minima
        eps = grid_ep_search(oracle_sampler(z1, z2), window, n).locations
        assert len(eps) == 2
        diagonal = math.hypot(*(hi - lo for lo, hi in window))
        for ep in eps:
            assert ep.residual < REFINE_REL * diagonal
        found = [complex(ep.p1, ep.p2) for ep in eps]
        for z in (z1, z2):
            assert min(abs(f - z) for f in found) < 1e-10


def scalar_only(sample):
    """``sample`` called with floats, which raises on arrays."""
    return lambda p1, p2: sample(float(p1), float(p2))


class TestNegativeAlpha:
    def test_only_the_nan_points_are_sampled_again(self):
        # the batch call gives NaN at alpha < 0; one call per such point
        # raises there, as the same points do when sampled one at a time
        sample = eigenpair_sampler(DOUBLE_EP)
        sizes = []

        def counted(p1, p2):
            sizes.append(np.size(p1))
            return sample(p1, p2)

        p1, p2 = np.meshgrid(np.linspace(-0.05, 0.8, 18),
                             np.linspace(0.9, 1.1, 5), indexing="ij")
        va, vb, failed = sample_points(counted, p1, p2)
        negative = np.flatnonzero(p1 < 0).tolist()
        assert sizes == [p1.size] + [1] * len(negative)
        assert list(failed) == negative

        sa, sb, slow = sample_points(scalar_only(sample), p1, p2)
        np.testing.assert_array_equal(va, sa)
        np.testing.assert_array_equal(vb, sb)
        assert [(k, type(e), str(e)) for k, e in failed.items()] == [
            (k, type(e), str(e)) for k, e in slow.items()]

    def test_surface_missing_cells_unchanged(self):
        sample = eigenpair_sampler(DOUBLE_EP)
        window = ((-0.01, 0.8), (0.9, 1.1))  # one row of nodes at alpha < 0
        with mock.patch.object(surface, "MAX_MISSING_FRAC", 0.05):
            fast, slow = [build_surface(s, window, 64, 16)
                          for s in (sample, scalar_only(sample))]
        assert fast.missing == slow.missing == [(0, j) for j in range(16)]
        np.testing.assert_array_equal(fast.sheet1, slow.sheet1)
        assert fast.cut_cells == slow.cut_cells


class TestCellWinding:
    @given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10),
                              st.floats(0.2, 0.8), st.floats(0.2, 0.8)),
                    min_size=1, max_size=2),
           st.integers(0, 10), st.integers(1, 11), st.integers(0, 10),
           st.integers(1, 11))
    @settings(max_examples=60, deadline=None)
    def test_rectangle_charge_is_its_loop_winding(self, points, i0, i1, j0,
                                                  j1):
        # branch points at least 0.2 cells off the grid lines and 3 cells
        # apart, so D turns by less than pi along every grid edge: the cell
        # charges, resolved or not, sum to the turns around any rectangle
        assume(i0 < i1 and j0 < j1)
        if len(points) == 2:
            (a, b, _, _), (c, d, _, _) = points
            assume(max(abs(a - c), abs(b - d)) >= 3)
        axis1, axis2 = np.linspace(-1.0, 1.2, 12), np.linspace(0.5, 2.7, 12)
        cell = axis1[1] - axis1[0]
        zs = [complex(axis1[i] + fi * cell, axis2[j] + fj * cell)
              for i, j, fi, fj in points]
        oracle = (AnalyticOracle.single_point(*zs) if len(zs) == 1
                  else AnalyticOracle.two_point(*zs))
        sample = oracle.sampler()
        va, vb, _ = sample_points(sample, *np.meshgrid(axis1, axis2,
                                                       indexing="ij"))
        charge, _ = cell_winding(va - vb)
        x0, x1, y0, y1 = axis1[i0], axis1[i1], axis2[j0], axis2[j1]
        loop = PolylineLoop(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))
        assert (int(charge[i0:i1, j0:j1].sum())
                == encircle(sample, loop, 64).winding)
