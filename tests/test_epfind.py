import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epkit.core import principal_sqrt
from epkit.epfind import (equal_width_eps, grid_ep_search, sample_points,
                          toy_ep_roots)
from epkit.surface import build_surface
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
    """Independent scan of the splitting magnitude at fixed resolution."""
    alphas = np.arange(lo, hi, resolution)
    xi1 = (1.0 - 0.5 * alphas) + 1j * p.gamma1
    xi2 = np.sqrt(alphas) + 1j * p.gamma2
    g = p.g_c * ((1.0 - p.beta) + 1j * p.beta) * np.exp(-((xi1 - xi2) ** 2))
    eta_abs = np.abs(np.sqrt(0.25 * (xi1 - xi2) ** 2 + g * g))
    k = np.where((eta_abs[1:-1] <= eta_abs[:-2]) & (eta_abs[1:-1] < eta_abs[2:]))[0] + 1
    return [(float(alphas[i]), float(eta_abs[i])) for i in k]


def closed_form_double_ep(g_c):
    """EP alphas of the equal-width beta = 1 model, where eta^2 =
    abar^2/4 - g_c^2 exp(-2 abar^2) with abar = 1 - alpha/2 - sqrt(alpha):
    bisect d0/2 = g_c exp(-d0^2), then solve abar = +d0 and -d0."""
    lo, hi = 0.0, 2.0 * g_c
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mid / 2 < g_c * math.exp(-mid * mid):
            lo = mid
        else:
            hi = mid
    return [(math.sqrt(3.0 + s * 2.0 * lo) - 1.0) ** 2 for s in (-1, 1)]


class TestToyEpRoots:
    def test_published_double_ep(self):
        roots = toy_ep_roots(DOUBLE_EP, (0.3, 0.8))
        assert len(roots) == 2
        assert roots[0].p1 == pytest.approx(0.454, abs=1e-3)
        assert roots[1].p1 == pytest.approx(0.621, abs=1e-3)
        for r in roots:
            assert r.order == 2
            assert r.p2 == 1.0
            assert r.residual < 2e-5

    def test_matches_transcendental_relation(self):
        # abar^2 exp(2 abar^2) = 4 g_c^2 at a root
        roots = toy_ep_roots(DOUBLE_EP, (0.3, 0.8))
        for r in roots:
            abar = 1.0 - 0.5 * r.p1 - math.sqrt(r.p1)
            assert abs(abar) == pytest.approx(0.09902421253765573, abs=1e-6)
            residual = abar**2 * math.exp(2 * abar**2) - 4 * 0.05**2
            assert abs(residual) < 1e-9

    def test_matches_brute_force_scan(self):
        minima = brute_force_gap_minima(DOUBLE_EP, 0.3, 0.8)
        deep = [a for a, v in minima if v < 1e-3]
        roots = toy_ep_roots(DOUBLE_EP, (0.3, 0.8))
        assert len(deep) == len(roots) == 2
        for got, expected in zip(roots, sorted(deep)):
            assert got.p1 == pytest.approx(expected, abs=1e-4)

    def test_real_coupling_has_no_roots(self):
        p = ToyParams(g_c=0.05, beta=0.0, gamma1=1.05, gamma2=1.05)
        assert toy_ep_roots(p, (0.3, 0.8)) == []

    def test_interior_beta_has_no_roots(self):
        p = ToyParams(g_c=0.05, beta=0.5, gamma1=1.05, gamma2=1.05)
        assert toy_ep_roots(p, (0.01, 2.0)) == []

    def test_empty_bracket_far_from_roots(self):
        assert toy_ep_roots(DOUBLE_EP, (1.0, 2.0)) == []

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            toy_ep_roots(DOUBLE_EP, (0.8, 0.3))

    @pytest.mark.parametrize("bracket", [(0.3, 0.6215), (0.4541, 0.8)])
    def test_finds_an_ep_next_to_either_end(self, bracket):
        # each bracket ends just past an EP, so that EP's scan minimum is an
        # end of the scan grid
        roots = [r.p1 for r in toy_ep_roots(DOUBLE_EP, bracket)]
        assert roots == pytest.approx([EP1_ALPHA, EP2_ALPHA], abs=1e-9)

    @pytest.mark.parametrize("lo", [0.0, 1e-9])
    def test_a_minimum_at_alpha_zero_is_refined(self, lo):
        # for g_c > e/2, |eta^2| rises from alpha = 0, so the first scan
        # point seeds Newton; its difference stencil stays at alpha >= 0
        p = ToyParams(g_c=1.5, beta=1.0, gamma1=1.05, gamma2=1.05)
        roots = toy_ep_roots(p, (lo, 4.0))
        assert [r.p1 for r in roots] == pytest.approx(
            [e.p1 for e in equal_width_eps(p)], abs=1e-9)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_a_bad_residual_tol(self, tol):
        with pytest.raises(ValueError, match=rf"^residual_tol must be positive"
                                             rf" and finite, got {tol!r}$"):
            toy_ep_roots(DOUBLE_EP, (0.3, 0.8), residual_tol=tol)

    def test_exact_alpha_values(self):
        roots = toy_ep_roots(DOUBLE_EP, (0.3, 0.8))
        assert roots[0].p1 == pytest.approx(EP1_ALPHA, abs=1e-9)
        assert roots[1].p1 == pytest.approx(EP2_ALPHA, abs=1e-9)

    @given(st.floats(0.01, 0.4), st.floats(0.5, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_equal_widths_match_closed_form(self, g_c, gamma):
        p = ToyParams(g_c=g_c, beta=1.0, gamma1=gamma, gamma2=gamma)
        roots = toy_ep_roots(p, (0.01, 4.0))
        expected = closed_form_double_ep(g_c)
        assert len(roots) == 2
        for got, alpha in zip(roots, expected):
            assert abs(got.p1 - alpha) < 1e-12


SCAN_BRACKET = (0.01, 4.0)


class TestEqualWidthEps:
    @given(st.floats(0.005, 3.0), st.floats(0.0, 2.0), st.floats(0.0, 1.0),
           st.sampled_from([FULL_COMPLEX, REAL_PART]))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_scan_roots(self, g_c, gamma, beta, mode):
        p = ToyParams(g_c=g_c, beta=beta, gamma1=gamma, gamma2=gamma,
                      lambda_mode=mode)
        eps = equal_width_eps(p)
        alphas = [ep.p1 for ep in eps]
        # math.e is the largest float below e, so this is 2 g_c < e
        assert len(eps) == (2 if 2.0 * g_c <= math.e else 1)
        assert alphas == sorted(alphas)
        assert all(ep.p2 == 1.0 and ep.residual < 1e-6 for ep in eps)
        # every scan root is an EP, and the scan finds every EP in its
        # bracket, next to an end too
        roots = [r.p1 for r in toy_ep_roots(p.with_beta(1.0), SCAN_BRACKET)]
        lo, hi = SCAN_BRACKET
        inside = [a for a in alphas if lo <= a <= hi]
        assert all(any(abs(a - r) < 1e-12 for a in alphas) for r in roots)
        assert all(any(abs(a - r) < 1e-12 for r in roots) for a in inside)

    @given(st.floats(0.005, 1.35))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_closed_form_reference(self, g_c):
        p = ToyParams(g_c=g_c, beta=1.0, gamma1=1.0, gamma2=1.0)
        got = [ep.p1 for ep in equal_width_eps(p)]
        for alpha, expected in zip(got, closed_form_double_ep(g_c)):
            assert abs(alpha - expected) < 1e-12

    def test_published_double_ep(self):
        ep1, ep2 = equal_width_eps(DOUBLE_EP)
        assert ep1.p1 == pytest.approx(EP1_ALPHA, abs=1e-15)
        assert ep2.p1 == pytest.approx(EP2_ALPHA, abs=1e-15)
        assert ep1.p2 == ep2.p2 == 1.0
        assert max(ep1.residual, ep2.residual) < 1e-8

    def test_strong_coupling_leaves_one_ep(self):
        # 2 g_c = e puts the d = +d0 EP at alpha = 0; above it, at alpha < 0
        small, large = equal_width_eps(ToyParams(
            g_c=math.e / 2, beta=1.0, gamma1=1.0, gamma2=1.0))
        assert 0.0 <= small.p1 < 1e-30
        (ep,) = equal_width_eps(ToyParams(g_c=math.nextafter(math.e / 2, 2.0),
                                          beta=1.0, gamma1=1.0, gamma2=1.0))
        assert ep.p1 == pytest.approx(large.p1, abs=1e-12)

    def test_unequal_widths_rejected(self):
        with pytest.raises(ValueError, match="gamma1 == gamma2, got 1.05 and"
                                             " 1.07"):
            equal_width_eps(ToyParams(**PRESETS["class3a"]["params"]))


class TestGridEpSearch:
    def test_recovers_oracle_branch_points(self):
        res = grid_ep_search(oracle_sampler(Z1, Z2), ((2.5, 3.0), (0.45, 0.7)),
                             coarse_n=48)
        assert len(res) == 2
        assert abs(complex(res[0].p1, res[0].p2) - Z1) < 1e-4
        assert abs(complex(res[1].p1, res[1].p2) - Z2) < 1e-4

    def test_agrees_with_toy_roots(self):
        res = grid_ep_search(eigenpair_sampler(DOUBLE_EP),
                             ((0.3, 0.8), (0.9, 1.0)), coarse_n=48)
        roots = toy_ep_roots(DOUBLE_EP, (0.3, 0.8))
        assert len(res) == len(roots) == 2
        for got, expected in zip(res, roots):
            assert got.p1 == pytest.approx(expected.p1, abs=1e-4)
            assert got.p2 == pytest.approx(1.0, abs=1e-4)

    def test_constant_gap_finds_nothing(self):
        res = grid_ep_search(lambda a, b: (0.5 + 0j, -0.5 + 0j),
                             ((0.0, 1.0), (0.0, 1.0)), coarse_n=16)
        assert len(res) == 0

    def test_residuals_below_documented_tolerance(self):
        res = grid_ep_search(oracle_sampler(Z1, Z2), ((2.5, 3.0), (0.45, 0.7)),
                             coarse_n=32)
        for ep in res:
            assert ep.residual < res.tolerance
            assert ep.residual < 1e-3 * res.median_gap

    def test_seed_perturbation_invariance(self):
        # shifting the coarse grid by about one cell must not move the roots
        base = grid_ep_search(oracle_sampler(Z1, Z2), ((2.5, 3.0), (0.45, 0.7)),
                              coarse_n=48)
        shifted = grid_ep_search(oracle_sampler(Z1, Z2),
                                 ((2.5 + 0.01, 3.0 + 0.01), (0.45, 0.7)),
                                 coarse_n=47)
        assert len(base) == len(shifted) == 2
        for a, b in zip(base, shifted):
            assert math.hypot(a.p1 - b.p1, a.p2 - b.p2) < 1e-6

    def test_sampler_failures_are_counted_and_skipped(self):
        def flaky(p1, p2):
            if p1 < 2.52:
                raise RuntimeError("detector hole")
            return oracle_sampler(Z1, Z2)(p1, p2)

        res = grid_ep_search(flaky, ((2.5, 3.0), (0.45, 0.7)), coarse_n=32)
        assert res.sampler_failures > 0
        assert len(res) == 2

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
        assert len(grid_ep_search(sample, ((0.3, 0.8), (0.9, 1.1)))) == 2
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
        assert len(res) == 0

    def test_eps_outside_the_window_not_returned(self):
        # class2's second EP, near (0.627, 1.240), lies above the window
        sample = eigenpair_sampler(ToyParams(**PRESETS["class2"]["params"]))
        res = grid_ep_search(sample, ((0.01, 1.5), (0.0, 1.2)))
        assert len(res) == 1
        assert res[0].p1 == pytest.approx(0.4813374, abs=1e-6)
        assert res[0].p2 == pytest.approx(0.7645287, abs=1e-6)

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
        for ep in grid_ep_search(sample, window, n):
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
        res = grid_ep_search(oracle_sampler(z1, z2), window, n)
        assert len(res) == 2
        for ep in res:
            assert ep.residual < res.tolerance
        found = [complex(ep.p1, ep.p2) for ep in res]
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
        fast, slow = (build_surface(s, window, 64, 16, max_missing_frac=0.05)
                      for s in (sample, scalar_only(sample)))
        assert fast.missing == slow.missing == [(0, j) for j in range(16)]
        np.testing.assert_array_equal(fast.sheet1, slow.sheet1)
        assert fast.cut_cells == slow.cut_cells
