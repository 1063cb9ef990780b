import math

import numpy as np
import pytest

from epkit.core import diagonalize, eigvalues_grid
from epkit.toymodel import (FULL_COMPLEX, REAL_PART, ToyParams,
                            build_hamiltonian, coupling, eigenpair_sampler,
                            preset, scan_entries, xi)

# real-part crossing of the two level trajectories: 1 - a/2 = sqrt(a)
ALPHA_CROSS = 0.5358983848622454  # (sqrt(3) - 1)^2
DOUBLE_EP = ToyParams(g_c=0.05, beta=1.0, gamma1=1.05, gamma2=1.05)
# roots of abar^2 exp(2 abar^2) = 4 g_c^2 mapped through alpha(abar)
EP1_ALPHA = 0.4541453828492342
EP2_ALPHA = 0.6214307910107969


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ToyParams(g_c=0.0, beta=0.5, gamma1=1, gamma2=1)
        with pytest.raises(ValueError):
            ToyParams(g_c=0.05, beta=1.5, gamma1=1, gamma2=1)
        with pytest.raises(ValueError):
            ToyParams(g_c=0.05, beta=0.5, gamma1=1, gamma2=1,
                      lambda_mode="nonsense")

    @pytest.mark.parametrize("field", ["g_c", "gamma1", "gamma2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_field_named(self, field, value):
        fields = {"g_c": 0.05, "beta": 0.5, "gamma1": 1.0, "gamma2": 1.0}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ToyParams(**{**fields, field: value})

    @pytest.mark.parametrize("field", ["g_c", "beta", "gamma1", "gamma2"])
    @pytest.mark.parametrize("value", ["0.05", None, True, [1.0]])
    def test_non_number_field_named(self, field, value):
        fields = {"g_c": 0.05, "beta": 0.5, "gamma1": 1.0, "gamma2": 1.0}
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            ToyParams(**{**fields, field: value})

    def test_presets_match_reference_table(self):
        assert preset("class1").beta == 0.76
        assert preset("class2").beta == 0.78
        assert preset("class3").gamma1 == 1.05 and preset("class3b").gamma1 == 1.07
        assert preset("class4").gamma1 == 1.07
        assert preset("class5").beta == 0.76 and preset("class5").gamma2 == 1.05
        for name in ("class1", "class2", "class3a", "class3b", "class4", "class5"):
            assert preset(name).g_c == 0.043
        assert preset("double-ep").g_c == 0.05

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown preset"):
            preset("class9")


class TestXi:
    def test_endpoint(self):
        p = ToyParams(g_c=0.05, beta=0.0, gamma1=0.0, gamma2=0.0)
        xi1, xi2 = xi(0.0, p)
        assert xi1 == 1.0 and xi2 == 0.0

    def test_real_part_crossing(self):
        p = ToyParams(g_c=0.05, beta=0.0, gamma1=0.3, gamma2=0.3)
        xi1, xi2 = xi(ALPHA_CROSS, p)
        assert xi1.real == pytest.approx(xi2.real, abs=1e-12)
        assert xi1.real == pytest.approx(math.sqrt(3) - 1, abs=1e-12)

    def test_class1_imaginary_parts(self):
        p = preset("class1")
        xi1, xi2 = xi(1.0, p)
        assert xi1 == 0.5 + 1.05j
        assert xi2 == 1.0 + 1.07j

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            xi(-0.1, preset("class1"))


class TestCoupling:
    def test_unit_sensitivity_at_crossing(self):
        p = ToyParams(g_c=0.07, beta=0.0, gamma1=0.4, gamma2=0.4)
        assert coupling(ALPHA_CROSS, p) == pytest.approx(0.07, abs=1e-12)

    def test_frozen_value(self):
        # xi difference is exactly -0.5 at alpha = 1 with equal gammas
        p = ToyParams(g_c=0.05, beta=0.0, gamma1=0.9, gamma2=0.9)
        assert coupling(1.0, p) == pytest.approx(0.03894003915357024, abs=1e-15)

    def test_beta_endpoints(self):
        for alpha in (0.1, 0.7, 2.0):
            real_g = coupling(alpha, ToyParams(0.05, 0.0, 1.0, 1.0))
            imag_g = coupling(alpha, ToyParams(0.05, 1.0, 1.0, 1.0))
            assert real_g.imag == 0.0
            assert imag_g.real == 0.0

    def test_magnitude_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            beta = float(rng.uniform(0, 1))
            alpha = float(rng.uniform(0, 4))
            p = ToyParams(0.05, beta, 1.05, 1.07)
            xi1, xi2 = xi(alpha, p)
            lam = abs(np.exp(-((xi1 - xi2) ** 2)))
            assert abs(coupling(alpha, p)) <= 0.05 * lam * (1 + 1e-12)

    def test_modes_agree_for_equal_gammas(self):
        full = ToyParams(0.05, 0.5, 1.05, 1.05, FULL_COMPLEX)
        real = ToyParams(0.05, 0.5, 1.05, 1.05, REAL_PART)
        assert coupling(0.3, full) == pytest.approx(coupling(0.3, real), abs=1e-15)

    def test_modes_differ_for_unequal_gammas(self):
        full = ToyParams(0.05, 0.5, 1.05, 1.07, FULL_COMPLEX)
        real = ToyParams(0.05, 0.5, 1.05, 1.07, REAL_PART)
        assert coupling(0.3, full) != coupling(0.3, real)


class TestBuildHamiltonian:
    def test_near_ep_splitting_at_published_alphas(self):
        # the published 3-decimal EP positions leave |eta| at the few-1e-3
        # level; the refined roots drive it to rounding level
        for alpha_pub, alpha_exact in ((0.454, EP1_ALPHA), (0.621, EP2_ALPHA)):
            s = diagonalize(build_hamiltonian(alpha_pub, DOUBLE_EP))
            assert abs(s.eta) < 6e-3
            s = diagonalize(build_hamiltonian(alpha_exact, DOUBLE_EP))
            assert abs(s.eta) < 1e-7

    def test_beta_zero_is_real_coupled(self):
        # with unequal gammas the complex-difference sensitivity rotates g
        # slightly, so exact endpoint realness holds in real-part mode
        p = ToyParams(g_c=0.043, beta=0.0, gamma1=1.05, gamma2=1.07,
                      lambda_mode=REAL_PART)
        h = build_hamiltonian(0.1, p)
        assert h.g.imag == 0.0
        assert h.xi1.imag == 1.05 and h.xi2.imag == 1.07
        full = build_hamiltonian(0.1, ToyParams(0.043, 0.0, 1.05, 1.07))
        assert abs(full.g.imag) < 1e-3  # only the sensitivity phase remains
        assert full.g.real == pytest.approx(h.g.real, rel=1e-3)


class TestScanStructure:
    def test_real_parts_locked_between_eps(self):
        alphas = np.linspace(EP1_ALPHA + 1e-6, EP2_ALPHA - 1e-6, 500)
        lp, lm = eigvalues_grid(*scan_entries(alphas, DOUBLE_EP))
        assert np.max(np.abs(lp.real - lm.real)) < 1e-10

    def test_widths_locked_outside_eps(self):
        left = np.linspace(0.30, EP1_ALPHA - 1e-6, 250)
        right = np.linspace(EP2_ALPHA + 1e-6, 0.80, 250)
        for alphas in (left, right):
            lp, lm = eigvalues_grid(*scan_entries(alphas, DOUBLE_EP))
            assert np.max(np.abs(lp.imag - lm.imag)) < 1e-10

    def test_width_split_peaks_near_midpoint(self):
        alphas = np.linspace(EP1_ALPHA, EP2_ALPHA, 2001)
        lp, lm = eigvalues_grid(*scan_entries(alphas, DOUBLE_EP))
        split = np.abs(lp.imag - lm.imag)
        midpoint = 0.5 * (EP1_ALPHA + EP2_ALPHA)
        assert abs(alphas[np.argmax(split)] - midpoint) < 0.01

    def test_eigenvectors_coalesce_near_ep(self):
        # at the published EP1 position the two eigenstates are nearly
        # parallel; overlap approaches 1 at coalescence
        from epkit.core import diagonalize
        from epkit.crossing import overlap_curve
        s = diagonalize(build_hamiltonian(0.454, DOUBLE_EP))
        assert overlap_curve([s.v_plus], [s.v_minus])[0] >= 0.99

    def test_sampler_matches_scan_and_allows_beta_above_one(self):
        samp = eigenpair_sampler(DOUBLE_EP)
        lp, lm = eigvalues_grid(*scan_entries(np.array([0.5]), DOUBLE_EP))
        got = samp(0.5, 1.0)
        assert got[0] == complex(lp[0]) and got[1] == complex(lm[0])
        la, lb = samp(0.5, 1.05)  # loops around boundary EPs need this
        assert np.isfinite(la.real) and np.isfinite(lb.real)
        with pytest.raises(ValueError):
            samp(-0.2, 1.0)
