import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import loop_reference as ref
from epkit.core import (DiscreteField, Hamiltonian2, diagonalize,
                        eigvalues_grid, overlap, principal_sqrt,
                        shannon_entropy, splitting)

finite_reals = st.floats(min_value=-10, max_value=10, allow_nan=False)
finite_complex = st.builds(complex, finite_reals, finite_reals)


def dense_eigvals(h):
    """Independent oracle: characteristic-polynomial roots via LAPACK."""
    return np.linalg.eigvals(h.matrix())


def pair_distance(got, expected):
    """Distance between eigenvalue pairs up to ordering."""
    a = abs(got[0] - expected[0]) + abs(got[1] - expected[1])
    b = abs(got[0] - expected[1]) + abs(got[1] - expected[0])
    return min(a, b)


class TestPrincipalSqrt:
    def test_positive(self):
        assert principal_sqrt(4.0) == 2.0

    def test_negative_real_takes_positive_imaginary(self):
        assert principal_sqrt(-4.0 + 0j) == 2j
        assert principal_sqrt(complex(-4.0, -0.0)) == 2j

    def test_branch_convention(self):
        for w in (1 + 1j, -0.3 + 0.7j, -2 - 5j, 0.1 - 0.1j):
            s = principal_sqrt(w)
            assert s.real > 0 or (s.real == 0 and s.imag >= 0)
            assert cmath.isclose(s * s, w, rel_tol=1e-12)


# components 0 or of magnitude 1e-150 to 1e150, so that no component of a
# root falls into the subnormal range
signed_zeros = st.sampled_from([0.0, -0.0])
moderate = st.one_of(signed_zeros, st.floats(1e-150, 1e150),
                     st.floats(-1e150, -1e-150))


class TestPrincipalSqrtReference:
    """The numpy kernel against the cmath reference in loop_reference.py."""

    @pytest.mark.parametrize("w", [complex(-4.0, -0.0), complex(-0.0, 0.0),
                                   complex(0.0, -0.0), complex(-0.0, -0.0),
                                   complex(-4.0, 0.0), complex(4.0, -0.0)])
    def test_signed_zero_cases_equal_reference_bitwise(self, w):
        assert ref.bits(principal_sqrt(w)) == ref.bits(ref.principal_sqrt(w))

    @given(moderate, moderate)
    @settings(max_examples=500, deadline=None)
    def test_equals_reference_bitwise(self, x, y):
        assume(x != 0.0 or y == 0.0)  # pure imaginary: see below
        w = complex(x, y)
        assert ref.bits(principal_sqrt(w)) == ref.bits(ref.principal_sqrt(w))

    @given(signed_zeros, moderate.filter(bool))
    @settings(max_examples=200, deadline=None)
    def test_pure_imaginary_root_is_symmetric(self, x, y):
        # the exact root of i*y has |Re| == |Im|, and numpy rounds both
        # parts alike; cmath forms Im as y / (2 Re), often 1 ulp away
        s, r = principal_sqrt(complex(x, y)), ref.principal_sqrt(complex(x, y))
        assert s.real == abs(s.imag)
        assert math.copysign(1.0, s.imag) == math.copysign(1.0, y)
        assert s.real == r.real and abs(s.imag - r.imag) <= math.ulp(r.imag)

    @given(st.complex_numbers(allow_nan=False, allow_infinity=False))
    @settings(max_examples=500, deadline=None)
    def test_close_to_reference_on_all_finite_inputs(self, w):
        # numpy loses bits in a subnormal component; where the real part of
        # the root underflows to 0 the Im >= 0 rule picks the other root
        s, r = principal_sqrt(w), ref.principal_sqrt(w)
        tol = 8 * sys.float_info.epsilon * abs(r)
        assert abs(s - r) <= tol or (s.real == 0.0 and abs(s + r) <= tol)


class TestHamiltonian2:
    def test_trace_det(self):
        h = Hamiltonian2(1 + 2j, 3 - 1j, 0.5j)
        assert h.trace == (4 + 1j)
        assert h.det == (1 + 2j) * (3 - 1j) - (0.5j) ** 2

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Hamiltonian2(float("nan"), 0, 0)
        with pytest.raises(ValueError):
            Hamiltonian2(0, complex(0, float("inf")), 0)

    def test_matrix_is_symmetric(self):
        m = Hamiltonian2(1, 2, 3 + 1j).matrix()
        assert m[0, 1] == m[1, 0]


class TestDiagonalize:
    def test_degenerate_diagonal(self):
        s = diagonalize(Hamiltonian2(1, 1, 0))
        assert s.lambda_plus == 1 and s.lambda_minus == 1
        assert s.eta == 0
        assert s.degenerate
        np.testing.assert_allclose(s.v_plus, s.v_minus)

    def test_real_coupling(self):
        # eta = sqrt(1/4 + 1/4); checked against the dense eigensolver
        s = diagonalize(Hamiltonian2(1, 0, 0.5))
        assert s.lambda_plus == pytest.approx(1.2071067811865476, abs=1e-12)
        assert s.lambda_minus == pytest.approx(-0.20710678118654757, abs=1e-12)
        oracle = dense_eigvals(Hamiltonian2(1, 0, 0.5))
        assert pair_distance((s.lambda_plus, s.lambda_minus), oracle) < 1e-10

    def test_pure_imaginary_coupling_splits_widths(self):
        # the width-bifurcation mechanism: equal real parts, imaginary split
        s = diagonalize(Hamiltonian2(1.05j, 1.05j, 0.05j))
        assert s.eta == 0.05j
        assert s.lambda_plus.real == s.lambda_minus.real
        assert s.lambda_plus.imag == pytest.approx(1.10, abs=1e-15)
        assert s.lambda_minus.imag == pytest.approx(1.00, abs=1e-15)

    def test_eigenvector_residual(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            vals = rng.standard_normal(6)
            h = Hamiltonian2(complex(vals[0], vals[1]),
                             complex(vals[2], vals[3]),
                             complex(vals[4], vals[5]))
            s = diagonalize(h)
            if abs(s.eta) <= 1e-8:
                continue
            m = h.matrix()
            for lam, v in ((s.lambda_plus, s.v_plus),
                           (s.lambda_minus, s.v_minus)):
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.norm(m @ v - lam * v) < 1e-10

    def test_exact_ep_is_flagged(self):
        # (xi1 - xi2)^2/4 = -g^2 puts the matrix exactly at an EP
        s = diagonalize(Hamiltonian2(1 + 0.1j, 1 - 0.1j, 0.1))
        assert s.degenerate
        assert abs(s.eta) < 1e-8
        np.testing.assert_array_equal(s.v_plus, s.v_minus)

    @given(finite_complex, finite_complex, finite_complex)
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_oracle(self, xi1, xi2, g):
        h = Hamiltonian2(xi1, xi2, g)
        s = diagonalize(h)
        if abs(s.eta) <= 1e-6:
            return
        assert pair_distance((s.lambda_plus, s.lambda_minus),
                             dense_eigvals(h)) < 1e-10

    def test_trace_det_identities_random(self):
        rng = np.random.default_rng(11)
        n = 20000
        xi1, xi2, g = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
                       for _ in range(3))
        lp, lm = eigvalues_grid(xi1, xi2, g)
        scale = np.abs(xi1 * xi2) + np.abs(g) ** 2 + 1.0
        assert np.max(np.abs(lp + lm - (xi1 + xi2)) / scale) < 1e-12
        assert np.max(np.abs(lp * lm - (xi1 * xi2 - g * g)) / scale) < 1e-12

    def test_splitting_sum_is_exact(self):
        h = Hamiltonian2(0.3 - 0.2j, -1.1 + 0.9j, 0.4 + 0.4j)
        s = diagonalize(h)
        mean = 0.5 * (h.xi1 + h.xi2)
        assert s.lambda_plus == mean + s.eta
        assert s.lambda_minus == mean - s.eta
        assert splitting(h.xi1, h.xi2, h.g) == s.eta


class TestOverlap:
    def test_orthogonal(self):
        assert overlap(DiscreteField([1, 0]), DiscreteField([0, 1])) == 0.0

    def test_self_overlap(self):
        f = DiscreteField([0.6, 0.8j])
        assert overlap(f, f) == pytest.approx(1.0, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            f1 = DiscreteField(rng.standard_normal(5) + 1j * rng.standard_normal(5))
            f2 = DiscreteField(rng.standard_normal(5) + 1j * rng.standard_normal(5))
            val = overlap(f1, f2)
            assert 0.0 <= val <= 1.0 + 1e-12

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="degenerate field"):
            overlap(DiscreteField([0, 0]), DiscreteField([1, 0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            overlap(DiscreteField([1, 0]), DiscreteField([1, 0, 0]))

    def test_symmetric(self):
        f1 = DiscreteField([1 + 2j, 0.5, -0.3j])
        f2 = DiscreteField([0.2, 1j, 1 - 1j])
        assert overlap(f1, f2) == pytest.approx(overlap(f2, f1), abs=1e-14)

    @given(st.floats(min_value=-math.pi, max_value=math.pi))
    @settings(max_examples=50, deadline=None)
    def test_phase_invariance(self, phase):
        f1 = DiscreteField([1 + 2j, 0.5, -0.3j])
        rotated = DiscreteField(f1.samples * cmath.exp(1j * phase))
        f2 = DiscreteField([0.2, 1j, 1 - 1j])
        assert overlap(rotated, f2) == pytest.approx(overlap(f1, f2), abs=1e-12)

    def test_weights_enter_norms(self):
        f1 = DiscreteField([1, 1], weights=[1, 3])
        f2 = DiscreteField([1, -1], weights=[1, 3])
        # <f1, f2> = 1 - 3 = -2, norms = 2 each
        assert overlap(f1, f2) == pytest.approx(0.5, abs=1e-14)


class TestShannonEntropy:
    def test_uniform_is_log_n(self):
        f = DiscreteField([1, 1, 1, 1])
        assert shannon_entropy(f) == pytest.approx(math.log(4), abs=1e-12)

    def test_delta_is_zero(self):
        assert shannon_entropy(DiscreteField([0, 3j, 0])) == 0.0

    def test_frozen_two_level_value(self):
        f = DiscreteField([math.sqrt(0.75), math.sqrt(0.25)])
        assert shannon_entropy(f) == pytest.approx(0.5623351446188084, abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="degenerate field"):
            shannon_entropy(DiscreteField([0.0]))

    @given(st.floats(min_value=0.01, max_value=100),
           st.floats(min_value=-math.pi, max_value=math.pi))
    @settings(max_examples=50, deadline=None)
    def test_scale_and_phase_invariance(self, scale, phase):
        f = DiscreteField([1 + 1j, 0.3, 2j, -0.7])
        g = DiscreteField(f.samples * scale * cmath.exp(1j * phase))
        assert shannon_entropy(g) == pytest.approx(shannon_entropy(f), abs=1e-10)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            f = DiscreteField(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            h = shannon_entropy(f)
            assert -1e-12 <= h <= math.log(n) + 1e-12
