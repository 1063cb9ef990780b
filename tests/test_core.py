import cmath
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import loop_reference as ref
from epkit.core import (Hamiltonian2, diagonalize, eigvalues_grid,
                        principal_sqrt, splitting)
from epkit.epfind import grid_ep_search
from epkit.surface import AnalyticOracle, CircleLoop, build_surface, encircle

ORACLE = AnalyticOracle.two_point(0.45 + 1j, 0.62 + 1j).sampler()
WINDOW = ((0.3, 0.8), (0.9, 1.1))
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
        # numpy loses bits in a subnormal component
        s, r = principal_sqrt(w), ref.principal_sqrt(w)
        assert abs(s - r) <= 8 * sys.float_info.epsilon * abs(r)

    def test_root_with_underflowed_real_part_keeps_its_sign(self):
        # the exact real part, 3.3e-324, rounds to 0 in numpy
        w = complex(-1.486e290, -8.157e-179)
        s, r = principal_sqrt(w), ref.principal_sqrt(w)
        assert s.imag < 0.0 and abs(s - r) <= 8 * sys.float_info.epsilon * abs(r)


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


BAD_COUNTS = [48.0, np.float64(64.0), "48", True, None, 3]


@pytest.mark.parametrize("name, call", [
    ("coarse_n", lambda n: grid_ep_search(ORACLE, WINDOW, coarse_n=n).locations),
    ("n1", lambda n: build_surface(ORACLE, WINDOW, n, 16).sheet1.tolist()),
    ("n2", lambda n: build_surface(ORACLE, WINDOW, 16, n).sheet1.tolist()),
    ("n_steps", lambda n: encircle(ORACLE, CircleLoop((0.45, 1.0), 0.05),
                                   n_steps=n)),
], ids=["coarse_n", "n1", "n2", "n_steps"])
class TestCounts:
    @pytest.mark.parametrize("value", BAD_COUNTS, ids=repr)
    def test_rejected_naming_the_argument(self, name, call, value):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer "
                           rf">= \d+, got {re.escape(repr(value))}$"):
            call(value)

    def test_numpy_integers_accepted(self, name, call):
        assert call(np.int32(64)) == call(64)


