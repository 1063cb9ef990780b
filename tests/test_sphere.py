import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epkit.sphere import (NORTH_POLE, PlanePoint, SpherePoint, lift_cut,
                          to_plane, to_sphere)

# the two microcavity EP coordinates (4-decimal values)
EP1_PLANE = (2.6257, 0.6001)
EP2_PLANE = (2.9036, 0.5372)

# round-trip conditioning degrades like |p|^2 * eps near the pole, so the
# 1e-12 relative contract is tested on moderate coordinates
plane_coords = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestToSphere:
    def test_south_pole(self):
        s = to_sphere(PlanePoint(0, 0))
        assert (s.tn, s.tchi, s.txi) == (0.0, 0.0, -1.0)

    def test_unit_circle_is_fixed(self):
        s = to_sphere(PlanePoint(1, 0))
        assert (s.tn, s.tchi, s.txi) == (1.0, 0.0, 0.0)

    def test_infinity_maps_to_north_pole(self):
        assert to_sphere(PlanePoint.infinity()) == NORTH_POLE

    def test_cavity_ep2_frozen_value(self):
        # direct evaluation of the inverse projection; the first two
        # coordinates agree with the published (0.5974, 0.1105, .) triple,
        # the third does not (documented discrepancy)
        s = to_sphere(PlanePoint(*EP2_PLANE))
        assert s.tn == pytest.approx(0.5974807203614088, abs=1e-12)
        assert s.tchi == pytest.approx(0.11054092952822318, abs=1e-12)
        assert s.txi == pytest.approx(0.7942276069839479, abs=1e-12)

    def test_cavity_ep1_frozen_value(self):
        s = to_sphere(PlanePoint(*EP1_PLANE))
        assert s.tn == pytest.approx(0.6361924498515673, abs=1e-12)
        assert s.tchi == pytest.approx(0.14540087944392943, abs=1e-12)
        assert s.txi == pytest.approx(0.7577055833295626, abs=1e-12)

    @given(plane_coords, plane_coords)
    @settings(max_examples=300, deadline=None)
    def test_output_is_unit_norm(self, n, chi):
        s = to_sphere(PlanePoint(n, chi))
        assert abs(s.norm() - 1.0) < 1e-12


class TestToPlane:
    def test_south_pole(self):
        p = to_plane(SpherePoint(0, 0, -1))
        assert (p.n, p.chi) == (0.0, 0.0)

    def test_north_pole_is_infinity(self):
        assert to_plane(SpherePoint(0, 0, 1)).is_infinite

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit-norm"):
            to_plane(SpherePoint(0.5, 0.5, 0.5))

    @given(plane_coords, plane_coords)
    @settings(max_examples=300, deadline=None)
    def test_round_trip_from_plane(self, n, chi):
        p = PlanePoint(n, chi)
        q = to_plane(to_sphere(p))
        scale = 1.0 + abs(n) + abs(chi)
        assert abs(q.n - n) / scale < 1e-12
        assert abs(q.chi - chi) / scale < 1e-12

    def test_round_trip_from_sphere(self):
        rng = np.random.default_rng(9)
        vecs = rng.standard_normal((2000, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        vecs = vecs[vecs[:, 2] < 1 - 1e-6]
        for tn, tchi, txi in vecs:
            s = SpherePoint(tn, tchi, txi)
            back = to_sphere(to_plane(s))
            err = math.hypot(back.tn - tn, back.tchi - tchi)
            assert math.hypot(err, back.txi - txi) < 1e-10


class TestPlanePoint:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            PlanePoint(float("nan"), 0)

    def test_any_infinite_coordinate_is_infinity(self):
        p = PlanePoint(float("inf"), 3.0)
        assert p.is_infinite
        assert p == PlanePoint.infinity()

    def test_complex_view(self):
        assert PlanePoint(1.5, -2.0).as_complex() == 1.5 - 2j
        with pytest.raises(ValueError):
            PlanePoint.infinity().as_complex()


class TestLiftCut:
    def test_finite_arc_between_eps(self):
        # straight sample of the EP-joining cut lifts to a finite arc with
        # the EP images as endpoints, never near the north pole
        n = np.linspace(EP1_PLANE[0], EP2_PLANE[0], 64)
        chi = np.linspace(EP1_PLANE[1], EP2_PLANE[1], 64)
        arc = lift_cut(n, chi)
        assert SpherePoint(*arc[0]) == to_sphere(PlanePoint(*EP1_PLANE))
        assert SpherePoint(*arc[-1]) == to_sphere(PlanePoint(*EP2_PLANE))
        for tn, tchi, txi in arc:
            assert txi < 0.999

    def test_outward_rays_converge_to_north_pole(self):
        # two cuts leaving the EPs outward meet at infinity: both lifted
        # tails approach (0, 0, 1)
        tails = []
        for (n0, chi0), direction in ((EP1_PLANE, -1.0), (EP2_PLANE, +1.0)):
            # tail property: start past the origin-adjacent dip
            radii = np.geomspace(10.0, 1e6, 25)
            n = [n0 + direction * r for r in radii] + [math.inf]
            lifted = lift_cut(n, [chi0] * len(radii) + [math.inf])
            assert SpherePoint(*lifted[-1]) == NORTH_POLE
            gaps = [math.hypot(tn - 0, math.hypot(tchi - 0, txi - 1))
                    for tn, tchi, txi in lifted[:-1]]
            assert all(b < a for a, b in zip(gaps, gaps[1:]))
            tails.append(SpherePoint(*lifted[-1]))
        assert tails[0] == tails[1] == NORTH_POLE

    def test_empty_curve(self):
        assert lift_cut([], []).shape == (0, 3)


class TestVectorizedHelpers:
    def test_matches_scalar_path(self):
        n = np.array([0.0, 1.0, 2.9036])
        chi = np.array([0.0, 0.0, 0.5372])
        tn, tchi, txi = lift_cut(n, chi).T
        for k in range(3):
            s = to_sphere(PlanePoint(n[k], chi[k]))
            assert (tn[k], tchi[k], txi[k]) == (s.tn, s.tchi, s.txi)


def lift_point(n, chi):
    """The projection of one point in Python floats: the reference."""
    r2 = n * n + chi * chi
    if math.isinf(r2):
        return (0.0, 0.0, 1.0)
    zeta = r2 + 1.0
    return (2.0 * n / zeta, 2.0 * chi / zeta, (r2 - 1.0) / zeta)


def float_bits(row):
    return [float(v).hex() for v in row]


class TestLiftCutReference:
    @given(st.lists(st.tuples(st.floats(allow_nan=False),
                              st.floats(allow_nan=False)), max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_equals_scalar_formula_bitwise(self, pairs):
        n = [p[0] for p in pairs]
        chi = [p[1] for p in pairs]
        got = lift_cut(n, chi)
        assert got.shape == (len(pairs), 3)
        for row, p in zip(got, pairs):
            assert float_bits(row) == float_bits(lift_point(*p))

    @pytest.mark.parametrize("n, chi", [
        (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (5e-324, -5e-324),
        (math.inf, 1.0), (-3.0, -math.inf), (1e200, 1.0), (-1e160, 2.0),
        (1.3e154, 1.3e154), (1.7e308, 0.0),
    ])
    def test_special_points_equal_scalar_formula_bitwise(self, n, chi):
        got = lift_cut([n], [chi])[0]
        assert float_bits(got) == float_bits(lift_point(n, chi))

    @pytest.mark.parametrize("n, chi", [(1e200, 1.0), (-1e160, 2.0),
                                        (3.0, 2e154), (math.inf, -math.inf)])
    def test_far_point_is_the_north_pole(self, n, chi):
        row = lift_cut([2.0, n], [0.5, chi])[1]
        assert row.tolist() == [0.0, 0.0, 1.0]
        assert math.copysign(1.0, row[0]) == math.copysign(1.0, row[1]) == 1.0
        assert np.linalg.norm(row) == 1.0
        assert to_sphere(PlanePoint(n, chi)) == NORTH_POLE

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="must not be NaN"):
            lift_cut([0.0, 1.0], [2.0, math.nan])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 n values for 3 chi values"):
            lift_cut([0.0, 1.0], [0.0, 1.0, 2.0])
