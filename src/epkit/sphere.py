"""Stereographic projection between the extended parameter plane and the
unit sphere.

The plane coordinate (n, chi) is identified with n + i*chi; the sphere is
the unit 2-sphere in (tn, tchi, txi) coordinates, projected from the north
pole (0, 0, 1) onto the txi = 0 plane. The north pole represents the
plane's point at infinity, which lets cut curves that run off the window
be handled as ordinary data (they converge to the pole).

Round-trip conditioning: points far from the origin land close to the
pole, where the txi representation loses relative precision like
|p|^2 * eps; exact-identity expectations hold for moderate coordinates
(|p| up to a few tens), which covers any physical parameter window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class PlanePoint:
    """Point of the extended parameter plane.

    Any infinite coordinate marks the point at infinity; NaN is rejected.
    """

    n: float
    chi: float

    def __post_init__(self):
        n, chi = float(self.n), float(self.chi)
        if math.isnan(n) or math.isnan(chi):
            raise ValueError("plane coordinates must not be NaN")
        if math.isinf(n) or math.isinf(chi):
            n, chi = math.inf, math.inf
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "chi", chi)

    @classmethod
    def infinity(cls) -> "PlanePoint":
        return cls(math.inf, math.inf)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.n)

    def as_complex(self) -> complex:
        if self.is_infinite:
            raise ValueError("the point at infinity has no complex value")
        return complex(self.n, self.chi)


@dataclass(frozen=True)
class SpherePoint:
    tn: float
    tchi: float
    txi: float

    def norm(self) -> float:
        return math.sqrt(self.tn ** 2 + self.tchi ** 2 + self.txi ** 2)


NORTH_POLE = SpherePoint(0.0, 0.0, 1.0)


def to_sphere(p: PlanePoint) -> SpherePoint:
    """Inverse stereographic projection; infinity maps to the north pole."""
    return SpherePoint(*lift_cut([p.n], [p.chi])[0].tolist())


def to_plane(s: SpherePoint) -> PlanePoint:
    """Stereographic projection from the north pole onto the plane.

    Requires a unit-norm point (within ``UNIT_NORM_TOL``); the north pole
    itself maps to the point at infinity.
    """
    if abs(s.norm() - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"sphere point must be unit-norm, |s| = {s.norm()!r}")
    if s.txi == 1.0:
        return PlanePoint.infinity()
    denom = 1.0 - s.txi
    return PlanePoint(s.tn / denom, s.tchi / denom)


def lift_cut(n, chi) -> np.ndarray:
    """Inverse stereographic projection of plane points (cut nodes, EP
    markers), as an (N, 3) array of (tn, tchi, txi) rows.

    A point with an infinite coordinate, or so far out that n^2 + chi^2
    overflows, maps to the north pole exactly; a NaN coordinate raises.
    """
    n = np.asarray(n, dtype=float).ravel()
    chi = np.asarray(chi, dtype=float).ravel()
    if n.shape != chi.shape:
        raise ValueError(f"{n.size} n values for {chi.size} chi values")
    if np.isnan(n).any() or np.isnan(chi).any():
        raise ValueError("plane coordinates must not be NaN")
    with np.errstate(over="ignore", invalid="ignore"):
        r2 = n * n + chi * chi
        zeta = r2 + 1.0
        rows = np.stack([2.0 * n / zeta, 2.0 * chi / zeta, (r2 - 1.0) / zeta],
                        axis=-1)
    rows[~np.isfinite(r2)] = (0.0, 0.0, 1.0)
    return rows
