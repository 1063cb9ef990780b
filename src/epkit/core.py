"""Closed-form spectral machinery for 2x2 complex-symmetric Hamiltonians.

The matrix is [[xi1, g], [g, xi2]]: symmetric off-diagonal coupling, but
non-Hermitian whenever any entry has an imaginary part. Eigenvalues are
(xi1 + xi2)/2 +/- eta with eta = sqrt((xi1 - xi2)^2/4 + g^2), taken on a
fixed deterministic branch (Re >= 0, ties broken by Im >= 0). The +/-
labels carry no identity across parameters; continuation code elsewhere
owns all sheet logic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Below this |eta| the matrix is treated as numerically defective (at an EP):
# eigenvector residual guarantees are void and both vectors coalesce.
DEGENERACY_THRESHOLD = 1e-8


def _require_finite(name: str, z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {z!r}")
    return z


@dataclass(frozen=True)
class Hamiltonian2:
    """2x2 complex matrix [[xi1, g], [g, xi2]] with symmetric coupling."""

    xi1: complex
    xi2: complex
    g: complex

    def __post_init__(self):
        object.__setattr__(self, "xi1", _require_finite("xi1", self.xi1))
        object.__setattr__(self, "xi2", _require_finite("xi2", self.xi2))
        object.__setattr__(self, "g", _require_finite("g", self.g))

    @property
    def trace(self) -> complex:
        return self.xi1 + self.xi2

    @property
    def det(self) -> complex:
        return self.xi1 * self.xi2 - self.g * self.g

    def matrix(self) -> np.ndarray:
        return np.array([[self.xi1, self.g], [self.g, self.xi2]], dtype=complex)


@dataclass
class Spectrum2:
    """Eigen-decomposition of a Hamiltonian2.

    lambda_plus/minus = mean +/- eta with eta on the principal branch.
    Eigenvectors are unit-norm; when ``degenerate`` both equal the single
    coalesced eigenvector and no residual guarantee applies.
    """

    lambda_plus: complex
    lambda_minus: complex
    eta: complex
    v_plus: np.ndarray
    v_minus: np.ndarray
    degenerate: bool = False


@dataclass
class DiscreteField:
    """Sampled complex field with positive quadrature weights.

    A discretized stand-in for a continuum mode profile; with no weights
    given, samples are weighted uniformly.
    """

    samples: np.ndarray
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex).ravel()
        if self.samples.size < 1:
            raise ValueError("field needs at least one sample")
        if self.weights is None:
            self.weights = np.ones(self.samples.size)
        else:
            self.weights = np.asarray(self.weights, dtype=float).ravel()
        if self.weights.size != self.samples.size:
            raise ValueError("samples and weights must have equal length")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights <= 0):
            raise ValueError("weights must be positive and finite")
        if not np.all(np.isfinite(self.samples.real)) or not np.all(
            np.isfinite(self.samples.imag)
        ):
            raise ValueError("samples must be finite")

    def norm(self) -> float:
        return math.sqrt(float(np.sum(self.weights * np.abs(self.samples) ** 2)))


def principal_sqrt(w: complex) -> complex:
    """:func:`principal_sqrt_grid` of one value."""
    return complex(principal_sqrt_grid(complex(w)))


def eta_squared(xi1, xi2, g):
    """eta^2 = (xi1 - xi2)^2 / 4 + g^2, for scalars or arrays; zero
    exactly at EPs."""
    d = xi1 - xi2
    return 0.25 * d * d + g * g


def splitting(xi1: complex, xi2: complex, g: complex) -> complex:
    """eta = sqrt((xi1 - xi2)^2 / 4 + g^2) on the principal branch."""
    return principal_sqrt(eta_squared(xi1, xi2, g))


def abs_diff(u, v):
    """|u - v| rounded like abs() of a Python complex (hypot), which np.abs
    on complex arrays is not: it differs in the last bit for many inputs."""
    d = np.subtract(u, v)
    return np.hypot(d.real, d.imag)


def principal_sqrt_grid(w):
    """Square root with Re >= 0, on the Re = 0 line Im >= 0, elementwise;
    :func:`principal_sqrt` is its value at one point."""
    s = np.sqrt(w)
    flip = (s.real < 0.0) | ((s.real == 0.0) & (s.imag < 0.0))
    return np.where(flip, -s, s)


def _mean_eta(xi1, xi2, g):
    xi1 = np.asarray(xi1, dtype=complex)
    xi2 = np.asarray(xi2, dtype=complex)
    g = np.asarray(g, dtype=complex)
    return 0.5 * (xi1 + xi2), principal_sqrt_grid(eta_squared(xi1, xi2, g))


def eigvalues_grid(xi1, xi2, g):
    """Vectorized (lambda_plus, lambda_minus) for arrays of matrix entries.

    Same branch convention as :func:`splitting`; broadcasting follows numpy.
    """
    mean, eta = _mean_eta(xi1, xi2, g)
    return mean + eta, mean - eta


def _eigvectors(xi1, xi2, g, mean, eta):
    # (H - lam) v = 0 has solutions (g, lam - xi1) and (lam - xi2, g); take
    # the longer one. Within DEGENERACY_THRESHOLD of an EP both vectors are
    # the coalesced one at the mean; a zero vector (diagonal with equal
    # entries) becomes (1, 0).
    g = np.asarray(g, dtype=complex)
    g2 = g.real * g.real + g.imag * g.imag
    coalesced = np.abs(eta) < DEGENERACY_THRESHOLD

    def unit(lam):
        lam = np.where(coalesced, mean, lam)
        a, b = lam - xi1, lam - xi2
        nu2 = g2 + (a.real * a.real + a.imag * a.imag)
        nv2 = (b.real * b.real + b.imag * b.imag) + g2
        take_u = nu2 >= nv2
        n = np.sqrt(np.where(take_u, nu2, nv2))
        zero = n == 0.0
        n = np.where(zero, 1.0, n)
        first = np.where(zero, 1.0, np.where(take_u, g, b) / n)
        second = np.where(zero, 0.0, np.where(take_u, a, g) / n)
        return np.stack([first, second], axis=-1)

    return unit(mean + eta), unit(mean - eta)


def eigvectors_grid(xi1, xi2, g):
    """Vectorized unit eigenvectors (v_plus, v_minus), each of shape (..., 2).

    They belong to the eigenvalues of :func:`eigvalues_grid`, with the rule
    of :func:`diagonalize` (coalesced vectors below ``DEGENERACY_THRESHOLD``).
    """
    return _eigvectors(xi1, xi2, g, *_mean_eta(xi1, xi2, g))


def diagonalize(h: Hamiltonian2) -> Spectrum2:
    """Spectral decomposition of a 2x2 symmetric-coupling Hamiltonian.

    Total on finite inputs. Within ``DEGENERACY_THRESHOLD`` of an EP the
    result is flagged degenerate and both eigenvectors are the coalesced
    one.
    """
    eta = splitting(h.xi1, h.xi2, h.g)
    mean = 0.5 * (h.xi1 + h.xi2)
    v_plus, v_minus = _eigvectors(h.xi1, h.xi2, h.g, mean, eta)
    return Spectrum2(mean + eta, mean - eta, eta, v_plus, v_minus,
                     degenerate=abs(eta) < DEGENERACY_THRESHOLD)


def overlap(f1: DiscreteField, f2: DiscreteField) -> float:
    """Normalized mode overlap |<f1, f2>| / (||f1|| ||f2||), in [0, 1].

    The inner product is the weighted sum of conj(f1) * f2. Approaches 1
    as two eigenstates coalesce; raises on a zero-norm field.
    """
    if f1.samples.size != f2.samples.size:
        raise ValueError("fields must have equal sample counts")
    n1, n2 = f1.norm(), f2.norm()
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("degenerate field")
    inner = np.sum(f1.weights * np.conj(f1.samples) * f2.samples)
    return float(abs(inner) / (n1 * n2))


def shannon_entropy(f: DiscreteField) -> float:
    """Entropy (natural log) of the normalized weighted intensity."""
    intensity = f.weights * np.abs(f.samples) ** 2
    total = float(np.sum(intensity))
    if total == 0.0:
        raise ValueError("degenerate field")
    rho = intensity / total
    nz = rho[rho > 0.0]
    return float(-np.sum(nz * np.log(nz)))
