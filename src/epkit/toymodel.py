"""Two-level toy Hamiltonian with interpolated real/imaginary coupling.

Level trajectories are xi1 = (1 - alpha/2) + i*gamma1 and
xi2 = sqrt(alpha) + i*gamma2. The coupling interpolates between purely
real (beta = 0) and purely imaginary (beta = 1):

    g(alpha, beta) = g_c * [(1 - beta) + i*beta] * exp(-(xi1 - xi2)^2)

The exponential sensitivity factor uses either the full complex level
difference or only its real part, selected by ``lambda_mode``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import Hamiltonian2, eigvalues_grid, is_real_number

FULL_COMPLEX = "full-complex-difference"
REAL_PART = "real-part-difference"
_MODES = (FULL_COMPLEX, REAL_PART)


@dataclass(frozen=True)
class ToyParams:
    """Fixed parameters of the toy model (the scan variable is alpha)."""

    g_c: float
    beta: float
    gamma1: float
    gamma2: float
    lambda_mode: str = FULL_COMPLEX

    def __post_init__(self):
        for name in ("g_c", "beta", "gamma1", "gamma2"):
            value = getattr(self, name)
            if not is_real_number(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.g_c > 0:
            raise ValueError(f"g_c must be positive, got {self.g_c}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.lambda_mode not in _MODES:
            raise ValueError(
                f"lambda_mode must be one of {_MODES}, got {self.lambda_mode!r}"
            )

    def with_beta(self, beta: float) -> "ToyParams":
        return replace(self, beta=beta)


def xi(alpha: float, p: ToyParams) -> tuple[complex, complex]:
    """Diagonal entries (xi1, xi2) at scan position alpha >= 0."""
    xi1, xi2, _ = scan_entries([alpha], p)
    return complex(xi1[0]), complex(xi2[0])


def coupling(alpha: float, p: ToyParams) -> complex:
    """Interpolated coupling g(alpha, beta) with exponential sensitivity."""
    return complex(scan_entries([alpha], p)[2][0])


def build_hamiltonian(alpha: float, p: ToyParams) -> Hamiltonian2:
    xi1, xi2, g = scan_entries([alpha], p)
    return Hamiltonian2(xi1[0], xi2[0], g[0])


def scan_entries(alphas, p: ToyParams, *, beta: float | None = None):
    """Vectorized matrix entries (xi1, xi2, g) along an alpha scan.

    ``beta`` overrides ``p.beta`` and may lie outside [0, 1] (2-D samplers
    need the formula's totality there); alpha must stay nonnegative.
    """
    alphas = np.asarray(alphas, dtype=float)
    if np.any(alphas < 0):
        raise ValueError(f"alpha must be >= 0, got {alphas.min()}")
    beta = p.beta if beta is None else beta
    xi1 = (1.0 - 0.5 * alphas) + 1j * p.gamma1
    xi2 = np.sqrt(alphas) + 1j * p.gamma2
    diff = xi1 - xi2
    if p.lambda_mode == REAL_PART:
        diff = diff.real.astype(complex)
    g = p.g_c * ((1.0 - beta) + 1j * beta) * np.exp(-(diff * diff))
    return xi1, xi2, g


def eigenpair_sampler(p: ToyParams) -> Callable[[float, float], tuple[complex, complex]]:
    """Sampler over the (alpha, beta) plane for grids and loops.

    beta is a free scan coordinate here (p.beta is ignored). Called with two
    equal-shape arrays it returns the two eigenvalue arrays in one pass,
    bitwise equal to the point-by-point values, and NaN where alpha < 0,
    at which a point-by-point call raises.
    """

    def sample(alpha: float, beta: float) -> tuple[complex, complex]:
        if isinstance(alpha, np.ndarray):
            alpha = np.where(alpha < 0, np.nan, alpha)
            return eigvalues_grid(*scan_entries(alpha, p, beta=beta))
        lp, lm = eigvalues_grid(*scan_entries([alpha], p, beta=beta))
        return complex(lp[0]), complex(lm[0])

    return sample


# Representative parameter sets, addressable by name from the CLI. n_in is
# carried as metadata only (it labels the matching cavity configuration and
# is not computable from the toy model).
PRESETS: dict[str, dict] = {
    "class1": {
        "params": {"g_c": 0.043, "beta": 0.76, "gamma1": 1.05, "gamma2": 1.07},
        "metadata": {"n_in": 2.6, "expected_label": "LZ"},
    },
    "class2": {
        "params": {"g_c": 0.043, "beta": 0.78, "gamma1": 1.05, "gamma2": 1.07},
        "metadata": {"n_in": 2.6257, "expected_label": "WB"},
    },
    "class3a": {
        "params": {"g_c": 0.043, "beta": 1.0, "gamma1": 1.05, "gamma2": 1.07},
        "metadata": {"n_in": 2.74, "expected_label": "WB"},
    },
    "class3b": {
        "params": {"g_c": 0.043, "beta": 1.0, "gamma1": 1.07, "gamma2": 1.05},
        "metadata": {"n_in": 2.74, "expected_label": "WB"},
    },
    "class4": {
        "params": {"g_c": 0.043, "beta": 0.78, "gamma1": 1.07, "gamma2": 1.05},
        "metadata": {"n_in": 2.9036, "expected_label": "WB"},
    },
    "class5": {
        "params": {"g_c": 0.043, "beta": 0.76, "gamma1": 1.07, "gamma2": 1.05},
        "metadata": {"n_in": 2.94, "expected_label": "LZ"},
    },
    # beta-transition study configuration (beta is the scanned quantity)
    "transition": {
        "params": {"g_c": 0.043, "beta": 0.0, "gamma1": 1.05, "gamma2": 1.07},
        "metadata": {},
    },
    # symmetric-width configuration with two exact EPs on the beta = 1 line
    "double-ep": {
        "params": {"g_c": 0.05, "beta": 1.0, "gamma1": 1.05, "gamma2": 1.05},
        "metadata": {"ep_alphas": [0.454, 0.621]},
    },
}
PRESETS["class3"] = PRESETS["class3a"]


def preset(name: str) -> ToyParams:
    """Look up a named parameter set; raises KeyError with the known names."""
    try:
        entry = PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    return ToyParams(**entry["params"])
