"""Model couplings and Fock-truncation settings shared by all solvers.

Units: all energies are measured in units of the mode frequency ``omega``
unless the caller chooses otherwise; ``omega`` defaults to 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidTau


@dataclass(frozen=True)
class ModelParams:
    """Couplings of the anisotropic two-level/single-mode model.

    delta : level splitting of the two-level system (>= 0)
    omega : mode frequency, the reference energy scale (> 0)
    g     : excitation-conserving coupling strength (>= 0)
    tau   : weight of the excitation-non-conserving coupling relative to g
            (>= 0); tau == 1 is the isotropic model
    """

    delta: float
    omega: float = 1.0
    g: float = 0.0
    tau: float = 1.0

    def __post_init__(self):
        for name in ("delta", "omega", "g", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.delta < 0.0:
            raise ValueError(f"delta must be non-negative, got {self.delta}")
        if self.g < 0.0:
            raise ValueError(f"g must be non-negative, got {self.g}")
        if self.tau < 0.0:
            raise ValueError(f"tau must be non-negative, got {self.tau}")

    @classmethod
    def from_lambda(cls, delta, lam, omega=1.0, tau=1.0):
        """Build params from the dimensionless coupling lam = (1+tau) g / sqrt(delta omega)."""
        g = lam * math.sqrt(delta * omega) / (1.0 + tau)
        return cls(delta=delta, omega=omega, g=g, tau=tau)

    @property
    def alpha(self) -> float:
        """Weight g(1+tau)/2 of the symmetric (sigma_x) quadrature coupling."""
        return 0.5 * self.g * (1.0 + self.tau)

    @property
    def gamma(self) -> float:
        """Weight g(tau-1)/2 of the antisymmetric (i sigma_y) quadrature coupling."""
        return 0.5 * self.g * (self.tau - 1.0)

    @property
    def lam(self) -> float:
        """Dimensionless coupling (1+tau) g / sqrt(delta omega)."""
        if self.delta == 0.0:
            raise ValueError("lam is undefined for delta == 0")
        return (1.0 + self.tau) * self.g / math.sqrt(self.delta * self.omega)

    @property
    def g_c1(self) -> float:
        """Level-crossing coupling sqrt(delta omega / (1 - tau^2)); requires tau < 1."""
        if self.tau >= 1.0:
            raise InvalidTau(f"g_c1 is defined only for tau < 1, got tau={self.tau}")
        return math.sqrt(self.delta * self.omega / (1.0 - self.tau**2))


@dataclass(frozen=True)
class Truncation:
    """Fock-space cutoff: levels 0..n_tr are kept.

    tail_tol bounds the tail weight (:meth:`tail_weight`) of any produced
    state; adaptive solvers enlarge n_tr until the bound holds.  It lies
    in (0, 1): a weight of 1 or more, or an infinite one, would pass every
    cutoff.
    """

    n_tr: int
    tail_tol: float = 1e-12

    def __post_init__(self):
        if not (isinstance(self.n_tr, numbers.Integral) and self.n_tr >= 0):
            raise ValueError(f"n_tr must be a non-negative integer, got {self.n_tr!r}")
        if not 0.0 < self.tail_tol < 1.0:
            raise ValueError(f"tail_tol must be positive and below 1, got {self.tail_tol}")

    @staticmethod
    def tail_weight(v: np.ndarray) -> float:
        """Probability weight of the amplitudes v on their top five levels (all of them if fewer)."""
        return float(np.sum(v[-5:] ** 2))

    @property
    def dim(self) -> int:
        return self.n_tr + 1
