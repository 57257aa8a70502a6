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

PARITIES = ("even", "odd")

# Largest Fock cutoff a Truncation accepts, twice the exactdiag.N_TR_CAP
# that adaptive solves grow to.  Chain work is linear in the cutoff: at 8192 one
# certified ED splitting (exactdiag.sector_splitting, two decimal chains)
# peaks at 5.6 MB and takes 0.9 s on one Xeon core, against 0.03 s at
# the default 256; a cutoff past it costs every grid point seconds.
N_TR_MAX = 8192


def parity_sign(parity: str) -> int:
    """The sign +1 of "even" or -1 of "odd", the parity operator's eigenvalue on that sector.

    Every solver names a parity sector "even" or "odd"; this is the one map
    from a name to its sign.  Any other value, +1 and -1 included, raises
    ValueError.
    """
    if parity not in PARITIES:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return +1 if parity == "even" else -1


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
    """Fock-space cutoff: levels 0..n_tr are kept, with n_tr at most N_TR_MAX.

    tail_tol bounds the tail weight (:meth:`tail_weight`) of any produced
    state; adaptive solvers enlarge n_tr until the bound holds.  It lies
    in (0, 1): a weight of 1 or more, or an infinite one, would pass every
    cutoff.
    """

    n_tr: int
    tail_tol: float = 1e-12

    def __post_init__(self):
        if not (isinstance(self.n_tr, numbers.Integral) and 0 <= self.n_tr <= N_TR_MAX):
            raise ValueError(f"n_tr must be a non-negative integer at most {N_TR_MAX}, got {self.n_tr!r}")
        if not 0.0 < self.tail_tol < 1.0:
            raise ValueError(f"tail_tol must be positive and below 1, got {self.tail_tol}")

    @staticmethod
    def tail_weight(v: np.ndarray) -> float:
        """Probability weight of the amplitudes v on their top five levels (all of them if fewer)."""
        return float(np.sum(v[-5:] ** 2))

    @property
    def dim(self) -> int:
        return self.n_tr + 1
