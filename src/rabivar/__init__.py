"""Variational coherent-squeezed-state solver for the anisotropic Rabi model."""

__version__ = "0.1.0"

from .errors import (
    DegenerateAnsatz,
    InvalidConfig,
    InvalidTau,
    NotIsotropic,
    TruncationNotConverged,
)
from .model import ModelParams, Truncation
from .fock import build_hamiltonian, parity_diag
from .exactdiag import (
    SectorSplitting,
    SpectrumResult,
    mean_photon_ed,
    parity_chain,
    sector_splitting,
    solve_parity_sector,
    spin_x_projection,
)
from .states import position_profile
from .variational import (
    AnsatzKind,
    PacketParams,
    asymptotic_params,
    energy,
    mean_photon,
    parity_splitting_2css,
    stationarity_residuals_iso,
)
from .optimize import OptResult, solve_ansatz
