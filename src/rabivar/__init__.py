"""Variational coherent-squeezed-state solver for the anisotropic Rabi model."""

__version__ = "0.1.0"

from .errors import (
    DegenerateAnsatz,
    InvalidConfig,
    InvalidTau,
    NoConvergence,
    NotIsotropic,
    TruncationNotConverged,
)
from .model import ModelParams, Truncation
from .fock import build_hamiltonian, parity_diag
from .exactdiag import (
    SectorSplitting,
    SpectrumResult,
    SpinFockVector,
    mean_photon_ed,
    parity_chain,
    sector_splitting,
    solve_lowest,
    solve_parity_sector,
    spin_x_projection,
)
from .states import (
    CoherentSqueezedParams,
    css_fock_amplitudes,
    position_profile,
)
from .variational import (
    Ansatz1Params,
    Ansatz2Params,
    AnsatzKind,
    asymptotic_params,
    energy_1css,
    energy_2css,
    mean_photon_1css,
    mean_photon_2css,
    parity_splitting_2css,
    stationarity_residuals_iso,
)
from .optimize import OptResult, solve_ansatz
