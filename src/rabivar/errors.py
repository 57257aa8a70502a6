"""Exception types shared across the package."""


class TruncationNotConverged(RuntimeError):
    """Fock-space truncation too small to meet the requested tail tolerance."""

    def __init__(self, message, n_tr=None, tail_weight=None):
        super().__init__(message)
        self.n_tr = n_tr
        self.tail_weight = tail_weight


class NotIsotropic(ValueError):
    """Operation is defined only for the isotropic case tau == 1."""


class DegenerateAnsatz(ValueError):
    """Two-packet superposition whose norm is numerically zero."""


class InvalidConfig(ValueError):
    """Input an operation does not support, rejected before it computes or writes anything."""


class InvalidTau(InvalidConfig):
    """Anisotropy ratio outside the valid range for this operation."""


class LapackUnavailable(ImportError):
    """The LAPACK extension rabivar loads from scipy, or a routine it needs, is missing; .path names the file."""
