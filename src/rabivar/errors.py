"""Exception types shared across the package."""


class TruncationNotConverged(RuntimeError):
    """Fock-space truncation too small to meet the requested tail tolerance."""

    def __init__(self, message, n_tr=None, tail_weight=None):
        super().__init__(message)
        self.n_tr = n_tr
        self.tail_weight = tail_weight


class NoConvergence(RuntimeError):
    """Minimizer exhausted its evaluation budget before meeting tolerance.

    The best point found so far is attached as ``best`` (may be None).
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class NotIsotropic(ValueError):
    """Operation is defined only for the isotropic case tau == 1."""


class DegenerateAnsatz(ValueError):
    """Two-packet superposition whose norm is numerically zero."""


class InvalidConfig(ValueError):
    """Input an operation does not support, rejected before it computes or writes anything."""


class InvalidTau(InvalidConfig):
    """Anisotropy ratio outside the valid range for this operation."""
