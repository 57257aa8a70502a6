"""The model Hamiltonian and parity as dense arrays on the spin x Fock basis.

Basis ordering is spin-major: index = s*(n_tr+1) + n with s=0 the spin-up
block (sigma_z eigenvalue +1) and s=1 the spin-down block, Fock index n
ascending.  Spin conventions: sigma_z|up> = +|up>, sigma_x|up> = |down>,
|+-x> = (|up> +- |down>)/sqrt(2).  With these choices every matrix built
here is real symmetric.
"""

from __future__ import annotations

import numpy as np

from .model import ModelParams, Truncation


def build_hamiltonian(params: ModelParams, trunc: Truncation, form: str = "ladder") -> np.ndarray:
    """Dense symmetric Hamiltonian on the spin x Fock basis, size 2(n_tr+1).

    form="ladder" assembles g(a^dag sigma_- + a sigma_+) + g tau (a^dag sigma_+ + a sigma_-);
    form="quadrature" assembles the equivalent alpha (a^dag + a) sigma_x
    + gamma (a^dag - a) i sigma_y.  Both produce the identical matrix.

    The diagonal and the four bands of the off-diagonal spin blocks are
    written straight into one zeroed array, each entry with the float
    expression the Kronecker-product form of these operators gives it.
    """
    if form not in ("ladder", "quadrature"):
        raise ValueError(f"unknown form {form!r}")
    dim = trunc.dim
    n = np.arange(dim, dtype=float)
    rt = np.sqrt(n[1:])  # <n-1|a|n> = sqrt(n), n = 1..n_tr
    if form == "ladder":
        lower = params.g * rt  # a sigma_+ and its transpose a^dag sigma_-
        upper = (params.g * params.tau) * rt  # a^dag sigma_+ and a sigma_-
    else:
        x, y = params.alpha * rt, params.gamma * rt
        lower, upper = x - y, x + y
    h = np.zeros((2 * dim, 2 * dim))
    i = np.arange(dim)
    half = 0.5 * params.delta
    h[i, i] = half + params.omega * n
    h[dim + i, dim + i] = -half + params.omega * n
    m = i[:-1]
    h[m, dim + m + 1] = h[dim + m + 1, m] = lower  # <up, n-1| H |down, n>
    h[m + 1, dim + m] = h[dim + m, m + 1] = upper  # <up, n| H |down, n-1>
    return h


def parity_diag(trunc: Truncation) -> np.ndarray:
    """Diagonal of the parity operator on the spin x Fock basis.

    The entry is (-1)^(n+1) for |up, n> and (-1)^n for |down, n>; the
    operator exponentiates the total excitation number a^dag a + sigma_z/2 + 1/2.
    """
    n = np.arange(trunc.dim)
    even = 1 - 2 * (n % 2)  # (-1)^n
    return np.concatenate([-even, even]).astype(float)
