"""Coherent-squeezed-state amplitudes and position-space profiles.

Conventions.  The displacement operator is U(b) = exp(b(a^dag - a)) and the
squeeze operator is S(xi) = exp(xi(a^2 - a^dag^2)), both with real
parameters.  The packet used throughout is

    |f(beta, xi)> = U(beta)^dag S(xi)^dag |0>,

i.e. the vacuum is squeezed first and displaced second.  Its width factor is
eta = cosh(2 xi) - sinh(2 xi) = exp(-2 xi): position variance grows as
eta^{-2} while the displaced-state overlap narrows as

    <f(b, xi)| f(b', xi)> = exp(-eta^2 (b - b')^2 / 2).

The Fock amplitudes built here, by exact exponentials of the truncated
generators, are the numerical oracle against which every closed form in
:mod:`rabivar.variational` is checked.  They come in families
(:class:`PacketFamily`): one squeezed vacuum per xi and truncation, each
distinct |b| displaced once, and f(-b, xi) = P f(|b|, xi) with P the
photon parity (-1)^n.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import _lapack
from .errors import TruncationNotConverged
from .model import Truncation


def oscillator_wavefunctions(n_max: int, x, omega: float = 1.0) -> np.ndarray:
    """Matrix psi[n, j] = <x_j|n> for n = 0..n_max, for mode frequency omega.

    Uses the stable recurrence for orthonormal Hermite functions; raw
    Hermite polynomials overflow near n ~ 300 and are never formed.
    """
    x = np.asarray(x, dtype=float)
    y = np.sqrt(omega) * x
    out = np.empty((n_max + 1, x.size))
    out[0] = omega**0.25 * np.pi**-0.25 * np.exp(-0.5 * y * y)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * y * out[0]
    for k in range(1, n_max):
        out[k + 1] = np.sqrt(2.0 / (k + 1.0)) * y * out[k] - np.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


PEAK_FLOOR = 0.02  # fraction of a density's max below which count_peaks counts no peak


def count_peaks(density: np.ndarray) -> int:
    """Strict local maxima of a sampled density at or above PEAK_FLOOR of its max.

    The floor separates genuine secondary packets (tens of percent
    of the main peak in the delocalized regime) from the percent-level
    remnant the main packet leaves behind once it has split off, as well as
    from grid-scale ripple.
    """
    if density.size < 3:
        return 0
    top = float(np.max(density))
    if top <= 0.0:
        return 0
    inner = density[1:-1]
    hits = (inner > density[:-2]) & (inner > density[2:]) & (inner >= PEAK_FLOOR * top)
    return int(np.count_nonzero(hits))


def position_profile(c_plus, c_minus, xs, omega: float = 1.0):
    """Sampled (phi_{+x}, phi_{-x}) from sigma_x-basis Fock coefficients.

    phi_{+-x}(x) = sum_n c_{n,+-} <x|n>, summed by numpy's own einsum loop
    rather than a BLAS product, whose summation order follows the BLAS
    thread count, so the profile is the same bit for bit on any count.
    """
    c_plus = np.asarray(c_plus, dtype=float)
    c_minus = np.asarray(c_minus, dtype=float)
    n_max = max(c_plus.size, c_minus.size) - 1
    basis = oscillator_wavefunctions(n_max, xs, omega)
    return tuple(np.einsum("i,ij->j", c, basis[: c.size]) for c in (c_plus, c_minus))


@lru_cache(maxsize=8)
def _chain_modes(n_tr: int, generator: str):
    """Phase-folded eigenmodes (Lambda, V^T J^-1, J V) of a truncated packet generator's chain.

    "displace" is a^dag - a on levels 0..n_tr, with links sqrt(m);
    "squeeze" is a^dag^2 - a^2 on the even levels 0, 2, 4, ..., with links
    sqrt((2k+1)(2k+2)).  Either chain L is antisymmetric with positive
    subdiagonal, so L = J (-i T) J^-1 with J = diag(i^k) and T the
    symmetric chain of the same links, T = V diag(Lambda) V^T, from LAPACK
    ``dstevd`` (:func:`rabivar._lapack.eigenpairs`).  The phases
    i^k are folded into the real eigenvectors once, exactly (each entry is
    only permuted between real and imaginary part and maybe negated), so
    both factors are cached as read-only C-contiguous complex matrices and
    the real V is not kept.
    """
    if generator == "displace":
        links = np.sqrt(np.arange(1.0, n_tr + 1))
    else:
        k = np.arange(n_tr // 2, dtype=float)
        links = np.sqrt((2.0 * k + 1.0) * (2.0 * k + 2.0))
    lam, vecs = _lapack.eigenpairs(np.zeros(links.size + 1), links)
    phases = np.array([1.0, 1j, -1.0, -1j])[np.arange(links.size + 1) % 4]
    vt_jinv = np.ascontiguousarray(vecs.T * phases.conj())
    jv = np.ascontiguousarray(phases[:, None] * vecs)
    for arr in (lam, vt_jinv, jv):
        arr.setflags(write=False)
    return lam, vt_jinv, jv


def _exp_chain(modes, c: float, v: np.ndarray) -> np.ndarray:
    """exp(c L) v = Re[(J V) exp(-i c Lambda) (V^T J^-1) v] for the chain L.

    Two complex matrix-vector products on the cached folded factors; no
    matrix is cast or copied per call.
    """
    lam, vt_jinv, jv = modes
    return (jv @ (np.exp(-1j * c * lam) * (vt_jinv @ v))).real


class PacketFamily:
    """The packets f(b) = exp(b(a^dag-a)) exp(xi(a^dag^2-a^2)) |0> of one xi and truncation, by position b.

    Both exponentials are exact for the truncated generators: each acts
    through the cached eigenmodes of its chain (:func:`_chain_modes`).  The
    family squeezes the vacuum once, on the even levels only (so its odd
    levels stay exactly empty), and keeps the squeezed vacuum's
    displacement-mode coefficients w = (V^T J^-1) s.  Each distinct |b| then
    costs one complex matrix-vector product (J V) e^{-i|b| Lambda} w and one
    tail check, and f(-b) is the parity image P f(|b|): the odd levels'
    signs flipped.  The image is exact, since P (a^dag-a) P = -(a^dag-a) on
    the truncated levels and the squeezed vacuum is even; b = -0.0 is b = 0.

    Truncation inadequacy shows up either as a norm deficit or, because the
    truncated generators stay antisymmetric and their exponentials
    orthogonal, as weight piled against the cutoff; both diagnostics are
    held below trunc.tail_tol or TruncationNotConverged is raised, by the
    call for a position whose |b| fails.  The normalized packets are kept,
    read-only, for the family's lifetime only: nothing outlives the family.
    """

    def __init__(self, xi: float, trunc: Truncation):
        self.trunc = trunc
        s = np.zeros(trunc.dim)
        s[0] = 1.0
        if xi != 0.0:
            s[0::2] = _exp_chain(_chain_modes(trunc.n_tr, "squeeze"), xi, s[0::2])
        lam, vt_jinv, jv = _chain_modes(trunc.n_tr, "displace")
        self._vacuum, self._modes = s, (lam, vt_jinv @ s, jv)
        self._packets = {}

    def __call__(self, b: float) -> np.ndarray:
        if b not in self._packets:
            if b < 0.0:
                v = self(-b).copy()
                v[1::2] = 0.0 - v[1::2]  # not -v: an exact zero stays +0.0, as the direct build leaves it
            else:
                v = self._displaced(b)
            v.setflags(write=False)
            self._packets[b] = v
        return self._packets[b]

    def _displaced(self, b: float) -> np.ndarray:
        """The normalized f(b) for b >= 0, after its tail check."""
        v = self._vacuum
        if b != 0.0:
            lam, w, jv = self._modes
            v = (jv @ (np.exp(-1j * b * lam) * w)).real
        nrm = float(np.linalg.norm(v))
        deficit = max(abs(1.0 - nrm), Truncation.tail_weight(v) / nrm**2)
        if deficit > self.trunc.tail_tol:
            raise TruncationNotConverged(
                f"tail weight {deficit:.3e} > {self.trunc.tail_tol:.3e} at n_tr={self.trunc.n_tr}",
                n_tr=self.trunc.n_tr,
                tail_weight=deficit,
            )
        return v / nrm


def displaced_squeezed_amplitudes(displacement: float, xi: float, trunc: Truncation) -> np.ndarray:
    """Normalized, read-only Fock amplitudes of exp(b(a^dag-a)) exp(xi(a^dag^2-a^2)) |0>: a family of one (:class:`PacketFamily`)."""
    return PacketFamily(xi, trunc)(displacement)


def gaussian_packet_profile(xs, displacement: float, xi: float, omega: float = 1.0) -> np.ndarray:
    """Position amplitude of exp(b(a^dag-a)) S(xi)^dag |0>: a Gaussian of
    width eta^{-1}/sqrt(omega) centered at b sqrt(2/omega)."""
    xs = np.asarray(xs, dtype=float)
    eta2 = math.exp(-4.0 * xi)
    x0 = displacement * math.sqrt(2.0 / omega)
    return (omega * eta2 / np.pi) ** 0.25 * np.exp(-0.5 * omega * eta2 * (xs - x0) ** 2)
