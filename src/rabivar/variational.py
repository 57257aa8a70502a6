"""Closed-form trial-state energies, observables and stationarity residuals.

Trial states.  Every trial state is a list of packets (:class:`PacketParams`):
coefficients c_j, positions a_j and one shared squeezing xi, |f(b)> being
the squeezed packet displaced to b in the +x projection (see
:mod:`rabivar.states`):

    +x component:  sum_j c_j |f(-a_j)>
    -x component:  sum_j c_j |f(+a_j)>   (times -1 for even parity,
                                          +1 for odd parity)

One packet, a = (beta,), is the CS1/CSS1 state; two packets,
a = (beta1, -beta2), are the CS2/CSS2 state, whose second position is
reflected so that at a two-packet optimum beta1 and beta2 both come out
positive.  The state is a sum over packets, so reordering the list (for two
packets, reversing it: (c1, c2, beta1, beta2) -> (c2, c1, -beta2, -beta1))
and flipping the sign of every c_j give the same state;
:meth:`PacketParams.canonical` picks one representative.  Energies are
Rayleigh quotients, so c need not be normalized.

Pair matrices.  With the -x packets at a and the +x packets at -a, every
expectation value is 2 c^T M c for a symmetric matrix M of one pair
function of the packet positions.  With u = eta^2 = e^{-4xi},
sh = sinh 2xi, ch = cosh 2xi and O(d) = exp(-u d^2 / 2):

    N_ij  = O(a_i - a_j)
    Ph_ij = N_ij (sh^2 + a_i a_j + sh ch u (a_i - a_j)^2)
    A_ij  = omega Ph_ij - alpha (a_i + a_j) N_ij
    B_ij  = O(a_i + a_j) (delta/2 + gamma u (a_i + a_j))

The energy of parity s (+1 even, -1 odd) is the Rayleigh quotient of
A - s B over N, and the photon number that of Ph over N.  M splits into
the parts M_d = sum_j c_j^2 M_jj and M_x = sum_{i<j} 2 c_i c_j M_ij.  For
two packets the mirror splitting E_even(c1, c2) - E_odd(c1, -c2) is
2 [(A_x - B_d) N_d - (A_d - B_x) N_x] / (N_d^2 - N_x^2), free of the
cancellation between the two energies.

:func:`energy`, :func:`mean_photon` and :func:`norm2` read these matrices
for any number of packets, and :func:`state_vectors` builds the same state
in a truncated number basis.  ``rabivar verify`` checks the former against
the latter (the Fock oracle of :mod:`rabivar.states`, which is
authoritative) and the gradients of :func:`objective` against central
differences; the tests tie :func:`objective`'s energies to :func:`energy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .errors import DegenerateAnsatz, NotIsotropic
from .model import ModelParams, Truncation, parity_sign
from .states import PacketFamily

_NORM_FLOOR = 1e-12
_NO_COUPLING = ModelParams(delta=0.0)  # for the forms that read only N and Ph
_PENCIL_FLOOR = 1e-4  # least 1 - O+^2 of the projected two-packet energy


@dataclass(frozen=True)
class PacketParams:
    """Trial-state parameters: coefficients c, the -x packets' positions a, shared xi.

    c and a are tuples of one entry per packet; xi = 0 gives plain
    displaced packets.
    """

    c: tuple
    a: tuple
    xi: float = 0.0

    @property
    def beta(self) -> float:
        """The displacement a[0] of a one-packet state; ValueError for more packets."""
        (beta,) = self.a
        return beta

    def canonical(self) -> "PacketParams":
        """The same state, its packets sorted by (position, c^2), descending, and its first nonzero c positive."""
        order = sorted(range(len(self.a)), key=lambda j: (self.a[j], self.c[j] ** 2), reverse=True)
        c = [self.c[j] for j in order]
        if next((v for v in c if v != 0.0), 0.0) < 0.0:
            c = [-v for v in c]
        return PacketParams(tuple(c), tuple(self.a[j] for j in order), self.xi)


class AnsatzKind(Enum):
    CS1 = "CS1"
    CSS1 = "CSS1"
    CS2 = "CS2"
    CSS2 = "CSS2"

    @property
    def two_branch(self) -> bool:
        return self in (AnsatzKind.CS2, AnsatzKind.CSS2)

    @property
    def squeezed(self) -> bool:
        return self in (AnsatzKind.CSS1, AnsatzKind.CSS2)


def _pair_overlap(eta: float, d: float) -> float:
    """exp(-(eta d)^2 / 2); math.exp underflows to exactly zero."""
    t = eta * d
    return math.exp(-0.5 * t * t)


def stationarity_residuals_iso(params: ModelParams, p: PacketParams):
    """Stationarity residuals (r_xi, r_beta) of the isotropic one-packet energy at p.

    r_xi  = omega (e^{4xi} - e^{-4xi}) - 4 delta beta^2 e^{-4xi} e^{-2 beta^2 eta^2}
    r_beta = (omega beta - g) + delta beta e^{-4xi} e^{-2 beta^2 eta^2}

    Both vanish at interior minima; r_xi equals dE/dxi and r_beta equals
    dE/dbeta / 2.  Requires tau == 1.
    """
    if params.tau != 1.0:
        raise NotIsotropic(f"stationarity residuals require tau == 1, got {params.tau}")
    eta = math.exp(-2.0 * p.xi)
    em4 = eta * eta
    o2 = _pair_overlap(eta, 2.0 * p.beta)
    r_xi = params.omega * (math.exp(4.0 * p.xi) - em4) - 4.0 * params.delta * p.beta**2 * em4 * o2
    r_beta = (params.omega * p.beta - params.g) + params.delta * p.beta * em4 * o2
    return r_xi, r_beta


def asymptotic_params(params: ModelParams):
    """Large-detuning estimates (beta, xi) = (g/delta, ln(1 + 4g^2/(omega delta))/8).

    Stated for the isotropic case; used as optimizer seeds and for
    large-detuning consistency checks, never as results.
    """
    if params.delta <= 0.0:
        raise ValueError("asymptotic estimates require delta > 0")
    beta = params.g / params.delta
    xi = 0.125 * math.log1p(4.0 * params.g**2 / (params.omega * params.delta))
    return beta, xi


def _pair_parts(params, p: PacketParams):
    """The parts ([N_d, N_x], [Ph_d, Ph_x], [A_d, A_x], [B_d, B_x]) of the pair matrices.

    Each part is summed over the diagonal pairs in packet order, then over
    the cross pairs (i, j), i < j, in order.  See the module docstring;
    params supplies delta, omega, alpha and gamma.
    """
    c, pos = p.c, p.a
    sh = math.sinh(2.0 * p.xi)
    shch = sh * math.cosh(2.0 * p.xi)
    eta = math.exp(-2.0 * p.xi)
    u = eta * eta
    n, ph, h_a, h_b = [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]
    for i, j in [(i, i) for i in range(len(pos))] + list(combinations(range(len(pos)), 2)):
        k, w = (0, c[i] * c[j]) if i == j else (1, 2.0 * c[i] * c[j])
        d, sm = pos[i] - pos[j], pos[i] + pos[j]
        o = _pair_overlap(eta, d)
        pij = o * (sh * sh + pos[i] * pos[j] + shch * u * d * d)
        n[k] += w * o
        ph[k] += w * pij
        h_a[k] += w * (params.omega * pij - params.alpha * sm * o)
        h_b[k] += w * _pair_overlap(eta, sm) * (0.5 * params.delta + params.gamma * u * sm)
    return n, ph, h_a, h_b


def _quotient(num: float, n) -> float:
    """num / c^T N c; DegenerateAnsatz when the squared norm 2 c^T N c is below 1e-12."""
    nrm = n[0] + n[1]
    if 2.0 * nrm < _NORM_FLOOR:
        raise DegenerateAnsatz(f"squared norm {2.0 * nrm:.3e} below {_NORM_FLOOR:.0e}")
    return num / nrm


def objective(params: ModelParams, kind: AnsatzKind, parity: str = "even"):
    """The energy of kind's trial state in parity as fg(x) -> (E, gradient), bound once.

    Every kind takes the same x = (beta1, beta2, xi) and returns a gradient
    of three entries.  A kind reads only its own slots: CS1 beta1, CSS1
    beta1 and xi, CS2 beta1 and beta2, CSS2 all three; the unsqueezed kinds
    fix xi = 0.  The gradient entry of a slot the kind does not read is
    exactly 0.0.  delta, omega, alpha, gamma and the parity sign s are read
    at binding.  A point the closed form cannot evaluate gives (inf, None):
    a degenerate pencil, an overflow or a non-finite energy.

    Single-packet kinds: with u = e^{-4xi}, sh = sinh 2xi,

        E = omega (sh^2 + beta^2) - 2 beta alpha
            - s (delta/2 + 2 gamma beta u) exp(-2 beta^2 u),

    the single-packet trial state's energy for s = +1.

    Two-packet kinds: the energy minimized over (c1, c2).  For fixed packets
    the energy is a Rayleigh quotient in (c1, c2) of the pencil h - E n of
    the :func:`_pair_parts` matrices h = A - s B and n = N = [[1, O+], [O+, 1]];
    its minimum over (c1, c2) is the lowest root of det(h - E n) = 0, and
    (c1, c2) the root's eigenvector (variable projection, Golub & Pereyra,
    SIAM J. Numer. Anal. 10, 413 (1973)).  The root is found in the
    n-orthonormal basis (1, +-1) / sqrt(2 (1 +- O+)), where the pencil is an
    ordinary symmetric 2x2 matrix.  By the Hellmann-Feynman theorem
    dE/dp = c^T (dh/dp - E dn/dp) c / c^T n c.  fg(x, True) returns that
    eigenvector (c1, c2), with c1^2 + c2^2 = 1, at any point fg accepts.
    The pencil counts as degenerate when 1 - O+^2 < 1e-4: as
    beta1 + beta2 -> 0 both branches tend to the same state, the pencil
    tends to 0/0 and the closed form loses the digits it divides out.
    """
    s = parity_sign(parity)
    delta, omega, alpha, gamma = params.delta, params.omega, params.alpha, params.gamma
    squeezed = kind.squeezed
    rejected = (math.inf, None)

    if not kind.two_branch:
        half_delta, two_gamma, two_omega, two_alpha = 0.5 * delta, 2.0 * gamma, 2.0 * omega, 2.0 * alpha
        two_s_gamma, eight_s_gamma, four_omega = 2.0 * s * gamma, 8.0 * s * gamma, 4.0 * omega

        def single(x):
            beta = x[0]
            try:
                if squeezed:
                    xi = x[2]
                    sh = math.sinh(2.0 * xi)
                    ch = math.cosh(2.0 * xi)
                    u = math.exp(-4.0 * xi)
                else:
                    sh, ch, u = 0.0, 1.0, 1.0
                o2 = math.exp(-2.0 * u * beta * beta)
                w = s * (half_delta + two_gamma * beta * u) * o2
                e = omega * (sh * sh + beta * beta) - 2.0 * beta * alpha - w
                if not math.isfinite(e):
                    return rejected
                de_beta = two_omega * beta - two_alpha - two_s_gamma * u * o2
                de_beta += 4.0 * u * beta * w
                if not squeezed:
                    return e, (de_beta, 0.0, 0.0)
                de_xi = four_omega * sh * ch + eight_s_gamma * beta * u * o2 - 8.0 * u * beta * beta * w
            except OverflowError:
                return rejected
            return e, (de_beta, 0.0, de_xi)

        return single

    hd, s_gamma, two_alpha = 0.5 * s * delta, s * gamma, 2.0 * alpha

    def projected(x, coefficients=False):
        b1, b2 = x[0], x[1]
        try:
            if squeezed:
                xi = x[2]
                sh = math.sinh(2.0 * xi)
                ch = math.cosh(2.0 * xi)
                u = math.exp(-4.0 * xi)  # eta^2
            else:
                sh, ch, u = 0.0, 1.0, 1.0
            sm, df = b1 + b2, b1 - b2
            sh2, shch = sh * sh, sh * ch
            one_m_op = -math.expm1(-0.5 * u * sm * sm)  # 1 - O+
            one_p_op = 2.0 - one_m_op
            if one_m_op * one_p_op < _PENCIL_FLOOR:
                return rejected
            op = 1.0 - one_m_op
            o21 = math.exp(-2.0 * u * b1 * b1)
            o22 = math.exp(-2.0 * u * b2 * b2)
            om = math.exp(-0.5 * u * df * df)
            sg = s_gamma * u

            h11 = -hd * o21 + omega * (sh2 + b1 * b1) - two_alpha * b1 - 2.0 * sg * b1 * o21
            h22 = -hd * o22 + omega * (sh2 + b2 * b2) + two_alpha * b2 + 2.0 * sg * b2 * o22
            pp = sh2 - b1 * b2 + shch * u * sm * sm
            h12 = -hd * om + omega * op * pp - alpha * op * df - sg * df * om

            # Lowest eigenpair in the n-orthonormal basis e+- = (1, +-1) / sqrt(2 (1 +- O+)).
            a = (h11 + h22 + 2.0 * h12) / (2.0 * one_p_op)
            b = (h11 + h22 - 2.0 * h12) / (2.0 * one_m_op)
            r = (h11 - h22) / (2.0 * math.sqrt(one_m_op * one_p_op))
            half = 0.5 * (a - b)
            rad = math.hypot(half, r)
            shift = r * r / (rad + abs(half)) if rad > 0.0 else 0.0
            if a <= b:
                e, cx, cy = a - shift, b - a + shift, -r
            else:
                e, cx, cy = b - shift, -r, a - b + shift
            if not math.isfinite(e):
                return rejected
            nrm = math.hypot(cx, cy)
            if nrm == 0.0:
                cx, nrm = 1.0, 1.0
            cx /= nrm * math.sqrt(2.0 * one_p_op)
            cy /= nrm * math.sqrt(2.0 * one_m_op)
            c1, c2 = cx + cy, cx - cy  # c^T n c = 1
            if coefficients:
                scale = math.hypot(c1, c2)
                return c1 / scale, c2 / scale

            # Derivatives of the pencil entries.
            dop1 = -u * sm * op  # dO+/dbeta1 = dO+/dbeta2
            dom1 = -u * df * om  # dO-/dbeta1 = -dO-/dbeta2
            dpp = 2.0 * shch * u * sm
            h11_b1 = 4.0 * hd * u * b1 * o21 + 2.0 * omega * b1 - two_alpha - 2.0 * sg * o21 * (1.0 - 4.0 * u * b1 * b1)
            h22_b2 = 4.0 * hd * u * b2 * o22 + 2.0 * omega * b2 + two_alpha + 2.0 * sg * o22 * (1.0 - 4.0 * u * b2 * b2)
            ani = sg * om * (1.0 - u * df * df)
            h12_b1 = -hd * dom1 + omega * (dop1 * pp + op * (dpp - b2)) - alpha * (dop1 * df + op) - ani
            h12_b2 = hd * dom1 + omega * (dop1 * pp + op * (dpp - b1)) - alpha * (dop1 * df - op) + ani
            cc = 2.0 * c1 * c2
            g1 = c1 * c1 * h11_b1 + cc * (h12_b1 - e * dop1)
            g2 = c2 * c2 * h22_b2 + cc * (h12_b2 - e * dop1)
            if not squeezed:
                return e, (g1, g2, 0.0)
            dop_xi = 2.0 * u * sm * sm * op
            dom_xi = 2.0 * u * df * df * om
            dpp_xi = 4.0 * shch + sm * sm * u * (2.0 * (ch * ch + sh2) - 4.0 * shch)
            h11_xi = -8.0 * hd * u * b1 * b1 * o21 + 4.0 * omega * shch + 8.0 * sg * b1 * o21 * (1.0 - 2.0 * u * b1 * b1)
            h22_xi = -8.0 * hd * u * b2 * b2 * o22 + 4.0 * omega * shch - 8.0 * sg * b2 * o22 * (1.0 - 2.0 * u * b2 * b2)
            h12_xi = (
                -hd * dom_xi + omega * (dop_xi * pp + op * dpp_xi) - alpha * dop_xi * df
                + sg * df * om * (4.0 - 2.0 * u * df * df)
            )
        except OverflowError:
            return rejected
        return e, (g1, g2, c1 * c1 * h11_xi + c2 * c2 * h22_xi + cc * (h12_xi - e * dop_xi))

    return projected


def norm2(p: PacketParams) -> float:
    """Squared norm 2 c^T N c of the trial state."""
    n = _pair_parts(_NO_COUPLING, p)[0]
    return 2.0 * (n[0] + n[1])


def energy(params: ModelParams, p: PacketParams, parity: str = "even") -> float:
    """Rayleigh quotient of the trial state, either parity.

    Raises DegenerateAnsatz when the squared norm falls below 1e-12
    (near-cancelling superposition).
    """
    s = parity_sign(parity)
    n, _, h_a, h_b = _pair_parts(params, p)
    return _quotient(h_a[0] + h_a[1] - s * (h_b[0] + h_b[1]), n)


def mean_photon(p: PacketParams) -> float:
    """Mode occupation of the trial state (parity independent)."""
    n, ph, _, _ = _pair_parts(_NO_COUPLING, p)
    return _quotient(ph[0] + ph[1], n)


def parity_splitting_2css(params: ModelParams, p: PacketParams) -> float:
    """E_even(c1, c2, ...) - E_odd(c1, -c2, ...) of a two-packet state, evaluated in closed form.

    The two parity optima mirror each other through c2 -> -c2 up to terms
    suppressed by the inter-packet overlaps, so this difference at the even
    optimum tracks the level splitting without the catastrophic cancellation
    of subtracting two separately minimized energies (module docstring).
    """
    if len(p.a) != 2:
        raise ValueError(f"the mirror splitting takes two packets, got {len(p.a)}")
    n, _, h_a, h_b = _pair_parts(params, p)
    denom = n[0] * n[0] - n[1] * n[1]
    if 4.0 * denom < _NORM_FLOOR**2:  # the floor is on the squared norms 2 c^T N c
        raise DegenerateAnsatz(f"norm product {4.0 * denom:.3e} below {_NORM_FLOOR**2:.0e}")
    return 2.0 * ((h_a[1] - h_b[0]) * n[0] - (h_a[0] - h_b[1]) * n[1]) / denom


def superpose(p: PacketParams, side: float, packet):
    """sum_j c_j packet(side * a_j), summed in packet order: the -x component for side 1, the +x one for -1."""
    terms = [c * packet(side * b) for c, b in zip(p.c, p.a)]
    return sum(terms[1:], terms[0])


def state_vectors(p: PacketParams, trunc: Truncation):
    """Explicit spin x Fock vectors (even, odd) of the trial state (Fock oracle input).

    Spin-major flat layout matching :mod:`rabivar.fock`; the vectors are not
    normalized (each squared norm approaches :func:`norm2` as the
    truncation grows).  The packets come from one
    :class:`~rabivar.states.PacketFamily`: the vacuum is squeezed once, each
    distinct |a_j| is displaced once, and f(-a_j) is the parity image of
    f(|a_j|), for both projections and parities.
    """
    packet = PacketFamily(p.xi, trunc)
    u, v = superpose(p, -1.0, packet), superpose(p, 1.0, packet)  # v before the parity sign
    rt = 1.0 / math.sqrt(2.0)
    diff, tot = rt * (u - v), rt * (u + v)
    return np.concatenate([diff, tot]), np.concatenate([tot, diff])
