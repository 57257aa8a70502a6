import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from rabivar import (
    DegenerateAnsatz,
    ModelParams,
    NotIsotropic,
    PacketParams,
    Truncation,
    build_hamiltonian,
    energy,
    mean_photon,
    parity_splitting_2css,
    asymptotic_params,
    stationarity_residuals_iso,
)
import rabivar.states as states
import rabivar.variational as variational
from rabivar.model import parity_sign
from rabivar.states import displaced_squeezed_amplitudes
from rabivar.variational import (
    _NO_COUPLING,
    _NORM_FLOOR,
    _PENCIL_FLOOR,
    AnsatzKind,
    _pair_overlap,
    _pair_parts,
    _quotient,
    norm2,
    objective,
    state_vectors,
)

TR = Truncation(160, 1e-9)


def one(beta, xi=0.0, c=1.0):
    """The one-packet state at beta."""
    return PacketParams((c,), (beta,), xi)


def two(c1, c2, beta1, beta2, xi=0.0):
    """The two-packet state in the row columns' terms: positions a = (beta1, -beta2)."""
    return PacketParams((c1, c2), (beta1, -beta2), xi)


def reversed_packets(p):
    """The same state with the packet list reversed: for two packets, the branch relabeling."""
    return PacketParams(p.c[::-1], p.a[::-1], p.xi)


def rayleigh(mp, psi, trunc=TR):
    h = build_hamiltonian(mp, trunc)
    return float(psi @ h @ psi) / float(psi @ psi)


def photon_of(psi, trunc=TR):
    n = np.concatenate([np.arange(trunc.dim), np.arange(trunc.dim)]).astype(float)
    return float(n @ psi**2) / float(psi @ psi)


# The unbound energies with their gradients, as the optimizer called them
# before each stage bound its objective once; variational.objective must
# reproduce them bit for bit.


def energy_grad_1css(params: ModelParams, beta: float, xi: float = 0.0, parity: str = "even"):
    """Single-packet energy of either parity with its exact gradient (dE/dbeta, dE/dxi).

    The parity sign s flips the atom and anisotropic terms:

        E = omega (sinh^2 2xi + beta^2) - 2 beta alpha
            - s (delta/2 + 2 gamma beta eta^2) exp(-2 beta^2 eta^2),

    the single-packet trial state's energy for s = +1.
    """
    s = parity_sign(parity)
    sh = math.sinh(2.0 * xi)
    ch = math.cosh(2.0 * xi)
    u = math.exp(-4.0 * xi)
    o2 = math.exp(-2.0 * u * beta * beta)
    w = s * (0.5 * params.delta + 2.0 * params.gamma * beta * u) * o2
    e = params.omega * (sh * sh + beta * beta) - 2.0 * beta * params.alpha - w
    de_beta = 2.0 * params.omega * beta - 2.0 * params.alpha - 2.0 * s * params.gamma * u * o2
    de_beta += 4.0 * u * beta * w
    de_xi = 4.0 * params.omega * sh * ch + 8.0 * s * params.gamma * beta * u * o2 - 8.0 * u * beta * beta * w
    return e, (de_beta, de_xi)


def projected_energy_2css(params: ModelParams, beta1: float, beta2: float, xi: float = 0.0, parity: str = "even"):
    """Two-packet energy minimized over (c1, c2), with its exact gradient.

    For fixed packets the energy is a Rayleigh quotient in (c1, c2) of the
    pencil h - E n of the :func:`_pair_parts` matrices h = A - s B and
    n = N = [[1, O+], [O+, 1]]; its minimum over (c1, c2) is the lowest root of
    det(h - E n) = 0, and (c1, c2) the root's eigenvector (variable
    projection, Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)).  The
    root is found in the n-orthonormal basis (1, +-1) / sqrt(2 (1 +- O+)),
    where the pencil is an ordinary symmetric 2x2 matrix.  By the
    Hellmann-Feynman theorem dE/dp = c^T (dh/dp - E dn/dp) c / c^T n c.

    Returns (E, (dE/dbeta1, dE/dbeta2, dE/dxi), c1, c2) with
    c1^2 + c2^2 = 1.  Raises DegenerateAnsatz when 1 - O+^2 < 1e-4: as
    beta1 + beta2 -> 0 both branches tend to the same state, the pencil
    tends to 0/0 and the closed form loses the digits it divides out.
    """
    s = parity_sign(parity)
    delta, omega, alpha, gamma = params.delta, params.omega, params.alpha, params.gamma
    b1, b2 = beta1, beta2
    sm, df = b1 + b2, b1 - b2
    sh = math.sinh(2.0 * xi)
    ch = math.cosh(2.0 * xi)
    sh2, shch = sh * sh, sh * ch
    u = math.exp(-4.0 * xi)  # eta^2
    one_m_op = -math.expm1(-0.5 * u * sm * sm)  # 1 - O+
    one_p_op = 2.0 - one_m_op
    if one_m_op * one_p_op < _PENCIL_FLOOR:
        raise DegenerateAnsatz(f"1 - O+^2 = {one_m_op * one_p_op:.3e} below {_PENCIL_FLOOR:.0e}")
    op = 1.0 - one_m_op
    o21 = math.exp(-2.0 * u * b1 * b1)
    o22 = math.exp(-2.0 * u * b2 * b2)
    om = math.exp(-0.5 * u * df * df)
    hd, sg = 0.5 * s * delta, s * gamma * u

    h11 = -hd * o21 + omega * (sh2 + b1 * b1) - 2.0 * alpha * b1 - 2.0 * sg * b1 * o21
    h22 = -hd * o22 + omega * (sh2 + b2 * b2) + 2.0 * alpha * b2 + 2.0 * sg * b2 * o22
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
        e, x, y = a - shift, b - a + shift, -r
    else:
        e, x, y = b - shift, -r, a - b + shift
    nrm = math.hypot(x, y)
    if nrm == 0.0:
        x, nrm = 1.0, 1.0
    x /= nrm * math.sqrt(2.0 * one_p_op)
    y /= nrm * math.sqrt(2.0 * one_m_op)
    c1, c2 = x + y, x - y  # c^T n c = 1

    # Derivatives of the pencil entries.
    dop1 = -u * sm * op  # dO+/dbeta1 = dO+/dbeta2
    dop_xi = 2.0 * u * sm * sm * op
    dom1 = -u * df * om  # dO-/dbeta1 = -dO-/dbeta2
    dom_xi = 2.0 * u * df * df * om
    dpp = 2.0 * shch * u * sm
    dpp_xi = 4.0 * shch + sm * sm * u * (2.0 * (ch * ch + sh2) - 4.0 * shch)
    h11_b1 = 4.0 * hd * u * b1 * o21 + 2.0 * omega * b1 - 2.0 * alpha - 2.0 * sg * o21 * (1.0 - 4.0 * u * b1 * b1)
    h22_b2 = 4.0 * hd * u * b2 * o22 + 2.0 * omega * b2 + 2.0 * alpha + 2.0 * sg * o22 * (1.0 - 4.0 * u * b2 * b2)
    h11_xi = -8.0 * hd * u * b1 * b1 * o21 + 4.0 * omega * shch + 8.0 * sg * b1 * o21 * (1.0 - 2.0 * u * b1 * b1)
    h22_xi = -8.0 * hd * u * b2 * b2 * o22 + 4.0 * omega * shch - 8.0 * sg * b2 * o22 * (1.0 - 2.0 * u * b2 * b2)
    ani = sg * om * (1.0 - u * df * df)
    h12_b1 = -hd * dom1 + omega * (dop1 * pp + op * (dpp - b2)) - alpha * (dop1 * df + op) - ani
    h12_b2 = hd * dom1 + omega * (dop1 * pp + op * (dpp - b1)) - alpha * (dop1 * df - op) + ani
    h12_xi = (
        -hd * dom_xi + omega * (dop_xi * pp + op * dpp_xi) - alpha * dop_xi * df
        + sg * df * om * (4.0 - 2.0 * u * df * df)
    )
    cc = 2.0 * c1 * c2
    grad = (
        c1 * c1 * h11_b1 + cc * (h12_b1 - e * dop1),
        c2 * c2 * h22_b2 + cc * (h12_b2 - e * dop1),
        c1 * c1 * h11_xi + c2 * c2 * h22_xi + cc * (h12_xi - e * dop_xi),
    )
    scale = math.hypot(c1, c2)
    return e, grad, c1 / scale, c2 / scale



def reference_fg(energy_grad, mp, kind, parity):
    """A reference energy as the optimizer sees it: rejected points at (inf, None), gradients in three slots."""

    def fg(x):
        try:
            e, g = energy_grad(mp, *x, parity=parity)[:2]
        except (DegenerateAnsatz, OverflowError):
            return math.inf, None
        return (e, tuple(_padded(kind, g[:len(_SLOTS[kind])]))) if math.isfinite(e) else (math.inf, None)

    return fg


# The two-packet closed forms as they were written for a two-packet
# parameter type (c1, c2, beta1, beta2, xi), before one packet-list kernel
# served every packet count; at two packets the packet-list forms must
# reproduce them bit for bit.


class TwoPacketParams(NamedTuple):
    c1: float
    c2: float
    beta1: float
    beta2: float
    xi: float = 0.0


def reference_pair_parts(params, a: TwoPacketParams):
    """The parts ([N_d, N_x], [Ph_d, Ph_x], [A_d, A_x], [B_d, B_x]) of the pair matrices.

    See the module docstring; params supplies delta, omega, alpha and gamma.
    """
    c, pos = (a.c1, a.c2), (a.beta1, -a.beta2)
    sh = math.sinh(2.0 * a.xi)
    shch = sh * math.cosh(2.0 * a.xi)
    eta = math.exp(-2.0 * a.xi)
    u = eta * eta
    n, ph, h_a, h_b = [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]
    for i, j in ((0, 0), (1, 1), (0, 1)):
        k, w = (0, c[i] * c[j]) if i == j else (1, 2.0 * c[i] * c[j])
        d, sm = pos[i] - pos[j], pos[i] + pos[j]
        o = _pair_overlap(eta, d)
        p = o * (sh * sh + pos[i] * pos[j] + shch * u * d * d)
        n[k] += w * o
        ph[k] += w * p
        h_a[k] += w * (params.omega * p - params.alpha * sm * o)
        h_b[k] += w * _pair_overlap(eta, sm) * (0.5 * params.delta + params.gamma * u * sm)
    return n, ph, h_a, h_b


def reference_energy_2css(params: ModelParams, a: TwoPacketParams, parity: str = "even") -> float:
    """Rayleigh quotient of the two-packet trial state, either parity.

    Reduces exactly to :func:`energy_1css` at c2 = 0, c1 = 1/sqrt(2),
    beta1 = beta.  Raises DegenerateAnsatz when the squared norm falls
    below 1e-12 (near-cancelling superposition).
    """
    s = parity_sign(parity)
    n, _, h_a, h_b = reference_pair_parts(params, a)
    return _quotient(h_a[0] + h_a[1] - s * (h_b[0] + h_b[1]), n)


def reference_mean_photon_2css(a: TwoPacketParams) -> float:
    """Mode occupation of the two-packet state (parity independent)."""
    n, ph, _, _ = reference_pair_parts(_NO_COUPLING, a)
    return _quotient(ph[0] + ph[1], n)


def reference_norm2_2css(a: TwoPacketParams) -> float:
    """Squared norm of the two-packet state, 2(c1^2 + c2^2 + 2 c1 c2 O+)."""
    n = reference_pair_parts(_NO_COUPLING, a)[0]
    return 2.0 * (n[0] + n[1])


def reference_parity_splitting_2css(params: ModelParams, a: TwoPacketParams) -> float:
    """E_even(c1, c2, ...) - E_odd(c1, -c2, ...), evaluated in closed form.

    The two parity optima mirror each other through c2 -> -c2 up to terms
    suppressed by the inter-packet overlaps, so this difference at the even
    optimum tracks the level splitting without the catastrophic cancellation
    of subtracting two separately minimized energies (module docstring).
    """
    n, _, h_a, h_b = reference_pair_parts(params, a)
    denom = n[0] * n[0] - n[1] * n[1]
    if 4.0 * denom < _NORM_FLOOR**2:  # the floor is on the squared norms 2 c^T N c
        raise DegenerateAnsatz(f"norm product {4.0 * denom:.3e} below {_NORM_FLOOR**2:.0e}")
    return 2.0 * ((h_a[1] - h_b[0]) * n[0] - (h_a[0] - h_b[1]) * n[1]) / denom


def _outcome(f, *args):
    """repr of f(*args), or the name of the exception it raised."""
    try:
        return repr(f(*args))
    except (DegenerateAnsatz, OverflowError) as exc:
        return type(exc).__name__


def _random_two_packet_sets(rng, count):
    """Two-packet sets over the working range and past it: zero and tied entries, degenerate norms."""
    sets = []
    for _ in range(count):
        c1, c2 = rng.uniform(-1.0, 1.0, 2)
        b1, b2 = rng.uniform(-4.0, 4.0, 2)
        xi = rng.uniform(-0.5, 0.5)
        sets.append(TwoPacketParams(c1, c2, b1, b2, xi))
    sets += [
        TwoPacketParams(1.0, 0.0, 1.3, 1.3, 0.1),  # the single-packet reduction
        TwoPacketParams(0.5, 0.5, 0.0, -0.0, 0.0),
        TwoPacketParams(-0.0, 0.7, 2.0, -2.0, 0.2),
        TwoPacketParams(1 / math.sqrt(2), -1 / math.sqrt(2), 0.3, -0.3, 0.0),  # degenerate
        TwoPacketParams(0.6, 0.8, 1e200, 0.5, 0.0),
        TwoPacketParams(0.6, 0.8, 1.0, 0.5, 400.0),
    ]
    return sets


@pytest.mark.parametrize("mp", [
    ModelParams.from_lambda(100.0, 1.2, 1.0, 1.0),
    ModelParams.from_lambda(10.0, 0.4, 1.0, 0.5),
    ModelParams(delta=8.0, omega=1.3, g=2.1, tau=1.5),
])
def test_packet_list_forms_equal_two_packet_references_bit_for_bit(mp):
    for a in _random_two_packet_sets(np.random.default_rng(17), 2000):
        p = two(*a)
        assert _outcome(_pair_parts, mp, p) == _outcome(reference_pair_parts, mp, a), a
        for parity in ("even", "odd"):
            assert _outcome(energy, mp, p, parity) == _outcome(reference_energy_2css, mp, a, parity), a
        assert _outcome(mean_photon, p) == _outcome(reference_mean_photon_2css, a), a
        assert _outcome(norm2, p) == _outcome(reference_norm2_2css, a), a
        assert _outcome(parity_splitting_2css, mp, p) == _outcome(reference_parity_splitting_2css, mp, a), a


def test_vacuum_energy():
    mp = ModelParams(delta=3.0, omega=1.0, g=0.7, tau=1.2)
    assert energy(mp, one(0.0, 0.0)) == pytest.approx(-1.5, abs=1e-15)


def test_squeezed_undisplaced_energy():
    mp = ModelParams(delta=3.0, omega=1.0, g=0.7, tau=1.0)
    expected = math.sinh(0.6) ** 2 - 1.5
    assert energy(mp, one(0.0, 0.3)) == pytest.approx(expected, abs=1e-14)


def test_single_packet_energy_against_fock():
    mp = ModelParams(delta=7.0, omega=1.0, g=1.2, tau=1.5)
    a = one(0.8, 0.1)
    psi = state_vectors(a, TR)[0]
    assert abs(rayleigh(mp, psi) - energy(mp, a)) <= 1e-9


def test_single_packet_energy_fock_random():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(10):
        mp = ModelParams(
            delta=rng.uniform(0.5, 15.0), omega=1.0, g=rng.uniform(0.0, 2.0),
            tau=float(rng.choice([0.4, 1.0, 1.7])),
        )
        a = one(rng.uniform(-2.0, 2.0), rng.uniform(0.0, 0.3))
        worst = max(worst, abs(rayleigh(mp, state_vectors(a, TR)[0]) - energy(mp, a)))
    assert worst <= 1e-9


def test_mean_photon_single_packet():
    assert mean_photon(one(0.0, 0.0)) == 0.0
    assert mean_photon(one(2.0, 0.0)) == 4.0
    a = one(1.0, 0.1)
    expected = 1.0 + math.sinh(0.2) ** 2
    assert mean_photon(a) == pytest.approx(expected, abs=1e-14)
    assert photon_of(state_vectors(a, TR)[0]) == pytest.approx(expected, abs=1e-9)


def test_one_packet_photon_number_within_one_ulp_of_closed_form():
    # The pair loop forms sh * sh + beta * beta, which may differ in the
    # last place from another rounding of sinh^2(2 xi) + beta^2 (beta**2,
    # say); it stays within one ulp of the correctly rounded value.
    rng = np.random.default_rng(5)
    for _ in range(20000):
        beta, xi = rng.uniform(-8.0, 8.0), rng.uniform(-0.5, 0.5)
        sh = math.sinh(2.0 * xi)
        got = mean_photon(one(beta, xi))
        assert got == sh * sh + beta * beta
        closed = float(Fraction(sh) ** 2 + Fraction(beta) ** 2)
        assert abs(got - closed) <= math.ulp(closed), (beta, xi)


def test_stationarity_trivial_point():
    mp = ModelParams(delta=2.0, omega=1.0, g=0.0, tau=1.0)
    assert stationarity_residuals_iso(mp, one(0.0, 0.0)) == (0.0, 0.0)


def test_stationarity_requires_isotropy():
    mp = ModelParams(delta=2.0, omega=1.0, g=0.4, tau=1.2)
    with pytest.raises(NotIsotropic):
        stationarity_residuals_iso(mp, one(0.1, 0.0))


def test_residuals_reconstruct_gradient():
    # dE/dxi = r_xi and dE/dbeta = 2 r_beta at generic points.
    rng = np.random.default_rng(4)
    mp = ModelParams(delta=6.0, omega=1.0, g=0.9, tau=1.0)
    h = 1e-6
    for _ in range(6):
        beta, xi = rng.uniform(0.05, 1.5), rng.uniform(0.01, 0.3)
        r_xi, r_beta = stationarity_residuals_iso(mp, one(beta, xi))
        de_dxi = (energy(mp, one(beta, xi + h)) - energy(mp, one(beta, xi - h))) / (2 * h)
        de_dbeta = (energy(mp, one(beta + h, xi)) - energy(mp, one(beta - h, xi))) / (2 * h)
        assert de_dxi == pytest.approx(r_xi, rel=1e-6, abs=1e-8)
        assert de_dbeta == pytest.approx(2.0 * r_beta, rel=1e-6, abs=1e-8)


def test_asymptotic_estimates():
    assert asymptotic_params(ModelParams(delta=5.0, g=0.0)) == (0.0, 0.0)
    beta, xi = asymptotic_params(ModelParams(delta=100.0, omega=1.0, g=5.0))
    assert beta == pytest.approx(0.05)
    assert xi == pytest.approx(math.log(2.0) / 8.0, abs=1e-12)


def test_two_packet_reduces_to_single():
    mp = ModelParams(delta=7.0, omega=1.0, g=1.2, tau=1.5)
    a2 = two(1 / math.sqrt(2), 0.0, 0.8, 0.8, 0.1)
    assert energy(mp, a2, "even") == pytest.approx(energy(mp, one(0.8, 0.1)), abs=1e-12)
    b2 = two(0.6, 0.0, 1.1, 0.4, 0.1)  # beta2 idle when c2 = 0
    assert energy(mp, b2, "even") == pytest.approx(energy(mp, one(1.1, 0.1)), abs=1e-12)
    assert energy(mp, one(1.1, 0.1)) == pytest.approx(objective(mp, AnsatzKind.CSS1)([1.1, 0.0, 0.1])[0], abs=1e-12)


def test_odd_packet_at_origin():
    mp = ModelParams(delta=7.0, omega=1.0, g=1.2, tau=1.5)
    a = two(0.7, 0.7, 0.0, 0.0, 0.0)
    assert energy(mp, a, "odd") == pytest.approx(mp.delta / 2.0, abs=1e-13)


def test_two_packet_energies_against_fock():
    mp = ModelParams.from_lambda(100.0, 1.05, 1.0, 1.0)
    a = two(0.6, 0.3, 2.0, 0.5, 0.12)
    for parity, psi in zip(("even", "odd"), state_vectors(a, TR)):
        assert abs(rayleigh(mp, psi) - energy(mp, a, parity)) <= 1e-8


def test_two_packet_energies_fock_random():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(8):
        mp = ModelParams(
            delta=rng.uniform(0.5, 20.0), omega=1.0, g=rng.uniform(0.0, 2.5),
            tau=float(rng.choice([0.3, 1.0, 1.6])),
        )
        a = two(
            rng.uniform(0.2, 1.0), rng.uniform(-1.0, 1.0),
            rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5), rng.uniform(0.0, 0.3),
        )
        for parity, psi in zip(("even", "odd"), state_vectors(a, TR)):
            worst = max(worst, abs(rayleigh(mp, psi) - energy(mp, a, parity)))
    assert worst <= 1e-8


def test_three_packet_energies_and_photon_number_against_fock():
    # The pair loop is not limited to two packets.
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(4):
        mp = ModelParams(delta=rng.uniform(0.5, 20.0), omega=1.0, g=rng.uniform(0.0, 2.5), tau=0.5)
        p = PacketParams(tuple(rng.uniform(-1.0, 1.0, 3)), tuple(rng.uniform(-2.5, 2.5, 3)), rng.uniform(0.0, 0.3))
        even, odd = state_vectors(p, TR)
        worst = max(
            worst,
            abs(rayleigh(mp, even) - energy(mp, p, "even")),
            abs(rayleigh(mp, odd) - energy(mp, p, "odd")),
            abs(photon_of(even) - mean_photon(p)),
            abs(float(even @ even) - norm2(p)),
        )
    assert worst <= 1e-8


def test_two_packet_photon_number():
    a = two(1 / math.sqrt(2), 0.0, 1.0, 1.0, 0.1)
    assert mean_photon(a) == pytest.approx(1.0 + math.sinh(0.2) ** 2, abs=1e-13)
    assert mean_photon(two(0.5, 0.5, 0.0, 0.0, 0.0)) == 0.0
    b = two(0.6, 0.3, 2.0, 0.5, 0.12)
    psi = state_vectors(b, TR)[0]
    assert abs(photon_of(psi) - mean_photon(b)) <= 1e-8


def test_branch_relabeling_invariance():
    mp = ModelParams(delta=7.0, omega=1.0, g=1.2, tau=1.5)
    a = two(0.6, -0.3, 1.1, -0.4, 0.2)
    relabeled = reversed_packets(a)
    assert relabeled == two(-0.3, 0.6, 0.4, -1.1, 0.2)  # (c2, c1, -beta2, -beta1)
    for parity in ("even", "odd"):
        assert energy(mp, a, parity) == pytest.approx(energy(mp, relabeled, parity), abs=1e-12)
    flip = PacketParams((-a.c[0], -a.c[1]), a.a, a.xi)
    assert energy(mp, a, "even") == energy(mp, flip, "even")


def test_relabeled_state_is_identical():
    a = two(0.6, -0.3, 1.1, -0.4, 0.2)
    psi = state_vectors(a, TR)[0]
    psi_rel = state_vectors(reversed_packets(a), TR)[0]
    assert np.max(np.abs(psi - psi_rel)) <= 1e-12


def test_degenerate_superposition_rejected():
    mp = ModelParams(delta=7.0, omega=1.0, g=1.2, tau=1.5)
    a = two(1 / math.sqrt(2), -1 / math.sqrt(2), 0.3, -0.3, 0.0)
    with pytest.raises(DegenerateAnsatz):
        energy(mp, a, "even")
    with pytest.raises(DegenerateAnsatz):
        mean_photon(a)


def test_parity_choice_validated():
    mp = ModelParams(delta=1.0)
    with pytest.raises(ValueError):
        energy(mp, two(1.0, 0.0, 0.1, 0.1, 0.0), "sideways")


def test_parity_splitting_matches_direct_difference():
    # At resolvable overlaps the closed-form splitting equals the plain
    # difference of the two parity quotients with the coefficient flipped.
    mp = ModelParams(delta=7.0, omega=1.0, g=1.2, tau=0.6)
    a = two(0.8, 0.35, 0.9, 0.7, 0.12)
    a_flip = two(0.8, -0.35, 0.9, 0.7, 0.12)
    direct = energy(mp, a, "even") - energy(mp, a_flip, "odd")
    assert parity_splitting_2css(mp, a) == pytest.approx(direct, abs=1e-12)


def test_parity_splitting_takes_two_packets():
    mp = ModelParams(delta=7.0, omega=1.0, g=1.2, tau=0.6)
    for p in (one(0.9, 0.1), PacketParams((0.8, 0.35, 0.2), (0.9, -0.7, 0.1), 0.12)):
        with pytest.raises(ValueError, match="two packets"):
            parity_splitting_2css(mp, p)


def test_parity_splitting_stable_in_deep_regime():
    # Both quotients agree to machine precision there, yet the closed form
    # still resolves the exponentially small difference with a clean sign.
    mp = ModelParams(delta=100.0, omega=1.0, g=0.95 * ModelParams(delta=100.0, tau=0.5, g=1).g_c1, tau=0.5)
    a = two(0.98, 0.17, 7.6, 7.3, 0.004)
    s = parity_splitting_2css(mp, a)
    assert 0.0 < abs(s) < 1e-30


def _decimal_splitting(mp, a, digits=60):
    """The mirror splitting of the two-packet state, expanded term by term in decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = digits
        c1, c2, b1, b2, xi = (Decimal(v) for v in (*a.c, a.a[0], -a.a[1], a.xi))
        delta, omega, alpha, gamma = (Decimal(v) for v in (mp.delta, mp.omega, mp.alpha, mp.gamma))
        e2 = (2 * xi).exp()
        sh, ch, u = (e2 - 1 / e2) / 2, (e2 + 1 / e2) / 2, 1 / (e2 * e2)

        def overlap(d):
            return (-u * d * d / 2).exp()

        op, om, o21, o22 = overlap(b1 + b2), overlap(b1 - b2), overlap(2 * b1), overlap(2 * b2)
        n_d, n_x = c1 * c1 + c2 * c2, 2 * c1 * c2 * op
        a_d = c1 * c1 * (omega * (sh * sh + b1 * b1) - 2 * alpha * b1)
        a_d += c2 * c2 * (omega * (sh * sh + b2 * b2) + 2 * alpha * b2)
        a_x = 2 * c1 * c2 * op * (omega * (sh * sh - b1 * b2 + sh * ch * u * (b1 + b2) ** 2) - alpha * (b1 - b2))
        b_d = c1 * c1 * o21 * (delta / 2 + 2 * gamma * u * b1) + c2 * c2 * o22 * (delta / 2 - 2 * gamma * u * b2)
        b_x = 2 * c1 * c2 * om * (delta / 2 + gamma * u * (b1 - b2))
        return 2 * ((a_x - b_d) * n_d - (a_d - b_x) * n_x) / (n_d * n_d - n_x * n_x)


@pytest.mark.parametrize(
    "ratio, a",
    [  # the even CSS2 optima of the README levels run (delta 100, tau 0.5)
        (0.95, two(0.9821477420553091, 0.18811117132073285, 7.645227281661268, 7.638411316328461,
                   0.003615076230230788)),
        (0.99, two(0.9849820500568243, 0.17265677242974234, 8.062523282747886, 8.061212420776783,
                   0.0006427571456392415)),
        (1.05, two(0.988238356963176, 0.15292138446509843, 8.667829874705003, 8.674060062937974,
                   -0.0027368292851261584)),
    ],
)
def test_tiny_parity_splitting_matches_decimal_expansion(ratio, a):
    # The README splittings are 1e-50 to 1e-73 against energies near -100,
    # so only the cancellation-free closed form resolves them; its regrouped
    # float sums must keep the relative accuracy of a 60-digit evaluation.
    gc1 = ModelParams(delta=100.0, tau=0.5, g=1.0).g_c1
    mp = ModelParams(delta=100.0, g=ratio * gc1, tau=0.5)
    exact = _decimal_splitting(mp, a)
    assert 1e-75 < abs(exact) < 1e-45
    assert abs((Decimal(parity_splitting_2css(mp, a)) - exact) / exact) <= Decimal("1e-11")


def test_state_vector_norm_matches_closed_form():
    a = two(0.6, 0.3, 2.0, 0.5, 0.12)
    psi = state_vectors(a, TR)[0]
    assert float(psi @ psi) == pytest.approx(norm2(a), abs=1e-10)


def four_packet_vector(a, parity, trunc=TR):
    """The trial state of the module docstring, each of its packets (four for two) built on its own."""
    s = +1 if parity == "even" else -1
    u = a.c[0] * displaced_squeezed_amplitudes(-a.a[0], a.xi, trunc)
    v = a.c[0] * displaced_squeezed_amplitudes(+a.a[0], a.xi, trunc)
    for c, b in zip(a.c[1:], a.a[1:]):
        u = u + c * displaced_squeezed_amplitudes(-b, a.xi, trunc)
        v = v + c * displaced_squeezed_amplitudes(+b, a.xi, trunc)
    rt = 1.0 / math.sqrt(2.0)
    return np.concatenate([rt * (u - s * v), rt * (u + s * v)])


@pytest.mark.parametrize(
    "a",
    [
        two(0.6, -0.3, 1.1, -0.4, 0.2),
        two(-0.8, 0.45, 2.3, 2.3, 0.15),  # beta2 == beta1: packets shared
        two(0.7, 0.0, -1.6, 0.9, 0.1),  # c2 = 0
        two(0.5, 0.5, 0.0, -0.0, 0.0),  # +0.0 == -0.0: shared
        two(0.4, -0.9, -0.0, 0.0, 0.25),
        two(0.3, 0.6, -0.0, 1.4, 0.0),
    ],
)
def test_state_vectors_bit_equal_four_packet_formula(a):
    even, odd = state_vectors(a, TR)
    assert even.tobytes() == four_packet_vector(a, "even").tobytes()
    assert odd.tobytes() == four_packet_vector(a, "odd").tobytes()


@pytest.mark.parametrize("beta, xi", [(0.8, 0.1), (-1.9, 0.0), (0.0, 0.2), (-0.0, 0.2)])
def test_single_packet_vector_bit_equal_four_packet_formula(beta, xi):
    rt = 1.0 / math.sqrt(2.0)
    for parity, vector in zip(("even", "odd"), state_vectors(one(beta, xi, rt), TR)):
        assert vector.tobytes() == four_packet_vector(one(beta, xi, rt), parity).tobytes()
        # The two-packet form with c2 = 0 adds 0 * f(+beta): the same values,
        # except that a -0.0 amplitude there becomes +0.0.
        assert np.array_equal(vector, four_packet_vector(two(rt, 0.0, beta, beta, xi), parity))


def test_state_vectors_build_each_distinct_position_once(monkeypatch):
    # One squeezed vacuum per state; each distinct |a_j| displaced once, -a_j its parity image.
    squeezed, displaced = [], []
    init, displace = states.PacketFamily.__init__, states.PacketFamily._displaced

    def counted_init(self, xi, trunc):
        squeezed.append(xi)
        init(self, xi, trunc)

    def counted_displaced(self, b):
        displaced.append(b)
        return displace(self, b)

    monkeypatch.setattr(states.PacketFamily, "__init__", counted_init)
    monkeypatch.setattr(states.PacketFamily, "_displaced", counted_displaced)
    for p, magnitudes in [
        (one(0.8, 0.1), [0.8]),
        (two(0.6, -0.3, 1.1, -0.4, 0.2), [0.4, 1.1]),
        (two(-0.8, 0.45, 2.3, 2.3, 0.15), [2.3]),  # beta2 == beta1
        (two(0.7, 0.2, 1.6, -1.6, 0.1), [1.6]),  # beta2 == -beta1: both packets at 1.6
        (two(0.5, 0.5, 0.0, -0.0, 0.0), [0.0]),
        (PacketParams((0.4, 0.3, 0.2), (1.0, -1.0, 0.5), 0.0), [0.5, 1.0]),
    ]:
        squeezed.clear()
        displaced.clear()
        state_vectors(p, TR)
        assert (squeezed, sorted(displaced)) == ([p.xi], magnitudes), p


def test_one_packet_beta_and_canonical_form():
    assert one(0.7, 0.1).beta == 0.7
    with pytest.raises(ValueError):
        two(0.6, 0.3, 2.0, 0.5).beta
    # Sorted by (position, c^2), descending; the first nonzero c made positive.
    p = PacketParams((0.2, -0.5, 0.5, -0.3), (1.0, 2.0, 1.0, -0.5), 0.1)
    assert p.canonical() == PacketParams((0.5, -0.5, -0.2, 0.3), (2.0, 1.0, 1.0, -0.5), 0.1)
    assert PacketParams((-0.0, -0.4), (1.0, 0.0)).canonical() == PacketParams((0.0, 0.4), (1.0, 0.0))


PROJECTED_POINTS = [(3.0, 2.5, 0.1), (0.4, 0.9, -0.2), (5.0, -1.0, 0.3), (1.2, 0.3, 0.05)]


@pytest.mark.parametrize("tau", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_projected_energy_is_energy_at_its_eigenvector(tau, parity):
    mp = ModelParams(delta=10.0, omega=1.0, g=1.3, tau=tau)
    fg = objective(mp, AnsatzKind.CSS2, parity)
    for b1, b2, xi in PROJECTED_POINTS:
        e = fg([b1, b2, xi])[0]
        c1, c2 = fg([b1, b2, xi], True)
        assert c1 * c1 + c2 * c2 == pytest.approx(1.0, abs=1e-15)
        direct = energy(mp, two(c1, c2, b1, b2, xi), parity)
        assert abs(e - direct) <= 1e-12 * max(1.0, abs(e))
        # The eigenvector minimizes the Rayleigh quotient over (c1, c2).
        for t in np.linspace(0.0, math.pi, 13):
            other = energy(mp, two(math.cos(t), math.sin(t), b1, b2, xi), parity)
            assert other >= e - 1e-12 * max(1.0, abs(e))


@pytest.mark.parametrize("tau", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_projected_gradient_matches_central_differences(tau, parity):
    mp = ModelParams(delta=10.0, omega=1.0, g=1.3, tau=tau)
    fg = objective(mp, AnsatzKind.CSS2, parity)
    h = 1e-6
    for x in PROJECTED_POINTS:
        xi = x[2]
        assert -math.expm1(-math.exp(-4.0 * xi) * (x[0] + x[1]) ** 2) >= 1e-2  # 1 - O+^2
        _, grad = fg(list(x))
        for i in range(3):
            up, down = list(x), list(x)
            up[i] += h
            down[i] -= h
            fd = (fg(up)[0] - fg(down)[0]) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("tau", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_single_packet_gradient(tau, parity):
    mp = ModelParams(delta=10.0, omega=1.0, g=1.3, tau=tau)
    fg = objective(mp, AnsatzKind.CSS1, parity)
    h = 1e-6
    for x in [(0.5, 0.0, 0.1), (3.0, 0.0, -0.2), (1.1, 0.0, 0.0)]:
        e, grad = fg(list(x))
        direct = energy(mp, one(x[0], x[2]), parity)
        assert abs(e - direct) <= 1e-12 * max(1.0, abs(e))
        for i in range(3):
            up, down = list(x), list(x)
            up[i] += h
            down[i] -= h
            fd = (fg(up)[0] - fg(down)[0]) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_projected_energy_rejects_coincident_branches():
    mp = ModelParams(delta=100.0, omega=1.0, g=0.01, tau=1.0)
    fg = objective(mp, AnsatzKind.CS2, "odd")
    assert fg([0.3, -0.295]) == (math.inf, None)  # 1 - O+^2 = 2.5e-5
    assert math.isfinite(fg([0.3, -0.285])[0])  # 2.2e-4 is accepted
    with pytest.raises(DegenerateAnsatz):
        projected_energy_2css(mp, 0.3, -0.295, 0.0, "odd")


# The slots of (beta1, beta2, xi) each kind reads.
_SLOTS = {AnsatzKind.CS1: (0,), AnsatzKind.CSS1: (0, 2), AnsatzKind.CS2: (0, 1), AnsatzKind.CSS2: (0, 1, 2)}


def _padded(kind, v):
    """kind's variables v in the slots (beta1, beta2, xi), with 0.0 in each slot kind does not read."""
    x = [0.0, 0.0, 0.0]
    for slot, value in zip(_SLOTS[kind], v):
        x[slot] = value
    return x


def _random_points(rng, kind, count):
    """Points over the working range and past it: rejected pencils, overflows, non-finite energies."""
    n = len(_SLOTS[kind])
    points = [list(rng.uniform(-6.0, 6.0, n)) for _ in range(count)]
    if kind.squeezed:
        for x in points[: count // 4]:
            x[-1] = rng.uniform(-0.6, 0.6)
        points += [[1.0] * (n - 1) + [xi] for xi in (200.0, -200.0, 400.0, -400.0, 1e300, -1e300, math.nan)]
    if kind.two_branch:  # beta1 + beta2 inside and around the rejected band
        points += [[b, -b + d] + [0.0] * (n - 2) for b, d in zip(rng.uniform(-3, 3, 50), rng.uniform(-0.02, 0.02, 50))]
    points += [[1e200] + [0.5] * (n - 1), [math.inf] * n, [math.nan] * n, [0.0] * n, [-0.0] * n]
    return points


@pytest.mark.parametrize("kind", list(AnsatzKind))
@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("mp", [
    ModelParams.from_lambda(100.0, 1.2, 1.0, 1.0),
    ModelParams.from_lambda(10.0, 0.4, 1.0, 0.5),
    ModelParams(delta=8.0, omega=1.3, g=2.1, tau=1.5),
    ModelParams(delta=100.0, g=0.0),
])
def test_bound_objective_equals_reference_bit_for_bit(kind, parity, mp):
    reference = projected_energy_2css if kind.two_branch else energy_grad_1css
    expected_fg = reference_fg(reference, mp, kind, parity)
    fg = objective(mp, kind, parity)
    branches = set()
    for x in _random_points(np.random.default_rng(len(kind.value) + 7 * (parity == "odd")), kind, 1000):
        args = x if kind.squeezed else x + [0.0]  # the unsqueezed kinds fix xi = 0
        got, expected = fg(_padded(kind, x)), expected_fg(args)
        assert repr(got) == repr(expected), x  # repr tells -0.0 from 0.0 and round-trips every float
        if kind.two_branch and got[1] is not None:
            assert repr(fg(_padded(kind, x), True)) == repr(reference(mp, *args, parity=parity)[2:])
        try:
            r = reference(mp, *args, parity=parity)
            branches.add("finite" if math.isfinite(r[0]) else "non-finite")
        except DegenerateAnsatz:
            branches.add("degenerate")
        except OverflowError:
            branches.add("overflow")
    assert {"finite", "non-finite"} <= branches
    assert ("degenerate" in branches) == kind.two_branch
    assert ("overflow" in branches) == kind.squeezed


@pytest.mark.parametrize("kind", list(AnsatzKind))
@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("x", PROJECTED_POINTS)
def test_objective_reads_only_the_slots_of_its_kind(kind, parity, x):
    # Every kind takes (beta1, beta2, xi); a slot it does not read changes
    # nothing and has gradient exactly 0.0, so bfgs never moves it.
    fg = objective(ModelParams(delta=10.0, omega=1.0, g=1.3, tau=0.5), kind, parity)
    e, grad = fg(list(x))
    assert math.isfinite(e) and len(grad) == 3
    for slot in sorted({0, 1, 2} - set(_SLOTS[kind])):
        assert repr(grad[slot]) == "0.0"
        for moved in (0.0, -0.0, -1.7, 2.5, 1e300):
            y = list(x)
            y[slot] = moved
            assert repr(fg(y)) == repr((e, grad)), (slot, moved)
            if kind.two_branch:
                assert repr(fg(y, True)) == repr(fg(list(x), True))
