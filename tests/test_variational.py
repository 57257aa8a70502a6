import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from rabivar import (
    Ansatz1Params,
    Ansatz2Params,
    DegenerateAnsatz,
    ModelParams,
    NotIsotropic,
    Truncation,
    build_hamiltonian,
    energy_1css,
    energy_2css,
    mean_photon_1css,
    mean_photon_2css,
    parity_splitting_2css,
    asymptotic_params,
    stationarity_residuals_iso,
)
from rabivar.states import displaced_squeezed_amplitudes
from rabivar.variational import (
    ansatz1_state_vector,
    ansatz2_state_vectors,
    energy_grad_1css,
    norm2_2css,
    projected_energy_2css,
)

TR = Truncation(160, 1e-9)


def rayleigh(mp, psi, trunc=TR):
    h = build_hamiltonian(mp, trunc)
    return float(psi @ h @ psi) / float(psi @ psi)


def photon_of(psi, trunc=TR):
    n = np.concatenate([np.arange(trunc.dim), np.arange(trunc.dim)]).astype(float)
    return float(n @ psi**2) / float(psi @ psi)


def test_vacuum_energy():
    mp = ModelParams(delta=3.0, omega=1.0, g=0.7, tau=1.2)
    assert energy_1css(mp, Ansatz1Params(0.0, 0.0)) == pytest.approx(-1.5, abs=1e-15)


def test_squeezed_undisplaced_energy():
    mp = ModelParams(delta=3.0, omega=1.0, g=0.7, tau=1.0)
    expected = math.sinh(0.6) ** 2 - 1.5
    assert energy_1css(mp, Ansatz1Params(0.0, 0.3)) == pytest.approx(expected, abs=1e-14)


def test_single_packet_energy_against_fock():
    mp = ModelParams(delta=7.0, omega=1.0, g=1.2, tau=1.5)
    a = Ansatz1Params(0.8, 0.1)
    psi = ansatz1_state_vector(a, TR)
    assert abs(rayleigh(mp, psi) - energy_1css(mp, a)) <= 1e-9


def test_single_packet_energy_fock_random():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(10):
        mp = ModelParams(
            delta=rng.uniform(0.5, 15.0), omega=1.0, g=rng.uniform(0.0, 2.0),
            tau=float(rng.choice([0.4, 1.0, 1.7])),
        )
        a = Ansatz1Params(rng.uniform(-2.0, 2.0), rng.uniform(0.0, 0.3))
        worst = max(worst, abs(rayleigh(mp, ansatz1_state_vector(a, TR)) - energy_1css(mp, a)))
    assert worst <= 1e-9


def test_mean_photon_single_packet():
    assert mean_photon_1css(Ansatz1Params(0.0, 0.0)) == 0.0
    assert mean_photon_1css(Ansatz1Params(2.0, 0.0)) == 4.0
    a = Ansatz1Params(1.0, 0.1)
    expected = 1.0 + math.sinh(0.2) ** 2
    assert mean_photon_1css(a) == pytest.approx(expected, abs=1e-14)
    assert photon_of(ansatz1_state_vector(a, TR)) == pytest.approx(expected, abs=1e-9)


def test_stationarity_trivial_point():
    mp = ModelParams(delta=2.0, omega=1.0, g=0.0, tau=1.0)
    assert stationarity_residuals_iso(mp, Ansatz1Params(0.0, 0.0)) == (0.0, 0.0)


def test_stationarity_requires_isotropy():
    mp = ModelParams(delta=2.0, omega=1.0, g=0.4, tau=1.2)
    with pytest.raises(NotIsotropic):
        stationarity_residuals_iso(mp, Ansatz1Params(0.1, 0.0))


def test_residuals_reconstruct_gradient():
    # dE/dxi = r_xi and dE/dbeta = 2 r_beta at generic points.
    rng = np.random.default_rng(4)
    mp = ModelParams(delta=6.0, omega=1.0, g=0.9, tau=1.0)
    h = 1e-6
    for _ in range(6):
        beta, xi = rng.uniform(0.05, 1.5), rng.uniform(0.01, 0.3)
        r_xi, r_beta = stationarity_residuals_iso(mp, Ansatz1Params(beta, xi))
        de_dxi = (
            energy_1css(mp, Ansatz1Params(beta, xi + h))
            - energy_1css(mp, Ansatz1Params(beta, xi - h))
        ) / (2 * h)
        de_dbeta = (
            energy_1css(mp, Ansatz1Params(beta + h, xi))
            - energy_1css(mp, Ansatz1Params(beta - h, xi))
        ) / (2 * h)
        assert de_dxi == pytest.approx(r_xi, rel=1e-6, abs=1e-8)
        assert de_dbeta == pytest.approx(2.0 * r_beta, rel=1e-6, abs=1e-8)


def test_asymptotic_estimates():
    assert asymptotic_params(ModelParams(delta=5.0, g=0.0)) == (0.0, 0.0)
    beta, xi = asymptotic_params(ModelParams(delta=100.0, omega=1.0, g=5.0))
    assert beta == pytest.approx(0.05)
    assert xi == pytest.approx(math.log(2.0) / 8.0, abs=1e-12)


def test_two_packet_reduces_to_single():
    mp = ModelParams(delta=7.0, omega=1.0, g=1.2, tau=1.5)
    a2 = Ansatz2Params(1 / math.sqrt(2), 0.0, 0.8, 0.8, 0.1)
    assert energy_2css(mp, a2, "even") == pytest.approx(
        energy_1css(mp, Ansatz1Params(0.8, 0.1)), abs=1e-12
    )
    b2 = Ansatz2Params(0.6, 0.0, 1.1, 0.4, 0.1)  # beta2 idle when c2 = 0
    assert energy_2css(mp, b2, "even") == pytest.approx(
        energy_1css(mp, Ansatz1Params(1.1, 0.1)), abs=1e-12
    )


def test_odd_packet_at_origin():
    mp = ModelParams(delta=7.0, omega=1.0, g=1.2, tau=1.5)
    a = Ansatz2Params(0.7, 0.7, 0.0, 0.0, 0.0)
    assert energy_2css(mp, a, "odd") == pytest.approx(mp.delta / 2.0, abs=1e-13)


def test_two_packet_energies_against_fock():
    mp = ModelParams.from_lambda(100.0, 1.05, 1.0, 1.0)
    a = Ansatz2Params(0.6, 0.3, 2.0, 0.5, 0.12)
    for parity, psi in zip(("even", "odd"), ansatz2_state_vectors(a, TR)):
        assert abs(rayleigh(mp, psi) - energy_2css(mp, a, parity)) <= 1e-8


def test_two_packet_energies_fock_random():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(8):
        mp = ModelParams(
            delta=rng.uniform(0.5, 20.0), omega=1.0, g=rng.uniform(0.0, 2.5),
            tau=float(rng.choice([0.3, 1.0, 1.6])),
        )
        a = Ansatz2Params(
            rng.uniform(0.2, 1.0), rng.uniform(-1.0, 1.0),
            rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5), rng.uniform(0.0, 0.3),
        )
        for parity, psi in zip(("even", "odd"), ansatz2_state_vectors(a, TR)):
            worst = max(worst, abs(rayleigh(mp, psi) - energy_2css(mp, a, parity)))
    assert worst <= 1e-8


def test_two_packet_photon_number():
    a = Ansatz2Params(1 / math.sqrt(2), 0.0, 1.0, 1.0, 0.1)
    assert mean_photon_2css(a) == pytest.approx(1.0 + math.sinh(0.2) ** 2, abs=1e-13)
    assert mean_photon_2css(Ansatz2Params(0.5, 0.5, 0.0, 0.0, 0.0)) == 0.0
    b = Ansatz2Params(0.6, 0.3, 2.0, 0.5, 0.12)
    psi = ansatz2_state_vectors(b, TR)[0]
    assert abs(photon_of(psi) - mean_photon_2css(b)) <= 1e-8


def test_branch_relabeling_invariance():
    mp = ModelParams(delta=7.0, omega=1.0, g=1.2, tau=1.5)
    a = Ansatz2Params(0.6, -0.3, 1.1, -0.4, 0.2)
    for parity in ("even", "odd"):
        assert energy_2css(mp, a, parity) == pytest.approx(
            energy_2css(mp, a.relabeled(), parity), abs=1e-12
        )
    flip = Ansatz2Params(-a.c1, -a.c2, a.beta1, a.beta2, a.xi)
    assert energy_2css(mp, a, "even") == energy_2css(mp, flip, "even")


def test_relabeled_state_is_identical():
    a = Ansatz2Params(0.6, -0.3, 1.1, -0.4, 0.2)
    psi = ansatz2_state_vectors(a, TR)[0]
    psi_rel = ansatz2_state_vectors(a.relabeled(), TR)[0]
    assert np.max(np.abs(psi - psi_rel)) <= 1e-12


def test_degenerate_superposition_rejected():
    mp = ModelParams(delta=7.0, omega=1.0, g=1.2, tau=1.5)
    a = Ansatz2Params(1 / math.sqrt(2), -1 / math.sqrt(2), 0.3, -0.3, 0.0)
    with pytest.raises(DegenerateAnsatz):
        energy_2css(mp, a, "even")
    with pytest.raises(DegenerateAnsatz):
        mean_photon_2css(a)


def test_parity_choice_validated():
    mp = ModelParams(delta=1.0)
    with pytest.raises(ValueError):
        energy_2css(mp, Ansatz2Params(1.0, 0.0, 0.1, 0.1, 0.0), "sideways")


def test_parity_splitting_matches_direct_difference():
    # At resolvable overlaps the closed-form splitting equals the plain
    # difference of the two parity quotients with the coefficient flipped.
    mp = ModelParams(delta=7.0, omega=1.0, g=1.2, tau=0.6)
    a = Ansatz2Params(0.8, 0.35, 0.9, 0.7, 0.12)
    a_flip = Ansatz2Params(0.8, -0.35, 0.9, 0.7, 0.12)
    direct = energy_2css(mp, a, "even") - energy_2css(mp, a_flip, "odd")
    assert parity_splitting_2css(mp, a) == pytest.approx(direct, abs=1e-12)


def test_parity_splitting_stable_in_deep_regime():
    # Both quotients agree to machine precision there, yet the closed form
    # still resolves the exponentially small difference with a clean sign.
    mp = ModelParams(delta=100.0, omega=1.0, g=0.95 * ModelParams(delta=100.0, tau=0.5, g=1).g_c1, tau=0.5)
    a = Ansatz2Params(0.98, 0.17, 7.6, 7.3, 0.004)
    s = parity_splitting_2css(mp, a)
    assert 0.0 < abs(s) < 1e-30


def _decimal_splitting(mp, a, digits=60):
    """The mirror splitting of the two-packet state, expanded term by term in decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = digits
        c1, c2, b1, b2, xi = (Decimal(v) for v in (a.c1, a.c2, a.beta1, a.beta2, a.xi))
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
        (0.95, Ansatz2Params(0.9821477420553091, 0.18811117132073285, 7.645227281661268, 7.638411316328461,
                             0.003615076230230788)),
        (0.99, Ansatz2Params(0.9849820500568243, 0.17265677242974234, 8.062523282747886, 8.061212420776783,
                             0.0006427571456392415)),
        (1.05, Ansatz2Params(0.988238356963176, 0.15292138446509843, 8.667829874705003, 8.674060062937974,
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
    a = Ansatz2Params(0.6, 0.3, 2.0, 0.5, 0.12)
    psi = ansatz2_state_vectors(a, TR)[0]
    assert float(psi @ psi) == pytest.approx(norm2_2css(a), abs=1e-10)


def four_packet_vector(a, parity, trunc=TR):
    """The two-packet state of the module docstring, each of its four packets built on its own."""
    s = +1 if parity == "even" else -1
    u = a.c1 * displaced_squeezed_amplitudes(-a.beta1, a.xi, trunc)
    u = u + a.c2 * displaced_squeezed_amplitudes(+a.beta2, a.xi, trunc)
    v = a.c1 * displaced_squeezed_amplitudes(+a.beta1, a.xi, trunc)
    v = v + a.c2 * displaced_squeezed_amplitudes(-a.beta2, a.xi, trunc)
    rt = 1.0 / math.sqrt(2.0)
    return np.concatenate([rt * (u - s * v), rt * (u + s * v)])


@pytest.mark.parametrize(
    "a",
    [
        Ansatz2Params(0.6, -0.3, 1.1, -0.4, 0.2),
        Ansatz2Params(-0.8, 0.45, 2.3, 2.3, 0.15),  # beta2 == beta1: packets shared
        Ansatz2Params(0.7, 0.0, -1.6, 0.9, 0.1),  # c2 = 0
        Ansatz2Params(0.5, 0.5, 0.0, -0.0, 0.0),  # +0.0 == -0.0: shared
        Ansatz2Params(0.4, -0.9, -0.0, 0.0, 0.25),
        Ansatz2Params(0.3, 0.6, -0.0, 1.4, 0.0),
    ],
)
def test_state_vectors_bit_equal_four_packet_formula(a):
    even, odd = ansatz2_state_vectors(a, TR)
    assert even.tobytes() == four_packet_vector(a, "even").tobytes()
    assert odd.tobytes() == four_packet_vector(a, "odd").tobytes()


@pytest.mark.parametrize("beta, xi", [(0.8, 0.1), (-1.9, 0.0), (0.0, 0.2), (-0.0, 0.2)])
def test_single_packet_vector_bit_equal_four_packet_formula(beta, xi):
    two = Ansatz2Params(1.0 / math.sqrt(2.0), 0.0, beta, beta, xi)
    assert ansatz1_state_vector(Ansatz1Params(beta, xi), TR).tobytes() == four_packet_vector(two, "even").tobytes()


PROJECTED_POINTS = [(3.0, 2.5, 0.1), (0.4, 0.9, -0.2), (5.0, -1.0, 0.3), (1.2, 0.3, 0.05)]


@pytest.mark.parametrize("tau", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_projected_energy_is_energy_at_its_eigenvector(tau, parity):
    mp = ModelParams(delta=10.0, omega=1.0, g=1.3, tau=tau)
    for b1, b2, xi in PROJECTED_POINTS:
        e, _, c1, c2 = projected_energy_2css(mp, b1, b2, xi, parity)
        assert c1 * c1 + c2 * c2 == pytest.approx(1.0, abs=1e-15)
        direct = energy_2css(mp, Ansatz2Params(c1, c2, b1, b2, xi), parity)
        assert abs(e - direct) <= 1e-12 * max(1.0, abs(e))
        # The eigenvector minimizes the Rayleigh quotient over (c1, c2).
        for t in np.linspace(0.0, math.pi, 13):
            other = energy_2css(mp, Ansatz2Params(math.cos(t), math.sin(t), b1, b2, xi), parity)
            assert other >= e - 1e-12 * max(1.0, abs(e))


@pytest.mark.parametrize("tau", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_projected_gradient_matches_central_differences(tau, parity):
    mp = ModelParams(delta=10.0, omega=1.0, g=1.3, tau=tau)
    h = 1e-6
    for x in PROJECTED_POINTS:
        xi = x[2]
        assert -math.expm1(-math.exp(-4.0 * xi) * (x[0] + x[1]) ** 2) >= 1e-2  # 1 - O+^2
        _, grad, _, _ = projected_energy_2css(mp, *x, parity)
        for i in range(3):
            up, down = list(x), list(x)
            up[i] += h
            down[i] -= h
            fd = (projected_energy_2css(mp, *up, parity)[0] - projected_energy_2css(mp, *down, parity)[0]) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("tau", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_single_packet_gradient(tau, parity):
    mp = ModelParams(delta=10.0, omega=1.0, g=1.3, tau=tau)
    h = 1e-6
    for x in [(0.5, 0.1), (3.0, -0.2), (1.1, 0.0)]:
        e, grad = energy_grad_1css(mp, *x, parity)
        direct = energy_2css(mp, Ansatz2Params(1.0, 0.0, x[0], x[0], x[1]), parity)
        assert abs(e - direct) <= 1e-12 * max(1.0, abs(e))
        for i in range(2):
            up, down = list(x), list(x)
            up[i] += h
            down[i] -= h
            fd = (energy_grad_1css(mp, *up, parity)[0] - energy_grad_1css(mp, *down, parity)[0]) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_projected_energy_rejects_coincident_branches():
    mp = ModelParams(delta=100.0, omega=1.0, g=0.01, tau=1.0)
    with pytest.raises(DegenerateAnsatz):
        projected_energy_2css(mp, 0.3, -0.295, 0.0, "odd")  # 1 - O+^2 = 2.5e-5
    projected_energy_2css(mp, 0.3, -0.285, 0.0, "odd")  # 2.2e-4 is accepted
