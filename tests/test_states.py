import math

import numpy as np
import pytest
import scipy.linalg
from scipy.special import gammaln

from rabivar import (
    ModelParams,
    Truncation,
    TruncationNotConverged,
    position_profile,
    solve_parity_sector,
    spin_x_projection,
)
from rabivar.states import (
    PacketFamily,
    _chain_modes,
    _exp_chain,
    count_peaks,
    displaced_squeezed_amplitudes,
    gaussian_packet_profile,
    oscillator_wavefunctions,
)
from rabivar.variational import _pair_overlap
from rabivar.verify import _squeezed_vacuum_reference


def squeezed_vacuum_amplitudes(xi, n_tr):
    """Independent closed form: even levels of the squeezed vacuum, r = 2 xi."""
    r = 2.0 * xi
    m = np.arange(0, n_tr // 2 + 1)
    amps = np.zeros(n_tr + 1)
    logs = 0.5 * gammaln(2 * m + 1) - m * math.log(2.0) - gammaln(m + 1)
    amps[2 * m] = math.cosh(r) ** -0.5 * np.tanh(r) ** m * np.exp(logs)
    return amps


def test_gaussian_ground_value():
    assert oscillator_wavefunctions(0, 0.0)[0, 0] == pytest.approx(np.pi**-0.25, abs=1e-12)


def test_first_excited_vanishes_at_origin():
    for omega in (1.0, 2.7):
        assert oscillator_wavefunctions(1, 0.0, omega)[1, 0] == 0.0


def test_high_level_quadrature_norm():
    xs = np.arange(-15.0, 15.0 + 1e-12, 0.01)
    psi = oscillator_wavefunctions(50, xs)[50]
    assert np.trapezoid(psi**2, xs) == pytest.approx(1.0, abs=1e-6)


def test_frequency_scaled_norm():
    xs = np.arange(-12.0, 12.0 + 1e-12, 0.005)
    psi = oscillator_wavefunctions(3, xs, omega=2.0)[3]
    assert np.trapezoid(psi**2, xs) == pytest.approx(1.0, abs=1e-8)


def test_no_overflow_at_high_order():
    xs = np.linspace(-30.0, 30.0, 1001)
    psi = oscillator_wavefunctions(320, xs)[320]
    assert np.all(np.isfinite(psi))
    assert np.max(np.abs(psi)) < 1.0


def test_vacuum_packet():
    v = displaced_squeezed_amplitudes(0.0, 0.0, Truncation(30))
    expected = np.zeros(31)
    expected[0] = 1.0
    assert np.array_equal(v, expected)


def test_squeezed_vacuum_against_closed_form():
    tr = Truncation(160, 1e-10)
    v = displaced_squeezed_amplitudes(0.0, 0.2, tr)
    ref = squeezed_vacuum_amplitudes(0.2, tr.n_tr)
    assert np.max(np.abs(v - ref)) <= 1e-10
    assert np.max(np.abs(v[1::2])) == 0.0  # odd levels empty


def test_packet_norm_and_occupation():
    tr = Truncation(160, 1e-10)
    v = displaced_squeezed_amplitudes(-1.3, 0.1, tr)
    n = np.arange(tr.dim)
    assert float(v @ v) == pytest.approx(1.0, abs=1e-12)
    expected = math.sinh(0.2) ** 2 + 1.3**2
    assert float(n @ v**2) == pytest.approx(expected, abs=1e-9)


def dense_packet(b, xi, n_tr):
    """exp(b(a^dag-a)) exp(xi(a^dag^2-a^2)) |0> by dense expm of the truncated generators."""
    a = np.diag(np.sqrt(np.arange(1.0, n_tr + 1)), 1)
    vac = np.zeros(n_tr + 1)
    vac[0] = 1.0
    squeezed = scipy.linalg.expm(xi * (a.T @ a.T - a @ a)) @ vac
    return scipy.linalg.expm(b * (a.T - a)) @ squeezed


@pytest.mark.parametrize("n_tr", [40, 41, 160])
def test_packet_matches_dense_expm(n_tr):
    # Both sides use the same truncated generators, so weight near the cutoff
    # is part of what is compared; the guard only has to let it through.
    tr = Truncation(n_tr, 1e-6)
    for b, xi in [(0.0, 0.3), (0.0, -0.3), (2.5, 0.0), (-2.5, 0.15), (1.3, -0.25), (-0.7, 0.3)]:
        amps = displaced_squeezed_amplitudes(b, xi, tr)
        assert np.max(np.abs(amps - dense_packet(b, xi, n_tr))) <= 1e-13


def test_displaced_vacuum_is_poisson():
    tr = Truncation(160)
    n = np.arange(tr.dim)
    for b in (2.5, -1.7, 0.4):
        log_mag = -0.5 * b * b + n * math.log(abs(b)) - 0.5 * gammaln(n + 1)
        expected = np.sign(b) ** n * np.exp(log_mag)
        assert np.max(np.abs(displaced_squeezed_amplitudes(b, 0.0, tr) - expected)) <= 1e-12


def test_folded_kernel_at_rounding_level():
    # The oracle's own cutoff; both references are exact up to a few ulps.
    tr = Truncation(160, 1e-9)
    worst_coherent = 0.0
    for b in np.linspace(-3.5, 3.5, 29):
        expected = np.empty(tr.dim)
        expected[0] = math.exp(-0.5 * b * b)
        for n in range(1, tr.dim):
            expected[n] = expected[n - 1] * b / math.sqrt(n)
        amps = displaced_squeezed_amplitudes(b, 0.0, tr)
        worst_coherent = max(worst_coherent, float(np.max(np.abs(amps - expected))))
    worst_squeezed = 0.0
    for xi in np.linspace(0.0, 0.4, 17):
        amps = displaced_squeezed_amplitudes(0.0, xi, tr)
        worst_squeezed = max(worst_squeezed, float(np.max(np.abs(amps - _squeezed_vacuum_reference(xi, tr.n_tr)))))
    assert worst_coherent <= 1e-15
    assert worst_squeezed <= 1e-15
    for generator in ("displace", "squeeze"):
        for arr in _chain_modes(tr.n_tr, generator):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_truncation_guard_raises():
    with pytest.raises(TruncationNotConverged):
        displaced_squeezed_amplitudes(-3.0, 0.0, Truncation(10))


def per_packet_amplitudes(b, xi, trunc):
    """f(b) built on its own, squeezed and then displaced by b itself, and its tail deficit."""
    v = np.zeros(trunc.dim)
    v[0] = 1.0
    if xi != 0.0:
        v[0::2] = _exp_chain(_chain_modes(trunc.n_tr, "squeeze"), xi, v[0::2])
    if b != 0.0:
        v = _exp_chain(_chain_modes(trunc.n_tr, "displace"), b, v)
    nrm = float(np.linalg.norm(v))
    return v / nrm, max(abs(1.0 - nrm), Truncation.tail_weight(v) / nrm**2)


_FAMILY_POSITIONS = (0.0, -0.0, 0.3, -0.3, 3.0, -3.0)


@pytest.mark.parametrize("n_tr", [40, 160])
@pytest.mark.parametrize("xi", [0.0, 0.1, 0.4])
def test_family_packets_bit_equal_per_packet_construction(xi, n_tr):
    # -b is the parity image of |b|, bit for bit, in one family or in families
    # of one; at the default tail_tol a |b| that fails the tail check raises
    # as the packet built on its own would, for either sign.
    failing = []
    for tr in (Truncation(n_tr, 0.5), Truncation(n_tr)):
        for family in (PacketFamily(xi, tr), None):
            for b in _FAMILY_POSITIONS:
                expected, deficit = per_packet_amplitudes(b, xi, tr)
                build = family or (lambda b: displaced_squeezed_amplitudes(b, xi, tr))
                if deficit <= tr.tail_tol:
                    assert build(b).tobytes() == expected.tobytes(), b
                    continue
                failing.append(b)
                with pytest.raises(TruncationNotConverged) as err:
                    build(b)
                assert str(err.value) == f"tail weight {deficit:.3e} > {tr.tail_tol:.3e} at n_tr={n_tr}"
                assert (err.value.n_tr, err.value.tail_weight) == (n_tr, deficit)
    assert {3.0, -3.0} <= set(failing) if n_tr == 40 else not failing


def test_family_hands_out_each_packet_read_only():
    family = PacketFamily(0.2, Truncation(40))
    for b in (0.7, -0.7, 0.0, -0.0):
        v = family(b)
        assert family(b) is v
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 0.0
    assert family(-0.0) is family(0.0)
    assert not displaced_squeezed_amplitudes(-0.7, 0.2, Truncation(40)).flags.writeable


def test_overlap_identical_packets():
    assert _pair_overlap(math.exp(-0.5), 0.8 - 0.8) == 1.0


def test_overlap_mirror_reduction():
    beta, xi = 0.9, 0.17
    eta = math.exp(-2.0 * xi)
    assert _pair_overlap(eta, beta + beta) == pytest.approx(
        math.exp(-2.0 * beta**2 * eta**2), abs=1e-15
    )


def test_overlap_sign_relation_exact():
    rng = np.random.default_rng(2)
    for _ in range(25):
        b1, b2 = rng.uniform(-3, 3, 2)
        eta = math.exp(-2.0 * rng.uniform(0, 0.4))
        # symmetric in the two packets, for either relative orientation
        assert _pair_overlap(eta, b1 - b2) == _pair_overlap(eta, b2 - b1)
        assert _pair_overlap(eta, b1 + b2) == _pair_overlap(eta, -b2 - b1)
        assert 0.0 < _pair_overlap(eta, b1 + b2) <= 1.0


def test_overlap_matches_fock_inner_products():
    tr = Truncation(160, 1e-9)
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(20):
        b1, b2 = rng.uniform(-3, 3, 2)
        xi = rng.uniform(0, 0.4)
        eta = math.exp(-2.0 * xi)
        fk = displaced_squeezed_amplitudes(-b1, xi, tr)
        plus = displaced_squeezed_amplitudes(-b2, xi, tr)
        minus = displaced_squeezed_amplitudes(+b2, xi, tr)
        worst = max(
            worst,
            abs(float(fk @ plus) - _pair_overlap(eta, b1 - b2)),
            abs(float(fk @ minus) - _pair_overlap(eta, b1 + b2)),
        )
    assert worst <= 1e-8


def test_overlap_specific_pair():
    tr = Truncation(160, 1e-9)
    b1, b2, xi = 0.7, -0.4, 0.15
    eta = math.exp(-2.0 * xi)
    fk = displaced_squeezed_amplitudes(-b1, xi, tr)
    assert float(fk @ displaced_squeezed_amplitudes(-b2, xi, tr)) == pytest.approx(
        _pair_overlap(eta, b1 - b2), abs=1e-9
    )
    assert float(fk @ displaced_squeezed_amplitudes(+b2, xi, tr)) == pytest.approx(
        _pair_overlap(eta, b1 + b2), abs=1e-9
    )


def test_count_peaks_floor_discrimination():
    xs = np.linspace(-10, 10, 2001)
    main = np.exp(-((xs - 2.0) ** 2))
    assert count_peaks((main + 0.30 * np.exp(-((xs + 2.0) ** 2))) ** 2) == 2
    assert count_peaks((main + 0.05 * np.exp(-((xs + 2.0) ** 2))) ** 2) == 1
    assert count_peaks(np.zeros(100)) == 0


def test_profile_norm_from_normalized_state():
    xs = np.arange(-25.0, 25.0 + 1e-9, 0.01)
    mp = ModelParams.from_lambda(100.0, 1.1, 1.0, 1.0)
    res = solve_parity_sector(mp, Truncation(256), "even")
    c_plus, c_minus = spin_x_projection(res)
    phi_plus, phi_minus = position_profile(c_plus, c_minus, xs)
    assert np.trapezoid(phi_plus**2 + phi_minus**2, xs) == pytest.approx(1.0, abs=1e-3)


def test_peak_counts_stable_under_grid_refinement():
    mp = ModelParams.from_lambda(100.0, 1.1, 1.0, 1.0)
    res = solve_parity_sector(mp, Truncation(256), "even")
    c_plus, c_minus = spin_x_projection(res)
    counts = []
    for step in (0.02, 0.01):
        xs = np.arange(-25.0, 25.0 + 1e-9, step)
        phi_plus, phi_minus = position_profile(c_plus, c_minus, xs)
        counts.append((count_peaks(phi_plus**2), count_peaks(phi_minus**2)))
    assert counts[0] == counts[1]


def test_gaussian_packet_matches_fock_route():
    xs = np.arange(-12.0, 12.0 + 1e-9, 0.01)
    b, xi, omega = 1.2, 0.15, 1.0
    tr = Truncation(200, 1e-9)
    amps = displaced_squeezed_amplitudes(b, xi, tr)
    via_fock = amps @ oscillator_wavefunctions(tr.n_tr, xs, omega)
    direct = gaussian_packet_profile(xs, b, xi, omega)
    assert np.max(np.abs(via_fock - direct)) <= 1e-8
