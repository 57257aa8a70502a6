import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import rabivar
import rabivar.exactdiag as ed
from rabivar import (
    ModelParams,
    SpinFockVector,
    Truncation,
    TruncationNotConverged,
    build_hamiltonian,
    mean_photon_ed,
    parity_chain,
    parity_diag,
    sector_splitting,
    solve_lowest,
    solve_parity_sector,
    spin_x_projection,
)


def jaynes_cummings_ground(delta, omega, g, n_max=2000):
    """Closed-form ground energy of the pure excitation-conserving model.

    Sector n >= 1 spans {|up, n-1>, |down, n>} with lower eigenvalue
    omega (n - 1/2) - sqrt((delta - omega)^2 / 4 + g^2 n); the vacuum
    candidate is -delta/2.
    """
    best = -0.5 * delta
    for n in range(1, n_max + 1):
        e = omega * (n - 0.5) - math.sqrt(0.25 * (delta - omega) ** 2 + g * g * n)
        best = min(best, e)
    return best


def test_decoupled_ground_state():
    res = solve_lowest(ModelParams(delta=1.0, g=0.0), Truncation(16))
    assert res.energies[0] == pytest.approx(-0.5, abs=1e-14)
    v = res.vectors[0]
    expected = np.zeros(2 * (res.n_tr_used + 1))
    expected[res.n_tr_used + 1] = 1.0  # |down, 0>
    assert np.allclose(v.coeffs, expected, atol=1e-12)


@pytest.mark.parametrize("g", [0.2, 0.7, 1.2])
def test_pure_rotating_wave_matches_closed_form(g):
    mp = ModelParams(delta=1.0, omega=1.0, g=g, tau=0.0)
    res = solve_lowest(mp, Truncation(64))
    assert res.energies[0] == pytest.approx(jaynes_cummings_ground(1.0, 1.0, g), abs=1e-10)


def test_truncation_self_consistency():
    mp = ModelParams.from_lambda(100.0, 1.1, 1.0, 1.0)
    e1 = solve_lowest(mp, Truncation(128)).energies[0]
    e2 = solve_lowest(mp, Truncation(256)).energies[0]
    assert abs(e1 - e2) <= 1e-10 * abs(e1)


def test_adaptive_truncation_grows():
    mp = ModelParams.from_lambda(100.0, 1.2, 1.0, 1.0)
    res = solve_lowest(mp, Truncation(8))
    assert res.n_tr_used > 8
    assert res.tail_weight <= 1e-12


def test_truncation_cap_raises(monkeypatch):
    monkeypatch.setattr(ed, "N_TR_CAP", 32)
    mp = ModelParams.from_lambda(100.0, 1.4, 1.0, 1.0)
    with pytest.raises(TruncationNotConverged):
        solve_lowest(mp, Truncation(8))


def _dense_lowest(mp, n_tr, k):
    """k lowest eigenvalues of the dense spin x Fock matrix, the independent oracle."""
    h = build_hamiltonian(mp, Truncation(n_tr))
    return scipy.linalg.eigh(h, eigvals_only=True, subset_by_index=(0, k - 1)), h


def test_sector_union_matches_full_spectrum():
    rng = np.random.default_rng(11)
    k = 8
    for _ in range(10):
        mp = ModelParams(
            delta=rng.uniform(0.2, 3.0),
            omega=1.0,
            g=rng.uniform(0.0, 1.0),
            tau=float(rng.choice([0.5, 1.0, 1.5])),
        )
        tr = Truncation(40, tail_tol=1e-6)
        full = solve_lowest(mp, tr)
        n_tr = full.n_tr_used
        dense, _ = _dense_lowest(mp, n_tr, k)
        assert full.energies[0] == pytest.approx(dense[0], abs=1e-10)
        even = solve_parity_sector(mp, tr, +1)
        odd = solve_parity_sector(mp, tr, -1)
        assert even.n_tr_used == odd.n_tr_used == n_tr
        assert min(even.energies[0], odd.energies[0]) == full.energies[0]
        chains = [
            scipy.linalg.eigh_tridiagonal(*parity_chain(mp, n_tr, parity), eigvals_only=True,
                                          select="i", select_range=(0, k - 1))
            for parity in (+1, -1)
        ]
        assert np.allclose([chains[0][0], chains[1][0]], even.energies + odd.energies, atol=1e-12)
        assert np.allclose(np.sort(np.concatenate(chains))[:k], dense, atol=1e-10)


@pytest.mark.parametrize("parity", [0, -1], ids=["both", "odd"])
def test_eigenpair_residuals(parity):
    mp = ModelParams(delta=2.0, omega=1.0, g=0.8, tau=1.5)
    tr = Truncation(48, tail_tol=1e-8)
    res = solve_parity_sector(mp, tr, parity) if parity else solve_lowest(mp, tr)
    h = build_hamiltonian(mp, Truncation(res.n_tr_used))
    e, v = res.energies[0], res.vectors[0].coeffs
    dense = scipy.linalg.eigvalsh(h)
    assert np.min(np.abs(dense - e)) <= 1e-10
    if not parity:
        assert e == pytest.approx(dense[0], abs=1e-10)
    assert np.linalg.norm(h @ v - e * v) <= 1e-10 * np.max(np.abs(h))
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    p = parity_diag(Truncation(res.n_tr_used))
    assert abs(v @ (p * v)) == pytest.approx(1.0, abs=1e-12)  # definite parity


@pytest.mark.parametrize("lam", [1.3, 1.5])
@pytest.mark.parametrize("n_tr", [256, 300])
def test_isotropic_ground_state_is_even_in_degenerate_pair(lam, n_tr):
    # Past the delocalization threshold the even and odd ground levels agree
    # to far below double precision; the ground vector is the even one, not
    # a mixture that depends on the cutoff or the solver.
    mp = ModelParams.from_lambda(100.0, lam, 1.0, 1.0)
    res = solve_lowest(mp, Truncation(n_tr))
    p = parity_diag(Truncation(res.n_tr_used))
    assert np.sum(res.vectors[0].coeffs[p < 0] ** 2) == 0.0
    e_odd = solve_parity_sector(mp, Truncation(n_tr), -1).energies[0]
    assert abs(res.energies[0] - e_odd) <= 1e-12 * abs(e_odd)


def test_solve_lowest_independent_of_blas_threads():
    script = (
        "import numpy as np; from rabivar import ModelParams, Truncation, solve_lowest\n"
        "r = solve_lowest(ModelParams.from_lambda(100.0, 1.5, 1.0, 1.0), Truncation(256))\n"
        "print(np.array(r.energies).tobytes().hex(), "
        "np.concatenate([v.coeffs for v in r.vectors]).tobytes().hex())\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(rabivar.__path__[0]),
                                                         env.get("PYTHONPATH")]))
        outputs.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                      capture_output=True, text=True).stdout)
    assert outputs[0] == outputs[1] and outputs[0]


def test_phase_fixing_sign():
    res = solve_lowest(ModelParams(delta=1.0, g=0.4), Truncation(24))
    v = res.vectors[0].coeffs
    assert v[np.argmax(np.abs(v))] > 0


def test_parity_validation():
    with pytest.raises(ValueError):
        solve_parity_sector(ModelParams(delta=1.0), Truncation(4), parity=0)


def test_decoupled_parity_sectors():
    mp = ModelParams(delta=1.0, omega=1.3, g=0.0)
    tr = Truncation(16)
    even = solve_parity_sector(mp, tr, +1)
    odd = solve_parity_sector(mp, tr, -1)
    assert even.energies[0] == pytest.approx(-0.5, abs=1e-13)
    assert odd.energies[0] == pytest.approx(min(0.5, 1.3 - 0.5), abs=1e-13)


def test_odd_sector_dives_below_even_beyond_crossing():
    # Resolvable detuning: the sector gap at the crossing scale exceeds
    # eigensolver noise, unlike the deep two-packet regime.
    mp0 = ModelParams(delta=8.0, tau=0.5, g=1.0)
    g = 1.05 * mp0.g_c1
    mp = ModelParams(delta=8.0, tau=0.5, g=g)
    tr = Truncation(96)
    even = solve_parity_sector(mp, tr, +1)
    odd = solve_parity_sector(mp, tr, -1)
    assert odd.energies[0] < even.energies[0]


def test_spin_x_projection_basis_change():
    v = SpinFockVector(np.array([0.0, 0.0, 1.0, 0.0]), 1)  # |down, 0>
    c_plus, c_minus = spin_x_projection(v)
    assert c_plus[0] == pytest.approx(1 / math.sqrt(2))
    assert c_minus[0] == pytest.approx(-1 / math.sqrt(2))
    s = 1 / math.sqrt(2)
    v2 = SpinFockVector(np.array([s, 0.0, s, 0.0]), 1)  # |+x> (x) |0>
    c_plus, c_minus = spin_x_projection(v2)
    assert c_plus[0] == pytest.approx(1.0)
    assert abs(c_minus[0]) <= 1e-15


def test_spin_x_projection_preserves_norm():
    rng = np.random.default_rng(5)
    v = rng.normal(size=18)
    v /= np.linalg.norm(v)
    c_plus, c_minus = spin_x_projection(SpinFockVector(v, 8))
    assert np.sum(c_plus**2) + np.sum(c_minus**2) == pytest.approx(1.0, abs=1e-12)


def test_even_sector_projection_parity_pattern():
    mp = ModelParams.from_lambda(100.0, 1.1, 1.0, 1.0)
    res = solve_parity_sector(mp, Truncation(256), +1)
    c_plus, c_minus = spin_x_projection(res.vectors[0])
    n = np.arange(res.n_tr_used + 1)
    assert np.max(np.abs(c_minus - (-1.0) ** (n + 1) * c_plus)) <= 1e-12


def test_mean_photon_fock_states():
    v0 = SpinFockVector(np.array([0.0, 0, 0, 0, 1.0, 0, 0, 0]), 3)  # |down, 0>
    assert mean_photon_ed(v0) == 0.0
    v3 = SpinFockVector(np.array([0.0, 0, 0, 0, 0, 0, 0, 1.0]), 3)  # |down, 3>
    assert mean_photon_ed(v3) == 3.0


def test_mean_photon_matches_packet_estimate():
    from rabivar import AnsatzKind, mean_photon, solve_ansatz

    mp = ModelParams.from_lambda(100.0, 1.5, 1.0, 1.0)
    res = solve_lowest(mp, Truncation(256))
    n_ed = mean_photon_ed(res.vectors[0])
    fit = solve_ansatz(mp, AnsatzKind.CSS2)
    assert abs(mean_photon(fit.params) - n_ed) <= 0.1 * n_ed


@pytest.mark.parametrize("tau", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("parity", [+1, -1])
def test_parity_chain_matches_dense_sector(tau, parity):
    mp = ModelParams(delta=3.0, omega=1.3, g=0.7, tau=tau)
    n_tr = 12
    t = Truncation(n_tr)
    m = np.arange(n_tr + 1)
    down = (m % 2 == 0) == (parity == +1)
    order = np.where(down, n_tr + 1, 0) + m  # full-basis index of chain site m
    assert np.array_equal(np.sort(order), np.flatnonzero(parity_diag(t) == parity))
    diag, link = parity_chain(mp, n_tr, parity)
    chain = np.diag(diag) + np.diag(link, 1) + np.diag(link, -1)
    sector = build_hamiltonian(mp, t)[np.ix_(order, order)]
    np.testing.assert_allclose(chain, sector, rtol=0.0, atol=1e-14)


def test_certified_splitting_matches_float_where_resolved():
    gc1 = ModelParams(delta=8.0, tau=0.5, g=1.0).g_c1
    compared = 0
    for ratio in np.arange(0.9, 1.1001, 0.02):
        mp = ModelParams(delta=8.0, tau=0.5, g=ratio * gc1)
        e_even = solve_parity_sector(mp, Truncation(96), +1).energies[0]
        e_odd = solve_parity_sector(mp, Truncation(96), -1).energies[0]
        split = sector_splitting(mp, 96).splitting
        if abs(e_even - e_odd) > 1e-9:
            assert split == pytest.approx(e_even - e_odd, rel=0.0, abs=1e-12 * abs(e_even))
            compared += 1
    assert compared >= 8


@pytest.mark.parametrize("ratio, expected", [(0.99, -2.2457821614e-56), (1.01, 1.7594067596e-60)])
def test_certified_splitting_deep_two_packet_regime(ratio, expected, monkeypatch):
    # Far below double precision: |E| ~ 80 here.  The splitting must not
    # move when the cutoff is doubled or the digits are raised.
    gc1 = ModelParams(delta=100.0, tau=0.5, g=1.0).g_c1
    mp = ModelParams(delta=100.0, tau=0.5, g=ratio * gc1)
    base = sector_splitting(mp, 256)
    assert base.splitting == pytest.approx(expected, rel=0.01)
    assert abs(base.splitting) > base.error
    doubled = sector_splitting(mp, 512)
    monkeypatch.setattr(ed, "SPLITTING_DIGITS", 150)
    precise = sector_splitting(mp, 256)
    assert doubled.n_tr == 512 and precise.digits == 150
    for other in (doubled, precise):
        assert other.splitting == pytest.approx(base.splitting, rel=1e-9)


@pytest.mark.parametrize("ratio", [1.0, 1.03, 1.095])
def test_truncation_limited_splitting_extends_the_cutoff_from_the_tail(ratio):
    # At n_tr 256 the truncation bound exceeds these splittings.  The next
    # cutoff comes from the float vectors' tail: longer than 256, shorter
    # than the doubled 512, and the same certified value as at 512.
    gc1 = ModelParams(delta=100.0, tau=0.5, g=1.0).g_c1
    mp = ModelParams(delta=100.0, tau=0.5, g=ratio * gc1)
    grown = sector_splitting(mp, 256)
    assert 256 < grown.n_tr < 512
    assert grown.error < 1e-84
    ref = sector_splitting(mp, 512)
    assert ref.n_tr == 512
    assert (grown.splitting > 0.0) == (ref.splitting > 0.0)
    assert abs(grown.splitting - ref.splitting) <= grown.error + ref.error


def test_unresolved_splitting_has_no_sign(monkeypatch):
    gc1 = ModelParams(delta=100.0, tau=0.5, g=1.0).g_c1
    at_crossing = ModelParams(delta=100.0, tau=0.5, g=gc1)
    assert sector_splitting(at_crossing, 256).splitting > 0.0
    with monkeypatch.context() as m:
        # At the crossing the n_tr = 256 chains shift by more than the splitting.
        m.setattr(ed, "N_TR_CAP", 256)
        capped = sector_splitting(at_crossing, 256)
        assert capped.splitting is None and capped.n_tr == 256
    with monkeypatch.context() as m:
        # 40 digits cannot resolve 1.8e-60 on levels near -80.
        m.setattr(ed, "SPLITTING_DIGITS", 40)
        m.setattr(ed, "SPLITTING_DIGITS_CAP", 40)
        coarse = sector_splitting(ModelParams(delta=100.0, tau=0.5, g=1.01 * gc1), 256)
        assert coarse.splitting is None and coarse.digits == 40
    # Identical chains: an exact degeneracy stays unresolved at every precision.
    exact = sector_splitting(ModelParams(delta=0.0, g=0.5, tau=1.0), 32)
    assert exact.splitting is None and exact.digits == ed.SPLITTING_DIGITS_CAP
