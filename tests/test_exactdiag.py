import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from decimal import Context, Decimal, getcontext, localcontext

import numpy as np
import pytest
import scipy.linalg

import rabivar
import rabivar.exactdiag as ed
import rabivar.scan as scan
from rabivar import (
    ModelParams,
    SpectrumResult,
    Truncation,
    TruncationNotConverged,
    build_hamiltonian,
    mean_photon_ed,
    parity_chain,
    parity_diag,
    sector_splitting,
    solve_parity_sector,
    spin_x_projection,
)
from rabivar.model import parity_sign
from rabivar.variational import AnsatzKind, PacketParams, energy, objective
from rabivar.scan import LevelsConfig, WavefunctionConfig, read_table, run_wavefunction


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


def _ground(mp, tr):
    """The sector ground level the certified splitting puts lowest, the even one when it has no sign."""
    even, odd, certified = scan._ed_pair(mp, tr)
    return scan._lowest(certified.splitting, even, odd) or even


def _spin_major(res):
    """The sector vector scattered to the dense oracle's spin-major basis, zero outside the sector."""
    n = res.n_tr_used + 1
    full = np.zeros(2 * n)
    full[np.where(ed._down_sites(res.n_tr_used, res.parity), n, 0) + np.arange(n)] = res.vector
    return full


def test_decoupled_ground_state():
    res = _ground(ModelParams(delta=1.0, g=0.0), Truncation(16))
    assert res.energy == pytest.approx(-0.5, abs=1e-14)
    assert res.parity == "even" and len(res.vector) == res.n_tr_used + 1
    expected = np.zeros(res.n_tr_used + 1)
    expected[0] = 1.0  # site 0 of the even chain, |down, 0>
    assert np.allclose(res.vector, expected, atol=1e-12)


@pytest.mark.parametrize("g", [0.2, 0.7, 1.2])
def test_pure_rotating_wave_matches_closed_form(g):
    mp = ModelParams(delta=1.0, omega=1.0, g=g, tau=0.0)
    res = _ground(mp, Truncation(64))
    assert res.energy == pytest.approx(jaynes_cummings_ground(1.0, 1.0, g), abs=1e-10)


def test_truncation_self_consistency():
    mp = ModelParams.from_lambda(100.0, 1.1, 1.0, 1.0)
    e1 = _ground(mp, Truncation(128)).energy
    e2 = _ground(mp, Truncation(256)).energy
    assert abs(e1 - e2) <= 1e-10 * abs(e1)


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_adaptive_truncation_grows(parity):
    mp = ModelParams.from_lambda(100.0, 1.2, 1.0, 1.0)
    res = solve_parity_sector(mp, Truncation(8), parity)
    assert res.n_tr_used > 8
    assert res.tail_weight <= 1e-12


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_truncation_cap_raises(monkeypatch, parity):
    monkeypatch.setattr(ed, "N_TR_CAP", 32)
    mp = ModelParams.from_lambda(100.0, 1.4, 1.0, 1.0)
    with pytest.raises(TruncationNotConverged):
        solve_parity_sector(mp, Truncation(8), parity)


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
        even = solve_parity_sector(mp, tr, "even")
        odd = solve_parity_sector(mp, tr, "odd")
        n_tr = even.n_tr_used
        assert odd.n_tr_used == n_tr
        dense, _ = _dense_lowest(mp, n_tr, k)
        assert min(even.energy, odd.energy) == pytest.approx(dense[0], abs=1e-10)
        assert _ground(mp, tr).energy == min(even.energy, odd.energy)
        chains = [
            scipy.linalg.eigh_tridiagonal(*parity_chain(mp, n_tr, parity), eigvals_only=True,
                                          select="i", select_range=(0, k - 1))
            for parity in ("even", "odd")
        ]
        assert np.allclose([chains[0][0], chains[1][0]], [even.energy, odd.energy], atol=1e-12)
        assert np.allclose(np.sort(np.concatenate(chains))[:k], dense, atol=1e-10)


@pytest.mark.parametrize("parity", [None, "odd"], ids=["both", "odd"])
def test_eigenpair_residuals(parity):
    mp = ModelParams(delta=2.0, omega=1.0, g=0.8, tau=1.5)
    tr = Truncation(48, tail_tol=1e-8)
    res = solve_parity_sector(mp, tr, parity) if parity else _ground(mp, tr)
    h = build_hamiltonian(mp, Truncation(res.n_tr_used))
    e, v = res.energy, _spin_major(res)
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
def test_isotropic_ground_state_is_even_in_degenerate_pair(lam, n_tr, tmp_path):
    # Past the delocalization threshold the even and odd ground levels agree
    # to far below double precision, so only the certified splitting's sign
    # tells which is lower; it is negative, and the ED profile is the even
    # state's, phi_-(x) = -phi_+(-x), not a mixture that depends on the
    # cutoff or the solver.
    mp = ModelParams.from_lambda(100.0, lam, 1.0, 1.0)
    even, odd, certified = scan._ed_pair(mp, Truncation(n_tr))
    assert abs(even.energy - odd.energy) <= 1e-12 * abs(odd.energy)
    assert certified.splitting < 0.0
    cfg = WavefunctionConfig(delta=100.0, tau=1.0, lambdas=(lam,), x_min=-25.0, x_max=25.0, x_step=0.25,
                             n_tr=n_tr, source="ED")
    (row,) = run_wavefunction(cfg, str(tmp_path))
    _, rows = read_table(str(tmp_path / row["file"]))
    plus, minus = (np.array([r[c] for r in rows]) for c in ("phi_plus", "phi_minus"))
    assert np.max(np.abs(plus)) > 0.1
    assert np.max(np.abs(minus + plus[::-1])) <= 1e-12


def test_sector_pair_independent_of_blas_threads():
    script = (
        "import numpy as np; from rabivar import ModelParams, Truncation; from rabivar.scan import _ed_pair\n"
        "even, odd, c = _ed_pair(ModelParams.from_lambda(100.0, 1.5, 1.0, 1.0), Truncation(256))\n"
        "print(*(np.array(r.energy).tobytes().hex() + r.vector.tobytes().hex() for r in (even, odd)),\n"
        "      repr(c.splitting))\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(rabivar.__path__[0]),
                                                         env.get("PYTHONPATH")]))
        outputs.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                      capture_output=True, text=True).stdout)
    assert outputs[0] == outputs[1] and outputs[0]


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_phase_fixing_sign(parity):
    res = solve_parity_sector(ModelParams(delta=1.0, g=0.4), Truncation(24), parity)
    v = res.vector
    assert v[np.argmax(np.abs(v))] > 0


def test_parity_validation():
    with pytest.raises(ValueError):
        solve_parity_sector(ModelParams(delta=1.0), Truncation(4), parity=0)


@pytest.mark.parametrize("parity", [+1, -1, 2, "Even"])
@pytest.mark.parametrize("reader", [
    lambda mp, parity: parity_chain(mp, 3, parity),
    lambda mp, parity: solve_parity_sector(mp, Truncation(8), parity),
    lambda mp, parity: objective(mp, AnsatzKind.CSS2, parity),
    lambda mp, parity: energy(mp, PacketParams((1.0, 0.5), (1.0, -1.0)), parity),
    lambda mp, parity: spin_x_projection(_fock_state([1.0, 0.0], parity)),
    lambda mp, parity: mean_photon_ed(_fock_state([1.0, 0.0], parity)),
], ids=["parity_chain", "solve_parity_sector", "objective", "energy", "spin_x_projection", "mean_photon_ed"])
def test_every_parity_reader_rejects_a_value_other_than_even_or_odd(reader, parity):
    # A sign, or a name spelled otherwise, must not pass for a sector: the
    # chain readers used to take any value but +1 for the odd chain.
    with pytest.raises(ValueError, match="parity must be 'even' or 'odd'"):
        reader(ModelParams(delta=8.0, g=1.0, tau=0.5), parity)


def test_even_chain_is_the_even_sector():
    # The even chain starts at |down, 0>, diagonal -delta/2; it used to be
    # returned for +1 only, and "even" silently gave the odd chain, which
    # starts at |up, 0>, +delta/2.
    mp = ModelParams(delta=8.0, g=1.0, tau=0.5)
    assert parity_chain(mp, 3, "even")[0][0] == -4.0 and parity_chain(mp, 3, "odd")[0][0] == 4.0
    res = solve_parity_sector(mp, Truncation(64), "even")
    diag, link = parity_chain(mp, res.n_tr_used, "even")
    e, v = scipy.linalg.eigh_tridiagonal(diag, link, select="i", select_range=(0, 0))
    assert res.energy == e[0] and np.array_equal(np.abs(res.vector), np.abs(v[:, 0]))
    t = Truncation(res.n_tr_used)
    even = np.flatnonzero(parity_diag(t) == +1)
    sector = build_hamiltonian(mp, t)[np.ix_(even, even)]
    assert res.energy == pytest.approx(scipy.linalg.eigvalsh(sector)[0], abs=1e-10)


def test_decoupled_parity_sectors():
    mp = ModelParams(delta=1.0, omega=1.3, g=0.0)
    tr = Truncation(16)
    even = solve_parity_sector(mp, tr, "even")
    odd = solve_parity_sector(mp, tr, "odd")
    assert even.energy == pytest.approx(-0.5, abs=1e-13)
    assert odd.energy == pytest.approx(min(0.5, 1.3 - 0.5), abs=1e-13)


def test_odd_sector_dives_below_even_beyond_crossing():
    # Resolvable detuning: the sector gap at the crossing scale exceeds
    # eigensolver noise, unlike the deep two-packet regime.
    mp0 = ModelParams(delta=8.0, tau=0.5, g=1.0)
    g = 1.05 * mp0.g_c1
    mp = ModelParams(delta=8.0, tau=0.5, g=g)
    tr = Truncation(96)
    even = solve_parity_sector(mp, tr, "even")
    odd = solve_parity_sector(mp, tr, "odd")
    assert odd.energy < even.energy


def _fock_state(vector, parity):
    """A hand-built sector result holding the chain vector `vector` of the given parity."""
    vector = np.asarray(vector, dtype=float)
    return SpectrumResult(0.0, vector, parity, len(vector) - 1, 0.0)


def test_spin_x_projection_basis_change():
    s = 1 / math.sqrt(2)
    c_plus, c_minus = spin_x_projection(_fock_state([1.0, 0.0], "even"))  # |down, 0>
    assert c_plus[0] == pytest.approx(s)
    assert c_minus[0] == pytest.approx(-s)
    c_plus, c_minus = spin_x_projection(_fock_state([0.0, 1.0], "even"))  # |up, 1>
    assert c_plus[1] == pytest.approx(s) and c_minus[1] == pytest.approx(s)
    c_plus, c_minus = spin_x_projection(_fock_state([s, s], "odd"))  # (|up, 0> + |down, 1>) / sqrt(2)
    assert np.allclose(c_plus, [0.5, 0.5]) and np.allclose(c_minus, [0.5, -0.5])


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_spin_x_projection_preserves_norm(parity):
    rng = np.random.default_rng(5)
    v = rng.normal(size=9)
    v /= np.linalg.norm(v)
    c_plus, c_minus = spin_x_projection(_fock_state(v, parity))
    assert np.sum(c_plus**2) + np.sum(c_minus**2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_sector_projection_parity_pattern(parity):
    mp = ModelParams.from_lambda(100.0, 1.1, 1.0, 1.0)
    res = solve_parity_sector(mp, Truncation(256), parity)
    c_plus, c_minus = spin_x_projection(res)
    n = np.arange(res.n_tr_used + 1)
    assert np.max(np.abs(c_plus)) > 0.1
    assert np.max(np.abs(c_minus + parity_sign(parity) * (-1.0) ** n * c_plus)) <= 1e-12


@pytest.mark.parametrize("delta", [1.0, 8.0, 100.0])
@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, 1.5])
def test_chain_readers_match_the_spin_major_layout(delta, tau):
    # The reference reads the dense oracle's spin-major layout: the chain vector
    # scattered into a zero-padded spin x Fock vector and phase-fixed there,
    # projected as s (up +- down) and counted as two block dots.  tau 0 at
    # delta 1 is the resonant rotating-wave case, where the phase fixing's
    # largest magnitude ties between |up, n-1> and |down, n> with opposite
    # signs.  The readers must give the same bits, up to the sign of a zero.
    s = 1.0 / np.sqrt(2.0)
    for lam, n_tr, parity in itertools.product((0.3, 1.0, 2.0, 3.0), (8, 64, 256), ("even", "odd")):
        mp = ModelParams.from_lambda(delta, lam, 1.0, tau)
        res = solve_parity_sector(mp, Truncation(n_tr), parity)
        assert len(res.vector) == res.n_tr_used + 1
        n = np.arange(res.n_tr_used + 1)
        full = _spin_major(replace(res, vector=ed._chain_lowest(mp, res.n_tr_used, parity)[1]))
        full *= np.sign(full[np.argmax(np.abs(full))])
        up, down = full[: len(n)], full[len(n) :]
        assert np.array_equal(_spin_major(res), full)
        assert mean_photon_ed(res) == float(np.dot(n, up**2) + np.dot(n, down**2))
        c_plus, c_minus = spin_x_projection(res)
        assert np.array_equal(c_plus, s * (up + down)) and np.array_equal(c_minus, s * (up - down))


def test_mean_photon_fock_states():
    assert mean_photon_ed(_fock_state([1.0, 0, 0, 0], "even")) == 0.0  # |down, 0>
    assert mean_photon_ed(_fock_state([0.0, 0, 0, 1.0], "odd")) == 3.0  # |down, 3>
    assert mean_photon_ed(_fock_state([0.0, 0, 0, 1.0], "even")) == 3.0  # |up, 3>


def test_mean_photon_matches_packet_estimate():
    from rabivar import AnsatzKind, mean_photon, solve_ansatz

    mp = ModelParams.from_lambda(100.0, 1.5, 1.0, 1.0)
    res = solve_parity_sector(mp, Truncation(256), "even")
    n_ed = mean_photon_ed(res)
    fit = solve_ansatz(mp, AnsatzKind.CSS2)
    assert abs(mean_photon(fit.params) - n_ed) <= 0.1 * n_ed


@pytest.mark.parametrize("tau", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_parity_chain_matches_dense_sector(tau, parity):
    mp = ModelParams(delta=3.0, omega=1.3, g=0.7, tau=tau)
    n_tr = 12
    t = Truncation(n_tr)
    m = np.arange(n_tr + 1)
    down = (m % 2 == 0) == (parity == "even")
    order = np.where(down, n_tr + 1, 0) + m  # full-basis index of chain site m
    assert np.array_equal(np.sort(order), np.flatnonzero(parity_diag(t) == parity_sign(parity)))
    diag, link = parity_chain(mp, n_tr, parity)
    chain = np.diag(diag) + np.diag(link, 1) + np.diag(link, -1)
    sector = build_hamiltonian(mp, t)[np.ix_(order, order)]
    np.testing.assert_allclose(chain, sector, rtol=0.0, atol=1e-14)


def test_certified_splitting_matches_float_where_resolved():
    gc1 = ModelParams(delta=8.0, tau=0.5, g=1.0).g_c1
    compared = 0
    for ratio in np.arange(0.9, 1.1001, 0.02):
        mp = ModelParams(delta=8.0, tau=0.5, g=ratio * gc1)
        e_even = solve_parity_sector(mp, Truncation(96), "even").energy
        e_odd = solve_parity_sector(mp, Truncation(96), "odd").energy
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


# The certified splitting before the float solves were shared, the odd chain
# was seeded from the even root, Newton ran a digit ladder and only the
# returned attempt was Sturm-counted: the reference the current code must
# match in cutoff, digits, error bound and sign.


def _reference_chain_lowest(diag: np.ndarray, link: np.ndarray):
    """Lowest eigenvalue and its eigenvector (in chain order) of a chain."""
    vals, vecs = scipy.linalg.eigh_tridiagonal(diag, link, select="i", select_range=(0, 0))
    return vals[0], vecs[:, 0]


def _reference_newton_lowest(diag, link2, seed: float, tol):
    """Newton on det(T - E) from seed; None if it has not converged to tol.

    The logarithmic derivative of the determinant is the sum of w_m = q_m'/q_m
    over the pivots q_m of T - E, with w_m from differentiating the pivot
    recurrence, so the determinant itself, which over- and underflows, is
    never formed.  Convergence is quadratic, so iteration stops once the
    step is below tol or its square is below tol / 10^6: the step after it
    would be smaller than tol unless another eigenvalue lay within 10^-6.
    """
    e = Decimal(seed)
    for _ in range(ed._NEWTON_STEPS):
        q = diag[0] - e
        w = -1 / q
        logder = w
        for d, b2 in zip(diag[1:], link2):
            r = b2 / q
            q = d - e - r
            w = (r * w - 1) / q
            logder += w
        step = 1 / logder
        e -= step
        if abs(step) <= tol or (step * step).scaleb(6) <= tol:
            return e
    return None


def _reference_certified_lowest(params: ModelParams, n_tr: int, parity: str, digits: int, start=None):
    """Lowest chain eigenvalue in `digits` digits, with rounding and truncation bounds.

    Newton starts from start, the eigenvalue of an earlier attempt at a
    shorter chain or fewer digits, or else from the float eigenvalue.  It
    also returns the float eigenvector's tail (float eigenvalue, peak site,
    peak component) for :func:`_next_cutoff`.  Sturm counts at E -+ r must
    find no eigenvalue below E - r and one below E + r, where r is ten units
    of the last digit on the chain's norm scale; this proves E is the lowest
    root to within 2r, counting the rounding of the counts themselves
    (Barth, Martin & Wilkinson, Numer. Math. 9 (1967)).  The rounding bound
    is infinite when the counts fail.
    """
    diag_f, link_f = parity_chain(params, n_tr + 1, parity)
    e_f, v_f = _reference_chain_lowest(diag_f[:-1], link_f[:-1])
    seed = float(e_f)
    peak = int(np.argmax(np.abs(v_f)))
    scale = ed._norm_scale(diag_f, link_f, seed)
    with localcontext(Context(prec=digits)):
        radius = Decimal(10.0 * scale).scaleb(1 - digits)
        diag, link2 = ed._exact_chain(params, n_tr, parity)
        try:
            e = _reference_newton_lowest(diag, link2, seed if start is None else start, radius)
            certified = (
                e is not None
                and ed._sturm_count(diag, link2, e - radius) == 0
                and ed._sturm_count(diag, link2, e + radius) >= 1
            )
        except ZeroDivisionError:  # an exactly vanishing pivot
            certified = False
    tail = (seed, peak, float(v_f[peak]))
    if not certified:
        return None, math.inf, math.inf, tail
    trunc = ed._truncation_bounds(diag_f.tolist(), link_f.tolist(), float(e), peak, tail[2], n_tr)[0]
    return e, 2.0 * float(radius), trunc, tail


def reference_sector_splitting(params: ModelParams, n_tr: int) -> ed.SectorSplitting:
    digits = ed.SPLITTING_DIGITS
    e_even = e_odd = None
    while True:
        e_even, round_even, trunc_even, tail_even = _reference_certified_lowest(params, n_tr, "even", digits, e_even)
        e_odd, round_odd, trunc_odd, tail_odd = _reference_certified_lowest(params, n_tr, "odd", digits, e_odd)
        rounding = round_even + round_odd
        truncation = trunc_even + trunc_odd
        error = rounding + truncation
        if math.isfinite(rounding):
            with localcontext(Context(prec=digits)):
                split = e_even - e_odd
            if abs(split) > Decimal(error):
                return ed.SectorSplitting(float(split), error, digits, n_tr)
        if truncation > rounding:
            if n_tr >= ed.N_TR_CAP:
                return ed.SectorSplitting(None, error, digits, n_tr)
            n_tr = ed._next_cutoff(params, n_tr, (tail_even, tail_odd), ed._CUT_MARGIN * rounding)
        else:
            if digits >= ed.SPLITTING_DIGITS_CAP:
                return ed.SectorSplitting(None, error, digits, n_tr)
            digits = min(2 * digits, ed.SPLITTING_DIGITS_CAP)


def _gc1(cfg):
    return ModelParams(delta=cfg.delta, omega=cfg.omega, g=1.0, tau=cfg.tau).g_c1


README_LEVELS = LevelsConfig(delta=100.0, tau=0.5, g_min=0.9, g_max=1.1, g_step=0.005)


@pytest.mark.parametrize(
    "cfg", [README_LEVELS, LevelsConfig(delta=8.0, tau=0.5, g_min=0.8, g_max=2.0, g_step=0.05)],
    ids=["readme", "delta8"],
)
def test_sector_splitting_certifies_what_the_reference_does(cfg):
    gc1 = _gc1(cfg)
    for ratio in cfg.grid():
        row = scan._levels_row_ed(cfg, ratio, gc1)
        mp = ModelParams(delta=cfg.delta, omega=cfg.omega, g=ratio * gc1, tau=cfg.tau)
        ref = reference_sector_splitting(mp, row["n_tr_used"])
        assert (row["split_n_tr"], row["split_digits"], row["split_error"]) == (ref.n_tr, ref.digits, ref.error)
        assert ref.splitting is not None and row["splitting"] is not None
        assert (row["splitting"] < 0.0) == (ref.splitting < 0.0)
        assert abs(row["splitting"] - ref.splitting) <= ref.error


def _counting(monkeypatch, owner, name, counts, key):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        k = key()
        counts[k] = counts.get(k, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_readme_levels_ed_rows_take_fewer_solves_and_passes(monkeypatch):
    # One float solve per chain, the odd chain seeded from the even root, a
    # 34/68-digit ladder from each float seed and Sturm counts only on the
    # returned attempt.  The work before: 198 float solves, 280 Newton
    # passes at 90 digits and 232 Sturm counts.
    counts = {}
    _counting(monkeypatch, ed._lapack, "lowest_eigenpair", counts, lambda: "eigh")
    _counting(monkeypatch, ed, "_sturm_count", counts, lambda: "sturm")
    _counting(monkeypatch, ed, "_newton_step", counts, lambda: getcontext().prec)
    ed._chain_lowest.cache_clear()
    gc1 = _gc1(README_LEVELS)
    rows = [scan._levels_row_ed(README_LEVELS, ratio, gc1) for ratio in README_LEVELS.grid()]
    assert len(rows) == 41 and all(row["split_digits"] == 90 for row in rows)
    assert counts["eigh"] <= 116
    assert counts[34] == counts[68] == 41  # one float-seeded run per point: the even chain's first
    assert counts[90] <= 130
    assert counts["sturm"] <= 4 * 41
    assert set(counts) == {"eigh", "sturm", 34, 68, 90}


def test_failed_sturm_counts_double_the_digits_and_restart_from_float_seeds(monkeypatch):
    gc1 = ModelParams(delta=100.0, tau=0.5, g=1.0).g_c1
    mp = ModelParams(delta=100.0, tau=0.5, g=0.99 * gc1)
    plain = sector_splitting(mp, 256)
    assert plain.digits == 90
    sturm, certify, newton_lowest = ed._sturm_count, ed._certified, ed._newton_lowest
    failed, runs, verdicts = [], [], []

    def fail_once(diag, link2, x):
        if not failed:
            failed.append(x)
            return 1  # an eigenvalue below E - r: the returned attempt is not certified
        return sturm(diag, link2, x)

    def newton(diag, link2, seed, tol, ladder):
        e = newton_lowest(diag, link2, seed, tol, ladder)
        runs.append((getcontext().prec, seed, ladder, e))
        return e

    def certified(root, digits):
        verdicts.append((digits, root.e, certify(root, digits)))
        return verdicts[-1][2]

    monkeypatch.setattr(ed, "_sturm_count", fail_once)
    monkeypatch.setattr(ed, "_newton_lowest", newton)
    monkeypatch.setattr(ed, "_certified", certified)
    redone = sector_splitting(mp, 256)
    assert len(failed) == 1 and redone.digits == 180 and redone.n_tr == 256
    assert [(digits, type(seed), ladder) for digits, seed, ladder, _ in runs] == [
        (90, float, (34, 68)), (90, Decimal, ()), (180, float, (34, 68, 136)), (180, Decimal, ()),
    ]
    assert runs[1][1] == runs[0][3] and runs[3][1] == runs[2][3]  # the odd chain starts from the even root
    assert runs[2][1] == runs[0][1]  # the float seed again, not the failed attempt's root
    # Returned only after both roots of the returned attempt passed their real Sturm counts.
    assert verdicts == [(90, runs[0][3], False), (180, runs[2][3], True), (180, runs[3][3], True)]
    assert (redone.splitting < 0.0) == (plain.splitting < 0.0)
    assert abs(redone.splitting - plain.splitting) <= plain.error + redone.error


def test_cached_chain_solves_are_read_only():
    mp = ModelParams(delta=8.0, tau=0.5, g=0.9)
    e, v = ed._chain_lowest(mp, 32, "odd")
    assert ed._chain_lowest(mp, 32, "odd")[1] is v
    with pytest.raises(ValueError):
        v[0] = 0.0
    assert e == solve_parity_sector(mp, Truncation(32, tail_tol=0.5), "odd").energy


@pytest.mark.parametrize("tau", [0.5, 0.0])
def test_decoupled_point_splitting_is_certified(tau):
    # At g = 0 the float seeds -delta/2 and omega - delta/2 are exact roots,
    # so a pivot vanishes exactly, and the links are all zero.
    mp = ModelParams(delta=100.0, tau=tau, g=0.0)
    split = sector_splitting(mp, 256)
    assert split.digits == 90 and split.n_tr == 256
    assert abs(split.splitting - -1.0) <= split.error
    for parity in ("even", "odd"):
        diag, link = parity_chain(mp, 257, parity)
        e, v = ed._chain_lowest(mp, 256, parity)
        peak = int(np.argmax(np.abs(v)))
        assert ed._truncation_bounds(diag.tolist(), link.tolist(), e, peak, v[peak], 200) == [0.0] * 57


def test_rotating_wave_vacuum_splitting_is_certified():
    # tau = 0 cuts the even chain's vacuum site off (its float seed -delta/2
    # is exact) and leaves the odd ground level in one 2 x 2 block.
    delta, g = 100.0, 0.01
    split = sector_splitting(ModelParams(delta=delta, tau=0.0, g=g), 256)
    odd = 0.5 - math.sqrt(0.25 * (delta - 1.0) ** 2 + g * g)
    assert split.digits == 90
    assert split.splitting == pytest.approx(-0.5 * delta - odd, rel=1e-14)


def test_decoupled_levels_row_has_its_splitting(tmp_path):
    cfg = LevelsConfig(delta=100.0, tau=0.5, g_min=0.0, g_max=0.01, g_step=0.005, methods=("ED",))
    row = scan._levels_row_ed(cfg, 0.0, _gc1(cfg))
    assert row["splitting"] == -1.0 and row["split_digits"] == 90
    assert row["mean_photon_ground"] == row["mean_photon_even"] == 0.0
