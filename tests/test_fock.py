import math

import numpy as np
import pytest

from rabivar import ModelParams, Truncation, build_hamiltonian, parity_diag

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
I_SIGMA_Y = np.array([[0.0, 1.0], [-1.0, 0.0]])  # sigma_z @ sigma_x
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # |up><down|
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]])  # |down><up|


def boson_ops(trunc):
    """Annihilation, creation and number operators on Fock levels 0..n_tr.

    a[n-1, n] = sqrt(n); creation is the transpose; number is diagonal.
    """
    dim = trunc.dim
    a = np.zeros((dim, dim))
    if dim > 1:
        rt = np.sqrt(np.arange(1.0, dim))
        a[np.arange(dim - 1), np.arange(1, dim)] = rt
    return a, a.T.copy(), np.diag(np.arange(dim, dtype=float))


def kron_hamiltonian(params, trunc, form):
    """Textbook assembly of the Hamiltonian from Kronecker products of spin and ladder operators."""
    a, adag, num = boson_ops(trunc)
    dim = trunc.dim
    h = 0.5 * params.delta * np.kron(SIGMA_Z, np.eye(dim))
    h += params.omega * np.kron(np.eye(2), num)
    if form == "ladder":
        h += params.g * (np.kron(SIGMA_MINUS, adag) + np.kron(SIGMA_PLUS, a))
        h += params.g * params.tau * (np.kron(SIGMA_PLUS, adag) + np.kron(SIGMA_MINUS, a))
    else:
        h += params.alpha * np.kron(SIGMA_X, adag + a)
        h += params.gamma * np.kron(I_SIGMA_Y, adag - a)
    return h


def test_boson_ops_single_level_pair():
    a, adag, num = boson_ops(Truncation(1))
    expected = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(a, expected)
    assert np.array_equal(adag, expected.T)
    assert np.array_equal(num, np.diag([0.0, 1.0]))


def test_boson_ops_empty_ladder():
    a, adag, num = boson_ops(Truncation(0))
    for op in (a, adag, num):
        assert op.shape == (1, 1)
        assert op[0, 0] == 0.0


def test_number_operator_identity_on_truncated_space():
    a, adag, num = boson_ops(Truncation(3))
    assert np.allclose(adag @ a, np.diag([0.0, 1.0, 2.0, 3.0]), atol=1e-15)


def test_decoupled_spectrum():
    h = build_hamiltonian(ModelParams(delta=0.7, omega=1.3, g=0.0), Truncation(1))
    vals = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(vals, sorted([-0.35, 0.35, 1.3 - 0.35, 1.3 + 0.35]), atol=1e-14)


def test_single_level_space_leaves_bare_spin():
    mp = ModelParams(delta=2.4, omega=1.0, g=0.9, tau=1.3)
    h = build_hamiltonian(mp, Truncation(0))
    assert np.allclose(h, np.diag([1.2, -1.2]), atol=0.0)


@pytest.mark.parametrize("tau", [1.0, 1.5, 0.5])
def test_forms_agree_entrywise(tau):
    mp = ModelParams(delta=1.7, omega=0.9, g=0.45, tau=tau)
    tr = Truncation(25)
    h1 = build_hamiltonian(mp, tr, form="ladder")
    h2 = build_hamiltonian(mp, tr, form="quadrature")
    assert np.max(np.abs(h1 - h2)) <= 1e-14


def test_form_cross_check_ground_energy():
    mp = ModelParams(delta=1.0, omega=1.0, g=0.3, tau=1.0)
    tr = Truncation(60)
    e1 = np.linalg.eigvalsh(build_hamiltonian(mp, tr, form="ladder"))[0]
    e2 = np.linalg.eigvalsh(build_hamiltonian(mp, tr, form="quadrature"))[0]
    assert abs(e1 - e2) <= 1e-12


@pytest.mark.parametrize("form", ["ladder", "quadrature"])
@pytest.mark.parametrize("n_tr", [0, 1, 2, 40, 160])
def test_matrix_equals_kron_assembly(form, n_tr):
    rng = np.random.default_rng(n_tr)
    tr = Truncation(n_tr)
    for tau in (0.0, 0.5, 1.0, 1.5):
        mp = ModelParams(delta=rng.uniform(0.0, 30.0), omega=rng.uniform(0.2, 3.0), g=rng.uniform(0.0, 3.0), tau=tau)
        assert np.array_equal(build_hamiltonian(mp, tr, form=form), kron_hamiltonian(mp, tr, form))


def test_unknown_form_rejected():
    with pytest.raises(ValueError):
        build_hamiltonian(ModelParams(delta=1.0), Truncation(4), form="bogus")


def test_hamiltonian_exactly_symmetric():
    mp = ModelParams(delta=3.1, omega=1.0, g=1.1, tau=0.4)
    h = build_hamiltonian(mp, Truncation(30))
    assert np.max(np.abs(h - h.T)) == 0.0


@pytest.mark.parametrize("tau", [1.0, 1.5])
def test_parity_commutes(tau):
    rng = np.random.default_rng(3)
    mp = ModelParams(delta=rng.uniform(0.2, 4.0), omega=1.0, g=rng.uniform(0.0, 2.0), tau=tau)
    tr = Truncation(32)
    h = build_hamiltonian(mp, tr)
    p = parity_diag(tr)
    assert np.max(np.abs(p[:, None] * h * p[None, :] - h)) <= 1e-14


def test_parity_entries():
    tr = Truncation(4)
    p = parity_diag(tr)
    dim = tr.dim
    assert p[dim + 0] == +1.0  # |down, 0>
    assert p[0] == -1.0  # |up, 0>
    n = np.arange(dim)
    assert np.array_equal(p[:dim], (-1.0) ** (n + 1))
    assert np.array_equal(p[dim:], (-1.0) ** n)


def test_coupling_connects_single_quantum_spin_flips_only():
    mp = ModelParams(delta=1.4, omega=1.0, g=0.8, tau=1.6)
    tr = Truncation(12)
    h = build_hamiltonian(mp, tr)
    dim = tr.dim
    for i in range(2 * dim):
        for j in range(2 * dim):
            if i == j or h[i, j] == 0.0:
                continue
            si, ni = divmod(i, dim)
            sj, nj = divmod(j, dim)
            assert si != sj and abs(ni - nj) == 1


def test_derived_couplings():
    mp = ModelParams(delta=4.0, omega=1.0, g=0.6, tau=1.5)
    assert mp.alpha == pytest.approx(0.75)
    assert mp.gamma == pytest.approx(0.15)
    assert mp.lam == pytest.approx(2.5 * 0.6 / 2.0)
    assert ModelParams.from_lambda(4.0, mp.lam, 1.0, 1.5).g == pytest.approx(0.6)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        ModelParams(delta=-1.0)
    with pytest.raises(ValueError):
        ModelParams(delta=1.0, omega=0.0)
    with pytest.raises(ValueError):
        ModelParams(delta=1.0, g=-0.1)
    with pytest.raises(ValueError):
        Truncation(-1)
    with pytest.raises(ValueError):
        Truncation(4, tail_tol=0.0)


@pytest.mark.parametrize("field", ["delta", "omega", "g", "tau"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_params_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ModelParams(**({"delta": 1.0} | {field: value}))


@pytest.mark.parametrize("tail_tol", [1.0, 2.0, math.inf, math.nan, -1e-12])
def test_tail_tol_that_passes_every_cutoff_rejected(tail_tol):
    # A tail weight never exceeds 1, so such a tail_tol accepted any cutoff.
    with pytest.raises(ValueError, match="tail_tol must be positive and below 1"):
        Truncation(8, tail_tol)


@pytest.mark.parametrize("n_tr", [3.0, "8"])
def test_non_integer_cutoff_rejected(n_tr):
    with pytest.raises(ValueError, match="n_tr must be a non-negative integer"):
        Truncation(n_tr)


@pytest.mark.parametrize("dim", [1, 3, 5, 6, 41])
def test_tail_weight_is_the_top_five_levels(dim):
    v = np.random.default_rng(dim).standard_normal(dim)
    assert Truncation.tail_weight(v) == float(np.sum(v[dim - min(5, dim):] ** 2))
    assert Truncation.tail_weight(v) == float(np.sum(v[-5:] ** 2))


def test_gc1_requires_weak_counter_rotation():
    from rabivar import InvalidTau

    assert ModelParams(delta=100.0, tau=0.5).g_c1 == pytest.approx(np.sqrt(100.0 / 0.75))
    assert ModelParams(delta=8.0, tau=0.99).g_c1 == pytest.approx(np.sqrt(8.0 / (1 - 0.99**2)))
    with pytest.raises(InvalidTau):
        _ = ModelParams(delta=1.0, tau=1.0).g_c1
