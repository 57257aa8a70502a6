import math

import pytest

from rabivar import (
    AnsatzKind,
    ModelParams,
    NoConvergence,
    Truncation,
    solve_ansatz,
    solve_parity_sector,
    stationarity_residuals_iso,
)
from rabivar.optimize import bfgs, canonicalize_2css
from rabivar.variational import Ansatz2Params


def _rosenbrock(x):
    f = (x[0] - 1.0) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
    grad = [2.0 * (x[0] - 1.0) - 400.0 * x[0] * (x[1] - x[0] ** 2), 200.0 * (x[1] - x[0] ** 2)]
    return f, grad


def test_quadratic_minimum():
    x, f, grad, nfev = bfgs(lambda x: ((x[0] - 2.0) ** 2, [2.0 * (x[0] - 2.0)]), [0.0])
    assert abs(x[0] - 2.0) <= 1e-8
    assert f <= 1e-15
    assert abs(grad[0]) <= 1e-7
    assert nfev < 20


def test_rosenbrock_minimum():
    x, f, grad, _ = bfgs(_rosenbrock, [-1.0, 1.0])
    assert max(abs(v - 1.0) for v in x) <= 1e-6
    assert max(abs(v) for v in grad) <= 1e-5


def test_no_convergence_carries_best():
    with pytest.raises(NoConvergence) as exc:
        bfgs(_rosenbrock, [-1.5, 2.0], max_iter=3)
    x, f, grad, nfev = exc.value.best
    assert f < _rosenbrock([-1.5, 2.0])[0]
    assert (f, grad) == _rosenbrock(x)
    assert nfev >= 4


def test_rejected_points_are_stepped_around():
    def fg(x):  # the quadratic of test_quadratic_minimum, undefined beyond 3
        return (math.inf, None) if x[0] > 3.0 else ((x[0] - 2.0) ** 2, [2.0 * (x[0] - 2.0)])

    x, f, _, _ = bfgs(fg, [-30.0])
    assert abs(x[0] - 2.0) <= 1e-8
    assert bfgs(fg, [4.0])[1] == math.inf


def test_end_to_end_squeezed_single_packet():
    mp = ModelParams.from_lambda(100.0, 0.5, 1.0, 1.0)
    r = solve_ansatz(mp, AnsatzKind.CSS1)
    assert r.converged and r.grad_norm < 1e-5
    r_xi, r_beta = stationarity_residuals_iso(mp, r.params)
    assert abs(r_xi) < 1e-6 and abs(r_beta) < 1e-6


@pytest.mark.parametrize("kind", list(AnsatzKind))
def test_decoupled_limit(kind):
    mp = ModelParams(delta=3.0, omega=1.0, g=0.0, tau=1.0)
    r = solve_ansatz(mp, kind)
    assert r.energy == pytest.approx(-1.5, abs=1e-9)
    beta = r.params.beta if not kind.two_branch else r.params.beta1
    assert abs(beta) <= 1e-5


def test_squeezing_strictly_improves_near_threshold():
    mp = ModelParams.from_lambda(100.0, 1.0, 1.0, 1.5)
    e_cs1 = solve_ansatz(mp, AnsatzKind.CS1).energy
    e_css1 = solve_ansatz(mp, AnsatzKind.CSS1).energy
    assert e_css1 < e_cs1


def test_family_nesting_single_point():
    mp = ModelParams.from_lambda(100.0, 1.1, 1.0, 1.0)
    e = {k: solve_ansatz(mp, k).energy for k in AnsatzKind}
    slack = 1e-8 * max(1.0, abs(e[AnsatzKind.CSS2]))
    assert e[AnsatzKind.CSS2] <= e[AnsatzKind.CSS1] + slack
    assert e[AnsatzKind.CSS1] <= e[AnsatzKind.CS1] + slack
    assert e[AnsatzKind.CSS2] <= e[AnsatzKind.CS2] + slack


def test_determinism():
    mp = ModelParams.from_lambda(50.0, 1.05, 1.0, 1.0)
    r1 = solve_ansatz(mp, AnsatzKind.CSS2)
    r2 = solve_ansatz(mp, AnsatzKind.CSS2)
    assert r1.energy == r2.energy
    assert r1.params == r2.params
    assert r1.grad_norm == r2.grad_norm


def test_warm_start_never_hurts():
    mp_prev = ModelParams.from_lambda(100.0, 1.18, 1.0, 1.0)
    mp = ModelParams.from_lambda(100.0, 1.2, 1.0, 1.0)
    cold = solve_ansatz(mp, AnsatzKind.CSS2)
    warm = solve_ansatz(mp, AnsatzKind.CSS2, warm=solve_ansatz(mp_prev, AnsatzKind.CSS2).params)
    assert warm.energy <= cold.energy + 1e-10 * max(1.0, abs(cold.energy))


def test_odd_parity_needs_two_packets():
    mp = ModelParams(delta=2.0, g=0.3)
    with pytest.raises(ValueError):
        solve_ansatz(mp, AnsatzKind.CSS1, parity="odd")


def test_structure_selection_below_and_above_threshold():
    below = solve_ansatz(ModelParams.from_lambda(100.0, 0.8, 1.0, 1.0), AnsatzKind.CSS2)
    assert below.reduced and below.params.c2 == 0.0 and below.params.beta1 == below.params.beta2
    above = solve_ansatz(ModelParams.from_lambda(100.0, 1.2, 1.0, 1.0), AnsatzKind.CSS2)
    assert not above.reduced and above.params.c2 > 0.1
    assert above.params.beta1 >= above.params.beta2 > 0.0


def test_canonical_representative_is_gauge_fixed():
    a = Ansatz2Params(math.cos(0.4), math.sin(0.4), 3.0, 2.5, 0.1)
    assert canonicalize_2css(a) == canonicalize_2css(a.relabeled())
    neg = Ansatz2Params(-a.c1, -a.c2, a.beta1, a.beta2, a.xi)
    assert canonicalize_2css(a) == canonicalize_2css(neg)
    c = canonicalize_2css(a)
    assert c.beta1 + c.beta2 >= 0.0
    assert c.c1 > 0.0


def test_string_kind_accepted():
    mp = ModelParams(delta=2.0, g=0.2)
    r = solve_ansatz(mp, "CS1")
    assert r.kind is AnsatzKind.CS1


@pytest.mark.parametrize("delta", [10.0, 100.0])
@pytest.mark.parametrize("g", [0.0, 0.01, 0.1, 0.3])
def test_weak_coupling_odd_stays_above_exact(delta, g):
    # The odd optimum sits where the two packets merge (beta1 + beta2 -> 0),
    # where the projected closed form loses precision unless such points are
    # rejected.  At g = 0 the solve must also leave the +delta/2 saddle.
    mp = ModelParams(delta=delta, omega=1.0, g=g, tau=1.0)
    ed = solve_parity_sector(mp, Truncation(64), -1).energies[0]
    for kind in (AnsatzKind.CS2, AnsatzKind.CSS2):
        r = solve_ansatz(mp, kind, "odd")
        assert r.energy >= ed - 1e-8 * max(1.0, abs(ed))
        assert r.energy <= ed + 1e-6 * max(1.0, abs(ed))


def test_nfev_counts_every_stage():
    mp = ModelParams.from_lambda(100.0, 1.2, 1.0, 1.0)
    single = solve_ansatz(mp, AnsatzKind.CSS1)
    full = solve_ansatz(mp, AnsatzKind.CSS2)
    assert single.nfev >= single.starts_tried > 0
    assert full.nfev > single.nfev
    assert full.starts_tried > single.starts_tried
