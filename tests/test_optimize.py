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
import rabivar.optimize as optimize
from rabivar.errors import DegenerateAnsatz
from rabivar.optimize import bfgs, canonicalize_2css
from rabivar.variational import Ansatz2Params, energy_grad_1css, projected_energy_2css


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


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _reference_bfgs(fg, x0, max_iter=500):
    """The textbook list-based BFGS that optimize.bfgs must reproduce bit for bit."""
    x = [float(v) for v in x0]
    f, g = fg(x)
    nfev = 1
    h = None  # inverse-Hessian estimate; None stands for the identity
    for _ in range(max_iter):
        if not math.isfinite(f):
            break
        p = [-v for v in g] if h is None else [-_dot(row, g) for row in h]
        slope = _dot(g, p)
        if slope >= 0.0:
            if h is None:
                break
            h = None
            continue
        t = 1.0 if h is not None else min(1.0, 1.0 / max(map(abs, p)))
        noise = 2.0**-52 * max(1.0, abs(f))
        gmax = max(map(abs, g))
        for _ in range(40):
            xn = [a + t * b for a, b in zip(x, p)]
            fn, gn = fg(xn)
            nfev += 1
            if fn <= f + 1e-4 * t * slope:
                break
            if fn <= f + noise and max(map(abs, gn)) < 0.5 * gmax:
                break
            t *= 0.5
        else:
            if h is None:
                break
            h = None
            continue
        s = [a - b for a, b in zip(xn, x)]
        y = [a - b for a, b in zip(gn, g)]
        gain, x, f, g = f - fn, xn, fn, gn
        if gain <= noise and max(map(abs, g)) >= 0.5 * gmax:
            break
        sy = _dot(s, y)
        if sy > 0.0:
            if h is None:
                h = [[sy / _dot(y, y) * (i == j) for j in range(len(x))] for i in range(len(x))]
            hy = [_dot(row, y) for row in h]
            c = (1.0 + _dot(y, hy) / sy) / sy
            h = [
                [hij + c * si * sj - (hyi * sj + si * hyj) / sy for sj, hyj, hij in zip(s, hy, row)]
                for si, hyi, row in zip(s, hy, h)
            ]
    else:
        raise NoConvergence(f"BFGS did not stop within {max_iter} iterations", best=(x, f, g, nfev))
    return x, f, g, nfev


def _objective(energy_grad, n, params, parity):
    """solve_ansatz's view of an objective: n variables, rejected points at f = inf."""

    def fg(x):
        try:
            e, g = energy_grad(params, *x, parity=parity)[:2]
        except (DegenerateAnsatz, OverflowError):
            return math.inf, None
        return (e, list(g[:n])) if math.isfinite(e) else (math.inf, None)

    return fg


def _run(minimizer, fg, x0, max_iter):
    """(x, f, g, nfev), or ("NoConvergence", that tuple at the best point)."""
    try:
        return minimizer(fg, x0, max_iter)
    except NoConvergence as exc:
        return "NoConvergence", exc.best


_MP = ModelParams.from_lambda(100.0, 1.2, 1.0, 1.0)
_ANISO = ModelParams.from_lambda(50.0, 1.05, 1.0, 0.5)
_G0 = ModelParams(delta=100.0, g=0.0)


def _rejecting_log_cosh(x):  # secant steps overshoot the minimum at 2 into the undefined x > 3
    u = x[0] - 2.0
    if x[0] > 3.0:
        return math.inf, None
    return math.log(math.cosh(u)) + 0.1 * u * u, [math.tanh(u) + 0.2 * u]


# (fg, start, whether the run steps onto rejected points)
_KERNEL_CASES = [
    (lambda x: ((x[0] - 2.0) ** 2, [2.0 * (x[0] - 2.0)]), [0.0], False),
    (_rejecting_log_cosh, [-5.0], True),
    (_rosenbrock, [-1.0, 1.0], False),
    (_rosenbrock, [-1.5, 2.0], False),
    (_objective(energy_grad_1css, 1, _MP, "even"), [0.5], False),  # CS1
    (_objective(energy_grad_1css, 2, _MP, "even"), [4.0, 0.0], False),  # CSS1
    (_objective(projected_energy_2css, 2, _MP, "even"), [7.0, 5.0], False),  # CS2
    (_objective(projected_energy_2css, 3, _MP, "even"), [7.0, 5.0, 0.1], False),  # CSS2
    (_objective(projected_energy_2css, 3, _ANISO, "even"), [3.0, 2.0, 0.0], False),
    # Odd solves at weak coupling walk into the rejected band 1 - O+^2 < 1e-4 around beta1 + beta2 = 0.
    (_objective(projected_energy_2css, 2, _G0, "odd"), [1.0, 0.0], True),
    (_objective(projected_energy_2css, 3, _G0, "odd"), [2.0, -1.5, 0.0], True),
    (_objective(projected_energy_2css, 3, ModelParams(delta=100.0, g=0.3), "odd"), [2.0, -1.5, 0.0], True),
]


@pytest.mark.parametrize("fg, x0, rejects", _KERNEL_CASES)
@pytest.mark.parametrize("max_iter", [500, 2])
def test_kernel_matches_reference_bit_for_bit(fg, x0, rejects, max_iter):
    expected = _run(_reference_bfgs, fg, x0, max_iter)
    seen = []
    got = _run(bfgs, lambda x: seen.append(fg(x)[0]) or fg(x), x0, max_iter)
    assert repr(got) == repr(expected)  # repr tells -0.0 from 0.0 and round-trips every float
    if max_iter == 500:
        assert expected[0] != "NoConvergence"
        assert (math.inf in seen) == rejects
    else:
        assert expected[0] == "NoConvergence"


@pytest.mark.parametrize("x0", [[], [1.0, 2.0, 3.0, 4.0]])
def test_kernel_takes_one_to_three_variables(x0):
    with pytest.raises(ValueError, match="1 to 3"):
        bfgs(lambda x: (0.0, [0.0] * len(x)), x0)


def test_guard_stage_runs_only_for_reduction_candidates(monkeypatch):
    # The unsqueezed guard stage is the only caller of projected_energy_2css without xi.
    calls = []
    projected = optimize.projected_energy_2css

    def counted(params, *x, **kwargs):
        calls.append(len(x))
        return projected(params, *x, **kwargs)

    monkeypatch.setattr(optimize, "projected_energy_2css", counted)
    two_packet = solve_ansatz(ModelParams.from_lambda(100.0, 1.2, 1.0, 1.0), AnsatzKind.CSS2)
    assert not two_packet.reduced
    assert calls and 2 not in calls
    calls.clear()
    reduced = solve_ansatz(ModelParams.from_lambda(100.0, 0.8, 1.0, 1.0), AnsatzKind.CSS2)
    assert reduced.reduced
    assert calls.count(2) > 0
    # starts_tried counts the stages that ran: single, full and guard here, two of them above
    assert reduced.starts_tried > two_packet.starts_tried


def test_css2_guard_reads_the_unreduced_cs2_optimum():
    # At delta 10, tau 1.5, lambda 0.15 CS2 reports its single-packet
    # reduction, ~1.8e-5 above its two-packet optimum, and the CSS1 optimum
    # lies between the two, so comparing with CS2's reported energy would
    # wrongly let CSS2 reduce.
    mp = ModelParams.from_lambda(10.0, 0.15, 1.0, 1.5)
    solved = {}
    for kind in (AnsatzKind.CS1, AnsatzKind.CSS1, AnsatzKind.CS2):
        solved[kind] = solve_ansatz(mp, kind, solved=solved)
    cs2 = solved[AnsatzKind.CS2]
    assert cs2.reduced and cs2.energy == solved[AnsatzKind.CS1].energy
    assert cs2.two_packet_energy < cs2.energy
    shared, alone = solve_ansatz(mp, AnsatzKind.CSS2, solved=solved), solve_ansatz(mp, AnsatzKind.CSS2)
    assert not shared.reduced and not alone.reduced
    assert shared.energy == pytest.approx(alone.energy, rel=1e-13, abs=1e-13)
    assert shared.starts_tried < alone.starts_tried  # only the squeezed two-packet stage ran
