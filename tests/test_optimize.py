import math

import numpy as np
import pytest

from rabivar import (
    AnsatzKind,
    ModelParams,
    Truncation,
    solve_ansatz,
    solve_parity_sector,
    stationarity_residuals_iso,
)
import rabivar.optimize as optimize
from rabivar.optimize import bfgs
from rabivar.variational import PacketParams, objective


def _rosenbrock(x):
    f = (x[0] - 1.0) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
    grad = [2.0 * (x[0] - 1.0) - 400.0 * x[0] * (x[1] - x[0] ** 2), 200.0 * (x[1] - x[0] ** 2), 0.0]
    return f, grad


def test_quadratic_minimum():
    x, f, grad, nfev, end = bfgs(lambda x: ((x[0] - 2.0) ** 2, [2.0 * (x[0] - 2.0), 0.0, 0.0]), [0.0, 0.0, 0.0])
    assert end == "stopped"
    assert abs(x[0] - 2.0) <= 1e-8
    assert f <= 1e-15
    assert abs(grad[0]) <= 1e-7
    assert nfev < 20


def test_rosenbrock_minimum():
    x, f, grad, _, end = bfgs(_rosenbrock, [-1.0, 1.0, 1.0])  # the unread third slot stays at 1.0
    assert end == "stopped"
    assert max(abs(v - 1.0) for v in x) <= 1e-6
    assert max(abs(v) for v in grad) <= 1e-5


def test_iteration_cap_returns_best_unstopped(monkeypatch):
    monkeypatch.setattr(optimize, "MAX_ITER", 3)
    x, f, grad, nfev, end = bfgs(_rosenbrock, [-1.5, 2.0, 0.0])
    assert end == "capped"
    assert f < _rosenbrock([-1.5, 2.0, 0.0])[0]
    assert (f, grad) == _rosenbrock(x)
    assert nfev >= 4


def test_rejected_points_are_stepped_around():
    def fg(x):  # the quadratic of test_quadratic_minimum, undefined beyond 3
        return (math.inf, None) if x[0] > 3.0 else ((x[0] - 2.0) ** 2, [2.0 * (x[0] - 2.0), 0.0, 0.0])

    x, f, _, _, _ = bfgs(fg, [-30.0, 0.0, 0.0])
    assert abs(x[0] - 2.0) <= 1e-8
    assert bfgs(fg, [4.0, 0.0, 0.0])[1::3] == (math.inf, "stopped")  # a rejected start stops at once


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
    beta = r.params.a[0]
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


def test_odd_parity_needs_two_packets():
    mp = ModelParams(delta=2.0, g=0.3)
    with pytest.raises(ValueError):
        solve_ansatz(mp, AnsatzKind.CSS1, parity="odd")


def test_structure_selection_below_and_above_threshold():
    below = solve_ansatz(ModelParams.from_lambda(100.0, 0.8, 1.0, 1.0), AnsatzKind.CSS2)
    p = below.params
    assert below.reduced and p.c == (1.0, 0.0) and p.a[0] == -p.a[1]  # c2 = 0, beta2 = beta1
    above = solve_ansatz(ModelParams.from_lambda(100.0, 1.2, 1.0, 1.0), AnsatzKind.CSS2)
    p = above.params
    assert not above.reduced and p.c[1] > 0.1
    assert p.a[0] >= -p.a[1] > 0.0  # beta1 >= beta2 > 0


def test_canonical_representative_is_gauge_fixed():
    a = PacketParams((math.cos(0.4), math.sin(0.4)), (3.0, -2.5), 0.1)
    relabeled = PacketParams(a.c[::-1], a.a[::-1], a.xi)
    assert a.canonical() == relabeled.canonical()
    neg = PacketParams((-a.c[0], -a.c[1]), a.a, a.xi)
    assert a.canonical() == neg.canonical()
    c = a.canonical()
    assert c.a[0] - c.a[1] >= 0.0  # beta1 + beta2 >= 0
    assert c.c[0] > 0.0


def reference_canonicalize_2css(c1, c2, beta1, beta2):
    """The gauge-fixed (c1, c2, beta1, beta2) as it was chosen for a two-packet parameter type.

    Picks between the set and its exact relabeling (c2, c1, -beta2, -beta1)
    the one with the larger displacement sum (majority packet first), then
    normalizes the overall coefficient sign (c1 > 0, or c2 > 0 when c1 = 0).
    """
    cand = (c1, c2, beta1, beta2)
    alt = (c2, c1, -beta2, -beta1)
    if (alt[2] + alt[3], alt[0] ** 2 - alt[1] ** 2) > (cand[2] + cand[3], cand[0] ** 2 - cand[1] ** 2):
        cand = alt
    if cand[0] < 0.0 or (cand[0] == 0.0 and cand[1] < 0.0):
        cand = (-cand[0], -cand[1], cand[2], cand[3])
    return cand


def test_canonical_form_is_the_two_packet_choice_exactly():
    rng = np.random.default_rng(11)
    sets = [tuple(rng.uniform(-2.0, 2.0, 4)) for _ in range(20000)]
    pick = [0.0, -0.0, 0.5, -0.5, 1.0]  # ties in the positions and in c^2, signed zeros
    sets += [tuple(rng.choice(pick, 4)) for _ in range(2000)]
    for c1, c2, beta1, beta2 in sets:
        c1, c2, beta1, beta2 = (float(v) for v in (c1, c2, beta1, beta2))
        got = PacketParams((c1, c2), (beta1, -beta2), 0.1).canonical()
        expected = reference_canonicalize_2css(c1, c2, beta1, beta2)
        assert repr((*got.c, got.a[0], -got.a[1])) == repr(expected), (c1, c2, beta1, beta2)


@pytest.mark.parametrize("delta", [10.0, 100.0])
@pytest.mark.parametrize("g", [0.0, 0.01, 0.1, 0.3])
def test_weak_coupling_odd_stays_above_exact(delta, g):
    # The odd optimum sits where the two packets merge (beta1 + beta2 -> 0),
    # where the projected closed form loses precision unless such points are
    # rejected.  At g = 0 the solve must also leave the +delta/2 saddle.
    mp = ModelParams(delta=delta, omega=1.0, g=g, tau=1.0)
    ed = solve_parity_sector(mp, Truncation(64), "odd").energy
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


def _reference_bfgs(fg, x0, max_iter=500, known=()):
    """The textbook list-based BFGS, with the tie rule, that optimize.bfgs must reproduce bit for bit."""
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
        if any(max(abs(a - b) for a, b in zip(x, k)) <= optimize.TIE_RADIUS for k in known):
            return x, f, g, nfev, "tied"
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
        return x, f, g, nfev, "capped"
    return x, f, g, nfev, "stopped"


_MP = ModelParams.from_lambda(100.0, 1.2, 1.0, 1.0)
_ANISO = ModelParams.from_lambda(50.0, 1.05, 1.0, 0.5)
_G0 = ModelParams(delta=100.0, g=0.0)


def _rejecting_log_cosh(x):  # secant steps overshoot the minimum at 2 into the undefined x > 3
    u = x[0] - 2.0
    if x[0] > 3.0:
        return math.inf, None
    return math.log(math.cosh(u)) + 0.1 * u * u, [math.tanh(u) + 0.2 * u, 0.0, 0.0]


# (fg, start, whether the run steps onto rejected points)
_KERNEL_CASES = [
    (lambda x: ((x[0] - 2.0) ** 2, [2.0 * (x[0] - 2.0), 0.0, 0.0]), [0.0, 0.0, 0.0], False),
    (_rejecting_log_cosh, [-5.0, 0.0, 0.0], True),
    (_rosenbrock, [-1.0, 1.0, 0.0], False),
    (_rosenbrock, [-1.5, 2.0, 0.0], False),
    (objective(_MP, AnsatzKind.CS1, "even"), [0.5, 0.0, 0.0], False),
    (objective(_MP, AnsatzKind.CSS1, "even"), [4.0, 0.0, 0.0], False),
    (objective(_MP, AnsatzKind.CS2, "even"), [7.0, 5.0, 0.0], False),
    (objective(_MP, AnsatzKind.CSS2, "even"), [7.0, 5.0, 0.1], False),
    (objective(_ANISO, AnsatzKind.CSS2, "even"), [3.0, 2.0, 0.0], False),
    # Odd solves at weak coupling walk into the rejected band 1 - O+^2 < 1e-4 around beta1 + beta2 = 0.
    (objective(_G0, AnsatzKind.CS2, "odd"), [1.0, 0.0, 0.0], True),
    (objective(_G0, AnsatzKind.CSS2, "odd"), [2.0, -1.5, 0.0], True),
    (objective(ModelParams(delta=100.0, g=0.3), AnsatzKind.CSS2, "odd"), [2.0, -1.5, 0.0], True),
]


@pytest.mark.parametrize("fg, x0, rejects", _KERNEL_CASES)
@pytest.mark.parametrize("max_iter", [500, 2])
def test_kernel_matches_reference_bit_for_bit(monkeypatch, fg, x0, rejects, max_iter):
    expected = _reference_bfgs(fg, x0, max_iter)
    seen = []
    monkeypatch.setattr(optimize, "MAX_ITER", max_iter)
    got = bfgs(lambda x: seen.append(fg(x)[0]) or fg(x), x0)
    assert repr(got) == repr(expected)  # repr tells -0.0 from 0.0 and round-trips every float
    assert expected[-1] == ("stopped" if max_iter == 500 else "capped")
    if max_iter == 500:
        assert (math.inf in seen) == rejects


@pytest.mark.parametrize("fg, x0, rejects", _KERNEL_CASES)
def test_kernel_matches_reference_with_known_optima(fg, x0, rejects):
    free = _reference_bfgs(fg, x0)
    far = [v + 1.0 for v in free[0]]  # off the path: the run is the free one
    assert repr(bfgs(fg, x0, [far])) == repr(_reference_bfgs(fg, x0, known=[far])) == repr(free)
    # With its own endpoint known, the run ties at the first accepted iterate within reach of it.
    known = [far, free[0]]
    got = bfgs(fg, x0, known)
    assert repr(got) == repr(_reference_bfgs(fg, x0, known=known))
    assert got[-1] == "tied" and got[3] <= free[3]
    assert max(abs(a - b) for a, b in zip(got[0], free[0])) <= optimize.TIE_RADIUS


def test_start_near_known_optimum_ties_with_fewer_evaluations():
    fg = objective(_MP, AnsatzKind.CSS2, "even")
    optimum = bfgs(fg, [7.0, 5.0, 0.1])[0]
    near = [optimum[0] + 0.3, optimum[1] - 0.2, optimum[2]]
    free = bfgs(fg, near)
    tied = bfgs(fg, near, [optimum])
    assert free[-1] == "stopped" and tied[-1] == "tied"
    assert tied[3] < free[3]


def _stubbed_bfgs(monkeypatch, run):
    """Replace bfgs in solve_ansatz by run(x0); return the known optima each call was handed."""
    handed = []

    def stub(fg, x0, known=()):
        handed.append([list(k) for k in known])
        return run(list(x0))

    monkeypatch.setattr(optimize, "bfgs", stub)
    return handed


def test_tied_run_never_wins_even_when_lower(monkeypatch):
    # Every start of the four-start CS2 stage ends at the same point; the
    # later three tie with f lower than the first's, as rounding could make
    # it.  The CS1 stage is read from the dict, 1.0 above, so no reduction.
    mp = ModelParams.from_lambda(100.0, 1.2, 1.0, 1.0)
    stages = {(mp, AnsatzKind.CS1, "even"): ((1.0, 0.0, 0.0), 2.0, 0.0, True)}
    calls = []

    def run(x0):
        calls.append(x0)
        end = "stopped" if len(calls) == 1 else "tied"
        return [1.0, 0.5, 0.0], 1.0 - 1e-9 * (len(calls) - 1), [0.0, 0.0, 0.0], 5, end

    handed = _stubbed_bfgs(monkeypatch, run)
    r = solve_ansatz(mp, AnsatzKind.CS2, stages=stages)
    assert handed == [[], [[1.0, 0.5, 0.0]], [[1.0, 0.5, 0.0]], [[1.0, 0.5, 0.0]]]
    assert r.energy == 1.0 and r.converged and not r.reduced
    assert (r.starts_tried, r.nfev) == (4, 20)  # tied runs count as starts and evaluations


@pytest.mark.parametrize("end, grad, known", [
    ("stopped", 0.5 * optimize.GRAD_TOL**2, True),
    ("stopped", optimize.GRAD_TOL**2, False),
    ("capped", 0.0, False),
])
def test_only_a_stopped_run_below_the_squared_tolerance_is_a_known_optimum(monkeypatch, end, grad, known):
    # The CS2 stage runs its four starts; the CS1 stage is read from the dict.
    mp = ModelParams.from_lambda(100.0, 1.2, 1.0, 1.0)
    stages = {(mp, AnsatzKind.CS1, "even"): ((1.0, 0.0, 0.0), 1.0, 0.0, True)}
    handed = _stubbed_bfgs(monkeypatch, lambda x0: (x0, 1.0, [grad, 0.0, 0.0], 1, end))
    solve_ansatz(mp, AnsatzKind.CS2, stages=stages)
    starts = [list(x) for x in optimize._two_starts(mp, False, (1.0, 0.0, 0.0))]
    assert handed == ([starts[:i] for i in range(4)] if known else [[], [], [], []])


def test_tie_rule_work_count():
    # A drift-free work count of one solve: without the tie rule this solve took 229 evaluations,
    # and 179 over 8 starts with the three retired single-packet seeds.
    r = solve_ansatz(ModelParams.from_lambda(8.0, 1.1, 1.0, 1.0), AnsatzKind.CSS2)
    assert (r.nfev, r.starts_tried) == (156, 6)
    assert r.converged and not r.reduced


@pytest.mark.parametrize("x0", [[], [1.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
def test_kernel_takes_three_variables(x0):
    with pytest.raises(ValueError, match="takes 3 variables"):
        bfgs(lambda x: (0.0, [0.0] * len(x)), x0)


def test_guard_stage_runs_only_for_reduction_candidates(monkeypatch):
    # In a CSS2 solve the unsqueezed guard stage is the only stage that binds the CS2 objective.
    stages = []
    bind = optimize.objective

    def recorded(params, kind, parity="even"):
        stages.append(kind)
        return bind(params, kind, parity)

    monkeypatch.setattr(optimize, "objective", recorded)
    two_packet = solve_ansatz(ModelParams.from_lambda(100.0, 1.2, 1.0, 1.0), AnsatzKind.CSS2)
    assert not two_packet.reduced
    assert stages and AnsatzKind.CS2 not in stages
    stages.clear()
    reduced = solve_ansatz(ModelParams.from_lambda(100.0, 0.8, 1.0, 1.0), AnsatzKind.CSS2)
    assert reduced.reduced
    assert AnsatzKind.CS2 in stages
    # starts_tried counts the stages that ran: single, full and guard here, two of them above
    assert reduced.starts_tried > two_packet.starts_tried


def test_one_stage_dict_gives_every_solve_its_standalone_result():
    # One dict across two points and both parities: a key that dropped the
    # point or the parity would hand a solve another problem's stage.  At
    # delta 10, tau 1.5, lambda 0.15 CS2 reports its single-packet reduction,
    # ~1.8e-5 above its two-packet optimum, and the CSS1 optimum lies between
    # the two, so a guard that read CS2's reported energy would wrongly let
    # CSS2 reduce.  The second point solves its kinds in reverse order.
    points = [ModelParams.from_lambda(10.0, 0.15, 1.0, 1.5), ModelParams.from_lambda(100.0, 0.8, 1.0, 1.0)]
    stages = {}
    for mp, kinds in zip(points, (list(AnsatzKind), list(AnsatzKind)[::-1])):
        for parity in ("even", "odd"):
            for kind in (k for k in kinds if parity == "even" or k.two_branch):
                shared, alone = solve_ansatz(mp, kind, parity, stages), solve_ansatz(mp, kind, parity)
                for field in ("energy", "params", "grad_norm", "converged", "reduced"):
                    assert repr(getattr(shared, field)) == repr(getattr(alone, field)), (mp, kind, parity, field)
    assert len(stages) == 2 * 2 * len(AnsatzKind)  # every kind's stage at each point in each parity
    cs1, cs2, css2 = (solve_ansatz(points[0], kind) for kind in (AnsatzKind.CS1, AnsatzKind.CS2, AnsatzKind.CSS2))
    assert cs2.reduced and cs2.energy == cs1.energy
    assert stages[points[0], AnsatzKind.CS2, "even"][1] < cs2.energy  # the guard reads the unreduced optimum
    assert not css2.reduced


def test_work_counts_cover_only_the_stages_a_call_ran():
    # At delta 100, tau 1, lambda 0.8 CSS2 reports its reduction, so its guard, the CS2 stage, runs.
    mp = ModelParams.from_lambda(100.0, 0.8, 1.0, 1.0)
    alone = solve_ansatz(mp, AnsatzKind.CSS2)
    assert alone.reduced and alone.starts_tried == 2 + 4 + 2 + 4  # the CSS1, CSS2, CS1 and CS2 stages
    stages = {}
    parts = [solve_ansatz(mp, kind, stages=stages) for kind in (AnsatzKind.CSS1, AnsatzKind.CS2, AnsatzKind.CSS2)]
    assert [r.starts_tried for r in parts] == [2, 2 + 4, 4]
    assert sum(r.nfev for r in parts) == alone.nfev
    again = solve_ansatz(mp, AnsatzKind.CSS2, stages=stages)
    assert (again.starts_tried, again.nfev) == (0, 0) and again.energy == alone.energy


def test_unstopped_stage_is_stored_and_unconverges_every_solve_that_reads_it(monkeypatch):
    # With the iteration cap at 2 no start stops, so no stage does: each
    # result holds its best-so-far state and converged=False, and the
    # stages are stored like stopped ones.
    mp = ModelParams.from_lambda(100.0, 1.2, 1.0, 1.0)
    monkeypatch.setattr(optimize, "MAX_ITER", 2)
    stages = {}
    capped = solve_ansatz(mp, AnsatzKind.CSS2, stages=stages)
    assert not capped.converged and capped.params is not None and math.isfinite(capped.energy)
    assert stages and not any(stopped for _, _, _, stopped in stages.values())
    monkeypatch.undo()
    again = solve_ansatz(mp, AnsatzKind.CSS2, stages=stages)
    assert (again.starts_tried, again.energy, again.converged) == (0, capped.energy, False)
    assert solve_ansatz(mp, AnsatzKind.CSS2).converged


@pytest.mark.parametrize("kind", list(AnsatzKind))
def test_solve_that_reaches_no_finite_energy_has_no_params(monkeypatch, kind):
    monkeypatch.setattr(optimize, "objective", lambda params, kind, parity="even": lambda x: (math.inf, None))
    r = solve_ansatz(ModelParams.from_lambda(100.0, 1.2, 1.0, 1.0), kind)
    assert r.params is None and not r.converged
    assert r.energy == r.grad_norm == math.inf and r.starts_tried > 0
