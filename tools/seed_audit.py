"""Audit which start of each optimizer stage wins it, over a wide sweep of model points.

Every stage of ``rabivar.optimize.solve_ansatz`` is the lowest of the
``bfgs`` runs from its starts (see ``rabivar.optimize``).  This tool
solves every kind at each point-parity of a fixed sweep with the retired
single-packet seeds (``retired_seeds``) appended to the current ones,
records every ``bfgs`` run, and prints per (stage kind, start index):

* the runs and the tied runs;
* the stages the start won, the largest relative margin by which it beat
  the stage's other untied runs, and how many wins were by more than
  1e-12 relative;
* the stages whose only stopped run it was (such a run decides the
  stage's ``converged``).

It then solves the sweep again with the current starts alone and counts
the results (energy, params, converged, reduced, grad_norm) that differ,
and the objective evaluations of both.  It exits 1 if a retired seed wins
a stage, is a stage's only stopped run, or changes a result.  The same
table serves any other start list: patch ``optimize._single_starts`` or
``optimize._two_starts`` and read the rows of the starts in question.

The sweep is the README scan, the README levels grid in both parities,
the physics points of ``rabivar verify`` in both parities, the delta 10,
tau 1.5 scan, the odd delta 8, tau 0.5 scan, and a grid over delta 0.1 to
300, tau 0 to 3 and lambda 0.1 to 2.5 in even parity and, at six
detunings, in odd parity.  Even point-parities solve all four kinds, odd
ones CS2 and CSS2; the stages of a point-parity are shared, as in a scan.
Run from any directory:

    python tools/seed_audit.py
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from rabivar import optimize  # noqa: E402
from rabivar.model import ModelParams  # noqa: E402
from rabivar.scan import LevelsConfig, ScanConfig  # noqa: E402
from rabivar.variational import AnsatzKind  # noqa: E402
from rabivar.verify import PHYSICS_POINTS  # noqa: E402

FIELDS = ("energy", "params", "converged", "reduced", "grad_norm")


def retired_seeds(params: ModelParams, squeezed: bool):
    """The single-packet seeds retired from optimize._single_starts, in the order they ran after its seeds."""
    bs, bm, xa = optimize._seed_values(params)
    return [(bm, 0.0, xa), (bs, 0.0, 0.0)] if squeezed else [(0.5 * bm, 0.0, 0.0)]


def _retired_starts():
    """(stage kind, start index) of every retired seed once it is appended."""
    mp = ModelParams(delta=1.0, g=1.0)
    return {
        (kind, len(optimize._single_starts(mp, kind.squeezed)) + i)
        for kind in (AnsatzKind.CS1, AnsatzKind.CSS1)
        for i in range(len(retired_seeds(mp, kind.squeezed)))
    }


@contextlib.contextmanager
def retired_seeds_appended():
    """optimize._single_starts with the retired seeds after its own, while the context lasts."""
    current = optimize._single_starts
    optimize._single_starts = lambda params, squeezed: current(params, squeezed) + retired_seeds(params, squeezed)
    try:
        yield
    finally:
        optimize._single_starts = current


@contextlib.contextmanager
def recorded_stages(stages):
    """Append each stage solve_ansatz runs to stages as (kind, runs), runs its (f, end) in start order.

    A stage binds its objective once and then runs bfgs from each start,
    so a run that follows a binding opens a new stage.  (Binding an
    objective to pack a result opens none: no run follows it.)
    """
    bind, run = optimize.objective, optimize.bfgs
    pending = []

    def binding(params, kind, parity="even"):
        pending[:] = [kind]
        return bind(params, kind, parity)

    def running(fg, x0, known=()):
        if pending:
            stages.append((pending.pop(), []))
        out = run(fg, x0, known)
        stages[-1][1].append((out[1], out[4]))
        return out

    optimize.objective, optimize.bfgs = binding, running
    try:
        yield
    finally:
        optimize.objective, optimize.bfgs = bind, run


def sweep():
    """(params, parity) of every point-parity of the sweep, in a fixed order."""
    points = []
    for cfg, parities in (
        (ScanConfig(), ("even",)),
        (ScanConfig(delta=10.0, tau=1.5, lambda_max=2.0), ("even",)),
        (ScanConfig(delta=8.0, tau=0.5, lambda_max=2.0), ("odd",)),
    ):
        points += [(ModelParams.from_lambda(cfg.delta, lam, 1.0, cfg.tau), p) for lam in cfg.grid() for p in parities]
    levels = LevelsConfig()
    gc1 = ModelParams(delta=levels.delta, g=1.0, tau=levels.tau).g_c1
    for ratio in levels.grid():
        points += [(ModelParams(delta=levels.delta, g=ratio * gc1, tau=levels.tau), p) for p in ("even", "odd")]
    for delta, tau, lam in PHYSICS_POINTS:
        points += [(ModelParams.from_lambda(delta, lam, 1.0, tau), p) for p in ("even", "odd")]
    for delta in (0.1, 0.5, 3.0, 30.0, 300.0):
        for tau in (0.0, 0.3, 1.0, 2.0, 3.0):
            points += [(ModelParams.from_lambda(delta, lam, 1.0, tau), "even") for lam in (0.2, 0.8, 1.0, 1.3, 2.5)]
    for delta in (0.1, 1.0, 3.0, 30.0, 100.0, 300.0):
        for tau in (0.0, 0.5, 2.0):
            points += [(ModelParams.from_lambda(delta, lam, 1.0, tau), "odd") for lam in (0.1, 0.5, 0.9, 1.1, 1.5, 2.5)]
    return points


def solve_sweep(points):
    """Every kind's result at each point-parity, its stages shared; and the objective evaluations."""
    results, nfev = [], 0
    for params, parity in points:
        stages = {}
        for kind in AnsatzKind:
            if parity == "even" or kind.two_branch:
                result = optimize.solve_ansatz(params, kind, parity, stages)
                results.append(tuple(repr(getattr(result, f)) for f in FIELDS))
                nfev += result.nfev
    return results, nfev


def tally(stages):
    """Per (kind, start index): runs, tied runs, wins, the largest win margin, wins above 1e-12, only-stopped stages."""
    table = {}
    for kind, runs in stages:
        best = None  # the run minimize keeps: the first of the lowest untied runs
        for i, (f, end) in enumerate(runs):
            row = table.setdefault((kind, i), Counter(margin=0.0))
            row["runs"] += 1
            row["tied"] += end == "tied"
            if end != "tied" and (best is None or f < runs[best][0]):
                best = i
        f = runs[best][0]
        others = [g for i, (g, end) in enumerate(runs) if i != best and end != "tied"]
        margin = (min(others) - f) / max(1.0, abs(f)) if others else 0.0
        row = table[kind, best]
        row["wins"] += 1
        row["margin"] = max(row["margin"], margin)
        row["wide"] += margin > 1e-12
        stopped = [i for i, (_, end) in enumerate(runs) if end == "stopped"]
        if len(stopped) == 1:
            table[kind, stopped[0]]["only_stopped"] += 1
    return table


def main() -> int:
    points = sweep()
    stages = []
    with retired_seeds_appended(), recorded_stages(stages):
        with_retired, nfev_with = solve_sweep(points)
    current, nfev_current = solve_sweep(points)
    table = tally(stages)
    retired = _retired_starts()

    print(f"sweep: {len(points)} point-parities, {len(stages)} stages, {sum(len(r) for _, r in stages)} bfgs runs")
    print("kind  start  runs  tied  wins  max_margin  wins>1e-12  only_stopped")
    for (kind, i), row in sorted(table.items(), key=lambda item: (list(AnsatzKind).index(item[0][0]), item[0][1])):
        mark = "  retired" if (kind, i) in retired else ""
        print(
            f"{kind.value:<5} {i:>5} {row['runs']:>5} {row['tied']:>5} {row['wins']:>5} "
            f"{row['margin']:>11.2e} {row['wide']:>11} {row['only_stopped']:>13}{mark}"
        )
    wins = sum(table[key]["wins"] for key in retired if key in table)
    only = sum(table[key]["only_stopped"] for key in retired if key in table)
    changed = sum(a != b for a, b in zip(with_retired, current))
    print(f"retired seeds: {wins} stage wins, {only} stages whose only stopped run they were")
    print(f"results changed without the retired seeds: {changed} of {len(current)}")
    print(f"objective evaluations: {nfev_with} with the retired seeds, {nfev_current} without")
    return 1 if wins or only or changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
