"""Benchmark workloads: seeded inputs, one public call each, and output checks.

Each workload drives one public entry point of rabivar (``run_scan``,
``run_levels`` or ``verify.run_all``) with inputs generated from a seed.
The default seed reproduces the README inputs; any other seed shifts the
scan and levels grids by a seeded fraction of a grid step and hands its
value to ``verify.run_all``, which draws its random parameter sets from it.
A run gives each of its calls its own seed, drawn from the run's seed, so
that a run averages over several inputs rather than one.

Checks come in two kinds.  A ``wrong`` check failed because a value the
program produced violates a bound; it makes the run incorrect.  A
``missing`` check failed because the program produced no value (a row that
did not converge, an energy left empty, a crossing reported as ``None``).
Both kinds count as failed against the attempted total.
"""

from __future__ import annotations

import json
import os

import numpy as np

from rabivar import verify
from rabivar.scan import METHODS, LevelsConfig, ScanConfig, run_levels, run_scan

DEFAULT_SEED = verify.DEFAULT_SEED

# Fig. 2 range, detuning and methods at three times the README step, so one
# call takes about 9 s on 2 CPUs instead of 32 s and a run holds three calls.
SCAN_STEP = 0.03
LEVELS_STEP = 0.005

MISSING = "missing"
WRONG = "wrong"

_ED_ACCURACY = 1e-3  # |E_CSS2 - E_ED| in units of delta * omega


def call_seed(seed: int, index: int) -> int:
    """Seed of the index-th call of a run; the default seed keeps the README inputs."""
    if seed == DEFAULT_SEED:
        return seed
    return int(np.random.default_rng([seed, index]).integers(2**31))


def grid_shift(seed: int) -> float:
    """Fraction of a grid step that shifts the scan and levels grids."""
    if seed == DEFAULT_SEED:
        return 0.0
    return float(np.random.default_rng(seed).random())


def _slack(e_ed: float) -> float:
    return 1e-8 * max(1.0, abs(e_ed))


def _check(checks, name, ok, kind=WRONG):
    checks.append((name, bool(ok), kind))


class ScanFig2:
    """The paper's Fig. 2 job: ED and the four trial states over lambda."""

    name = "scan-fig2"
    layer = "scan"

    def __init__(self, seed: int):
        shift = grid_shift(seed) * SCAN_STEP
        self.config = ScanConfig(
            delta=100.0,
            tau=1.0,
            lambda_min=shift,
            lambda_max=1.5 + shift,
            lambda_step=SCAN_STEP,
            methods=METHODS,
        )

    def call(self, out_dir):
        return run_scan(self.config, out_dir)

    def check(self, rows, out_dir):
        checks = []
        _check(checks, "row-count", len(rows) == len(self.config.grid()) * len(METHODS), MISSING)
        by_point = {}
        for row in rows:
            _check(checks, "row-complete", row.get("converged") and row.get("energy") is not None, MISSING)
            by_point.setdefault(row["lambda"], {})[row["method"]] = row.get("energy")
        scale = self.config.delta * self.config.omega
        for energies in by_point.values():
            if any(energies.get(m) is None for m in METHODS):
                continue  # already failed as row-complete
            e_ed = energies["ED"]
            slack = _slack(e_ed)
            for method in METHODS[1:]:
                _check(checks, "variational-bound", energies[method] >= e_ed - slack)
            _check(
                checks,
                "nesting",
                energies["CSS2"] <= energies["CSS1"] + slack
                and energies["CSS1"] <= energies["CS1"] + slack
                and energies["CSS2"] <= energies["CS2"] + slack,
            )
            _check(checks, "css2-vs-ed", abs(energies["CSS2"] - e_ed) <= _ED_ACCURACY * scale)
        return checks


class LevelsCrossing:
    """Even/odd levels of ED and CSS2 through the crossing at tau = 0.5."""

    name = "levels-crossing"
    layer = "scan"

    def __init__(self, seed: int):
        shift = grid_shift(seed) * LEVELS_STEP
        self.config = LevelsConfig(
            delta=100.0,
            tau=0.5,
            g_min=0.9 + shift,
            g_max=1.1 + shift,
            g_step=LEVELS_STEP,
            methods=("ED", "CSS2"),
        )

    def call(self, out_dir):
        return run_levels(self.config, out_dir)

    def check(self, rows, out_dir):
        with open(os.path.join(out_dir, "meta.json")) as fh:
            crossing = json.load(fh)["crossing"]
        checks = []
        _check(checks, "row-count", len(rows) == len(self.config.grid()) * len(self.config.methods), MISSING)
        by_point = {}
        for row in rows:
            complete = row.get("converged") and None not in (row.get("e_even"), row.get("e_odd"))
            _check(checks, "row-complete", complete, MISSING)
            by_point.setdefault(row["g_ratio"], {})[row["method"]] = row
        scale = self.config.delta * self.config.omega
        for pair in by_point.values():
            ed, css2 = pair.get("ED", {}), pair.get("CSS2", {})
            levels = [(ed.get(k), css2.get(k)) for k in ("e_even", "e_odd")]
            if any(None in level for level in levels):
                continue  # already failed as row-complete
            _check(checks, "variational-bound", all(v >= e - _slack(e) for e, v in levels))
            _check(checks, "css2-vs-ed", all(abs(v - e) <= _ED_ACCURACY * scale for e, v in levels))
        for method in self.config.methods:
            _check(checks, f"crossing-found:{method}", crossing.get(method) is not None, MISSING)
        return checks


class Verify:
    """The self-verification suite: closed forms against the Fock oracle."""

    name = "verify"
    layer = "verify"

    def __init__(self, seed: int):
        self.seed = seed

    def call(self, out_dir):
        return verify.run_all(self.seed)

    def check(self, results, out_dir):
        return [(r.name, r.passed, WRONG) for r in results]


WORKLOADS = {w.name: w for w in (ScanFig2, LevelsCrossing, Verify)}


def make(name: str, seed: int):
    """The named workload with its inputs generated from seed."""
    return WORKLOADS[name](seed)
