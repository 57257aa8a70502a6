"""Smoke tests of the benchmark itself, on shrunken grids.

    python3 -m pytest bench/test_bench.py -q
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import rabivar.scan  # noqa: E402
import rabivar.verify  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def small_grids(monkeypatch):
    monkeypatch.setattr(workloads, "SCAN_STEP", 0.5)
    monkeypatch.setattr(workloads, "LEVELS_STEP", 0.05)


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_names_every_declared_metric(small_grids, capsys, trace, section):
    argv = ["--workload", "scan-fig2", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _declared(section)
    if trace:
        value = {name: m["value"] for name, m in result["metrics"].items()}
        top = sum(value[f"{layer}.busy_s"] for layer in ("exactdiag", "optimize", "scan.write_table"))
        assert top + value["scan.self_s"] == pytest.approx(value["trace.wall_s"], rel=1e-3)


def test_tracer_restores_patched_names(monkeypatch):
    originals = {(m, n): getattr(importlib.import_module(m), n) for m, n, _, _ in tracer.PATCHES}
    # A name a later version of the program may drop must be skipped, not fatal.
    monkeypatch.delattr(rabivar.verify, "build_hamiltonian")
    t = tracer.Tracer()
    with pytest.raises(RuntimeError), t.installed():
        assert rabivar.scan.solve_lowest is not originals[("rabivar.scan", "solve_lowest")]
        raise RuntimeError("leave the block early")
    assert not hasattr(rabivar.verify, "build_hamiltonian")
    for (module, name), original in originals.items():
        if (module, name) != ("rabivar.verify", "build_hamiltonian"):
            assert getattr(importlib.import_module(module), name) is original
    metrics = tracer.layer_metrics(t.spans, 1, [1.0], [1.0])
    assert list(metrics) == list(tracer.PER_LAYER_UNITS)
    assert metrics["fock.build_hamiltonian.oracle_calls"] == 0


def _failures(workload, rows, out_dir):
    checks = workload.check(rows, out_dir)
    failed = [(name, kind) for name, ok, kind in checks if not ok]
    return failed, len(failed) / len(checks)


def test_bad_row_raises_failed_frac(small_grids, tmp_path):
    workload = workloads.make("scan-fig2", workloads.DEFAULT_SEED)
    rows = workload.call(str(tmp_path))
    assert _failures(workload, rows, str(tmp_path)) == ([], 0.0)

    css2 = [r for r in rows if r["method"] == "CSS2"]
    css2[-1]["energy"] -= 1.0  # below the exact ground energy
    failed, frac = _failures(workload, rows, str(tmp_path))
    assert frac > 0.0
    assert ("variational-bound", workloads.WRONG) in failed

    css2[0]["energy"] = None
    failed, more = _failures(workload, rows, str(tmp_path))
    assert more > frac
    assert ("row-complete", workloads.MISSING) in failed

    failed, _ = _failures(workload, rows[:-1], str(tmp_path))
    assert ("row-count", workloads.MISSING) in failed


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
