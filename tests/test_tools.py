import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

from rabivar import AnsatzKind, ModelParams, solve_ansatz

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools")


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (delta, tau, lambda, parity) where the retired single-packet seeds ran
_RETIRED_SEED_POINTS = [
    (100.0, 1.0, 0.41, "even"),
    (100.0, 1.0, 0.73, "even"),
    (100.0, 1.0, 1.2, "even"),
    (8.0, 0.5, 0.1, "odd"),
    (0.5, 2.0, 2.5, "even"),
]


@pytest.mark.parametrize("delta, tau, lam, parity", _RETIRED_SEED_POINTS)
def test_retired_single_packet_seeds_change_no_result(delta, tau, lam, parity):
    # Appended after the current starts, the retired seeds run last in their
    # stages, as they did before they were retired; every result must stay the same.
    mp = ModelParams.from_lambda(delta, lam, 1.0, tau)
    kinds = [k for k in AnsatzKind if parity == "even" or k.two_branch]
    current = [solve_ansatz(mp, kind, parity) for kind in kinds]
    with _tool("seed_audit").retired_seeds_appended():
        before = [solve_ansatz(mp, kind, parity) for kind in kinds]
    for kind, old, now in zip(kinds, before, current):
        assert old.starts_tried > now.starts_tried
        for field in ("energy", "params", "converged", "reduced", "grad_norm"):
            assert repr(getattr(old, field)) == repr(getattr(now, field)), (kind, field)


def _compare(a, b):
    proc = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "trees.py"), "--compare", str(a), str(b)],
        capture_output=True, text=True, check=False,
    )
    return proc.returncode, proc.stdout.splitlines()


def test_trees_compare_reports_each_file(tmp_path):
    a = tmp_path / "a"
    (a / "scan").mkdir(parents=True)
    rows = [
        "lambda\tmethod\tenergy\tc1\tconverged",
        "0.1\tCS1\t-50.0\t\t1",
        "0.1\tCS2\t-50.5\t0.5\t1",
        "0.2\tCS2\t-51.0\t0.25\t1",
    ]
    (a / "scan" / "combined.tsv").write_text("\n".join(rows) + "\n")
    (a / "scan" / "meta.json").write_text(json.dumps({"command": "scan", "crossings": [1.0]}))
    (a / "verify.txt").write_text("16/16 checks passed\n")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    assert _compare(a, b) == (0, [
        "scan/combined.tsv: identical", "scan/meta.json: identical", "verify.txt: identical",
    ])

    rows[2] = "0.1\tCS2\t-50.25\t\t0"  # energy 0.5% off, c1 gone, converged flipped
    rows[3] = "0.2\tCS2\t-51.0\t0.5\t1"  # c1 doubled
    (b / "scan" / "combined.tsv").write_text("\n".join(rows) + "\n")
    (b / "scan" / "meta.json").write_text(json.dumps({"command": "scan", "crossings": [1.5]}))
    (b / "verify.txt").write_text("15/16 checks passed\n")
    (b / "extra.tsv").write_text("x\n")
    assert _compare(a, b) == (1, [
        "extra.tsv: only in B",
        "scan/combined.tsv: 2 rows changed; energy 0.005; c1 inf; converged changed at lambda=0.1 CS2",
        "scan/meta.json: differs in crossings",
        "verify.txt: differs",
    ])
    assert _compare(b, a)[1][0] == "extra.tsv: only in A"
