import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

import rabivar.cli as cli
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


def test_trees_name_every_reference_tree_and_parse():
    named = _tool("trees").trees()
    assert [name for name, _ in named] == [
        "scan", "levels", "wavefunction", "verify",
        "wavefunction-css2", "wavefunction-delta8", "scan-delta10-tau1.5", "scan-odd-delta8",
    ]
    for name, argv in named:
        assert cli.build_parser().parse_args([*argv, "--out", name]).command == argv[0], name


def test_trees_threads_mode_finds_no_thread_dependence(tmp_path, capsys):
    # One small tree: the ED profile at one README coupling, whose rows
    # followed the BLAS thread count before the profile product left BLAS.
    tree = ("wavefunction", ["wavefunction", "--delta", "100", "--tau", "1", "--lambdas", "1.1", "--source", "ED"])
    assert _tool("trees").write_threads(str(tmp_path), [tree]) == 0
    assert sorted(os.listdir(tmp_path)) == ["1", "2"]
    reports = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wavefunction/")]
    assert len(reports) == 4 and all(line.endswith(": identical") for line in reports), reports


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


def test_trees_compare_reports_inside_levels_meta_and_verify_json(tmp_path):
    meta = {
        "command": "levels",
        "crossing": {"ED": 1.0, "CSS2": 1.0},
        "crossings": {"ED": [1.0, 1.03], "CSS2": [1.0]},
        "g_c1": 11.5,
        "parity_disagreements": [[1.035, 1.06]],
    }
    checks = [
        {"name": "overlap-vs-fock", "max_dev": 1e-16, "tol": 1e-8, "passed": True},
        {"name": "c2-stationarity", "max_dev": 1e-9, "tol": 1e-6, "passed": True},
        {"name": "nesting", "max_dev": 0.0, "tol": 1e-9, "passed": True},
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    for top in (a, b):
        (top / "levels").mkdir(parents=True)
        (top / "verify").mkdir()
    (a / "levels" / "meta.json").write_text(json.dumps(meta))
    (a / "verify" / "verify.json").write_text(json.dumps({"checks": checks, "passed": 3, "failed": 0}))
    meta["crossings"] = {"ED": [1.0, 1.04], "CSS2": [1.0]}  # only ED's later crossing moved
    (b / "levels" / "meta.json").write_text(json.dumps(meta))
    checks[1] = checks[1] | {"max_dev": 2e-6, "passed": False}
    checks[2] = checks[2] | {"max_dev": 1e-12}
    (b / "verify" / "verify.json").write_text(json.dumps({"checks": checks, "passed": 2, "failed": 1}))
    assert _compare(a, b) == (1, [
        "levels/meta.json: differs in crossings; crossings changed for ED; parity_disagreements unchanged",
        "verify/verify.json: differs in checks, failed, passed; max_dev changed in c2-stationarity, nesting; "
        "passed changed in c2-stationarity",
    ])

    meta["crossing"] = {"ED": 1.0, "CSS2": 0.99}
    meta["parity_disagreements"] = []
    (b / "levels" / "meta.json").write_text(json.dumps(meta))
    assert _compare(a, b)[1][0] == (
        "levels/meta.json: differs in crossing, crossings, parity_disagreements; crossing changed for CSS2; "
        "crossings changed for ED; parity_disagreements changed"
    )


def test_code_lines_prints_each_module_then_the_total(tmp_path):
    def run(*args):
        proc = subprocess.run([sys.executable, os.path.join(TOOLS, "code_lines.py"), *args],
                              capture_output=True, text=True, check=True)
        return proc.stdout.splitlines()

    lines = run()
    modules = [line.split(" ") for line in lines[:-1]]
    assert {"cli.py", "scan.py"} <= {name for name, _ in modules}
    assert all(name.endswith(".py") for name, _ in modules)
    assert sum(int(count) for _, count in modules) == int(lines[-1])

    (tmp_path / "a.py").write_text('"""Doc."""\n\nimport os  # one\n\n\ndef f():\n    """Doc."""\n    return os\n')
    (tmp_path / "b.py").write_text("# comment\nx = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert run(str(tmp_path)) == ["a.py 3", "b.py 1", "4"]
