import filecmp
import importlib
import json
import math
import multiprocessing
import os
import pkgutil
import re
import shlex
import signal
import subprocess
import sys
import time
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

import rabivar
import rabivar.cli as cli
import rabivar.optimize as optimize
import rabivar.scan as scan
import rabivar.states as states
import rabivar.variational as variational
import rabivar.verify as verify
from rabivar.cli import main
from rabivar.errors import InvalidConfig, InvalidTau
from rabivar.exactdiag import SectorSplitting, sector_splitting, solve_parity_sector
from rabivar.model import N_TR_MAX, ModelParams, Truncation
from rabivar.optimize import OptResult
from rabivar.scan import (
    LevelsConfig,
    ScanConfig,
    WavefunctionConfig,
    read_table,
    run_levels,
    run_scan,
    run_wavefunction,
    write_table,
)
from rabivar.variational import AnsatzKind, PacketParams
from rabivar.verify import format_json, oracle_checks, run_all

SMALL_SCAN = dict(
    delta=20.0,
    tau=1.0,
    lambda_min=0.0,
    lambda_max=0.9,
    lambda_step=0.3,
    methods=("ED", "CS1", "CSS1", "CSS2"),
    n_tr=128,
)


def assert_trees_identical(a, b):
    cmp = filecmp.dircmp(a, b)
    assert not cmp.left_only and not cmp.right_only
    for name in cmp.common_files:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), f"{name} differs"


def cli_error(argv, capsys):
    """The one-line stderr message of a command line the CLI rejects with exit status 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rabivar: error: ") and captured.err.count("\n") == 1, captured.err
    return captured.err


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process running as a worker, or ended and unreaped."""
    yield
    assert not multiprocessing.active_children()
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        pid = 0
    assert pid == 0, f"child process {pid} was left behind (wait status {status})"


def test_scan_outputs_and_roundtrip(tmp_path):
    out = tmp_path / "scan"
    rows = run_scan(ScanConfig(**SMALL_SCAN), str(out))
    for name in ("ED.tsv", "CS1.tsv", "CSS1.tsv", "CSS2.tsv", "combined.tsv", "meta.json", "plot.gp"):
        assert (out / name).exists()
    columns, parsed = read_table(str(out / "combined.tsv"))
    assert len(parsed) == len(rows) == 4 * 4
    for mem, disk in zip(rows, parsed):
        for col in columns:
            val = mem.get(col)
            if isinstance(val, bool):
                val = float(val)
            if val is None:
                assert disk[col] is None
            elif isinstance(val, str):
                assert disk[col] == val
            else:
                assert disk[col] == float(val)  # bit-exact float round trip


def test_scan_missing_fields_empty_not_zero(tmp_path):
    out = tmp_path / "scan"
    run_scan(ScanConfig(**SMALL_SCAN), str(out))
    _, rows = read_table(str(out / "ED.tsv"))
    for row in rows:
        for col in ("beta1", "beta2", "c1", "c2", "xi"):
            assert row[col] is None
    _, rows = read_table(str(out / "CSS1.tsv"))
    for row in rows:
        assert row["beta1"] is not None and row["xi"] is not None
        assert row["c1"] is None and row["beta2"] is None


def test_scan_row_of_a_solve_with_no_finite_energy_is_unconverged_and_empty(tmp_path, monkeypatch):
    # An objective that rejects every point: no start reaches a finite energy, so the solves have no params.
    monkeypatch.setattr(optimize, "objective", lambda params, kind, parity="even": lambda x: (math.inf, None))
    rows = run_scan(ScanConfig(**(SMALL_SCAN | {"lambda_max": 0.3, "methods": ("ED", "CS1", "CSS2")})), str(tmp_path))
    assert len(rows) == 6
    for row in read_table(str(tmp_path / "combined.tsv"))[1]:
        filled = {column for column, value in row.items() if value is not None}
        if row["method"] == "ED":
            assert row["converged"] == 1 and row["energy"] is not None
        else:
            assert filled == {"lambda", "g", "method", "parity", "converged"} and row["converged"] == 0


def test_scan_deterministic_across_fresh_dirs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_scan(ScanConfig(**SMALL_SCAN), str(out1))
    run_scan(ScanConfig(**SMALL_SCAN), str(out2))
    assert_trees_identical(str(out1), str(out2))


def test_scan_restart_recomputes_only_missing_rows(tmp_path):
    full_dir, partial_dir = tmp_path / "full", tmp_path / "partial"
    cfg = ScanConfig(**SMALL_SCAN)
    run_scan(cfg, str(full_dir))
    columns, rows = read_table(str(full_dir / "combined.tsv"))
    kept = [r for i, r in enumerate(rows) if i % 2 == 0]
    os.makedirs(partial_dir)
    write_table(str(partial_dir / "combined.tsv"), columns, kept)
    (partial_dir / "meta.json").write_bytes((full_dir / "meta.json").read_bytes())
    run_scan(cfg, str(partial_dir))
    assert_trees_identical(str(full_dir), str(partial_dir))


def one_cpu(monkeypatch):
    """Compute every row in this process, where the calls a test records are seen."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def test_interrupted_scan_keeps_finished_rows_and_resumes(tmp_path, monkeypatch):
    cfg = ScanConfig(**SMALL_SCAN)
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    run_scan(cfg, str(fresh))
    one_cpu(monkeypatch)
    row_ansatz = scan._scan_row_ansatz
    calls = []

    def interrupt_sixth(*args):
        calls.append(args)
        if len(calls) == 6:
            raise KeyboardInterrupt
        return row_ansatz(*args)

    monkeypatch.setattr(scan, "_scan_row_ansatz", interrupt_sixth)
    with pytest.raises(KeyboardInterrupt):
        run_scan(cfg, str(out))
    # Points run in grid order, each in METHODS order: the 4 rows at 0.0 and
    # ED, CS1, CSS1 at 0.3 survive, each as the full run wrote it.
    kept = (out / "combined.tsv").read_text().splitlines()
    assert len(kept) == 1 + 4 + 3
    assert set(kept) <= set((fresh / "combined.tsv").read_text().splitlines())

    calls.clear()
    monkeypatch.setattr(scan, "_scan_row_ansatz", lambda *args: calls.append(args) or row_ansatz(*args))
    run_scan(cfg, str(out))
    assert [(lam, method) for _, lam, method, _ in calls] == [(0.3, "CSS2")] + [
        (lam, method) for lam in cfg.grid()[2:] for method in ("CS1", "CSS1", "CSS2")
    ]
    assert_trees_identical(str(fresh), str(out))


def record_stages(monkeypatch):
    """[(row method, stage kind)] of every objective the solves bind, in call order."""
    stages, current = [], [None]
    bind = optimize.objective
    row_ansatz = scan._scan_row_ansatz

    def recorded(params, kind, parity="even"):
        stages.append((current[0], kind.value))
        return bind(params, kind, parity)

    def labelled(cfg, lam, method, stages):
        current[0] = method
        return row_ansatz(cfg, lam, method, stages)

    monkeypatch.setattr(optimize, "objective", recorded)
    monkeypatch.setattr(scan, "_scan_row_ansatz", labelled)
    return stages


# delta 10, tau 1.5: CSS2 reports its reduction at lambda 0 and 0.6, where
# its guard, the CS2 stage, allows it, and not at 0.15 and 0.3.
GUARD_SCAN = dict(delta=10.0, tau=1.5, lambda_min=0.0, lambda_max=0.6, lambda_step=0.15, methods=scan.METHODS,
                  n_tr=128)


@pytest.mark.parametrize("stored", [
    lambda method, i: method in ("ED", "CS1", "CSS1"),
    lambda method, i: method in ("CS2", "CSS2"),
    lambda method, i: (scan.METHODS.index(method) + i) % 2 == 0,
    lambda method, i: i != 2,
    lambda method, i: False,
], ids=["single-packet", "two-packet", "checkerboard", "all-but-one-point", "none"])
def test_resume_with_any_rows_stored_gives_the_fresh_tree(tmp_path, monkeypatch, stored):
    # A recomputed CS2/CSS2 row solves the stages its stored CS1/CSS1/CS2 rows came from again.
    cfg = ScanConfig(**GUARD_SCAN)
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    run_scan(cfg, str(fresh))
    header, rows = read_table(str(fresh / "combined.tsv"))
    grid = cfg.grid()
    out.mkdir()
    (out / "meta.json").write_bytes((fresh / "meta.json").read_bytes())
    write_table(str(out / "combined.tsv"), header, [r for r in rows if stored(r["method"], grid.index(r["lambda"]))])
    one_cpu(monkeypatch)
    run_scan(cfg, str(out))
    assert_trees_identical(str(fresh), str(out))


@pytest.mark.parametrize("methods", [("CSS2",), ("CS2", "CSS2")])
def test_two_packet_rows_do_not_depend_on_the_other_methods(tmp_path, methods):
    everything = tmp_path / "all"
    run_scan(ScanConfig(**GUARD_SCAN), str(everything))
    run_scan(ScanConfig(**(GUARD_SCAN | {"methods": methods})), str(tmp_path / "some"))
    for method in methods:
        assert (tmp_path / "some" / f"{method}.tsv").read_bytes() == (everything / f"{method}.tsv").read_bytes()


def test_read_table_drops_cut_off_last_line(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("a\tb\n1.0\t2.0\n3.0\t4")
    assert read_table(str(path)) == (["a", "b"], [{"a": 1.0, "b": 2.0}])
    path.write_text("a\tb\n1.0\t2.0\n3.0\n")
    assert read_table(str(path)) == (["a", "b"], [{"a": 1.0, "b": 2.0}])


def cut_off_in_write_whole(monkeypatch, prefix):
    """Interrupt write_whole of each file named prefix*, after its .tmp is written and before the rename."""
    rename = os.replace

    def interrupted(src, dst):
        if os.path.basename(dst).startswith(prefix):
            raise KeyboardInterrupt
        rename(src, dst)

    monkeypatch.setattr(os, "replace", interrupted)


@pytest.mark.parametrize("earlier", ["scan", "wavefunction", "wavefunction-cut-in-write"])
def test_scan_rerun_with_other_physics_recomputes_every_row(tmp_path, monkeypatch, earlier):
    # Stored rows of another detuning must not survive under the new
    # meta.json.  Nor may a wavefunction run's profiles, or the .tmp file of
    # a profile write it was cut off in, which a scan used to leave.
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    if earlier == "scan":
        run_scan(ScanConfig(**(SMALL_SCAN | {"delta": 10.0})), str(reused))
    elif earlier == "wavefunction":
        run_wavefunction(WavefunctionConfig(**WF_ED), str(reused))
    else:
        cut_off_in_write_whole(monkeypatch, "wf_")
        with pytest.raises(KeyboardInterrupt):
            run_wavefunction(WavefunctionConfig(**WF_ED), str(reused))
        monkeypatch.undo()
        assert sorted(os.listdir(reused)) == ["meta.json", "wf_ED_lam0.9.tsv.tmp"]
    run_scan(ScanConfig(**(SMALL_SCAN | {"delta": 50.0})), str(reused))
    run_scan(ScanConfig(**(SMALL_SCAN | {"delta": 50.0})), str(fresh))
    assert_trees_identical(str(fresh), str(reused))


@pytest.mark.parametrize("meta", ["{not json", '{"command": "scan"}', '["scan"]', '{"command": "scan", "config": 1}'])
def test_scan_rerun_over_unreadable_meta_recomputes_every_row(tmp_path, meta):
    # Rows stored under a meta.json that records no config are never reused.
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    run_scan(ScanConfig(**(SMALL_SCAN | {"delta": 10.0})), str(reused))
    (reused / "meta.json").write_text(meta)
    run_scan(ScanConfig(**(SMALL_SCAN | {"delta": 50.0})), str(reused))
    run_scan(ScanConfig(**(SMALL_SCAN | {"delta": 50.0})), str(fresh))
    assert_trees_identical(str(fresh), str(reused))


def test_rerun_reuses_rows_across_grid_and_methods(tmp_path, monkeypatch):
    out = tmp_path / "scan"
    run_scan(ScanConfig(**(SMALL_SCAN | {"methods": ("ED", "CS1")})), str(out))

    def recompute(*args, **kwargs):
        raise AssertionError("a stored row was recomputed")

    monkeypatch.setattr(scan, "solve_parity_sector", recompute)
    rows = run_scan(ScanConfig(**(SMALL_SCAN | {"methods": ("ED",), "lambda_max": 0.6})), str(out))
    assert [r["lambda"] for r in rows] == [0.0, 0.3, 0.6]


def test_scan_rerun_with_fewer_methods_leaves_no_stale_method_table(tmp_path):
    # A <method>.tsv of the earlier run's config must not sit beside the new meta.json.
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    grid = ["--lambda-min", "0", "--lambda-max", "0.3", "--lambda-step", "0.3", "--ntr", "64"]
    assert main(["scan", "--out", str(reused), "--delta", "20", "--methods", "ED,CS1", *grid]) == 0
    assert (reused / "CS1.tsv").exists()
    assert main(["scan", "--out", str(reused), "--delta", "30", "--methods", "ED", *grid]) == 0
    assert not (reused / "CS1.tsv").exists()
    assert main(["scan", "--out", str(fresh), "--delta", "30", "--methods", "ED", *grid]) == 0
    assert_trees_identical(str(fresh), str(reused))


@pytest.mark.parametrize("run, cfg, row_ed", [
    (run_scan, ScanConfig(delta=20.0, lambda_min=0.0, lambda_max=0.3, lambda_step=0.3, methods=("ED", "CS1"),
                          n_tr=64), "_scan_row_ed"),
    (run_levels, LevelsConfig(delta=20.0, tau=0.5, g_min=0.98, g_max=1.02, g_step=0.04, n_tr=96), "_levels_row_ed"),
], ids=["scan", "levels"])
def test_interrupted_rerun_with_other_physics_leaves_no_file_of_the_earlier_run(tmp_path, monkeypatch, run, cfg,
                                                                                row_ed):
    # A rerun at another detuning, interrupted in its second point, used to
    # leave the earlier run's <method>.tsv tables and plot.gp beside the new
    # meta.json.
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    run(cfg, str(out))
    rerun = replace(cfg, delta=30.0)
    run(rerun, str(fresh))
    one_cpu(monkeypatch)
    compute = getattr(scan, row_ed)
    calls = []

    def interrupt_second_point(*args):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return compute(*args)

    monkeypatch.setattr(scan, row_ed, interrupt_second_point)
    with pytest.raises(KeyboardInterrupt):
        run(rerun, str(out))
    assert sorted(os.listdir(out)) == ["combined.tsv", "meta.json"]
    assert json.loads((out / "meta.json").read_text())["config"]["delta"] == 30.0
    kept = (out / "combined.tsv").read_text().splitlines()
    assert len(kept) == 1 + 2  # the header and both rows of the first point, as the fresh run wrote them
    assert set(kept) <= set((fresh / "combined.tsv").read_text().splitlines())

    monkeypatch.setattr(scan, row_ed, compute)
    run(rerun, str(out))
    assert_trees_identical(str(fresh), str(out))


@pytest.mark.parametrize("parity, other_parity", [("even", "odd"), ("odd", "even")])
@pytest.mark.parametrize("ratio", [0.9, 1.2])
def test_scan_ed_rows_come_from_the_scanned_parity(tmp_path, parity, other_parity, ratio):
    # At delta 8, tau 0.5 the even level lies lowest at 0.9 g_c1 and the odd
    # one at 1.2 g_c1, so at one of the two the lowest level of both sectors
    # has the other parity.
    g = ratio * ModelParams(delta=8.0, g=1.0, tau=0.5).g_c1
    lam = ModelParams(delta=8.0, omega=1.0, g=g, tau=0.5).lam
    cfg = ScanConfig(delta=8.0, tau=0.5, lambda_min=lam, lambda_max=lam, lambda_step=0.1,
                     methods=("ED",), parity=parity)
    (row,) = run_scan(cfg, str(tmp_path / parity))
    mp = ModelParams.from_lambda(8.0, row["lambda"], 1.0, 0.5)
    sector = solve_parity_sector(mp, Truncation(cfg.n_tr), parity).energy
    other = solve_parity_sector(mp, Truncation(cfg.n_tr), other_parity).energy
    assert row["parity"] == parity and row["energy"] == sector
    assert abs(sector - other) > 1e-8  # the two sectors are told apart here


@pytest.mark.parametrize("delta", [1.0, 8.0, 100.0])
@pytest.mark.parametrize("tau", [0.5, 1.0, 1.5])
def test_scan_rows_keep_the_family_ordering(tmp_path, delta, tau):
    cfg = ScanConfig(delta=delta, tau=tau, lambda_max=1.5, lambda_step=0.1, methods=scan.METHODS)
    points = {}
    for row in run_scan(cfg, str(tmp_path / "scan")):
        assert row["converged"]
        points.setdefault(row["lambda"], {})[row["method"]] = row["energy"]
    assert len(points) == len(cfg.grid())
    for lam, e in points.items():
        for lower, upper in (("CSS2", "CS2"), ("CSS2", "CSS1"), ("CSS1", "CS1"), ("CS2", "CS1")):
            assert e[lower] <= e[upper] + 1e-8 * max(1.0, abs(e[upper])), (lam, lower, upper)


def test_scan_solves_each_stage_once_per_point(tmp_path, monkeypatch):
    # CS2/CSS2 reuse the CS1/CSS1 optimum for their single-packet stage, and
    # CSS2's guard reads CS2's two-packet optimum: single-packet objectives
    # are bound only in CS1/CSS1 rows and the unsqueezed two-packet one only
    # in CS2 rows.
    one_cpu(monkeypatch)
    stages = record_stages(monkeypatch)
    cfg = ScanConfig(delta=100.0, tau=1.0, lambda_max=1.5, lambda_step=0.1, methods=scan.METHODS)
    rows = run_scan(cfg, str(tmp_path / "a"))
    assert any(r["method"] == "CSS2" and r["c2"] == 0.0 for r in rows)  # the guard was read
    assert {m for m, kind in stages if kind in ("CS1", "CSS1")} == {"CS1", "CSS1"}
    assert {m for m, kind in stages if kind == "CS2"} == {"CS2"}


@pytest.mark.parametrize("call", ["scan", "physics_checks"])
def test_no_stage_outlives_a_call(tmp_path, monkeypatch, call):
    # Two identical calls in one process bind the same objectives: a stage
    # memo that outlived its call would let the second skip work.
    one_cpu(monkeypatch)
    stages = record_stages(monkeypatch)
    bound = []
    for out in ("a", "b"):
        stages.clear()
        if call == "scan":
            run_scan(ScanConfig(**SMALL_SCAN), str(tmp_path / out))
        else:
            verify.physics_checks()
        bound.append(list(stages))
    assert bound[0] and bound[1] == bound[0]


@pytest.mark.parametrize("other", [
    dict(lambda_step=0.15),  # a finer grid through the same points
    dict(lambda_min=0.6, lambda_max=1.5),  # a shifted grid sharing 0.6 and 0.9
    dict(methods=("CSS2", "ED", "CS1", "CSS1")),  # the methods in another order
])
def test_scan_rows_depend_only_on_their_point(tmp_path, monkeypatch, other):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    base = run_scan(ScanConfig(**SMALL_SCAN), str(tmp_path / "base"))
    rows = {(r["method"], r["lambda"]): r for r in run_scan(ScanConfig(**(SMALL_SCAN | other)), str(tmp_path / "other"))}
    shared = [r for r in base if (r["method"], r["lambda"]) in rows]
    assert len(shared) >= 2 * len(SMALL_SCAN["methods"])
    for row in shared:
        assert row == rows[(row["method"], row["lambda"])]


def record_points(monkeypatch, name, log):
    """Replace scan.<name>(cfg, point, ...) by one that appends "<pid> <point>" to log."""
    row = getattr(scan, name)

    def recorded(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {args[1]!r}\n")
        return row(*args)

    monkeypatch.setattr(scan, name, recorded)


def assert_shared_once(log, grid):
    """Each grid point was computed once, and this process and at least one worker computed them."""
    pids, points = zip(*(line.split() for line in log.read_text().splitlines()))
    assert sorted(map(float, points)) == sorted(grid)
    assert str(os.getpid()) in pids and len(set(pids)) >= 2


def test_scan_trees_from_one_and_two_cpus_identical(tmp_path, monkeypatch):
    cfg = ScanConfig(**(SMALL_SCAN | {"methods": scan.METHODS}))
    one_cpu(monkeypatch)
    run_scan(cfg, str(tmp_path / "serial"))
    record_points(monkeypatch, "_scan_row_ed", tmp_path / "points")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    run_scan(cfg, str(tmp_path / "pooled"))
    assert_shared_once(tmp_path / "points", cfg.grid())
    assert_trees_identical(str(tmp_path / "serial"), str(tmp_path / "pooled"))


@pytest.mark.parametrize("fail_at", [None, 150])
def test_shared_counter_hands_out_each_task_once(tmp_path, monkeypatch, fail_at):
    # Four processes race for 200 quick tasks: a lost update of the shared
    # counter would compute a task twice, or never and hang.
    log = tmp_path / "log"

    def rows_at(i):
        with open(log, "a") as fh:
            fh.write(f"{i}\n")
        if i == fail_at:
            raise ValueError(f"task {i} failed")
        yield i

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    kept = []
    tasks = [(i,) for i in range(200)]
    if fail_at is None:
        assert scan._mapped_rows(rows_at, tasks, lambda row: kept.append(row) or row) == list(range(200))
    else:
        with pytest.raises(ValueError, match=f"task {fail_at} failed"):
            scan._mapped_rows(rows_at, tasks, kept.append)
    computed = [int(i) for i in log.read_text().split()]
    assert len(set(computed)) == len(computed)  # no task twice
    if fail_at is None:
        assert kept == sorted(computed) == list(range(200))
    else:  # every task up to the failed one, and only the rows before it kept
        assert set(range(fail_at + 1)) <= set(computed) and kept == list(range(fail_at))


def test_pooled_scan_resumes_byte_identical(tmp_path, monkeypatch):
    # Every other stored row, over all methods and points, is recomputed in workers.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = ScanConfig(**(SMALL_SCAN | {"methods": scan.METHODS}))
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    run_scan(cfg, str(fresh))
    columns, rows = read_table(str(fresh / "combined.tsv"))
    os.makedirs(out)
    write_table(str(out / "combined.tsv"), columns, rows[1::2])
    (out / "meta.json").write_bytes((fresh / "meta.json").read_bytes())
    run_scan(cfg, str(out))
    assert_trees_identical(str(fresh), str(out))


@pytest.mark.parametrize("methods, parity", [(("ED", "CS3"), "even"), (("ED", "CS1"), "odd")])
def test_scan_rejects_inputs_before_writing(tmp_path, capsys, methods, parity):
    out = tmp_path / "scan"
    with pytest.raises(ValueError, match=methods[1]):
        run_scan(ScanConfig(**(SMALL_SCAN | {"methods": methods, "parity": parity})), str(out))
    assert not out.exists()
    argv = ["scan", "--out", str(out), "--delta", "20", "--methods", ",".join(methods), "--parity", parity]
    assert methods[1] in cli_error(argv, capsys)
    assert not out.exists()


def test_scan_cli_flags_override_config(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"delta": 50.0, "lambda_max": 0.4, "lambda_step": 0.2, "methods": ["ED"], "n_tr": 64}))
    out = tmp_path / "out"
    rc = main(
        [
            "scan",
            "--config",
            str(cfg_file),
            "--delta",
            "10",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config"]["delta"] == 10.0
    assert meta["config"]["lambda_max"] == 0.4
    assert meta["version"]


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"bogus": 1}))
    assert "bogus" in cli_error(["scan", "--config", str(cfg_file), "--out", str(tmp_path / "x")], capsys)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["scan", "levels", "wavefunction"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--delta", "0"], "delta must be positive"),
        (["--delta", "-1"], "delta must be positive"),
        (["--omega", "0"], "omega must be positive"),
        (["--tau", "-0.5"], "tau must be non-negative"),
        (["--{axis}-step", "0"], "_step must be positive"),
        (["--{axis}-step", "-0.1"], "_step must be positive"),
        (["--{axis}-step", "nan"], "_step must be positive"),
        (["--{axis}-min", "1", "--{axis}-max", "0.5"], "_max >= "),
        (["--{axis}-max", "inf"], "_max >= "),
        (["--{axis}-step", "5e-324"], "grid points"),
        (["--{axis}-step", "1e-300"], "grid points"),
        (["--ntr", "-1"], "n_tr must be a non-negative integer"),
        (["--config", "n_tr=96.5"], "n_tr must be a non-negative integer"),
        (["--config", "tail_tol=0"], "tail_tol must be positive"),
        (["--config", "tail_tol=1"], "tail_tol must be positive and below 1"),
        (["--config", "tail_tol=inf"], "tail_tol must be positive and below 1"),
        (["--delta", "inf"], "delta must be finite"),
        (["--omega", "inf"], "omega must be finite"),
        (["--tau", "nan"], "tau must be finite"),
        (["{low}", "-0.1"], "must be non-negative and finite"),
        (["{low}", "nan"], "must be non-negative and finite"),
        (["{low}", "inf"], "must be non-negative and finite"),
        # the ED chain solve raised LinAlgError here, CS1 OverflowError at 1e160
        (["{low}", "1e152", "{high}", "1e152"], "is too large"),
        (["{low}", "1e160", "{high}", "1e160"], "is too large"),
        (["--delta", "1e306"], "is too large"),  # the default couplings, at g ~ 1e153
    ],
)
def test_cli_rejects_unphysical_model_before_writing(tmp_path, capsys, command, flags, message):
    out = tmp_path / "x"
    axis = {"scan": "lambda", "levels": "g", "wavefunction": "x"}[command]
    low = {"scan": "--lambda-min", "levels": "--g-min", "wavefunction": "--lambdas"}[command]  # lowest coupling
    high = {"scan": "--lambda-max", "levels": "--g-max", "wavefunction": "--lambdas"}[command]  # highest coupling
    argv = [command, "--out", str(out), "--tau", "0.5"]
    for flag, value in zip(flags[::2], flags[1::2]):
        if flag == "--config":  # n_tr and tail_tol values the flags cannot carry
            key, text = value.split("=")
            (tmp_path / "cfg.json").write_text(json.dumps({key: float(text)}))
            value = str(tmp_path / "cfg.json")
        argv += [flag.format(axis=axis, low=low, high=high), value]
    assert message in cli_error(argv, capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "lam, n_tr, accepted",
    [(2e151, 256, True), (4e151, 256, True), (2e151, 8192, True), (4e151, 8192, False)],
)
def test_largest_couplings_that_run_depend_on_the_cutoff(lam, n_tr, accepted):
    # At delta 100, tau 1 the squared chain links must stay finite at the larger
    # of n_tr and the cutoff cap 4096: 4e151 overflows them at 8192 only.
    gc1 = ModelParams(delta=100.0, g=1.0, tau=0.5).g_c1
    g_ratio = ModelParams.from_lambda(100.0, lam).g / gc1
    for cfg in (ScanConfig(lambda_min=lam, lambda_max=lam, n_tr=n_tr), WavefunctionConfig(lambdas=(lam,), n_tr=n_tr),
                LevelsConfig(g_min=g_ratio, g_max=g_ratio, n_tr=n_tr)):
        if accepted:
            scan._check_model(cfg)
        else:
            with pytest.raises(InvalidConfig, match=f"is too large.*n = {n_tr}"):
                scan._check_model(cfg)


@pytest.mark.parametrize("n_tr, accepted", [(N_TR_MAX, True), (N_TR_MAX + 1, False)])
def test_cutoff_bound_is_checked_before_the_coupling(n_tr, accepted):
    # At lambda 0 no coupling can overflow, so only the cutoff bound decides.
    for cfg in (ScanConfig(lambda_min=0.0, lambda_max=0.0, n_tr=n_tr), WavefunctionConfig(lambdas=(0.0,), n_tr=n_tr),
                LevelsConfig(g_min=0.0, g_max=0.0, n_tr=n_tr)):
        if accepted:
            scan._check_model(cfg)
        else:
            with pytest.raises(InvalidConfig, match=f"n_tr must be a non-negative integer at most {N_TR_MAX}"):
                scan._check_model(cfg)


@pytest.mark.parametrize("n_tr", [10**300, 10**400], ids=["1e300", "1e400"])
def test_cli_rejects_a_cutoff_above_the_bound_before_writing(tmp_path, capsys, n_tr):
    # 10**400 ended in an OverflowError traceback from the coupling check;
    # 10**300 passed it, wrote meta.json and combined.tsv, then failed to
    # allocate its chain.
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"n_tr": n_tr}))
    out = tmp_path / "x"
    argv = ["scan", "--config", str(cfg_file), "--out", str(out), "--delta", "8", "--lambda-min", "0",
            "--lambda-max", "0", "--methods", "ED"]
    assert f"n_tr must be a non-negative integer at most {N_TR_MAX}" in cli_error(argv, capsys)
    assert not out.exists()


def test_cli_rejects_coupling_that_overflows_above_the_cutoff_cap(tmp_path, capsys):
    # A start cutoff above the cap is never lowered, so its chain links must stay finite too.
    out = tmp_path / "x"
    argv = ["scan", "--out", str(out), "--delta", "100", "--tau", "1", "--lambda-min", "4e151",
            "--lambda-max", "4e151", "--lambda-step", "1", "--methods", "ED", "--ntr", "8192"]
    assert "is too large" in cli_error(argv, capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, config, message",
    [
        ("wavefunction", ["--lambdas", "a,b"], None, "lambdas must be a comma list of numbers"),
        ("wavefunction", [], {"lambdas": ["a"]}, "lambdas must be a number"),
        ("scan", [], {"methods": 5}, "methods must be a comma list or a JSON list"),
        ("scan", ["--methods", ","], None, "methods must not be empty"),
        ("scan", [], {"methods": []}, "methods must not be empty"),
        ("scan", ["--methods", "CS1,CS1"], None, "methods must not repeat a value, got 'CS1' twice"),
        ("levels", ["--methods", ","], None, "methods must not be empty"),
        ("levels", ["--methods", "ED,CSS2,ED"], None, "methods must not repeat a value, got 'ED' twice"),
        ("wavefunction", ["--lambdas", ","], None, "lambdas must not be empty"),
        ("wavefunction", [], {"lambdas": []}, "lambdas must not be empty"),
        ("wavefunction", ["--lambdas", "0.9,1.1,0.90"], None, "lambdas must not repeat a value, got 0.9 twice"),
        ("scan", [], "missing", "cannot read config"),
        ("scan", [], "{delta: 1}", "cannot read config"),
        ("scan", [], [1, 2], "must hold a JSON object, got list"),
        ("scan", [], {"delta": "abc"}, "delta must be a number, got 'abc'"),
        ("levels", [], {"tau": True}, "tau must be a number, got True"),
        ("wavefunction", [], {"n_tr": False}, "n_tr must be a number, got False"),
        ("verify", ["--seed", "-1"], None, "seed must be non-negative, got -1"),
        # argparse choices used to reject these flags with a usage block
        ("scan", ["--parity", "up"], None, "parity must be even or odd, got 'up'"),
        ("wavefunction", ["--source", "XX"], None, "source must be ED or CSS2, got 'XX'"),
        # {file} is an existing file; the later --out wins
        ("scan", ["--out", "{file}"], None, "--out must name a directory"),
        ("levels", ["--out", "{file}"], None, "--out must name a directory"),
        ("wavefunction", ["--out", "{file}/sub"], None, "--out must name a directory"),
        ("verify", ["--out", "{file}"], None, "--out must name a directory"),
    ],
)
def test_cli_rejects_malformed_input_before_writing(tmp_path, capsys, monkeypatch, command, flags, config, message):
    out = tmp_path / "x"
    existing = tmp_path / "file"
    existing.write_text("kept\n")
    monkeypatch.setattr(cli, "run_all", lambda **kw: pytest.fail("verify ran its checks"))
    argv = [command, "--out", str(out), *(flag.format(file=existing) for flag in flags)]
    if config is not None:
        cfg_file = tmp_path / "cfg.json"
        if config != "missing":
            cfg_file.write_text(config if isinstance(config, str) else json.dumps(config))
        argv += ["--config", str(cfg_file)]
    assert message in cli_error(argv, capsys)
    assert not out.exists()
    assert existing.read_text() == "kept\n"


def test_infinite_tail_tol_rejected_before_a_truncated_row_is_written(tmp_path, capsys):
    # With tail_tol inf, n_tr 8 passed the truncation check: the ED row read
    # -53.5 with converged=1, above the CSS2 row, where the ground energy is -61.8.
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"tail_tol": math.inf}))
    argv = ["scan", "--config", str(cfg_file), "--out", str(tmp_path / "x"), "--ntr", "8",
            "--lambda-min", "1.4", "--lambda-max", "1.4", "--methods", "ED,CSS2"]
    assert "tail_tol" in cli_error(argv, capsys)
    assert not (tmp_path / "x").exists()
    res = solve_parity_sector(ModelParams.from_lambda(100.0, 1.4), Truncation(8), "even")
    assert res.energy == pytest.approx(-61.826, abs=1e-3)


@pytest.mark.parametrize(
    "command, cfg, axis",
    [
        ("scan", ScanConfig(delta=8.0, lambda_max=1.0, lambda_step=0.6, methods=("ED",), n_tr=32), "lambda"),
        ("levels", LevelsConfig(delta=8.0, tau=0.5, g_min=0.9, g_max=1.0, g_step=0.06, methods=("ED",), n_tr=32),
         "g_ratio"),
        ("wavefunction", WavefunctionConfig(delta=8.0, lambdas=(0.5,), x_min=-1.0, x_max=1.0, x_step=0.3, n_tr=32),
         "x"),
    ],
)
def test_grid_stops_at_its_max(tmp_path, command, cfg, axis):
    # The point count used to be rounded, so lambda 1.2, g/g_c1 1.02 and x 1.1 were written.
    run = {"scan": run_scan, "levels": run_levels, "wavefunction": run_wavefunction}[command]
    run(cfg, str(tmp_path))
    name = "wf_ED_lam0.5.tsv" if command == "wavefunction" else "combined.tsv"
    values = [row[axis] for row in read_table(str(tmp_path / name))[1]]
    expected = {"scan": [0.0, 0.6], "levels": [0.9, 0.96], "wavefunction": [-1.0, -0.7, -0.4, -0.1, 0.2, 0.5, 0.8]}
    assert values == pytest.approx(expected[command], abs=1e-12)


def _env_with_src():
    src = os.path.dirname(os.path.dirname(rabivar.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


SMALL_LEVELS = dict(delta=8.0, tau=0.5, g_min=0.96, g_max=1.04, g_step=0.02, n_tr=96)


def test_pooled_levels_equal_rows_computed_in_process(tmp_path, monkeypatch):
    cfg = LevelsConfig(**SMALL_LEVELS)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one CPU: every row in this process
    serial = run_levels(cfg, str(tmp_path / "serial"))
    record_points(monkeypatch, "_levels_row_ed", tmp_path / "points")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pooled = run_levels(cfg, str(tmp_path / "pooled"))
    assert_shared_once(tmp_path / "points", cfg.grid())
    assert pooled == serial
    assert_trees_identical(str(tmp_path / "serial"), str(tmp_path / "pooled"))


def test_levels_worker_error_propagates_and_keeps_earlier_rows(tmp_path, monkeypatch):
    cfg = LevelsConfig(**SMALL_LEVELS)
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    run_levels(cfg, str(fresh))
    row_css2 = scan._levels_row_css2

    def fail_at_crossing(cfg, ratio, gc1):
        if ratio == 1.0:
            raise RuntimeError("row failed in a worker")
        return row_css2(cfg, ratio, gc1)

    monkeypatch.setattr(scan, "_levels_row_css2", fail_at_crossing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(RuntimeError, match="row failed in a worker"):
        run_levels(cfg, str(out))
    # Both rows of every point before the failed one in grid order, point by
    # point, as the full run wrote them: ED and CSS2 at 0.96, then at 0.98.
    lines = (fresh / "combined.tsv").read_text().splitlines()
    ed, css2 = lines[1:6], lines[6:]
    kept = (out / "combined.tsv").read_text().splitlines()
    assert kept == [lines[0], ed[0], css2[0], ed[1], css2[1]]

    monkeypatch.setattr(scan, "_levels_row_css2", row_css2)
    run_levels(cfg, str(out))
    assert_trees_identical(str(fresh), str(out))


def run_script(code, *args):
    """(exit status, stderr) of a Python script run on two worker CPUs; a run over 60 s fails the test."""
    preamble = "import os\nos.sched_getaffinity = lambda pid: {0, 1}\n"
    proc = subprocess.Popen([sys.executable, "-c", preamble + code, *map(str, args)], env=_env_with_src(),
                            start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        err = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # the run and any worker it left
    except ProcessLookupError:
        pass
    if err is None:
        proc.communicate()
        pytest.fail("the run hung")
    return proc.returncode, err.decode()


def test_levels_worker_exit_reaches_the_parent(tmp_path):
    # A SystemExit in a worker used to end the worker, and the parent then
    # waited for its row forever.
    code = """
import json, sys
import rabivar.scan as scan
from rabivar.scan import LevelsConfig, run_levels

row_css2 = scan._levels_row_css2

def exit_at_crossing(cfg, ratio, gc1):
    if ratio == 1.0:
        sys.exit(3)
    return row_css2(cfg, ratio, gc1)

scan._levels_row_css2 = exit_at_crossing
run_levels(LevelsConfig(**json.loads(sys.argv[2])), sys.argv[1])
"""
    out = tmp_path / "levels"
    status, err = run_script(code, out, json.dumps(SMALL_LEVELS))
    assert status == 3, err
    assert len((out / "combined.tsv").read_text().splitlines()) == 1 + 2 * 2  # the points 0.96 and 0.98


@pytest.mark.parametrize("death, code", [
    ("os._exit(7)", 7),
    ("os.kill(os.getpid(), signal.SIGKILL)", -signal.SIGKILL),
])
def test_dead_worker_ends_the_scan_with_its_point(tmp_path, death, code):
    # A worker that died mid-point used to leave the parent waiting for that
    # point forever.  Here the first point a worker takes kills it.  The
    # caller's first point waits, at most 30 s, until a worker has taken a
    # point, so a worker slow to start cannot find every point taken.
    script = f"""
import json, multiprocessing, os, signal, sys, time
import rabivar.scan as scan
from rabivar.scan import ScanConfig, run_scan

caller, row_ed, taken = os.getpid(), scan._scan_row_ed, sys.argv[3]

def die_in_worker(cfg, lam):
    if os.getpid() != caller:
        open(taken, "w").close()
        {death}
    deadline = time.monotonic() + 30
    while not os.path.exists(taken) and time.monotonic() < deadline:
        time.sleep(0.01)
    return row_ed(cfg, lam)

scan._scan_row_ed = die_in_worker
try:
    run_scan(ScanConfig(**json.loads(sys.argv[2])), sys.argv[1])
finally:
    assert not multiprocessing.active_children(), "a worker outlived the run"
"""
    cfg = ScanConfig(**SMALL_SCAN)
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    run_scan(cfg, str(fresh))
    status, err = run_script(script, out, json.dumps(SMALL_SCAN), tmp_path / "taken")
    assert status == 1, err
    found = re.fullmatch(rf"RuntimeError: worker process \d+ ended with exit code {code} "
                         r"while computing grid point (\S+)", err.splitlines()[-1])
    assert found, err
    lost = float(found.group(1))
    assert lost in cfg.grid()
    lines = (fresh / "combined.tsv").read_text().splitlines()
    kept = (out / "combined.tsv").read_text().splitlines()
    assert kept[0] == lines[0]
    assert sorted(kept[1:]) == sorted(line for line in lines[1:] if float(line.split("\t")[0]) < lost)
    run_scan(cfg, str(out))
    assert_trees_identical(str(fresh), str(out))


def test_interrupted_pooled_scan_keeps_finished_points_and_resumes(tmp_path):
    # A KeyboardInterrupt raised in a point, in a worker or in the calling
    # process, ends the run once the points before it are kept, and stops
    # the workers.
    code = """
import json, sys
import rabivar.scan as scan
from rabivar.scan import ScanConfig, run_scan

row_ansatz = scan._scan_row_ansatz

def interrupt_at(cfg, lam, method, stages):
    if (lam, method) == (0.6, "CSS1"):
        raise KeyboardInterrupt
    return row_ansatz(cfg, lam, method, stages)

scan._scan_row_ansatz = interrupt_at
run_scan(ScanConfig(**json.loads(sys.argv[2])), sys.argv[1])
"""
    cfg = ScanConfig(**SMALL_SCAN)
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    run_scan(cfg, str(fresh))
    status, err = run_script(code, out, json.dumps(SMALL_SCAN))
    assert status == -signal.SIGINT and "KeyboardInterrupt" in err
    lines = (fresh / "combined.tsv").read_text().splitlines()
    kept = (out / "combined.tsv").read_text().splitlines()
    assert kept[0] == lines[0]
    assert sorted(kept[1:]) == sorted(line for line in lines[1:] if float(line.split("\t")[0]) < 0.6)
    run_scan(cfg, str(out))
    assert_trees_identical(str(fresh), str(out))


def test_interrupted_levels_leaves_no_process(tmp_path):
    out = tmp_path / "levels"
    argv = [sys.executable, "-m", "rabivar", "levels", "--out", str(out), "--delta", "100", "--tau", "0.5",
            "--g-step", "0.0005"]
    proc = subprocess.Popen(argv, env=_env_with_src(), start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        combined = out / "combined.tsv"
        while not (combined.exists() and len(combined.read_text().splitlines()) > 3):
            assert proc.poll() is None, "the run ended before it was interrupted"
            time.sleep(0.02)
        seen = len(combined.read_text().splitlines())
        os.killpg(proc.pid, signal.SIGINT)  # as Ctrl-C does: to the parent and its workers
        _, err = proc.communicate(timeout=10)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == -signal.SIGINT and b"KeyboardInterrupt" in err
    deadline = time.monotonic() + 10
    while True:  # the workers stay in the parent's session and process group
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        assert time.monotonic() < deadline, "a worker outlived the interrupted run"
        time.sleep(0.05)
    _, rows = read_table(str(combined))
    assert len(rows) >= seen - 1 and len(rows) == len(combined.read_text().splitlines()) - 1


def test_levels_ed_rows_record_the_certified_solve(tmp_path):
    out = tmp_path / "levels"
    run_levels(LevelsConfig(**SMALL_LEVELS), str(out))
    columns, rows = read_table(str(out / "combined.tsv"))
    # appended after the columns plot.gp indexes
    assert columns[-5:] == ["converged", "n_tr_used", "split_error", "split_digits", "split_n_tr"]
    for row in rows:
        diagnostics = [row[c] for c in ("n_tr_used", "split_error", "split_digits", "split_n_tr")]
        if row["method"] == "CSS2":
            assert diagnostics == [None] * 4
            continue
        n_tr, error, digits, split_n_tr = diagnostics
        assert all(isinstance(v, int) for v in (n_tr, digits, split_n_tr))
        assert 96 <= n_tr <= split_n_tr and digits >= 90
        assert 0.0 < error < abs(row["splitting"])


def test_levels_rerun_over_other_columns_recomputes_every_row(tmp_path):
    # A combined.tsv written with other columns (an older version's) is not
    # reused, or its rows would come back with empty fields.
    cfg = LevelsConfig(**SMALL_LEVELS)
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    run_levels(cfg, str(fresh))
    run_levels(cfg, str(out))
    columns, rows = read_table(str(out / "combined.tsv"))
    write_table(str(out / "combined.tsv"), columns[:-1], rows)
    run_levels(cfg, str(out))
    assert_trees_identical(str(fresh), str(out))


def test_levels_on_resolvable_detuning(tmp_path):
    out = tmp_path / "levels"
    cfg = LevelsConfig(delta=8.0, tau=0.5, g_min=0.96, g_max=1.04, g_step=0.005, n_tr=96)
    rows = run_levels(cfg, str(out))
    meta = json.loads((out / "meta.json").read_text())
    assert meta["g_c1"] == pytest.approx(np.sqrt(8.0 / 0.75))
    # closed-form splitting gives an essentially exact location; the sector
    # solve is limited by the grid step around the degeneracy
    assert abs(meta["crossing"]["CSS2"] - 1.0) < 1e-6
    assert abs(meta["crossing"]["ED"] - 1.0) <= cfg.g_step
    ed = [r for r in rows if r["method"] == "ED"]
    assert all(r["splitting"] < 0 for r in ed if r["g_ratio"] < 0.99)
    assert all(r["splitting"] > 0 for r in ed if r["g_ratio"] > 1.01)
    assert all(r["mean_photon_ground"] >= 0 for r in ed)


def test_levels_records_every_crossing(tmp_path):
    # At detuning 8 the ED ground parity flips three times on 0.9-2.0 and the
    # two-packet ansatz's only once, at g_c1.  The grid point 1.00 is g_c1
    # itself, where the two-packet splitting is a few units of its rounding
    # (~1e-20) and may take either sign, so its crossing is pinned to g_c1
    # rather than to one side of it.
    out = tmp_path / "levels"
    run_levels(LevelsConfig(delta=8.0, tau=0.5, g_min=0.9, g_max=2.0, g_step=0.05), str(out))
    meta = json.loads((out / "meta.json").read_text())
    ed, css2 = meta["crossings"]["ED"], meta["crossings"]["CSS2"]
    assert len(ed) == 3 and len(css2) == 1
    for found, (lo, hi) in zip(ed, [(0.95, 1.0), (1.40, 1.45), (1.80, 1.85)]):
        assert lo < found <= hi
    assert abs(css2[0] - 1.0) <= 1e-12
    assert meta["crossing"] == {"ED": ed[0], "CSS2": css2[0]}


def test_levels_records_parity_disagreements_on_readme_grid(tmp_path):
    # At detuning 100 the certified ED splitting changes sign near 1.00,
    # 1.03, 1.06 and 1.09, the two-packet one only at g_c1, so the two put
    # the ground state in opposite parities on 1.035-1.06 and 1.095-1.10.
    out = tmp_path / "levels"
    run_levels(LevelsConfig(delta=100.0, tau=0.5, g_min=0.9, g_max=1.1, g_step=0.005), str(out))
    meta = json.loads((out / "meta.json").read_text())
    assert meta["parity_disagreements"] == [[1.035, 1.06], [1.095, 1.1]]


def test_parity_disagreements_need_a_sign_on_both_rows():
    def rows(method, splittings):
        return [{"method": method, "g_ratio": r, "splitting": v} for r, v in zip(grid, splittings)]

    grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    ed = rows("ED", [-1.0, 1.0, 1.0, None, 1.0, -2.0, -0.0])
    css2 = rows("CSS2", [-1.0, -1.0, -3.0, -1.0, -1.0, 1.0, 1.0])
    # 0.4 (ED unresolved) ends a run; 0.7 (a zero splitting) has no sign
    assert scan._parity_disagreements(ed + css2, grid) == [[0.2, 0.3], [0.5, 0.6]]
    assert scan._parity_disagreements(ed + ed, grid) == []


def test_zero_splitting_between_opposite_signs_is_the_crossing():
    # The two-packet splitting at g = g_c1 may come out exactly 0.0.
    assert scan._interp_crossings([0.95, 1.0, 1.05], [-6.58e-5, 0.0, 4.0e-6]) == [1.0]
    grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    assert scan._interp_crossings(grid, [-1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 2.0]) == [0.3]  # the middle zero of a run
    assert scan._interp_crossings(grid, [-1.0, 0.0, 0.0, 1.0, 0.0, -0.0, -1.0]) == [0.2, 0.5]  # even runs: the lower
    assert scan._interp_crossings(grid[:3], [0.0, -1.0, 0.0]) == []  # a zero at an end has no other side
    assert scan._interp_crossings(grid[:2], [-1.0, 3.0]) == [pytest.approx(0.125)]


def test_levels_unresolved_splitting_leaves_fields_empty(tmp_path, monkeypatch):
    monkeypatch.setattr(
        scan, "sector_splitting", lambda params, n_tr: SectorSplitting(None, math.inf, 240, n_tr)
    )
    out = tmp_path / "levels"
    cfg = LevelsConfig(delta=8.0, tau=0.5, g_min=0.98, g_max=1.02, g_step=0.02, n_tr=96,
                       methods=("ED",))
    run_levels(cfg, str(out))
    _, rows = read_table(str(out / "ED.tsv"))
    assert len(rows) == 3
    for row in rows:
        assert row["splitting"] is None and row["mean_photon_ground"] is None
        assert row["mean_photon_even"] is not None and row["converged"] == 1.0
        assert (row["split_error"], row["split_digits"], row["split_n_tr"]) == (math.inf, 240, row["n_tr_used"])
    assert json.loads((out / "meta.json").read_text())["crossing"]["ED"] is None


def test_levels_zero_css2_splitting_leaves_ground_photon_empty(tmp_path):
    # Far past g_c1 the closed-form two-packet splitting underflows to 0.0,
    # which carries no sign: no ground parity, as in an unresolved ED row.
    out = tmp_path / "levels"
    cfg = LevelsConfig(delta=100.0, tau=0.5, g_min=3.0, g_max=3.0, g_step=0.01, methods=("CSS2",))
    run_levels(cfg, str(out))
    _, rows = read_table(str(out / "CSS2.tsv"))
    assert len(rows) == 1 and rows[0]["splitting"] == 0.0 and rows[0]["converged"] == 1.0
    assert rows[0]["mean_photon_ground"] is None and rows[0]["mean_photon_even"] > 0.0
    assert json.loads((out / "meta.json").read_text())["crossings"]["CSS2"] == []


@pytest.mark.parametrize("ratio", [0.05, 0.2, 0.3, 0.5])
def test_levels_css2_splitting_at_a_reduced_even_optimum_is_the_energy_difference(ratio):
    # Below the delocalization threshold the even CSS2 optimum is the
    # single-packet reduction; the two-packet mirror formula there gives
    # about -delta, not the splitting.
    cfg = LevelsConfig(delta=100.0, tau=0.5, methods=("CSS2",))
    gc1 = ModelParams(delta=100.0, tau=0.5, g=1.0).g_c1
    mp = ModelParams(delta=100.0, tau=0.5, g=ratio * gc1)
    assert optimize.solve_ansatz(mp, AnsatzKind.CSS2, "even").reduced
    row = scan._levels_row_css2(cfg, ratio, gc1)
    assert row["converged"] and row["splitting"] == row["e_even"] - row["e_odd"]
    assert row["splitting"] == pytest.approx(sector_splitting(mp, 256).splitting, rel=1e-3)


def test_levels_decoupled_point_is_resolved(tmp_path):
    out = tmp_path / "levels"
    assert main(["levels", "--out", str(out), "--delta", "100", "--tau", "0.5",
                 "--g-min", "0", "--g-max", "0.01", "--g-step", "0.005"]) == 0
    _, rows = read_table(str(out / "ED.tsv"))
    assert [row["g_ratio"] for row in rows] == [0.0, 0.005, 0.01]
    decoupled = rows[0]
    assert decoupled["splitting"] == -1.0 and decoupled["split_digits"] == 90
    assert decoupled["split_error"] < 1e-80 and decoupled["mean_photon_ground"] == 0.0


def test_levels_css2_failure_keeps_best_so_far_energies(tmp_path, monkeypatch):
    # The even solve ends unconverged at a best-so-far state, the odd one reaches no finite energy.
    def unconverged(params, kind, parity="even", stages=None):
        if parity == "odd":
            return OptResult(kind, parity, math.inf, None, 8, math.inf, False)
        return OptResult(kind, parity, -4.25, PacketParams((1.0, 0.0), (1.0, -1.0), 0.0), 8, 1.0, False)

    monkeypatch.setattr(scan, "solve_ansatz", unconverged)
    out = tmp_path / "levels"
    cfg = LevelsConfig(delta=8.0, tau=0.5, g_min=1.0, g_max=1.0, g_step=0.01, methods=("CSS2",))
    run_levels(cfg, str(out))
    _, rows = read_table(str(out / "CSS2.tsv"))
    assert len(rows) == 1
    assert rows[0]["e_even"] == -4.25 and rows[0]["e_odd"] is None
    assert rows[0]["converged"] == 0.0 and rows[0]["splitting"] is None
    assert json.loads((out / "meta.json").read_text())["crossing"]["CSS2"] is None


def test_levels_gradient_unconverged_css2_row_enters_no_crossing(tmp_path):
    # At delta 100, tau 0.5, g/g_c1 0.12 the odd CSS2 solve stops at gradient
    # 3.2e-5, above GRAD_TOL.  Its row used to write the splitting -99.98 of
    # that unconverged pair, and the crossing search read it.
    out = tmp_path / "levels"
    cfg = LevelsConfig(delta=100.0, tau=0.5, g_min=0.11, g_max=0.13, g_step=0.01, methods=("CSS2",))
    run_levels(cfg, str(out))
    rows = {row["g_ratio"]: row for row in read_table(str(out / "CSS2.tsv"))[1]}
    assert [rows[r]["converged"] for r in (0.11, 0.12, 0.13)] == [1, 0, 1]
    row = rows[0.12]
    assert row["e_even"] == pytest.approx(-50.0048, abs=1e-4) and row["e_odd"] == pytest.approx(-49.0292, abs=1e-4)
    for column in ("splitting", "mean_photon_even", "mean_photon_odd", "mean_photon_ground"):
        assert row[column] is None, column
    assert all(rows[r]["splitting"] is not None for r in (0.11, 0.13))
    meta = json.loads((out / "meta.json").read_text())
    assert meta["crossings"]["CSS2"] == [] and meta["crossing"]["CSS2"] is None


def test_levels_requires_tau_below_one(tmp_path):
    with pytest.raises(InvalidTau):
        run_levels(LevelsConfig(delta=8.0, tau=1.0), str(tmp_path / "x"))


def test_cli_reports_rejected_tau_and_source_in_one_line(tmp_path, capsys):
    out = tmp_path / "x"
    assert "tau < 1" in cli_error(["levels", "--out", str(out), "--delta", "8", "--tau", "1"], capsys)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"source": "XX"}))
    assert "'XX'" in cli_error(["wavefunction", "--config", str(cfg_file), "--out", str(out)], capsys)
    assert not out.exists()


@pytest.mark.parametrize("methods", [("ED", "CS1"), ("CSS1",), ("ED", "CSS2", "CS2")])
def test_levels_rejects_methods_it_does_not_compute(tmp_path, capsys, methods):
    out = tmp_path / "levels"
    with pytest.raises(ValueError, match="ED, CSS2"):
        run_levels(LevelsConfig(delta=8.0, tau=0.5, g_min=1.0, g_max=1.0, methods=methods), str(out))
    assert not out.exists()
    argv = ["levels", "--out", str(out), "--delta", "8", "--tau", "0.5", "--methods", ",".join(methods)]
    assert "ED, CSS2" in cli_error(argv, capsys)
    assert not out.exists()


def test_wavefunction_css2_failure_profiles_best_so_far(tmp_path, monkeypatch):
    solve = scan.solve_ansatz
    calls = []

    def fail_at_first_lambda(params, kind, parity="even"):
        calls.append(params)
        res = solve(params, kind, parity)
        return replace(res, converged=False) if len(calls) == 1 else res

    monkeypatch.setattr(scan, "solve_ansatz", fail_at_first_lambda)
    cfg = WavefunctionConfig(delta=8.0, lambdas=(1.2, 1.5), x_min=-8.0, x_max=8.0, x_step=0.05, source="CSS2")
    out = tmp_path / "wf"
    summary = run_wavefunction(cfg, str(out))
    assert [row["lambda"] for row in summary] == [1.2, 1.5]
    assert all(row["norm"] == pytest.approx(1.0, abs=1e-3) for row in summary)
    assert json.loads((out / "meta.json").read_text())["unconverged_lambdas"] == [1.2]
    assert sorted(os.listdir(out)) == sorted(
        ["meta.json", "plot.gp", "summary.tsv"] + [row["file"] for row in summary]
    )
    # Converged runs keep meta.json as before, without the key.
    monkeypatch.setattr(scan, "solve_ansatz", solve)
    run_wavefunction(cfg, str(tmp_path / "ok"))
    assert "unconverged_lambdas" not in json.loads((tmp_path / "ok" / "meta.json").read_text())


def test_wavefunction_lists_gradient_unconverged_coupling(tmp_path, monkeypatch):
    # At delta 8 the CSS2 optimum's gradient is ~1.7e-9 at lambda 1.4 and
    # ~1e-15 at 1.5: with the tolerance between the two, only the solve at
    # 1.4 stops unconverged.
    monkeypatch.setattr(optimize, "GRAD_TOL", 1e-12)
    cfg = WavefunctionConfig(delta=8.0, lambdas=(1.4, 1.5), x_min=-8.0, x_max=8.0, x_step=0.05, source="CSS2")
    summary = run_wavefunction(cfg, str(tmp_path))
    assert json.loads((tmp_path / "meta.json").read_text())["unconverged_lambdas"] == [1.4]
    assert all(row["norm"] == pytest.approx(1.0, abs=1e-3) for row in summary)


WF_ED = dict(delta=100.0, tau=1.0, lambdas=(0.9, 1.1), x_min=-8.0, x_max=8.0, x_step=0.5, source="ED", n_tr=96)


@pytest.mark.parametrize("earlier", ["wavefunction", "scan", "scan-cut-in-write"])
def test_wavefunction_rerun_leaves_no_file_of_another_config(tmp_path, monkeypatch, earlier):
    # A rerun with other couplings and source used to leave the earlier
    # run's profiles beside the new meta.json, and a run after a scan its
    # tables and combined.tsv, or the .tmp of a combined.tsv write the scan
    # was cut off in.
    if earlier == "wavefunction":
        run_wavefunction(WavefunctionConfig(**WF_ED), str(tmp_path / "out"))
    else:
        scan_cfg = ScanConfig(**(SMALL_SCAN | {"lambda_max": 0.3, "methods": ("ED", "CS1")}))
        if earlier == "scan-cut-in-write":
            cut_off_in_write_whole(monkeypatch, "combined.tsv")
            with pytest.raises(KeyboardInterrupt):
                run_scan(scan_cfg, str(tmp_path / "out"))
            monkeypatch.undo()
            assert sorted(os.listdir(tmp_path / "out")) == ["combined.tsv.tmp"]
        else:
            run_scan(scan_cfg, str(tmp_path / "out"))
    cfg = WavefunctionConfig(**(WF_ED | {"delta": 10.0, "lambdas": (0.5,), "source": "CSS2"}))
    run_wavefunction(cfg, str(tmp_path / "out"))
    run_wavefunction(cfg, str(tmp_path / "fresh"))
    assert_trees_identical(str(tmp_path / "fresh"), str(tmp_path / "out"))


def test_interrupted_wavefunction_rerun_leaves_only_its_own_profiles(tmp_path, monkeypatch):
    # A rerun with the same couplings, interrupted after its first profile,
    # used to leave old and new profiles under the old meta.json.
    out = tmp_path / "out"
    run_wavefunction(WavefunctionConfig(**WF_ED), str(out))
    cfg = WavefunctionConfig(**(WF_ED | {"delta": 10.0}))
    run_wavefunction(cfg, str(tmp_path / "fresh"))
    solve = scan.solve_parity_sector

    def interrupt_at_second(params, trunc, parity):
        if params.lam > 1.0:
            raise KeyboardInterrupt
        return solve(params, trunc, parity)

    monkeypatch.setattr(scan, "solve_parity_sector", interrupt_at_second)
    with pytest.raises(KeyboardInterrupt):
        run_wavefunction(cfg, str(out))
    assert sorted(os.listdir(out)) == ["meta.json", "wf_ED_lam0.9.tsv"]
    assert json.loads((out / "meta.json").read_text())["config"]["delta"] == 10.0
    assert (out / "wf_ED_lam0.9.tsv").read_text() == (tmp_path / "fresh" / "wf_ED_lam0.9.tsv").read_text()


def test_wavefunction_profiles(tmp_path):
    out = tmp_path / "wf"
    cfg = WavefunctionConfig(delta=100.0, tau=1.0, lambdas=(1.1,), source="ED", n_tr=256)
    summary = run_wavefunction(cfg, str(out))
    assert summary[0]["peaks_plus"] == 2
    assert summary[0]["norm"] == pytest.approx(1.0, abs=1e-3)
    _, rows = read_table(str(out / summary[0]["file"]))
    assert len(rows) == len(cfg.xs())
    cfg2 = WavefunctionConfig(delta=100.0, tau=1.0, lambdas=(1.1,), source="CSS2", n_tr=256)
    summary2 = run_wavefunction(cfg2, str(tmp_path / "wf2"))
    assert summary2[0]["peaks_plus"] == 2
    assert summary2[0]["norm"] == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize(
    "source, delta, lambdas",
    [("CSS2", 8.0, (1.9, 2.2)), ("ED", 8.0, (1.9, 2.2, 3.5)), ("ED", 100.0, (2.0,))],
    ids=["CSS2-delta8", "ED-delta8", "ED-delta100"],
)
def test_wavefunction_css2_profiles_the_parity_levels_puts_lowest(tmp_path, source, delta, lambdas):
    # At tau 0.5 the ground state is odd past g_c1, and an odd profile has
    # phi_-(x) = +phi_+(-x).  At delta 8, lambda 1.9 and 2.2 the CSS2
    # splittings are +1.95e-6 and +2.3e-8; the CSS2 profile used to be the
    # even optimum's, with phi_-(x) = -phi_+(-x).  The certified ED
    # splittings are +1.34e-23 at delta 8, lambda 3.5 and +1.9e-88 at
    # delta 100, lambda 2.0, far below the float sector energies'
    # resolution; the ED profile used to be the even state there.
    cfg = WavefunctionConfig(delta=delta, tau=0.5, lambdas=lambdas, x_min=-25.0, x_max=25.0, x_step=0.25,
                             source=source)
    for row in run_wavefunction(cfg, str(tmp_path)):
        _, rows = read_table(str(tmp_path / row["file"]))
        plus, minus = (np.array([r[c] for r in rows]) for c in ("phi_plus", "phi_minus"))
        assert np.max(np.abs(plus)) > 0.1
        assert np.max(np.abs(minus - plus[::-1])) <= 1e-12, row["lambda"]


def test_config_defaults():
    model = dict(delta=100.0, omega=1.0, n_tr=256, tail_tol=1e-12)
    assert asdict(ScanConfig()) == model | dict(
        tau=1.0, lambda_min=0.0, lambda_max=1.5, lambda_step=0.01,
        methods=("ED", "CS1", "CSS1", "CS2", "CSS2"), parity="even",
    )
    assert asdict(LevelsConfig()) == model | dict(
        tau=0.5, g_min=0.9, g_max=1.1, g_step=0.005, methods=("ED", "CSS2"),
    )
    assert asdict(WavefunctionConfig()) == model | dict(
        tau=1.0, lambdas=(0.9, 1.1, 1.5), x_min=-25.0, x_max=25.0, x_step=0.01, source="ED",
    )


def test_wavefunction_source_validated(tmp_path):
    with pytest.raises(ValueError):
        run_wavefunction(WavefunctionConfig(source="XX"), str(tmp_path / "x"))


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("scan", ScanConfig(**(SMALL_SCAN | {"lambda_max": 0.3}))),
        ("scan", ScanConfig(**(SMALL_SCAN | {"lambda_max": 0.3, "methods": ("ED", "CS1")}))),
        ("levels", LevelsConfig(delta=8.0, tau=0.5, g_min=0.98, g_max=1.02, g_step=0.02, n_tr=96)),
        ("wavefunction", WavefunctionConfig(delta=8.0, lambdas=(0.5, 1.2), x_min=-8.0, x_max=8.0,
                                            x_step=0.5, source="ED", n_tr=96)),
        ("wavefunction", WavefunctionConfig(delta=8.0, lambdas=(0.5, 1.2), x_min=-8.0, x_max=8.0,
                                            x_step=0.5, source="CSS2", n_tr=96)),
    ],
)
def test_plot_script_names_written_files_and_columns(tmp_path, command, cfg):
    run = {"scan": run_scan, "levels": run_levels, "wavefunction": run_wavefunction}[command]
    run(cfg, str(tmp_path))
    script = (tmp_path / "plot.gp").read_text()
    series = re.findall(r"'([^']+)' skip 1 using (\d+):(\d+)", script)
    assert series and len(series) == script.count(" using ")
    for name, x, y in series:
        assert (tmp_path / name).is_file(), name
        header = (tmp_path / name).read_text().split("\n", 1)[0].split("\t")
        assert 1 <= int(x) <= len(header) and 1 <= int(y) <= len(header), (name, x, y)


@pytest.mark.parametrize("rerun", [False, True], ids=["fresh", "rerun"])
def test_verify_exits_nonzero_on_an_unconverged_solve(tmp_path, rerun):
    out = tmp_path / "v"
    if rerun:  # over the report of a passing run with another seed, beside another command's file
        assert main(["verify", "--out", str(out), "--seed", "1"]) == 0
        (out / "meta.json").write_text("{}\n")
        (out / "verify.json.tmp").write_text("{")  # as a report write cut off before its rename leaves it
    code = """
import dataclasses, sys
import rabivar.verify as verify
from rabivar.cli import main

solve = verify.solve_ansatz

def odd_unconverged(mp, kind, parity="even", stages=None):
    result = solve(mp, kind, parity, stages)
    return dataclasses.replace(result, converged=False) if parity == "odd" else result

verify.solve_ansatz = odd_unconverged
sys.exit(main(["verify", "--out", sys.argv[1]]))
"""
    status, err = run_script(code, out)
    assert status == 1, err
    point = "ModelParams(delta=100.0, omega=1.0, g=2.5, tau=1.0)"  # lambda 0.5, the first physics point
    assert err.splitlines()[-1] == f"RuntimeError: the CSS2 odd solve at {point} did not converge"
    # A failed rerun used to leave the earlier run's report in place.
    if rerun:
        assert sorted(os.listdir(out)) == ["meta.json"]
        assert (out / "meta.json").read_text() == "{}\n"
    else:
        assert not out.exists()


def test_readme_cli_block_parses():
    # Every command line of the README's CLI block, continuations joined and
    # comments stripped, must still parse: a renamed or dropped flag fails here.
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme) as fh:
        block = fh.read().split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in lines if argv[:1] == ["rabivar"]]
    assert [argv[1] for argv in commands] == ["scan", "levels", "wavefunction", "verify"]
    for argv in commands:
        assert cli.build_parser().parse_args(argv[1:]).command == argv[1]


def test_readme_dotted_names_resolve():
    # Every backticked dotted name of the README that starts with rabivar, a
    # module of the package or a name rabivar exports (optimize.bfgs,
    # rabivar.exactdiag.sector_splitting, PacketParams.canonical) must still
    # resolve by import and getattr: a renamed or dropped name fails here.
    # File names such as verify.json are not dotted names.
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme) as fh:
        names = set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", fh.read()))
    modules = {m.name for m in pkgutil.iter_modules(rabivar.__path__)}
    checked = 0
    for name in sorted(names):
        first, *rest = name.split(".")
        if name.rsplit(".", 1)[1] in ("json", "txt", "tsv", "gp", "png", "toml", "md", "py"):
            continue
        if first != "rabivar" and first not in modules and not hasattr(rabivar, first):
            continue
        path, obj = "rabivar", rabivar
        for part in rest if first == "rabivar" else [first, *rest]:
            path += "." + part
            obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(path)
        checked += 1
    assert checked >= 10


def test_verify_suite_passes_and_writes_report(tmp_path, capsys):
    rc = main(["verify", "--out", str(tmp_path / "v")])
    assert rc == 0
    text = (tmp_path / "v" / "verify.txt").read_text()
    assert "FAIL" not in text
    assert text == capsys.readouterr().out
    doc = json.loads((tmp_path / "v" / "verify.json").read_text())
    lines = text.splitlines()
    assert [c["name"] for c in doc["checks"]] == [line.split()[1] for line in lines[:-1]]
    assert all(c["passed"] and c["max_dev"] <= c["tol"] for c in doc["checks"])
    assert (doc["passed"], doc["failed"], doc["total"]) == (16, 0, 16)
    assert lines[-1] == "16/16 checks passed"
    for check, line in zip(doc["checks"], lines):
        assert f"max_dev={check['max_dev']:.3e} tol={check['tol']:.1e}" in line


def test_oracle_builds_each_packet_once(monkeypatch):
    # One squeezed vacuum per family: 20 overlap draws, the 3 squeezed-vacuum and 8 photon
    # packets (families of one), and per random set a one- and a two-packet state.  Each
    # distinct |b| is displaced once: 2 per draw, 1 per family of one (b = 0 included),
    # and per random set 1 and 2; -b is the parity image of |b|.
    squeezed, displaced = [], []
    init, displace = states.PacketFamily.__init__, states.PacketFamily._displaced

    def counted_init(self, xi, trunc):
        squeezed.append(xi)
        init(self, xi, trunc)

    def counted_displaced(self, b):
        displaced.append(b)
        return displace(self, b)

    monkeypatch.setattr(states.PacketFamily, "__init__", counted_init)
    monkeypatch.setattr(states.PacketFamily, "_displaced", counted_displaced)
    assert all(r.passed for r in oracle_checks())
    assert (len(squeezed), len(displaced)) == (71, 111)
    assert all(b >= 0.0 for b in displaced)


@pytest.mark.parametrize("packets", [2, 1])
def test_verify_flags_corrupted_antisymmetric_sign(monkeypatch, packets):
    def flipped_energy(params, p, parity="even"):
        # the energy of states with this many packets with the antisymmetric-coupling
        # term's sign flipped (gamma enters B only)
        if len(p.a) == packets:
            params = SimpleNamespace(delta=params.delta, omega=params.omega, alpha=params.alpha, gamma=-params.gamma)
        return variational.energy(params, p, parity)

    monkeypatch.setattr(verify, "energy", flipped_energy)
    monkeypatch.setattr(verify, "ORACLE_SETS", 6)
    results = oracle_checks()
    by_name = {r.name: r for r in results}
    assert by_name["energy-two-packet-even-vs-fock"].passed == (packets == 1)
    assert by_name["energy-two-packet-odd-vs-fock"].passed == (packets == 1)
    assert by_name["energy-single-packet-vs-fock"].passed == (packets == 2)
    assert by_name["overlap-vs-fock"].passed


@pytest.mark.parametrize("name, check", [
    ("energy", "energy-single-packet-vs-fock"),
    ("mean_photon", "photon-single-packet-vs-fock"),
])
def test_verify_fails_a_nan_closed_form(monkeypatch, name, check):
    # max(0.0, nan) is 0.0: a deviation folded with max alone would pass a NaN.
    original = getattr(verify, name)

    def nan_for_one_packet(*args):
        packets = next(a for a in args if isinstance(a, PacketParams))
        return math.nan if len(packets.a) == 1 else original(*args)

    monkeypatch.setattr(verify, name, nan_for_one_packet)
    monkeypatch.setattr(verify, "ORACLE_SETS", 6)
    failed = {r.name: r.max_dev for r in oracle_checks() if not r.passed}
    assert failed == {check: math.inf}


def test_verify_fails_a_nan_objective_gradient(monkeypatch):
    bind = verify.objective

    def nan_beta2_slot(params, kind, parity="even"):
        fg = bind(params, kind, parity)

        def patched(x):
            f, g = fg(x)
            return f, [g[0], math.nan, g[2]]

        return patched

    monkeypatch.setattr(verify, "objective", nan_beta2_slot)
    failed = {r.name: r.max_dev for r in verify.physics_checks() + verify.objective_checks() if not r.passed}
    assert failed == {"stationarity-two-packet": math.inf, "objective-gradient": math.inf}


def test_verify_report_deterministic():
    from rabivar.verify import format_report

    a, b = run_all(), run_all()
    assert format_report(a) == format_report(b)
    assert format_json(a) == format_json(b)


def test_verify_report_independent_of_blas_threads():
    # The oracle's packets come from complex BLAS products, whose summation
    # order could follow the thread count.
    script = "from rabivar.verify import format_json, run_all; print(format_json(run_all()), end='')"
    outputs = []
    for threads in ("1", "2"):
        env = dict(_env_with_src(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        outputs.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                      capture_output=True, text=True).stdout)
    assert outputs[0] == outputs[1] and json.loads(outputs[0])["passed"] == 16


def test_ed_profiles_independent_of_blas_threads(tmp_path):
    # A profile sums a 257-level vector against 5,001 oscillator samples
    # (the README x grid); as a BLAS product its summation order followed
    # the thread count.
    outputs = []
    for threads in ("1", "2"):
        env = dict(_env_with_src(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = tmp_path / threads
        subprocess.run([sys.executable, "-m", "rabivar", "wavefunction", "--delta", "100", "--tau", "1",
                        "--lambdas", "1.1", "--source", "ED", "--out", str(out)], env=env, check=True,
                       capture_output=True)
        outputs.append([(out / name).read_bytes() for name in ("wf_ED_lam1.1.tsv", "summary.tsv")])
    assert outputs[0] == outputs[1] and outputs[0][0].count(b"\n") == 5002


def test_physics_checks_run_each_stage_once(monkeypatch):
    # Every solve reads and fills one stages dict, so the starts tried over
    # all solves are the starts of the distinct stages: 2 for CS1 and CSS1,
    # 4 for CS2 and CSS2.
    calls = []
    solve = verify.solve_ansatz

    def recorded(mp, kind, parity="even", stages=None):
        result = solve(mp, kind, parity, stages)
        calls.append((stages, result.starts_tried))
        return result

    monkeypatch.setattr(verify, "solve_ansatz", recorded)
    assert all(r.passed for r in verify.physics_checks())
    stages = calls[0][0]
    assert all(shared is stages for shared, _ in calls)
    assert sum(starts for _, starts in calls) == sum(4 if kind.two_branch else 2 for _, kind, _ in stages)
    n = len(verify.PHYSICS_POINTS)
    assert len(calls) == 5 * n + 4
    assert len([key for key in stages if key[2] == "even"]) == 4 * n + 3  # plus CSS1 at three stationarity points


def test_module_entry_point_help():
    env = _env_with_src()
    proc = subprocess.run(
        [sys.executable, "-m", "rabivar", "--help"],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: rabivar")
    for command in ("scan", "levels", "wavefunction", "verify"):
        assert command in proc.stdout


def test_imports_leave_scipy_optimize_unloaded():
    # Importing scipy.optimize costs ~0.3 s of start-up and ~19 MB of peak
    # RSS, past the benchmark's set-up and memory bounds; scipy.special
    # costs 50-80 ms and ~2 MB.  The package init of scipy.linalg (with
    # scipy._lib) costs another ~0.3 s and ~20 MB: rabivar._lapack loads
    # only its LAPACK extension.  multiprocessing is loaded only by a scan
    # or levels run that computes grid points in worker processes.
    code = (
        "import json, resource, sys, time\n"
        "t = time.perf_counter()\n"
        "import rabivar, rabivar.scan, rabivar.verify, rabivar.cli\n"
        "unloaded = ('scipy.optimize', 'scipy.special', 'scipy.linalg', 'scipy._lib', 'multiprocessing')\n"
        "print(json.dumps({'loaded': [m for m in unloaded if m in sys.modules],"
        " 'import_s': time.perf_counter() - t,"
        " 'peak_rss_mb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))\n"
    )
    env = _env_with_src()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    cost = json.loads(proc.stdout)
    assert not cost["loaded"], (
        f"importing rabivar loads {', '.join(cost['loaded'])}: the imports took {cost['import_s']:.2f} s "
        f"and the process peaked at {cost['peak_rss_mb']:.1f} MB"
    )
