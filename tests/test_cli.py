import filecmp
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import rabivar
import rabivar.optimize as optimize
import rabivar.scan as scan
import rabivar.verify as verify
from rabivar.cli import main
from rabivar.errors import InvalidTau, NoConvergence
from rabivar.exactdiag import SectorSplitting, solve_parity_sector
from rabivar.model import ModelParams, Truncation
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
from rabivar.variational import Ansatz2Params, AnsatzKind, _bilinear_parts
from rabivar.verify import oracle_checks, run_all

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


def test_interrupted_scan_keeps_finished_rows_and_resumes(tmp_path, monkeypatch):
    cfg = ScanConfig(**SMALL_SCAN)
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    run_scan(cfg, str(fresh))
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
    # 4 ED rows and the 5 finished ansatz rows survive, each as the full run wrote it
    kept = (out / "combined.tsv").read_text().splitlines()
    assert len(kept) == 1 + 4 + 5
    assert set(kept) <= set((fresh / "combined.tsv").read_text().splitlines())

    calls.clear()
    monkeypatch.setattr(scan, "_scan_row_ansatz", lambda *args: calls.append(args) or row_ansatz(*args))
    monkeypatch.setattr(scan, "solve_parity_sector", None)  # every ED row is stored
    run_scan(cfg, str(out))
    assert [(lam, method) for _, lam, method, *_ in calls] == [
        (lam, method) for method in ("CSS1", "CSS2") for lam in cfg.grid()
    ][1:]
    assert_trees_identical(str(fresh), str(out))


def test_stored_single_packet_row_restores_its_result(tmp_path):
    # A resumed CS2/CSS2 row rebuilds the CS1/CSS1 stage from the stored row,
    # exactly as the solve reported it.
    cfg = ScanConfig(**SMALL_SCAN)
    solved = {}
    for method in ("CS1", "CSS1"):
        path = str(tmp_path / f"{method}.tsv")
        write_table(path, scan.SCAN_COLUMNS, [scan._scan_row_ansatz(cfg, 0.9, method, None, solved)])
        live, restored = solved[AnsatzKind(method)], scan._restored_result(cfg, 0.9, read_table(path)[1][0])
        for field in ("energy", "params", "grad_norm"):
            assert getattr(restored, field) == getattr(live, field), field
        assert restored.converged and restored.parity == "even"


def test_resumed_scan_reuses_stored_single_packet_rows(tmp_path, monkeypatch):
    cfg = ScanConfig(**(SMALL_SCAN | {"methods": scan.METHODS}))
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    run_scan(cfg, str(fresh))
    run_scan(ScanConfig(**(SMALL_SCAN | {"methods": ("ED", "CS1", "CSS1")})), str(out))
    solves = []
    objective = optimize.energy_grad_1css
    monkeypatch.setattr(optimize, "energy_grad_1css", lambda *a, **k: solves.append(a) or objective(*a, **k))
    run_scan(cfg, str(out))
    assert not solves  # CS2/CSS2 took their single-packet stage from the stored rows
    assert_trees_identical(str(fresh), str(out))


def test_read_table_drops_cut_off_last_line(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("a\tb\n1.0\t2.0\n3.0\t4")
    assert read_table(str(path)) == (["a", "b"], [{"a": 1.0, "b": 2.0}])
    path.write_text("a\tb\n1.0\t2.0\n3.0\n")
    assert read_table(str(path)) == (["a", "b"], [{"a": 1.0, "b": 2.0}])


def test_scan_rerun_with_other_physics_recomputes_every_row(tmp_path):
    # Stored rows of another detuning must not survive under the new meta.json.
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    run_scan(ScanConfig(**(SMALL_SCAN | {"delta": 10.0})), str(reused))
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


@pytest.mark.parametrize("parity, sign", [("even", +1), ("odd", -1)])
@pytest.mark.parametrize("ratio", [0.9, 1.2])
def test_scan_ed_rows_come_from_the_scanned_parity(tmp_path, parity, sign, ratio):
    # At delta 8, tau 0.5 the even level lies lowest at 0.9 g_c1 and the odd
    # one at 1.2 g_c1, so at one of the two the lowest level of both sectors
    # has the other parity.
    g = ratio * ModelParams(delta=8.0, g=1.0, tau=0.5).g_c1
    lam = ModelParams(delta=8.0, omega=1.0, g=g, tau=0.5).lam
    cfg = ScanConfig(delta=8.0, tau=0.5, lambda_min=lam, lambda_max=lam, lambda_step=0.1,
                     methods=("ED",), parity=parity)
    (row,) = run_scan(cfg, str(tmp_path / parity))
    mp = ModelParams.from_lambda(8.0, row["lambda"], 1.0, 0.5)
    sector = solve_parity_sector(mp, Truncation(cfg.n_tr), sign).energies[0]
    other = solve_parity_sector(mp, Truncation(cfg.n_tr), -sign).energies[0]
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
    # CSS2's guard reads CS2's two-packet optimum: the single-packet
    # objective runs only in CS1/CSS1 rows and the unsqueezed two-packet one
    # (no xi argument) only in CS2 rows.
    calls, current = [], [None]
    for name in ("energy_grad_1css", "projected_energy_2css"):
        objective = getattr(optimize, name)

        def counted(params, *x, _name=name, _objective=objective, **kwargs):
            calls.append((current[0], _name, len(x)))
            return _objective(params, *x, **kwargs)

        monkeypatch.setattr(optimize, name, counted)
    row_ansatz = scan._scan_row_ansatz

    def labelled(cfg, lam, method, *args):
        current[0] = method
        return row_ansatz(cfg, lam, method, *args)

    monkeypatch.setattr(scan, "_scan_row_ansatz", labelled)
    cfg = ScanConfig(delta=100.0, tau=1.0, lambda_max=1.5, lambda_step=0.1, methods=scan.METHODS)
    rows = run_scan(cfg, str(tmp_path / "a"))
    assert any(r["method"] == "CSS2" and r["c2"] == 0.0 for r in rows)  # the guard was read
    assert {m for m, name, _ in calls if name == "energy_grad_1css"} == {"CS1", "CSS1"}
    assert {m for m, name, n in calls if name == "projected_energy_2css" and n == 2} == {"CS2"}
    first = list(calls)
    calls.clear()
    run_scan(cfg, str(tmp_path / "b"))  # no state survives the call
    assert calls == first


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
    assert json.loads((out / "meta.json").read_text())["crossing"]["ED"] is None


def test_levels_css2_failure_keeps_best_so_far_energies(tmp_path, monkeypatch):
    def no_convergence(params, kind, parity="even", **kwargs):
        if parity == "odd":
            raise NoConvergence("odd budget exhausted", best=None)
        best = OptResult(kind, parity, -4.25, Ansatz2Params(1.0, 0.0, 1.0, 1.0, 0.0), 0, 1.0, False)
        raise NoConvergence("even budget exhausted", best=best)

    monkeypatch.setattr(scan, "solve_ansatz", no_convergence)
    out = tmp_path / "levels"
    cfg = LevelsConfig(delta=8.0, tau=0.5, g_min=1.0, g_max=1.0, g_step=0.01, methods=("CSS2",))
    run_levels(cfg, str(out))
    _, rows = read_table(str(out / "CSS2.tsv"))
    assert len(rows) == 1
    assert rows[0]["e_even"] == -4.25 and rows[0]["e_odd"] is None
    assert rows[0]["converged"] == 0.0 and rows[0]["splitting"] is None
    assert json.loads((out / "meta.json").read_text())["crossing"]["CSS2"] is None


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
    warm_starts = []

    def fail_at_first_lambda(params, kind, parity="even", warm=None):
        warm_starts.append(warm)
        res = solve(params, kind, parity, warm=warm)
        if len(warm_starts) == 1:
            raise NoConvergence("budget exhausted", best=res)
        return res

    monkeypatch.setattr(scan, "solve_ansatz", fail_at_first_lambda)
    cfg = WavefunctionConfig(delta=8.0, lambdas=(1.2, 1.5), x_min=-8.0, x_max=8.0, x_step=0.05, source="CSS2")
    out = tmp_path / "wf"
    summary = run_wavefunction(cfg, str(out))
    assert [row["lambda"] for row in summary] == [1.2, 1.5]
    assert all(row["norm"] == pytest.approx(1.0, abs=1e-3) for row in summary)
    assert warm_starts == [None, None]  # no warm start from an unconverged state
    assert json.loads((out / "meta.json").read_text())["unconverged_lambdas"] == [1.2]
    assert sorted(os.listdir(out)) == sorted(
        ["meta.json", "plot.gp", "summary.tsv"] + [row["file"] for row in summary]
    )
    # Converged runs keep meta.json as before, without the key.
    monkeypatch.setattr(scan, "solve_ansatz", solve)
    run_wavefunction(cfg, str(tmp_path / "ok"))
    assert "unconverged_lambdas" not in json.loads((tmp_path / "ok" / "meta.json").read_text())


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


def test_verify_suite_passes_and_writes_report(tmp_path, capsys):
    rc = main(["verify", "--out", str(tmp_path / "v")])
    assert rc == 0
    text = (tmp_path / "v" / "verify.txt").read_text()
    assert "FAIL" not in text
    assert text == capsys.readouterr().out


def test_verify_flags_corrupted_antisymmetric_sign(monkeypatch):
    def flipped_energy_2css(params, a, parity="even"):
        # energy_2css with the antisymmetric-coupling term's sign flipped
        s = +1.0 if parity == "even" else -1.0
        atom_d, atom_x, ph_d, ph_x, iso_d, iso_x, ani_d, ani_x, n_d, n_x = _bilinear_parts(params, a)
        num = s * (atom_d + atom_x) + ph_d + ph_x + iso_d + iso_x - s * (ani_d + ani_x)
        return num / (n_d + n_x)

    monkeypatch.setattr(verify, "energy_2css", flipped_energy_2css)
    results = oracle_checks(n_sets=6)
    by_name = {r.name: r for r in results}
    assert not by_name["energy-two-packet-even-vs-fock"].passed
    assert not by_name["energy-two-packet-odd-vs-fock"].passed
    assert by_name["energy-single-packet-vs-fock"].passed
    assert by_name["overlap-vs-fock"].passed


def test_verify_report_deterministic():
    from rabivar.verify import format_report

    a = format_report(run_all())
    b = format_report(run_all())
    assert a == b


def test_module_entry_point_help():
    src = os.path.dirname(os.path.dirname(rabivar.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
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
    # costs 50-80 ms and ~2 MB.
    code = (
        "import json, resource, sys, time\n"
        "t = time.perf_counter()\n"
        "import rabivar, rabivar.scan, rabivar.verify, rabivar.cli\n"
        "print(json.dumps({'loaded': [m for m in ('scipy.optimize', 'scipy.special') if m in sys.modules],"
        " 'import_s': time.perf_counter() - t,"
        " 'peak_rss_mb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))\n"
    )
    src = os.path.dirname(os.path.dirname(rabivar.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    cost = json.loads(proc.stdout)
    assert not cost["loaded"], (
        f"importing rabivar loads {', '.join(cost['loaded'])}: the imports took {cost['import_s']:.2f} s "
        f"and the process peaked at {cost['peak_rss_mb']:.1f} MB"
    )
