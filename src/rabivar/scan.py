"""Parameter-scan drivers and reproducible tabular output.

All data files are tab-separated text with a header row; floats are written
with shortest-roundtrip repr so files parse back bit-exactly and repeated
runs are byte-identical.  A JSON sidecar records the full configuration and
package version (never timestamps or absolute paths).  One output rule
holds for every command, verify's report included: before it computes
anything, it deletes every file it derives that an earlier run left in its
output directory, with the temporary files of an interrupted write
(clear_derived), and it writes each file whole through a temporary file
(write_whole).  The data commands derive one set of files (DERIVED_FILES),
so none of them leaves another's files beside its own.  The one exception
is combined.tsv, the journal a scan or levels run appends its rows to as
it goes: scan and levels rewrite it whole with the rows they reuse, and
wavefunction deletes it.  Scans and
level runs share one grid driver.  A row depends only on the config and its
grid point, so the driver shares the grid points among the calling process
and one worker process per further available CPU; the files are the same
as from one process.  The rows computed at one scan point share one dict of
optimizer stages (see solve_ansatz), so each stage runs once per point.
Runs are restartable: when the stored meta.json has the same physics
config (every field but the grid bounds, step and methods), existing rows
are kept and only missing (grid point, method) combinations are
recomputed; otherwise every row is recomputed.  A recomputed CS2/CSS2 row
solves the stages it shares with stored rows again.  With one CPU each
computed row is appended to combined.tsv as soon as it is finished; with
several, a point's rows are appended once it and every point before it are
finished (see _mapped_rows).  An interrupted run keeps the rows appended so
far for the next one.  A row of an unconverged trial-state solve
(OptResult.converged False) is written with converged=0 and only the
fields that solve can vouch for: a scan row its best-so-far state, a
levels CSS2 row its best-so-far energies.
"""

from __future__ import annotations

import fnmatch
import json
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .errors import DegenerateAnsatz, InvalidConfig, InvalidTau, TruncationNotConverged
from .exactdiag import (
    N_TR_CAP,
    mean_photon_ed,
    sector_splitting,
    solve_parity_sector,
    spin_x_projection,
)
from .model import PARITIES, ModelParams, Truncation, parity_sign
from .optimize import solve_ansatz
from .states import count_peaks, gaussian_packet_profile, position_profile
from .variational import AnsatzKind, mean_photon, norm2, parity_splitting_2css, superpose

METHODS = ("ED", "CS1", "CSS1", "CS2", "CSS2")

GRID_POINTS_MAX = 1_000_000  # points of one grid _check_model accepts

# The files scan, levels and wavefunction derive and write whole, as
# clear_derived patterns; each command clears all of them, so no command's
# files sit beside another's.  combined.tsv is not among them: scan and
# levels rewrite it with the rows they reuse.
DERIVED_FILES = (*(f"{m}.tsv" for m in METHODS), "wf_*.tsv", "summary.tsv", "plot.gp")

SCAN_COLUMNS = (
    "lambda",
    "g",
    "method",
    "parity",
    "energy",
    "energy_scaled",
    "mean_photon",
    "beta1",
    "beta2",
    "c1",
    "c2",
    "xi",
    "converged",
)

LEVELS_COLUMNS = (
    "g_ratio",
    "g",
    "lambda",
    "method",
    "e_even",
    "e_odd",
    "splitting",
    "mean_photon_even",
    "mean_photon_odd",
    "mean_photon_ground",
    "converged",
    "n_tr_used",
    "split_error",
    "split_digits",
    "split_n_tr",
)

PROFILE_COLUMNS = ("x", "phi_plus", "phi_minus")


def _fmt(value) -> str:
    if type(value) is float:  # most fields; a float subclass such as np.float64 takes the general path
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _parse(value: str):
    """A field as _fmt wrote it.

    A float's repr always holds a '.', an 'e', 'inf' or 'nan', so a field
    that int() parses was written from an int.
    """
    if value == "":
        return None
    for kind in (int, float):
        try:
            return kind(value)
        except ValueError:
            pass
    return value


def _line(columns, row) -> str:
    return "\t".join(_fmt(row.get(c)) for c in columns) + "\n"


def write_whole(path: str, text: str) -> None:
    """Write text to path through a temporary file, so path is never half written."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def clear_derived(out_dir: str, patterns) -> None:
    """Delete the files in out_dir whose names match one of the fnmatch patterns, and their .tmp files.

    Every command calls it before it computes anything, on the names of
    all the files it derives (DERIVED_FILES for the data commands), so no
    file of an earlier run, nor the temporary file an interrupted
    write_whole left, sits beside the new one's outputs, even when the new
    run is interrupted or fails.  A missing out_dir is left missing.
    """
    for name in os.listdir(out_dir) if os.path.isdir(out_dir) else ():
        if any(fnmatch.fnmatchcase(name, p) or fnmatch.fnmatchcase(name, p + ".tmp") for p in patterns):
            os.remove(os.path.join(out_dir, name))


def write_table(path: str, columns, rows, lines=None) -> None:
    """Write the rows under a header of the columns; lines, if given, are the rows' lines as _line formats them."""
    if lines is None:
        lines = [_line(columns, row) for row in rows]
    write_whole(path, "\t".join(columns) + "\n" + "".join(lines))


def read_table(path: str):
    """Header and rows of a table; a line cut short by an interrupted append is dropped."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    lines.pop()  # "" after the final newline, or a last line cut off before it
    if not lines:
        return [], []
    columns = lines[0].split("\t")
    rows = []
    for line in lines[1:]:
        parts = line.split("\t")
        if len(parts) == len(columns):
            rows.append({c: _parse(v) for c, v in zip(columns, parts)})
    return columns, rows


def _write_meta(out_dir: str, command: str, config: dict, extra: dict | None = None) -> None:
    meta = {"command": command, "config": config, "version": __version__}
    if extra:
        meta.update(extra)
    write_whole(os.path.join(out_dir, "meta.json"), json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _stored_rows(out_dir: str, command: str, config: dict, axis: str, grid_fields, columns) -> dict:
    """Rows of an earlier run in out_dir that may be reused, keyed by (method, grid value).

    Rows are reused only when that run's meta.json records the same command
    and the same config on every field except the grid bounds and step
    (grid_fields) and the methods, and its combined.tsv has these columns.
    Any other difference, or a meta.json that is missing or holds no such
    record, means the stored rows may describe other physics or lack
    fields, and none is reused.
    """
    try:
        with open(os.path.join(out_dir, "meta.json")) as fh:
            meta = json.load(fh)
        header, rows = read_table(os.path.join(out_dir, "combined.tsv"))
    except (OSError, ValueError):
        return {}
    free = {"methods", *grid_fields}

    def physics(c):
        return {k: v for k, v in c.items() if k not in free}

    if not (isinstance(meta, dict) and isinstance(meta.get("config"), dict)):
        return {}
    if meta.get("command") != command or physics(meta["config"]) != physics(config) or header != list(columns):
        return {}
    stored = {}
    for row in rows:
        if row.get("converged") is not None:
            row["converged"] = bool(row["converged"])
        stored[(row["method"], _fmt(row[axis]))] = row
    return stored


def _steps(lo: float, hi: float, step: float) -> range:
    """Indices i of the grid points lo + i * step that do not pass hi by more than 1e-9 of a step."""
    return range(math.floor((hi - lo) / step + 1e-9) + 1)


def _grid(lo: float, hi: float, step: float) -> list:
    return [round(lo + i * step, 12) for i in _steps(lo, hi, step)]


@dataclass
class _ModelConfig:
    """The model and truncation fields every data command reads."""

    delta: float = 100.0
    omega: float = 1.0
    tau: float = 1.0
    n_tr: int = 256
    tail_tol: float = 1e-12


@dataclass
class ScanConfig(_ModelConfig):
    lambda_min: float = 0.0
    lambda_max: float = 1.5
    lambda_step: float = 0.01
    methods: tuple = METHODS
    parity: str = "even"

    grid_fields = ("lambda_min", "lambda_max", "lambda_step")

    def grid(self):
        return _grid(self.lambda_min, self.lambda_max, self.lambda_step)


@dataclass
class LevelsConfig(_ModelConfig):
    tau: float = 0.5
    g_min: float = 0.9  # in units of the crossing coupling
    g_max: float = 1.1
    g_step: float = 0.005
    methods: tuple = ("ED", "CSS2")

    grid_fields = ("g_min", "g_max", "g_step")

    def grid(self):
        return _grid(self.g_min, self.g_max, self.g_step)


@dataclass
class WavefunctionConfig(_ModelConfig):
    lambdas: tuple = (0.9, 1.1, 1.5)
    x_min: float = -25.0
    x_max: float = 25.0
    x_step: float = 0.01
    source: str = "ED"

    grid_fields = ("x_min", "x_max", "x_step")

    def xs(self):
        return np.array([self.x_min + i * self.x_step for i in _steps(self.x_min, self.x_max, self.x_step)])


def _check_model(cfg) -> None:
    """Reject a model, grid or truncation no row can be computed for, before anything is written.

    Every numeric field and each of lambdas must be an int or a float (not
    a bool).  The lambda axis and g_c1 both divide by delta * omega, so
    delta must be positive; omega, tau, n_tr and tail_tol must be valid for
    ModelParams and Truncation.  Every coupling (lambda_min, g_min, each of
    lambdas) must be non-negative and finite.  The grid named by
    cfg.grid_fields needs finite bounds, max >= min, a finite positive
    step and at most GRID_POINTS_MAX points.  The largest coupling g
    (lambda_max, g_max * g_c1 or the largest of lambdas) must keep
    (g max(1, tau))^2 n finite at n = max(n_tr, N_TR_CAP), the largest
    cutoff a sector solve may reach: beyond it the squared chain links of
    the sector solves and the trial-state seeds overflow.
    """
    numeric = [(f.name, getattr(cfg, f.name)) for f in fields(cfg) if type(f.default) in (int, float)]
    for name, value in numeric + [("lambdas", lam) for lam in getattr(cfg, "lambdas", ())]:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InvalidConfig(f"{name} must be a number, got {value!r}")
    if not cfg.delta > 0.0:
        raise InvalidConfig(f"delta must be positive, got {cfg.delta}")
    try:
        ModelParams(cfg.delta, cfg.omega, tau=cfg.tau)
        Truncation(cfg.n_tr, cfg.tail_tol)
    except ValueError as exc:
        raise InvalidConfig(str(exc)) from None
    couplings = [(name, getattr(cfg, name)) for name in ("lambda_min", "g_min") if hasattr(cfg, name)]
    for name, value in couplings + [("lambdas", lam) for lam in getattr(cfg, "lambdas", ())]:
        if not 0.0 <= value < math.inf:
            raise InvalidConfig(f"{name} must be non-negative and finite, got {value}")
    lo_name, hi_name, step_name = cfg.grid_fields
    lo, hi, step = (getattr(cfg, name) for name in cfg.grid_fields)
    if not 0.0 < step < math.inf:
        raise InvalidConfig(f"{step_name} must be positive and finite, got {step}")
    if not -math.inf < lo <= hi < math.inf:
        raise InvalidConfig(f"{lo_name} and {hi_name} must be finite with {hi_name} >= {lo_name}, got {lo}, {hi}")
    if not (hi - lo) / step < GRID_POINTS_MAX - 1:
        raise InvalidConfig(f"{step_name} {step} gives more than {GRID_POINTS_MAX} grid points from {lo} to {hi}")
    if isinstance(cfg, LevelsConfig):  # levels rejects tau >= 1, where g_c1 is undefined, on its own
        g = cfg.g_max * math.sqrt(cfg.delta * cfg.omega / (1.0 - cfg.tau**2)) if cfg.tau < 1.0 else 0.0
    else:
        lam = max(cfg.lambdas, default=0.0) if isinstance(cfg, WavefunctionConfig) else cfg.lambda_max
        g = lam * math.sqrt(cfg.delta * cfg.omega) / (1.0 + cfg.tau)
    link = g * max(1.0, cfg.tau)
    n = max(cfg.n_tr, N_TR_CAP)
    if not math.isfinite(link * link * n):
        raise InvalidConfig(f"coupling g {g:.6g} is too large: the squared chain link (g max(1, tau))^2 n "
                            f"overflows at the largest cutoff n = {n}")


def _check_list(name: str, values) -> None:
    """Reject an empty list (no series to write) or one holding a value twice (a series written twice)."""
    if not values:
        raise InvalidConfig(f"{name} must not be empty")
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise InvalidConfig(f"{name} must not repeat a value, got {repeated[0]!r} twice")


def _check_methods(command: str, methods, allowed) -> None:
    """Reject a method not in allowed, and an empty or repeated method list."""
    unknown = [m for m in methods if m not in allowed]
    if unknown:
        raise InvalidConfig(f"{command} methods must come from {', '.join(allowed)}, got {unknown}")
    _check_list("methods", methods)


def _run_grid(command, cfg, out_dir, axis, columns, rows_at, panels, summary=None) -> list:
    """Rows over cfg.methods x grid, computed point by point and written out.

    rows_at(value, methods) yields the rows of the methods (in METHODS
    order) missing at a grid value.  The points with missing rows are
    computed through _mapped_rows.

    Stored rows of an equal physics config are reused.  Before any row is
    computed, the derived files of an earlier run of any data command
    (DERIVED_FILES, see clear_derived) are deleted and combined.tsv is
    rewritten with only the reused rows, never deleted first; then
    meta.json records the new config, so no row sits under a config it was
    not computed for, even after an interrupted run.  Each computed row is
    then appended to combined.tsv as soon as it is kept.  The finished run
    rewrites combined.tsv sorted by method, in METHODS order, then grid
    value, next to one <method>.tsv per method, meta.json (with
    summary(rows) added) and plot.gp.
    """
    os.makedirs(out_dir, exist_ok=True)
    config = asdict(cfg)
    stored = _stored_rows(out_dir, command, config, axis, cfg.grid_fields, columns)
    methods = [m for m in METHODS if m in cfg.methods]
    grid = cfg.grid()
    reused = [stored[m, _fmt(v)] for v in grid for m in methods if (m, _fmt(v)) in stored]
    missing = [(v, [m for m in methods if (m, _fmt(v)) not in stored]) for v in grid]
    tasks = [(v, ms) for v, ms in missing if ms]
    combined = os.path.join(out_dir, "combined.tsv")
    clear_derived(out_dir, DERIVED_FILES)
    kept = [(row, _line(columns, row)) for row in reused]  # each row with its line, formatted once
    write_table(combined, columns, reused, [line for _, line in kept])
    _write_meta(out_dir, command, config)

    with open(combined, "a") as fh:

        def keep(row):
            line = _line(columns, row)
            fh.write(line)
            fh.flush()
            return row, line

        kept += _mapped_rows(rows_at, tasks, keep)

    kept.sort(key=lambda pair: (METHODS.index(pair[0]["method"]), pair[0][axis]))
    for method in cfg.methods:
        mine = [pair for pair in kept if pair[0]["method"] == method]
        write_table(os.path.join(out_dir, f"{method}.tsv"), columns, [r for r, _ in mine], [line for _, line in mine])
    rows = [row for row, _ in kept]
    write_table(combined, columns, rows, [line for _, line in kept])
    _write_meta(out_dir, command, config, summary(rows) if summary else None)
    _emit_plot(out_dir, command, panels)
    return rows


def _task_rows(rows_at, task):
    """The rows of one task, or the exception, of any type, it raised."""
    try:
        return list(rows_at(*task))
    except BaseException as exc:
        return exc


def _work(rows_at, tasks, take, slot, send) -> None:
    """Forked worker: send (index, rows or exception) of each task taken, until none is left or one fails.

    A result that does not pickle ends the worker in its task, which the
    caller reports as a dead worker.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is left to the caller
    while (i := take(slot)) < len(tasks):
        rows = _task_rows(rows_at, tasks[i])
        send.send((i, rows))
        if isinstance(rows, BaseException):
            return


def _mapped_rows(rows_at, tasks, keep) -> list:
    """keep(row) for each row rows_at(*task) yields, task by task.

    With W CPUs this process may run on (at most one per task), W - 1
    fork-context worker processes start, and they and this process take
    task indices from one shared counter.  Workers send their results over
    one pipe; between its own tasks this process collects what has arrived
    and keeps the rows of each task as soon as it and every task before it
    are done.  With one CPU the tasks run here and each row is kept as soon
    as it is made.  An exception in a task, whatever its type, propagates
    once the rows of every task before it are kept.  A worker that dies in
    a task (killed, os._exit) ends the call the same way, with a
    RuntimeError naming that task's grid point.  Workers are terminated and
    joined on every way out, so an error or Ctrl-C leaves no process behind
    and only the rows kept so far.
    """
    workers = min(len(os.sched_getaffinity(0)), len(tasks))
    if workers < 2:
        return [keep(row) for task in tasks for row in rows_at(*task)]
    import multiprocessing  # kept out of import rabivar: only a parallel run pays for it
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("q", 0)
    holding = ctx.RawArray("q", [-1] * (workers - 1))  # the index each worker took last

    def take(slot=None):
        with counter.get_lock():
            i = counter.value
            if slot is not None:
                holding[slot] = i  # before the count moves on, so no taken index goes unrecorded
            counter.value = i + 1
        return i

    recv, send = ctx.Pipe(duplex=False)
    procs = [ctx.Process(target=_work, args=(rows_at, tasks, take, slot, send), daemon=True)
             for slot in range(workers - 1)]
    try:
        for proc in procs:
            proc.start()
        send.close()  # the workers hold the only write ends, so the pipe ends when they do
        running = dict(enumerate(procs))
        results, kept = {}, []

        def collect(block):
            """Store each result sent, and a RuntimeError for the task of each worker that died in one."""
            if block:
                wait([recv, *(proc.sentinel for proc in running.values())])
            ended = {slot: proc for slot, proc in running.items() if proc.exitcode is not None}
            try:
                while recv.poll():
                    i, rows = recv.recv()
                    results[i] = rows
            except EOFError:  # every worker has ended
                pass
            for slot, proc in ended.items():  # all it sent is read now: it ended before the drain
                del running[slot]
                i = holding[slot]
                if len(kept) <= i < len(tasks) and i not in results:
                    results[i] = RuntimeError(f"worker process {proc.pid} ended with exit code {proc.exitcode} "
                                              f"while computing grid point {tasks[i][0]}")

        while len(kept) < len(tasks):
            failed = any(isinstance(rows, BaseException) for rows in results.values())
            i = len(tasks) if failed else take()  # after a failed task, only the tasks before it
            if i < len(tasks):
                results[i] = _task_rows(rows_at, tasks[i])
            collect(block=i >= len(tasks))
            while len(kept) in results:
                rows = results.pop(len(kept))
                if isinstance(rows, BaseException):
                    raise rows
                kept.append([keep(row) for row in rows])
        return [row for rows in kept for row in rows]
    finally:
        for proc in procs:
            if proc.pid is not None:
                proc.terminate()
                proc.join()
        send.close()
        recv.close()


def _scan_row_ed(cfg: ScanConfig, lam: float) -> dict:
    """The lowest level of the scanned parity sector, the one the row is labelled with."""
    mp = ModelParams.from_lambda(cfg.delta, lam, cfg.omega, cfg.tau)
    row = {"lambda": lam, "g": mp.g, "method": "ED", "parity": cfg.parity}
    try:
        res = solve_parity_sector(mp, Truncation(cfg.n_tr, cfg.tail_tol), cfg.parity)
        row["energy"] = res.energy
        row["energy_scaled"] = res.energy / (cfg.delta * cfg.omega)
        row["mean_photon"] = mean_photon_ed(res)
        row["converged"] = True
    except TruncationNotConverged:
        row["converged"] = False
    return row


def _scan_row_ansatz(cfg: ScanConfig, lam: float, method: str, stages: dict) -> dict:
    """One trial-state row; stages holds the optimizer stages of its point (see solve_ansatz).

    An unconverged solve gives a converged=0 row with its best-so-far
    state, or with only the grid fields when it reached no finite energy.
    """
    mp = ModelParams.from_lambda(cfg.delta, lam, cfg.omega, cfg.tau)
    kind = AnsatzKind(method)
    res = solve_ansatz(mp, kind, cfg.parity, stages)
    row = {"lambda": lam, "g": mp.g, "method": method, "parity": cfg.parity, "converged": res.converged}
    p = res.params
    if p is None:
        return row
    row["energy"] = res.energy
    row["energy_scaled"] = res.energy / (cfg.delta * cfg.omega)
    row.update(beta1=p.a[0], xi=p.xi)
    if kind.two_branch:  # one-packet rows leave beta2, c1 and c2 empty
        row.update(beta2=-p.a[1], c1=p.c[0], c2=p.c[1])
    try:
        row["mean_photon"] = mean_photon(p)
    except DegenerateAnsatz:
        pass
    return row


def run_scan(cfg: ScanConfig, out_dir: str) -> list:
    """Energy/observable scan over a lambda grid; one row per (point, method).

    Every row is computed in cfg.parity and depends only on cfg and its
    lambda: the solves start from fixed seeds, never from a neighboring
    point, so the points are shared among this process and one worker
    process per further available CPU (see _mapped_rows).  Unknown
    methods, an empty or repeated method list, an unknown parity and
    single-packet methods with odd parity raise InvalidConfig before
    anything is written, as does any input _check_model rejects.
    """
    _check_model(cfg)
    if cfg.parity not in PARITIES:
        raise InvalidConfig(f"parity must be even or odd, got {cfg.parity!r}")
    _check_methods("scan", cfg.methods, METHODS)
    single = [m for m in cfg.methods if m != "ED" and not AnsatzKind(m).two_branch]
    if cfg.parity == "odd" and single:
        raise InvalidConfig(f"odd parity needs two-packet methods or ED, got {single}")

    def rows_at(lam, methods):
        stages = {}
        for method in methods:
            yield _scan_row_ed(cfg, lam) if method == "ED" else _scan_row_ansatz(cfg, lam, method, stages)

    panels = [
        ("E / (delta*omega)", [(f"{m}.tsv", "energy_scaled", "lines", m) for m in cfg.methods]),
        ("mean photon number", [(f"{m}.tsv", "mean_photon", "lines", m) for m in cfg.methods]),
    ]
    if "CSS2" in cfg.methods:
        panels += [
            ("coefficients", [("CSS2.tsv", c, "lines", c) for c in ("c1", "c2")]),
            ("packet parameters", [("CSS2.tsv", c, "lines", c) for c in ("beta1", "beta2", "xi")]),
        ]
    return _run_grid("scan", cfg, out_dir, "lambda", SCAN_COLUMNS, rows_at, panels)


def _interp_crossings(ratios, values) -> list:
    """Every sign change over the grid.

    Every nonzero value carries an exact sign (a closed-form or certified
    splitting).  Signs are compared directly, since the product of two tiny
    splittings can underflow.  Between neighboring values of opposite sign
    the crossing is linearly interpolated.  An exact zero between values of
    opposite sign is the crossing itself, at the zero's grid value (the
    middle one of a run of zeros, the lower of the two middle ones for an
    even run).  A zero between values of the same sign, or with no signed
    value on one side, is no crossing.
    """
    signed = [i for i, v in enumerate(values) if v != 0.0]
    crossings = []
    for i, j in zip(signed, signed[1:]):
        (r1, v1), (r2, v2) = (ratios[i], values[i]), (ratios[j], values[j])
        if (v1 < 0.0) != (v2 < 0.0):
            crossings.append(r1 + (r2 - r1) * (-v1) / (v2 - v1) if j == i + 1 else ratios[(i + j) // 2])
    return crossings


def _parity_disagreements(rows, grid) -> list:
    """[first, last] g/g_c1 of each run of consecutive grid points where ED and CSS2 disagree.

    A point disagrees when both methods' rows carry a signed (nonzero)
    splitting and the signs differ, i.e. the two methods put the ground
    state in opposite parities; a point where either row has no sign ends
    the run.
    """
    negative = {(r["method"], r["g_ratio"]): r["splitting"] < 0.0 for r in rows if r.get("splitting")}
    runs, run = [], None
    for ratio in grid:
        ed, css2 = negative.get(("ED", ratio)), negative.get(("CSS2", ratio))
        if ed is None or css2 is None or ed == css2:
            run = None
        elif run is None:
            run = [ratio, ratio]
            runs.append(run)
        else:
            run[1] = ratio
    return runs


def _lowest(split, even, odd):
    """The one of even and odd that the splitting E_even - E_odd puts lowest.

    Odd when the splitting is positive, even when it is negative, and None
    when it carries no sign (an exact 0, or None for an unresolved or
    unconverged pair).  Every reading of a ground parity goes through it:
    the levels rows and both wavefunction sources.
    """
    return None if not split else (even if split < 0.0 else odd)


def _level_fields(e_even, e_odd, split, n_even, n_odd) -> dict:
    """The energy, splitting and photon fields of a levels row.

    mean_photon_ground is the photon number of the parity the splitting
    puts lowest (see _lowest); None for no splitting or an exact 0.
    """
    return dict(
        e_even=e_even, e_odd=e_odd, splitting=split, mean_photon_even=n_even, mean_photon_odd=n_odd,
        mean_photon_ground=_lowest(split, n_even, n_odd),
    )


def _ed_pair(mp: ModelParams, trunc: Truncation):
    """The even and odd ED sector ground levels and their certified splitting (a SectorSplitting).

    The float sector energies differ by noise once the splitting drops
    below eps * |E|, so the splitting comes from the certified
    extended-precision solve of the two sector solves (sector_splitting),
    started at the larger of their cutoffs; an unresolved splitting is
    None.  TruncationNotConverged from a sector solve propagates.
    """
    even, odd = (solve_parity_sector(mp, trunc, parity) for parity in PARITIES)
    return even, odd, sector_splitting(mp, even, odd)


def _levels_row_ed(cfg: LevelsConfig, ratio: float, gc1: float) -> dict:
    """One ED levels row (see _ed_pair).

    It records the cutoff the float sector solves needed and the certified
    solve's error bound, digits and cutoff, resolved or not.
    """
    g = ratio * gc1
    mp = ModelParams(delta=cfg.delta, omega=cfg.omega, g=g, tau=cfg.tau)
    row = {"g_ratio": ratio, "g": g, "lambda": mp.lam, "method": "ED"}
    try:
        even, odd, certified = _ed_pair(mp, Truncation(cfg.n_tr, cfg.tail_tol))
    except TruncationNotConverged:
        row["converged"] = False
        return row
    row.update(
        _level_fields(even.energy, odd.energy, certified.splitting, mean_photon_ed(even), mean_photon_ed(odd)),
        converged=True, n_tr_used=max(even.n_tr_used, odd.n_tr_used), split_error=certified.error,
        split_digits=certified.digits, split_n_tr=certified.n_tr,
    )
    return row


def _css2_pair(mp: ModelParams):
    """The even and odd CSS2 optima and the splitting E_even - E_odd, None unless both converged.

    The two parity optima coincide up to overlap-suppressed terms, so the
    splitting is evaluated in closed form at the even optimum instead of
    subtracting two nearly equal minima.  A reduced even optimum is one
    packet, whose mirror is not the odd optimum: there, below the
    delocalization threshold, the minima lie apart (by omega at g = 0)
    and their difference is the splitting.
    """
    even, odd = (solve_ansatz(mp, AnsatzKind.CSS2, parity) for parity in PARITIES)
    if not (even.converged and odd.converged):
        return even, odd, None
    return even, odd, even.energy - odd.energy if even.reduced else parity_splitting_2css(mp, even.params)


def _levels_row_css2(cfg: LevelsConfig, ratio: float, gc1: float) -> dict:
    g = ratio * gc1
    mp = ModelParams(delta=cfg.delta, omega=cfg.omega, g=g, tau=cfg.tau)
    even, odd, split = _css2_pair(mp)
    row = {"g_ratio": ratio, "g": g, "lambda": mp.lam, "method": "CSS2", "converged": split is not None}
    if split is None:
        # Each parity's best-so-far energy, but no splitting or photon
        # numbers: an unconverged row never enters the crossing.
        row.update({f"e_{fit.parity}": fit.energy for fit in (even, odd) if fit.params is not None})
    else:
        row.update(_level_fields(even.energy, odd.energy, split, mean_photon(even.params), mean_photon(odd.params)))
    return row


def run_levels(cfg: LevelsConfig, out_dir: str) -> list:
    """Even/odd level tracking around the crossing coupling (tau < 1; methods ED, CSS2).

    meta.json records g_c1 and, per method, every sign change of the
    splitting (crossings) and the first of them (crossing, None if none);
    with both methods, also the g/g_c1 ranges where their splittings have
    opposite signs (parity_disagreements, see _parity_disagreements).
    The grid points are shared among this process and one worker process
    per further available CPU (see _mapped_rows).
    """
    _check_model(cfg)
    if cfg.tau >= 1.0:
        raise InvalidTau(f"levels requires tau < 1, got {cfg.tau}")
    _check_methods("levels", cfg.methods, ("ED", "CSS2"))
    gc1 = ModelParams(delta=cfg.delta, omega=cfg.omega, g=1.0, tau=cfg.tau).g_c1

    def rows_at(ratio, methods):
        for method in methods:
            yield _levels_row_ed(cfg, ratio, gc1) if method == "ED" else _levels_row_css2(cfg, ratio, gc1)

    def summary(rows):
        crossings = {}
        for method in cfg.methods:
            sub = [r for r in rows if r["method"] == method and r.get("splitting") is not None]
            crossings[method] = _interp_crossings([r["g_ratio"] for r in sub], [r["splitting"] for r in sub])
        first = {method: found[0] if found else None for method, found in crossings.items()}
        extra = {"g_c1": gc1, "crossing": first, "crossings": crossings}
        if {"ED", "CSS2"} <= set(cfg.methods):
            extra["parity_disagreements"] = _parity_disagreements(rows, cfg.grid())
        return extra

    panels = [
        ("energy", [
            (f"{m}.tsv", column, style, f"{m} {parity}")
            for m in cfg.methods
            for column, style, parity in (("e_even", "lines", "even"), ("e_odd", "lines dt 2", "odd"))
        ]),
        ("ground-state mean photon number",
         [(f"{m}.tsv", "mean_photon_ground", "lines", m) for m in cfg.methods]),
    ]
    return _run_grid("levels", cfg, out_dir, "g_ratio", LEVELS_COLUMNS, rows_at, panels, summary)


def run_wavefunction(cfg: WavefunctionConfig, out_dir: str) -> list:
    """Position-space spin-projected profiles per coupling; returns summary rows.

    Each coupling is solved on its own, as a scan row is.  Both sources
    profile the parity their levels splitting puts lowest (see _lowest):
    ED the sector ground level of _ed_pair, CSS2 the optimum of
    _css2_pair.  That is the odd one when the splitting is positive and
    the even one otherwise, also when the splitting is 0 or None; a CSS2
    profile's -x component takes the factor +1 for odd and -1 for even.
    TruncationNotConverged from an ED sector solve propagates.  A profiled
    CSS2 solve that does not converge is profiled at its best-so-far
    state, and meta.json lists such couplings under unconverged_lambdas;
    one that reaches no finite energy raises RuntimeError naming its
    coupling.
    Before the first profile is written, the derived files of an earlier
    run of any data command in out_dir (DERIVED_FILES and combined.tsv, see
    clear_derived) are deleted and meta.json records the new config, so no
    file sits under a config it was not computed for, even after an
    interrupted run.
    """
    _check_model(cfg)
    if cfg.source not in ("ED", "CSS2"):
        raise InvalidConfig(f"source must be ED or CSS2, got {cfg.source!r}")
    _check_list("lambdas", cfg.lambdas)
    clear_derived(out_dir, DERIVED_FILES + ("combined.tsv",))
    os.makedirs(out_dir, exist_ok=True)
    config = asdict(cfg)
    _write_meta(out_dir, "wavefunction", config)
    xs = cfg.xs()
    summary = []
    unconverged = []
    for lam in cfg.lambdas:
        mp = ModelParams.from_lambda(cfg.delta, lam, cfg.omega, cfg.tau)
        if cfg.source == "ED":
            even, odd, certified = _ed_pair(mp, Truncation(cfg.n_tr, cfg.tail_tol))
            res = _lowest(certified.splitting, even, odd) or even
            phi_p, phi_m = position_profile(*spin_x_projection(res), xs, cfg.omega)
        else:
            even, odd, split = _css2_pair(mp)
            res = _lowest(split, even, odd) or even
            p, sign = res.params, -parity_sign(res.parity)
            if p is None:
                raise RuntimeError(f"the CSS2 solve at lambda {lam} reached no finite energy")
            if not res.converged:
                unconverged.append(lam)
            scale = 1.0 / math.sqrt(norm2(p))

            def profile(b):
                return gaussian_packet_profile(xs, b, p.xi, cfg.omega)

            phi_p, phi_m = scale * superpose(p, -1.0, profile), sign * scale * superpose(p, 1.0, profile)
        fname = f"wf_{cfg.source}_lam{_fmt(lam)}.tsv"
        write_table(
            os.path.join(out_dir, fname),
            PROFILE_COLUMNS,
            [{"x": x, "phi_plus": pp, "phi_minus": pm} for x, pp, pm in zip(xs, phi_p, phi_m)],
        )
        summary.append({
            "lambda": lam, "source": cfg.source,
            "peaks_plus": count_peaks(phi_p**2), "peaks_minus": count_peaks(phi_m**2),
            "norm": float(np.trapezoid(phi_p**2 + phi_m**2, xs)), "file": fname,
        })
    write_table(
        os.path.join(out_dir, "summary.tsv"),
        ("lambda", "source", "peaks_plus", "peaks_minus", "norm", "file"),
        summary,
    )
    extra = {"unconverged_lambdas": unconverged} if unconverged else None
    _write_meta(out_dir, "wavefunction", config, extra)
    series = [
        (s["file"], column, style, f"{s['file'][3:-4]} {phi}")
        for s in summary
        for column, style, phi in (("phi_plus", "lines", "phi+"), ("phi_minus", "lines dt 2", "phi-"))
    ]
    _emit_plot(out_dir, "wavefunction", [("phi(x)", series)])
    return summary


# Per command: the data named in the header line, terminal size, png name,
# multiplot layout (None for a single panel), x label and the data files'
# columns (column 1 is the x axis).
_PLOTS = {
    "scan": ("scan", "1200,900", "scan.png", "2,2", "lambda", SCAN_COLUMNS),
    "levels": ("level-crossing", "1200,500", "levels.png", "1,2", "g / g_c1", LEVELS_COLUMNS),
    "wavefunction": ("wavefunction", "900,600", "wavefunction.png", None, "x", PROFILE_COLUMNS),
}


def _emit_plot(out_dir: str, command: str, panels) -> None:
    """plot.gp: one panel per (ylabel, [(file, column name, line style, title)])."""
    data, size, png, layout, xlabel, columns = _PLOTS[command]
    lines = [
        f"# gnuplot script generated alongside the {data} data",
        f"set terminal pngcairo size {size}",
        f"set output '{png}'",
    ]
    if layout:
        lines.append(f"set multiplot layout {layout}")
    lines.append(f"set xlabel '{xlabel}'")
    for ylabel, series in panels:
        lines.append(f"set ylabel '{ylabel}'")
        lines.append("plot " + ", ".join(
            f"'{file}' skip 1 using 1:{columns.index(column) + 1} with {style} title '{title}'"
            for file, column, style, title in series
        ))
    if layout:
        lines.append("unset multiplot")
    write_whole(os.path.join(out_dir, "plot.gp"), "\n".join(lines) + "\n")
