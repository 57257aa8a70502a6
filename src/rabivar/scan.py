"""Parameter-scan drivers and reproducible tabular output.

All data files are tab-separated text with a header row; floats are written
with shortest-roundtrip repr so files parse back bit-exactly and repeated
runs are byte-identical.  A JSON sidecar records the full configuration and
package version (never timestamps or absolute paths).  Scans and level
runs share one grid driver and are restartable: when the stored meta.json
has the same physics config (every field but the grid bounds, step and
methods), existing rows are kept and only missing (grid point, method)
combinations are recomputed, warm-starting from the stored neighbors;
otherwise every row is recomputed.  At each scan point the CS2/CSS2 rows
take their single-packet stage from the CS1/CSS1 row, stored or computed,
and CSS2 its guard from the CS2 row computed in the same run (see
solve_ansatz).  Each computed row is appended to combined.tsv as soon as
it is finished, so an interrupted run keeps its finished rows for the next
one.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .errors import DegenerateAnsatz, InvalidConfig, InvalidTau, NoConvergence, TruncationNotConverged
from .exactdiag import (
    mean_photon_ed,
    sector_splitting,
    solve_lowest,
    solve_parity_sector,
    spin_x_projection,
)
from .model import ModelParams, Truncation
from .optimize import OptResult, solve_ansatz
from .states import count_peaks, gaussian_packet_profile, position_profile
from .variational import (
    Ansatz1Params,
    Ansatz2Params,
    AnsatzKind,
    energy_grad_1css,
    mean_photon_1css,
    mean_photon_2css,
    norm2_2css,
    parity_splitting_2css,
)

METHODS = ("ED", "CS1", "CSS1", "CS2", "CSS2")

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
)

PROFILE_COLUMNS = ("x", "phi_plus", "phi_minus")


def _fmt(value) -> str:
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
    if value == "":
        return None
    try:
        return float(value)
    except ValueError:
        return value


def _line(columns, row) -> str:
    return "\t".join(_fmt(row.get(c)) for c in columns) + "\n"


def _replace(path: str, text: str) -> None:
    """Write text to path through a temporary file, so path is never half written."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_table(path: str, columns, rows) -> None:
    _replace(path, "\t".join(columns) + "\n" + "".join(_line(columns, row) for row in rows))


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
    _replace(os.path.join(out_dir, "meta.json"), json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _stored_rows(out_dir: str, command: str, config: dict, axis: str, grid_fields) -> dict:
    """Rows of an earlier run in out_dir that may be reused, keyed by (method, grid value).

    Rows are reused only when that run's meta.json records the same command
    and the same config on every field except the grid bounds and step
    (grid_fields) and the methods.  Any other difference, or a missing
    meta.json, means the stored rows may describe other physics, and none
    is reused.
    """
    try:
        with open(os.path.join(out_dir, "meta.json")) as fh:
            meta = json.load(fh)
        _, rows = read_table(os.path.join(out_dir, "combined.tsv"))
    except FileNotFoundError:
        return {}
    free = {"methods", *grid_fields}

    def physics(c):
        return {k: v for k, v in c.items() if k not in free}

    if meta.get("command") != command or physics(meta["config"]) != physics(config):
        return {}
    stored = {}
    for row in rows:
        if row.get("converged") is not None:
            row["converged"] = bool(row["converged"])
        stored[(row["method"], _fmt(row[axis]))] = row
    return stored


def _grid(lo: float, hi: float, step: float) -> list:
    n = int(round((hi - lo) / step))
    return [round(lo + i * step, 12) for i in range(n + 1)]


@dataclass
class ScanConfig:
    delta: float = 100.0
    omega: float = 1.0
    tau: float = 1.0
    lambda_min: float = 0.0
    lambda_max: float = 1.5
    lambda_step: float = 0.01
    methods: tuple = METHODS
    parity: str = "even"
    n_tr: int = 256
    tail_tol: float = 1e-12

    def grid(self):
        return _grid(self.lambda_min, self.lambda_max, self.lambda_step)


@dataclass
class LevelsConfig:
    delta: float = 100.0
    omega: float = 1.0
    tau: float = 0.5
    g_min: float = 0.9  # in units of the crossing coupling
    g_max: float = 1.1
    g_step: float = 0.005
    methods: tuple = ("ED", "CSS2")
    n_tr: int = 256
    tail_tol: float = 1e-12

    def grid(self):
        return _grid(self.g_min, self.g_max, self.g_step)


@dataclass
class WavefunctionConfig:
    delta: float = 100.0
    omega: float = 1.0
    tau: float = 1.0
    lambdas: tuple = (0.9, 1.1, 1.5)
    x_min: float = -25.0
    x_max: float = 25.0
    x_step: float = 0.01
    source: str = "ED"
    n_tr: int = 256
    tail_tol: float = 1e-12

    def xs(self):
        n = int(round((self.x_max - self.x_min) / self.x_step))
        return np.array([self.x_min + i * self.x_step for i in range(n + 1)])


def _params_from_row(row):
    """Rebuild warm-start parameters from a stored scan row."""
    if row.get("c1") is not None:
        return Ansatz2Params(row["c1"], row["c2"], row["beta1"], row["beta2"], row["xi"])
    if row.get("beta1") is not None:
        return Ansatz1Params(row["beta1"], row["xi"] or 0.0)
    return None


def _run_grid(command, cfg, out_dir, axis, grid_fields, columns, row_fn, panels, summary=None) -> list:
    """Rows of row_fn(method, grid value, warm start, point) over methods x grid, written out.

    The warm start is the same method's row at the previous grid value,
    rebuilt by _params_from_row; point maps each method done so far at the
    grid value, in METHODS order, to its stored or computed row.

    Stored rows of an equal physics config are reused.  combined.tsv is
    first rewritten with only those rows, before meta.json records the new
    config, so a stored row never sits under a config it was not computed
    for; each computed row is then appended as soon as it is finished.
    The finished run rewrites combined.tsv sorted by method, in METHODS
    order, then grid value, next to one <method>.tsv per method, meta.json
    (with summary(rows) added) and plot.gp.
    """
    os.makedirs(out_dir, exist_ok=True)
    config = asdict(cfg) | {"methods": list(cfg.methods)}
    stored = _stored_rows(out_dir, command, config, axis, grid_fields)
    grid = cfg.grid()
    keys = [(method, _fmt(value)) for method in cfg.methods for value in grid]
    combined = os.path.join(out_dir, "combined.tsv")
    write_table(combined, columns, [stored[key] for key in keys if key in stored])
    _write_meta(out_dir, command, config)

    rows = []
    points = {}
    with open(combined, "a") as fh:
        for method in cfg.methods:
            warm = None
            for value in grid:
                point = points.setdefault(_fmt(value), {})
                row = stored.get((method, _fmt(value)))
                if row is None:
                    row = row_fn(method, value, warm, point)
                    fh.write(_line(columns, row))
                    fh.flush()
                point[method] = row
                rows.append(row)
                warm = _params_from_row(row)

    rows.sort(key=lambda r: (METHODS.index(r["method"]), r[axis]))
    for method in cfg.methods:
        write_table(
            os.path.join(out_dir, f"{method}.tsv"), columns, [r for r in rows if r["method"] == method]
        )
    write_table(combined, columns, rows)
    _write_meta(out_dir, command, config, summary(rows) if summary else None)
    _emit_plot(out_dir, command, panels)
    return rows


def _scan_row_ed(cfg: ScanConfig, lam: float) -> dict:
    """The lowest level of the scanned parity sector, the one the row is labelled with."""
    mp = ModelParams.from_lambda(cfg.delta, lam, cfg.omega, cfg.tau)
    row = {"lambda": lam, "g": mp.g, "method": "ED", "parity": cfg.parity}
    try:
        res = solve_parity_sector(mp, Truncation(cfg.n_tr, cfg.tail_tol), +1 if cfg.parity == "even" else -1)
        row["energy"] = res.energies[0]
        row["energy_scaled"] = res.energies[0] / (cfg.delta * cfg.omega)
        row["mean_photon"] = mean_photon_ed(res.vectors[0])
        row["converged"] = True
    except TruncationNotConverged:
        row["converged"] = False
    return row


def _restored_result(cfg: ScanConfig, lam: float, row) -> OptResult | None:
    """A stored CS1/CSS1 row as the OptResult CS2/CSS2 reuse at its point.

    Rows round-trip exactly, so one objective evaluation at the stored
    optimum restores the gradient norm the solve reported.  Rows of other
    methods, and unconverged rows, give None.
    """
    kind = AnsatzKind(row["method"])
    if kind.two_branch or not row.get("converged"):
        return None
    mp = ModelParams.from_lambda(cfg.delta, lam, cfg.omega, cfg.tau)
    p = Ansatz1Params(row["beta1"], row["xi"])
    _, (de_beta, de_xi) = energy_grad_1css(mp, p.beta, p.xi)
    grad_norm = max(abs(de_beta), abs(de_xi)) if kind.squeezed else abs(de_beta)
    return OptResult(kind, "even", row["energy"], p, 0, grad_norm, True)


def _scan_row_ansatz(cfg: ScanConfig, lam: float, method: str, warm, solved: dict) -> dict:
    """One trial-state row.

    solved maps the kinds already solved at this point to their results
    (see solve_ansatz); this row's result is added to it.
    """
    mp = ModelParams.from_lambda(cfg.delta, lam, cfg.omega, cfg.tau)
    kind = AnsatzKind(method)
    row = {"lambda": lam, "g": mp.g, "method": method, "parity": cfg.parity}
    try:
        res = solve_ansatz(mp, kind, cfg.parity, warm=warm, solved=solved)
    except NoConvergence as exc:
        res = exc.best
    solved[kind] = res
    if res is None:
        row["converged"] = False
        return row
    p = res.params
    row["energy"] = res.energy
    row["energy_scaled"] = res.energy / (cfg.delta * cfg.omega)
    row["converged"] = res.converged
    if kind.two_branch:
        row.update(beta1=p.beta1, beta2=p.beta2, c1=p.c1, c2=p.c2, xi=p.xi)
        try:
            row["mean_photon"] = mean_photon_2css(p)
        except DegenerateAnsatz:
            pass
    else:
        row.update(beta1=p.beta, xi=p.xi, mean_photon=mean_photon_1css(p))
    return row


def run_scan(cfg: ScanConfig, out_dir: str) -> list:
    """Energy/observable scan over a lambda grid; one row per (point, method).

    Every row is computed in cfg.parity.  Unknown methods, an unknown
    parity and single-packet methods with odd parity raise InvalidConfig
    before anything is written.
    """
    if cfg.parity not in ("even", "odd"):
        raise InvalidConfig(f"parity must be even or odd, got {cfg.parity!r}")
    unknown = [m for m in cfg.methods if m not in METHODS]
    if unknown:
        raise InvalidConfig(f"scan methods must come from {', '.join(METHODS)}, got {unknown}")
    single = [m for m in cfg.methods if m != "ED" and not AnsatzKind(m).two_branch]
    if cfg.parity == "odd" and single:
        raise InvalidConfig(f"odd parity needs two-packet methods or ED, got {single}")

    solved = {}  # lambda -> {AnsatzKind: OptResult} of the kinds solved at that point in this call

    def row(method, lam, warm, point):
        if method == "ED":
            return _scan_row_ed(cfg, lam)
        at = solved.setdefault(lam, {})
        for m, done in point.items():
            if m != "ED" and AnsatzKind(m) not in at:  # a stored row
                at[AnsatzKind(m)] = _restored_result(cfg, lam, done)
        return _scan_row_ansatz(cfg, lam, method, warm, at)

    panels = [
        ("E / (delta*omega)", [(f"{m}.tsv", "energy_scaled", "lines", m) for m in cfg.methods]),
        ("mean photon number", [(f"{m}.tsv", "mean_photon", "lines", m) for m in cfg.methods]),
    ]
    if "CSS2" in cfg.methods:
        panels += [
            ("coefficients", [("CSS2.tsv", c, "lines", c) for c in ("c1", "c2")]),
            ("packet parameters", [("CSS2.tsv", c, "lines", c) for c in ("beta1", "beta2", "xi")]),
        ]
    grid_fields = ("lambda_min", "lambda_max", "lambda_step")
    return _run_grid("scan", cfg, out_dir, "lambda", grid_fields, SCAN_COLUMNS, row, panels)


def _interp_crossings(ratios, values) -> list:
    """Every sign change over the grid, each linearly interpolated.

    Every value carries an exact sign (a closed-form or certified
    splitting); an exact zero has none and is skipped.  Signs are compared
    directly, since the product of two tiny splittings can underflow.
    """
    resolved = [(r, v) for r, v in zip(ratios, values) if v != 0.0]
    return [
        r1 + (r2 - r1) * (-v1) / (v2 - v1)
        for (r1, v1), (r2, v2) in zip(resolved, resolved[1:])
        if (v1 < 0.0) != (v2 < 0.0)
    ]


def _levels_row_ed(cfg: LevelsConfig, ratio: float, gc1: float) -> dict:
    g = ratio * gc1
    mp = ModelParams(delta=cfg.delta, omega=cfg.omega, g=g, tau=cfg.tau)
    row = {"g_ratio": ratio, "g": g, "lambda": mp.lam, "method": "ED"}
    try:
        tr = Truncation(cfg.n_tr, cfg.tail_tol)
        even = solve_parity_sector(mp, tr, +1)
        odd = solve_parity_sector(mp, tr, -1)
    except TruncationNotConverged:
        row["converged"] = False
        return row
    # The float sector energies differ by noise once the splitting drops
    # below eps * |E|, so the splitting and the ground branch come from the
    # certified extended-precision solve; unresolved leaves both empty.
    split = sector_splitting(mp, max(even.n_tr_used, odd.n_tr_used)).splitting
    n_even, n_odd = mean_photon_ed(even.vectors[0]), mean_photon_ed(odd.vectors[0])
    row.update(
        e_even=even.energies[0], e_odd=odd.energies[0], splitting=split,
        mean_photon_even=n_even, mean_photon_odd=n_odd,
        mean_photon_ground=None if split is None else (n_even if split < 0.0 else n_odd),
        converged=True,
    )
    return row


def _levels_row_css2(cfg: LevelsConfig, ratio: float, gc1: float) -> dict:
    g = ratio * gc1
    mp = ModelParams(delta=cfg.delta, omega=cfg.omega, g=g, tau=cfg.tau)
    row = {"g_ratio": ratio, "g": g, "lambda": mp.lam, "method": "CSS2"}
    fits = {}
    for parity in ("even", "odd"):
        try:
            fits[parity] = solve_ansatz(mp, AnsatzKind.CSS2, parity)
        except NoConvergence as exc:
            row["converged"] = False
            fits[parity] = exc.best
    if row.get("converged") is False:
        # Each parity's best-so-far energy, but no splitting: an unconverged
        # row never enters the crossing.
        row.update({f"e_{parity}": fit.energy for parity, fit in fits.items() if fit is not None})
        return row
    even, odd = fits["even"], fits["odd"]
    # The two parity optima coincide up to overlap-suppressed terms, so the
    # splitting is evaluated in closed form at the even optimum instead of
    # subtracting two nearly equal minima.
    split = parity_splitting_2css(mp, even.params)
    n_even = mean_photon_2css(even.params)
    n_odd = mean_photon_2css(odd.params)
    row.update(
        e_even=even.energy, e_odd=odd.energy, splitting=split,
        mean_photon_even=n_even, mean_photon_odd=n_odd,
        mean_photon_ground=n_even if split <= 0.0 else n_odd,
        converged=even.converged and odd.converged,
    )
    return row


def run_levels(cfg: LevelsConfig, out_dir: str) -> list:
    """Even/odd level tracking around the crossing coupling (tau < 1; methods ED, CSS2).

    meta.json records g_c1 and, per method, every sign change of the
    splitting (crossings) and the first of them (crossing, None if none).
    """
    if cfg.tau >= 1.0:
        raise InvalidTau(f"levels requires tau < 1, got {cfg.tau}")
    unknown = [m for m in cfg.methods if m not in ("ED", "CSS2")]
    if unknown:
        raise InvalidConfig(f"levels methods must come from ED, CSS2, got {unknown}")
    gc1 = ModelParams(delta=cfg.delta, omega=cfg.omega, g=1.0, tau=cfg.tau).g_c1

    def row(method, ratio, warm, point):
        if method == "ED":
            return _levels_row_ed(cfg, ratio, gc1)
        return _levels_row_css2(cfg, ratio, gc1)

    def summary(rows):
        crossings = {}
        for method in cfg.methods:
            sub = [r for r in rows if r["method"] == method and r.get("splitting") is not None]
            crossings[method] = _interp_crossings([r["g_ratio"] for r in sub], [r["splitting"] for r in sub])
        first = {method: found[0] if found else None for method, found in crossings.items()}
        return {"g_c1": gc1, "crossing": first, "crossings": crossings}

    panels = [
        ("energy", [
            (f"{m}.tsv", column, style, f"{m} {parity}")
            for m in cfg.methods
            for column, style, parity in (("e_even", "lines", "even"), ("e_odd", "lines dt 2", "odd"))
        ]),
        ("ground-state mean photon number",
         [(f"{m}.tsv", "mean_photon_ground", "lines", m) for m in cfg.methods]),
    ]
    grid_fields = ("g_min", "g_max", "g_step")
    return _run_grid("levels", cfg, out_dir, "g_ratio", grid_fields, LEVELS_COLUMNS, row, panels, summary)


def run_wavefunction(cfg: WavefunctionConfig, out_dir: str) -> list:
    """Position-space spin-projected profiles per coupling; returns summary rows.

    A CSS2 solve that does not converge is profiled at its best-so-far
    state, the next coupling starts cold, and meta.json lists such
    couplings under unconverged_lambdas.
    """
    if cfg.source not in ("ED", "CSS2"):
        raise InvalidConfig(f"source must be ED or CSS2, got {cfg.source!r}")
    os.makedirs(out_dir, exist_ok=True)
    xs = cfg.xs()
    summary = []
    unconverged = []
    warm = None
    for lam in cfg.lambdas:
        mp = ModelParams.from_lambda(cfg.delta, lam, cfg.omega, cfg.tau)
        if cfg.source == "ED":
            res = solve_lowest(mp, Truncation(cfg.n_tr, cfg.tail_tol))
            prof = position_profile(*spin_x_projection(res.vectors[0]), xs, cfg.omega)
            phi_p, phi_m = prof.phi_plus, prof.phi_minus
        else:
            try:
                p = warm = solve_ansatz(mp, AnsatzKind.CSS2, "even", warm=warm).params
            except NoConvergence as exc:
                if exc.best is None:
                    raise
                # Profile the best-so-far state, but start the next lambda cold.
                p, warm = exc.best.params, None
                unconverged.append(lam)
            scale = 1.0 / math.sqrt(norm2_2css(p))
            phi_p = scale * (
                p.c1 * gaussian_packet_profile(xs, -p.beta1, p.xi, cfg.omega)
                + p.c2 * gaussian_packet_profile(xs, +p.beta2, p.xi, cfg.omega)
            )
            phi_m = -scale * (
                p.c1 * gaussian_packet_profile(xs, +p.beta1, p.xi, cfg.omega)
                + p.c2 * gaussian_packet_profile(xs, -p.beta2, p.xi, cfg.omega)
            )
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
    _write_meta(out_dir, "wavefunction", asdict(cfg) | {"lambdas": list(cfg.lambdas)}, extra)
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
    _replace(os.path.join(out_dir, "plot.gp"), "\n".join(lines) + "\n")
