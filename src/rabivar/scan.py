"""Parameter-scan drivers and reproducible tabular output.

All data files are tab-separated text with a header row; floats are written
with shortest-roundtrip repr so files parse back bit-exactly and repeated
runs are byte-identical.  A JSON sidecar records the full configuration and
package version (never timestamps or absolute paths).  Scans are
restartable: when the stored meta.json has the same physics config (every
field but the grid bounds, step and methods), existing rows are kept and
only missing (grid point, method) combinations are recomputed,
warm-starting from the stored neighbors; otherwise every row is recomputed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .errors import DegenerateAnsatz, InvalidTau, NoConvergence, TruncationNotConverged
from .exactdiag import (
    mean_photon_ed,
    sector_splitting,
    solve_lowest,
    solve_parity_sector,
    spin_x_projection,
)
from .model import ModelParams, Truncation
from .optimize import solve_ansatz
from .states import count_peaks, gaussian_packet_profile, position_profile
from .variational import (
    Ansatz1Params,
    Ansatz2Params,
    AnsatzKind,
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


def write_table(path: str, columns, rows) -> None:
    lines = ["\t".join(columns)]
    for row in rows:
        lines.append("\t".join(_fmt(row.get(c)) for c in columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path: str):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        return [], []
    columns = lines[0].split("\t")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        parts = line.split("\t")
        rows.append({c: _parse(v) for c, v in zip(columns, parts)})
    return columns, rows


def _write_meta(out_dir: str, command: str, config: dict, extra: dict | None = None) -> None:
    meta = {"command": command, "config": config, "version": __version__}
    if extra:
        meta.update(extra)
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
        n = int(round((self.lambda_max - self.lambda_min) / self.lambda_step))
        return [round(self.lambda_min + i * self.lambda_step, 12) for i in range(n + 1)]


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
        n = int(round((self.g_max - self.g_min) / self.g_step))
        return [round(self.g_min + i * self.g_step, 12) for i in range(n + 1)]


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


def _scan_row_ed(cfg: ScanConfig, lam: float) -> dict:
    mp = ModelParams.from_lambda(cfg.delta, lam, cfg.omega, cfg.tau)
    row = {"lambda": lam, "g": mp.g, "method": "ED", "parity": cfg.parity}
    try:
        res = solve_lowest(mp, Truncation(cfg.n_tr, cfg.tail_tol))
        row["energy"] = res.energies[0]
        row["energy_scaled"] = res.energies[0] / (cfg.delta * cfg.omega)
        row["mean_photon"] = mean_photon_ed(res.vectors[0])
        row["converged"] = True
    except TruncationNotConverged:
        row["converged"] = False
    return row


def _scan_row_ansatz(cfg: ScanConfig, lam: float, method: str, warm) -> dict:
    mp = ModelParams.from_lambda(cfg.delta, lam, cfg.omega, cfg.tau)
    kind = AnsatzKind(method)
    row = {"lambda": lam, "g": mp.g, "method": method, "parity": cfg.parity}
    try:
        res = solve_ansatz(mp, kind, cfg.parity, warm=warm)
    except NoConvergence as exc:
        if exc.best is None:
            row["converged"] = False
            return row
        res = exc.best
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
    """Energy/observable scan over a lambda grid; one row per (point, method)."""
    os.makedirs(out_dir, exist_ok=True)
    config = asdict(cfg) | {"methods": list(cfg.methods)}
    existing = _stored_rows(out_dir, "scan", config, "lambda", ("lambda_min", "lambda_max", "lambda_step"))

    grid = cfg.grid()
    rows = []
    for method in cfg.methods:
        warm = None
        for lam in grid:
            key = (method, _fmt(lam))
            if key in existing:
                row = existing[key]
            elif method == "ED":
                row = _scan_row_ed(cfg, lam)
            else:
                row = _scan_row_ansatz(cfg, lam, method, warm)
            rows.append(row)
            if method != "ED":
                warm = _params_from_row(row)

    rows.sort(key=lambda r: (METHODS.index(r["method"]), r["lambda"]))
    for method in cfg.methods:
        write_table(
            os.path.join(out_dir, f"{method}.tsv"),
            SCAN_COLUMNS,
            [r for r in rows if r["method"] == method],
        )
    write_table(os.path.join(out_dir, "combined.tsv"), SCAN_COLUMNS, rows)
    _write_meta(out_dir, "scan", config)
    _emit_scan_plot(out_dir, cfg)
    return rows


def _interp_crossing(ratios, values):
    """First sign change over the grid, linearly interpolated.

    Every value carries an exact sign (a closed-form or certified
    splitting); an exact zero has none and is skipped.  Signs are compared
    directly, since the product of two tiny splittings can underflow.
    """
    resolved = [(r, v) for r, v in zip(ratios, values) if v != 0.0]
    for (r1, v1), (r2, v2) in zip(resolved, resolved[1:]):
        if (v1 < 0.0) != (v2 < 0.0):
            return r1 + (r2 - r1) * (-v1) / (v2 - v1)
    return None


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
    """Even/odd level tracking around the crossing coupling (tau < 1 only)."""
    if cfg.tau >= 1.0:
        raise InvalidTau(f"levels requires tau < 1, got {cfg.tau}")
    os.makedirs(out_dir, exist_ok=True)
    gc1 = ModelParams(delta=cfg.delta, omega=cfg.omega, g=1.0, tau=cfg.tau).g_c1
    config = asdict(cfg) | {"methods": list(cfg.methods)}
    existing = _stored_rows(out_dir, "levels", config, "g_ratio", ("g_min", "g_max", "g_step"))

    grid = cfg.grid()
    rows = []
    for method in cfg.methods:
        for ratio in grid:
            key = (method, _fmt(ratio))
            if key in existing:
                row = existing[key]
            elif method == "ED":
                row = _levels_row_ed(cfg, ratio, gc1)
            else:
                row = _levels_row_css2(cfg, ratio, gc1)
            rows.append(row)
    rows.sort(key=lambda r: (r["method"], r["g_ratio"]))

    crossings = {}
    for method in cfg.methods:
        sub = [r for r in rows if r["method"] == method and r.get("splitting") is not None]
        crossings[method] = _interp_crossing(
            [r["g_ratio"] for r in sub], [r["splitting"] for r in sub]
        )

    for method in cfg.methods:
        write_table(
            os.path.join(out_dir, f"{method}.tsv"),
            LEVELS_COLUMNS,
            [r for r in rows if r["method"] == method],
        )
    write_table(os.path.join(out_dir, "combined.tsv"), LEVELS_COLUMNS, rows)
    _write_meta(out_dir, "levels", config, {"g_c1": gc1, "crossing": crossings})
    _emit_levels_plot(out_dir, cfg)
    return rows


def run_wavefunction(cfg: WavefunctionConfig, out_dir: str) -> list:
    """Position-space spin-projected profiles per coupling; returns summary rows."""
    if cfg.source not in ("ED", "CSS2"):
        raise ValueError(f"source must be ED or CSS2, got {cfg.source!r}")
    os.makedirs(out_dir, exist_ok=True)
    xs = cfg.xs()
    summary = []
    warm = None
    for lam in cfg.lambdas:
        mp = ModelParams.from_lambda(cfg.delta, lam, cfg.omega, cfg.tau)
        if cfg.source == "ED":
            res = solve_lowest(mp, Truncation(cfg.n_tr, cfg.tail_tol))
            c_plus, c_minus = spin_x_projection(res.vectors[0])
            prof = position_profile(c_plus, c_minus, xs, cfg.omega)
            phi_p, phi_m = prof.phi_plus, prof.phi_minus
            peaks_p, peaks_m = prof.peaks_plus, prof.peaks_minus
        else:
            r = solve_ansatz(mp, AnsatzKind.CSS2, "even", warm=warm)
            warm = r.params
            p = r.params
            scale = 1.0 / math.sqrt(norm2_2css(p))
            phi_p = scale * (
                p.c1 * gaussian_packet_profile(xs, -p.beta1, p.xi, cfg.omega)
                + p.c2 * gaussian_packet_profile(xs, +p.beta2, p.xi, cfg.omega)
            )
            phi_m = -scale * (
                p.c1 * gaussian_packet_profile(xs, +p.beta1, p.xi, cfg.omega)
                + p.c2 * gaussian_packet_profile(xs, -p.beta2, p.xi, cfg.omega)
            )
            peaks_p = count_peaks(phi_p**2)
            peaks_m = count_peaks(phi_m**2)
        norm = float(np.trapezoid(phi_p**2 + phi_m**2, xs))
        fname = f"wf_{cfg.source}_lam{_fmt(lam)}.tsv"
        write_table(
            os.path.join(out_dir, fname),
            ("x", "phi_plus", "phi_minus"),
            [{"x": x, "phi_plus": pp, "phi_minus": pm} for x, pp, pm in zip(xs, phi_p, phi_m)],
        )
        summary.append(
            {
                "lambda": lam,
                "source": cfg.source,
                "peaks_plus": peaks_p,
                "peaks_minus": peaks_m,
                "norm": norm,
                "file": fname,
            }
        )
    write_table(
        os.path.join(out_dir, "summary.tsv"),
        ("lambda", "source", "peaks_plus", "peaks_minus", "norm", "file"),
        summary,
    )
    _write_meta(out_dir, "wavefunction", asdict(cfg) | {"lambdas": list(cfg.lambdas)})
    _emit_wavefunction_plot(out_dir, cfg, [s["file"] for s in summary])
    return summary


def _emit_scan_plot(out_dir: str, cfg: ScanConfig) -> None:
    methods = [m for m in cfg.methods]
    energy_plots = ", ".join(
        f"'{m}.tsv' skip 1 using 1:6 with lines title '{m}'" for m in methods
    )
    photon_plots = ", ".join(
        f"'{m}.tsv' skip 1 using 1:7 with lines title '{m}'" for m in methods
    )
    lines = [
        "# gnuplot script generated alongside the scan data",
        "set terminal pngcairo size 1200,900",
        "set output 'scan.png'",
        "set multiplot layout 2,2",
        "set xlabel 'lambda'",
        "set ylabel 'E / (delta*omega)'",
        f"plot {energy_plots}",
        "set ylabel 'mean photon number'",
        f"plot {photon_plots}",
    ]
    if "CSS2" in methods:
        lines += [
            "set ylabel 'coefficients'",
            "plot 'CSS2.tsv' skip 1 using 1:10 with lines title 'c1', "
            "'CSS2.tsv' skip 1 using 1:11 with lines title 'c2'",
            "set ylabel 'packet parameters'",
            "plot 'CSS2.tsv' skip 1 using 1:8 with lines title 'beta1', "
            "'CSS2.tsv' skip 1 using 1:9 with lines title 'beta2', "
            "'CSS2.tsv' skip 1 using 1:12 with lines title 'xi'",
        ]
    lines += ["unset multiplot"]
    with open(os.path.join(out_dir, "plot.gp"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit_levels_plot(out_dir: str, cfg: LevelsConfig) -> None:
    lines = [
        "# gnuplot script generated alongside the level-crossing data",
        "set terminal pngcairo size 1200,500",
        "set output 'levels.png'",
        "set multiplot layout 1,2",
        "set xlabel 'g / g_c1'",
        "set ylabel 'energy'",
        "plot "
        + ", ".join(
            f"'{m}.tsv' skip 1 using 1:5 with lines title '{m} even', "
            f"'{m}.tsv' skip 1 using 1:6 with lines dt 2 title '{m} odd'"
            for m in cfg.methods
        ),
        "set ylabel 'ground-state mean photon number'",
        "plot "
        + ", ".join(
            f"'{m}.tsv' skip 1 using 1:10 with lines title '{m}'" for m in cfg.methods
        ),
        "unset multiplot",
    ]
    with open(os.path.join(out_dir, "plot.gp"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit_wavefunction_plot(out_dir: str, cfg: WavefunctionConfig, files) -> None:
    plots = ", ".join(
        f"'{f}' skip 1 using 1:2 with lines title '{f[3:-4]} phi+', "
        f"'{f}' skip 1 using 1:3 with lines dt 2 title '{f[3:-4]} phi-'"
        for f in files
    )
    lines = [
        "# gnuplot script generated alongside the wavefunction data",
        "set terminal pngcairo size 900,600",
        "set output 'wavefunction.png'",
        "set xlabel 'x'",
        "set ylabel 'phi(x)'",
        f"plot {plots}",
    ]
    with open(os.path.join(out_dir, "plot.gp"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
