"""Command-line driver: scan, levels, wavefunction and verify subcommands.

Configuration comes from an optional JSON file (--config) whose keys match
the dataclass fields in :mod:`rabivar.scan`; command-line flags override
file values.  All physical inputs are in units of omega.  Input a command
rejects (a --config file that cannot be read or holds no JSON object, an
unknown config key or method, an empty or repeated methods or lambdas
list, a numeric value that is not a number, a bool included, a parity
other than even or odd, odd parity with CS1/CSS1, tau >= 1 for levels, a
source other than ED or CSS2, delta or omega <= 0, tau < 0, a non-finite
delta, omega or tau, a negative or non-finite lambda_min, g_min or
lambdas entry, a coupling g whose squared chain link (g max(1, tau))^2 n
overflows at n the larger of n_tr and N_TR_CAP, a grid step that is not
positive and finite, a grid max below its min or not finite, a grid of
more than a million points, n_tr not an integer from 0 to 8192
(model.N_TR_MAX), tail_tol outside (0, 1), a negative verify seed, an
--out that names a file or lies under one) ends it before anything is
computed or written, with one line "rabivar: error: ..." on stderr and
exit status 2, as argparse does for malformed flags.  --parity and
--source are checked there too, not by argparse, so a flag and a config
file value get the same one line.

An unconverged trial-state solve is not an input error: scan and levels
write it as a converged=0 row, wavefunction lists its coupling under
unconverged_lambdas, and verify ends with the RuntimeError physics_checks
raises for it, exit status 1.

Every command follows the output rule of :mod:`rabivar.scan`: it deletes
the files it derives from an earlier run in --out before it computes
anything, and writes each file whole.  scan, levels and wavefunction
derive one set of files, so each also deletes the others' tables,
profiles and plot script.  verify --out derives verify.txt and
verify.json and touches no other file but their temporary files, since
the directory may also hold another command's outputs; a verify that
fails leaves neither report, and creates no directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InvalidConfig
from .scan import (
    LevelsConfig,
    ScanConfig,
    WavefunctionConfig,
    clear_derived,
    run_levels,
    run_scan,
    run_wavefunction,
    write_whole,
)
from .verify import DEFAULT_SEED, format_json, format_report, run_all


def _add_common(p):
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--delta", type=float, help="level splitting (units of omega)")
    p.add_argument("--omega", type=float, help="mode frequency (default 1)")
    p.add_argument("--tau", type=float, help="anisotropy ratio")
    p.add_argument("--ntr", type=int, dest="n_tr", help="initial Fock cutoff")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rabivar",
        description="Variational packet ansaetze and exact diagonalization "
        "for the anisotropic quantum Rabi model.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="energy/observable scan over a lambda grid")
    _add_common(p)
    p.add_argument("--lambda-min", type=float, dest="lambda_min")
    p.add_argument("--lambda-max", type=float, dest="lambda_max")
    p.add_argument("--lambda-step", type=float, dest="lambda_step")
    p.add_argument("--methods", help="comma list from ED,CS1,CSS1,CS2,CSS2")
    p.add_argument("--parity", help="even (default) or odd")

    p = sub.add_parser("levels", help="even/odd levels around the crossing coupling")
    _add_common(p)
    p.add_argument("--g-min", type=float, dest="g_min", help="lower g in units of g_c1")
    p.add_argument("--g-max", type=float, dest="g_max", help="upper g in units of g_c1")
    p.add_argument("--g-step", type=float, dest="g_step")
    p.add_argument("--methods", help="comma list from ED,CSS2")

    p = sub.add_parser("wavefunction", help="position-space profiles of the ground state")
    _add_common(p)
    p.add_argument("--lambdas", help="comma list of lambda values")
    p.add_argument("--x-min", type=float, dest="x_min")
    p.add_argument("--x-max", type=float, dest="x_max")
    p.add_argument("--x-step", type=float, dest="x_step")
    p.add_argument("--source", help="ED (default) or CSS2")

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--out", help="optional directory for verify.txt and verify.json")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return ap


def _load_config(args, cls, list_fields=()):
    values = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                values = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InvalidConfig(f"cannot read config {args.config!r}: {exc}") from None
        if not isinstance(values, dict):
            raise InvalidConfig(f"config {args.config!r} must hold a JSON object, got {type(values).__name__}")
    for key in cls.__dataclass_fields__:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    for key in list_fields:
        if key in values and isinstance(values[key], str):
            parts = [s for s in values[key].split(",") if s]
            try:
                values[key] = tuple(float(s) if key == "lambdas" else s for s in parts)
            except ValueError:
                raise InvalidConfig(f"{key} must be a comma list of numbers, got {values[key]!r}") from None
        elif isinstance(values.get(key), list):
            values[key] = tuple(values[key])
        elif key in values:
            raise InvalidConfig(f"{key} must be a comma list or a JSON list, got {values[key]!r}")
    unknown = set(values) - set(cls.__dataclass_fields__)
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    return cls(**values)


def main(argv=None) -> int:
    """Run one command; input the command rejects exits with status 2 and a one-line error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except InvalidConfig as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


def _check_out(out):
    """Reject an output path that cannot be a directory: it, or its nearest existing ancestor, is a file."""
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise InvalidConfig(f"--out must name a directory, but {path!r} exists and is not one")


def _run(args) -> int:
    if args.out:
        _check_out(args.out)
    if args.command == "scan":
        cfg = _load_config(args, ScanConfig, list_fields=("methods",))
        run_scan(cfg, args.out)
        print(f"scan written to {args.out}")
        return 0
    if args.command == "levels":
        cfg = _load_config(args, LevelsConfig, list_fields=("methods",))
        run_levels(cfg, args.out)
        with open(os.path.join(args.out, "meta.json")) as fh:
            meta = json.load(fh)
        print(f"levels written to {args.out}; crossings: {meta['crossing']}")
        return 0
    if args.command == "wavefunction":
        cfg = _load_config(args, WavefunctionConfig, list_fields=("lambdas",))
        summary = run_wavefunction(cfg, args.out)
        for row in summary:
            print(
                f"lambda={row['lambda']}: peaks_plus={row['peaks_plus']} "
                f"peaks_minus={row['peaks_minus']} norm={row['norm']:.6f}"
            )
        return 0
    if args.command == "verify":
        if args.seed < 0:
            raise InvalidConfig(f"seed must be non-negative, got {args.seed}")
        if args.out:
            clear_derived(args.out, ("verify.txt", "verify.json"))
        results = run_all(seed=args.seed)
        report = format_report(results)
        sys.stdout.write(report)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            write_whole(os.path.join(args.out, "verify.txt"), report)
            write_whole(os.path.join(args.out, "verify.json"), format_json(results))
        return 0 if all(r.passed for r in results) else 1
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
