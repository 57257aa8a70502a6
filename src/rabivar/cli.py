"""Command-line driver: scan, levels, wavefunction and verify subcommands.

Configuration comes from an optional JSON file (--config) whose keys match
the dataclass fields in :mod:`rabivar.scan`; command-line flags override
file values.  All physical inputs are in units of omega.  Input a command
rejects (an unknown config key or method, odd parity with CS1/CSS1,
tau >= 1 for levels, an unknown source) ends it before anything is
written, with one line "rabivar: error: ..." on stderr and exit status 2,
as argparse does for malformed flags.
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
    run_levels,
    run_scan,
    run_wavefunction,
)
from .verify import DEFAULT_SEED, format_report, run_all


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
    p.add_argument("--parity", choices=["even", "odd"])

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
    p.add_argument("--source", choices=["ED", "CSS2"])

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--out", help="optional directory for verify.txt")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return ap


def _load_config(args, cls, list_fields=()):
    values = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            values.update(json.load(fh))
    for key in cls.__dataclass_fields__:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    for key in list_fields:
        if key in values and isinstance(values[key], str):
            parts = [s for s in values[key].split(",") if s]
            values[key] = tuple(float(s) if key == "lambdas" else s for s in parts)
        elif key in values:
            values[key] = tuple(values[key])
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


def _run(args) -> int:
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
        results = run_all(seed=args.seed)
        report = format_report(results)
        sys.stdout.write(report)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, "verify.txt"), "w") as fh:
                fh.write(report)
        return 0 if all(r.passed for r in results) else 1
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
