"""Write rabivar's reference output trees, or compare two sets of them.

    python tools/trees.py OUT              # write every tree under OUT/<name>
    python tools/trees.py --compare A B    # compare two sets, file by file
    python tools/trees.py --threads OUT    # write every tree under OUT/1 and OUT/2, then compare them

The trees are the four commands of the README's CLI block, read from
README.md as ``test_readme_cli_block_parses`` reads them (``verify`` gains
``--out``); ``wavefunction --source CSS2`` on the README couplings;
``wavefunction --source ED`` at delta 8, tau 0.5, lambda 1.9, 2.2 and 3.5,
where the certified splitting puts the odd state lowest (+1.34e-23 at
lambda 3.5, below the float energies' resolution); the delta 10, tau 1.5
scan of the four trial states; and the odd delta 8, tau 0.5 scan of CS2
and CSS2.  Each command runs as ``python -m rabivar``
on the package of this checkout, one after another, with its ``--out``
set to ``OUT/<name>``.

``--compare`` prints one line per file of either set: ``identical``, or
``only in A``/``only in B``, or for a table the number of changed rows,
the largest relative difference |a - b| / max(|a|, |b|) of each numeric
column that changed (inf where a value appears or disappears), and each
row whose ``converged`` or ``reduced`` flag changed; for a JSON file the
top-level keys that differ, and in a levels ``meta.json`` each method whose
``crossing`` or ``crossings`` changed and whether ``parity_disagreements``
changed, in ``verify.json`` each check whose ``max_dev`` or ``passed``
changed; for any other file ``differs``.  It exits 0 only when every file
is identical.

``--threads`` writes every tree twice: each command runs with
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` set to 1 in its own
environment for ``OUT/1``, and to 2 for ``OUT/2``; no other process's
setting changes.  It then compares ``OUT/1`` with ``OUT/2`` as
``--compare`` does and exits 0 only when every file is identical, that is
when no output depends on the BLAS thread count.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
FLAGS = ("converged", "reduced")


def readme_commands():
    """The argv of each rabivar command line of the README's CLI block, continuations joined."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = fh.read().split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    return [argv[1:] for argv in lines if argv[:1] == ["rabivar"]]


def trees():
    """(name, rabivar argv without --out) of every reference tree."""
    named = []
    for argv in readme_commands():
        if "--out" in argv:
            i = argv.index("--out")
            argv = argv[:i] + argv[i + 2:]
        named.append((argv[0], argv))
    wavefunction = dict(named)["wavefunction"]
    i = wavefunction.index("--source")
    named.append(("wavefunction-css2", wavefunction[:i + 1] + ["CSS2"] + wavefunction[i + 2:]))
    grid = ["--lambda-min", "0", "--lambda-max", "2", "--lambda-step", "0.01"]
    named += [
        ("wavefunction-delta8", ["wavefunction", "--delta", "8", "--tau", "0.5", "--lambdas", "1.9,2.2,3.5",
                                 "--source", "ED"]),
        ("scan-delta10-tau1.5", ["scan", "--delta", "10", "--tau", "1.5", *grid, "--methods", "CS1,CSS1,CS2,CSS2"]),
        ("scan-odd-delta8", ["scan", "--delta", "8", "--tau", "0.5", *grid, "--methods", "CS2,CSS2", "--parity=odd"]),
    ]
    return named


def write(out: str, named=None, threads=None) -> int:
    """Write each (name, argv) of named, every tree by default, under out/<name>.

    threads, when given, is the BLAS thread count of each command's process.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    if threads is not None:
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    for name, argv in named or trees():
        print(f"{name}: rabivar {shlex.join(argv)}", flush=True)
        subprocess.run([sys.executable, "-m", "rabivar", *argv, "--out", os.path.join(out, name)], env=env, check=True)
    return 0


def write_threads(out: str, named=None) -> int:
    """Write the trees with one BLAS thread under out/1 and with two under out/2, and compare the two sets."""
    for threads in ("1", "2"):
        write(os.path.join(out, threads), named, threads)
    return compare(os.path.join(out, "1"), os.path.join(out, "2"))


def _files(top: str) -> set:
    return {os.path.relpath(os.path.join(d, f), top) for d, _, names in os.walk(top) for f in names}


def _relative(a: str, b: str) -> float:
    """|a - b| / max(|a|, |b|) of two fields, 0.0 when they read the same and inf when one is empty."""
    if a == b:
        return 0.0
    if not a or not b:
        return float("inf")
    x, y = float(a), float(b)
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def compare_table(a: str, b: str) -> str:
    rows_a, rows_b = ([line.split("\t") for line in text.splitlines()] for text in (a, b))
    columns = rows_a[0]
    if rows_b[0] != columns:
        return "columns differ"
    rows_a, rows_b = rows_a[1:], rows_b[1:]
    changed = sum(ra != rb for ra, rb in zip(rows_a, rows_b)) + abs(len(rows_a) - len(rows_b))
    parts = [f"{changed} rows changed" + (f" ({len(rows_a)} -> {len(rows_b)})" if len(rows_a) != len(rows_b) else "")]
    pairs = list(zip(rows_a, rows_b))
    for j, column in enumerate(columns):
        fields = [(ra[j], rb[j]) for ra, rb in pairs if ra[j] != rb[j]]
        if not fields:
            continue
        if column in FLAGS:
            where = [
                f"{columns[0]}={ra[0]}" + (f" {ra[columns.index('method')]}" if "method" in columns else "")
                for ra, rb in pairs
                if ra[j] != rb[j]
            ]
            parts.append(f"{column} changed at {', '.join(where)}")
        elif all(_is_number(x) or not x for pair in fields for x in pair):
            parts.append(f"{column} {max(_relative(x, y) for x, y in fields):.2g}")
    return "; ".join(parts)


def compare_file(path_a: str, path_b: str) -> str:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = fa.read(), fb.read()
    if a == b:
        return "identical"
    if path_a.endswith(".tsv"):
        return compare_table(a, b)
    if path_a.endswith(".json"):
        return compare_json(os.path.basename(path_a), json.loads(a), json.loads(b))
    return "differs"


def _changed(a: dict, b: dict) -> list:
    """The keys of either dict whose values differ, in order of first appearance."""
    return [k for k in {**a, **b} if a.get(k) != b.get(k)]


def compare_json(name: str, doc_a: dict, doc_b: dict) -> str:
    keys = sorted(_changed(doc_a, doc_b))
    if not keys:
        return "differs in formatting"
    parts = [f"differs in {', '.join(keys)}"]
    if name == "meta.json":
        for key in ("crossing", "crossings"):
            if key in keys and isinstance(doc_a.get(key), dict) and isinstance(doc_b.get(key), dict):
                parts.append(f"{key} changed for {', '.join(_changed(doc_a[key], doc_b[key]))}")
        if "parity_disagreements" in doc_a.keys() | doc_b.keys():
            parts.append("parity_disagreements " + ("changed" if "parity_disagreements" in keys else "unchanged"))
    elif name == "verify.json":
        for field in ("max_dev", "passed"):
            checks_a, checks_b = ({c["name"]: c.get(field) for c in doc.get("checks", ())} for doc in (doc_a, doc_b))
            if names := _changed(checks_a, checks_b):
                parts.append(f"{field} changed in {', '.join(names)}")
    return "; ".join(parts)


def compare(top_a: str, top_b: str) -> int:
    files_a, files_b = _files(top_a), _files(top_b)
    identical = True
    for rel in sorted(files_a | files_b):
        if rel not in files_b:
            report = "only in A"
        elif rel not in files_a:
            report = "only in B"
        else:
            report = compare_file(os.path.join(top_a, rel), os.path.join(top_b, rel))
        identical = identical and report == "identical"
        print(f"{rel}: {report}")
    return 0 if identical else 1


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--compare":
        return compare(args[1], args[2])
    if len(args) == 2 and args[0] == "--threads":
        return write_threads(args[1])
    if len(args) == 1 and not args[0].startswith("-"):
        return write(args[0])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
