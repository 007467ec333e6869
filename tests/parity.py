"""Run a seeded corpus on two source trees and print every result that differs.

    python tests/parity.py PARENT_SRC CHANGE_SRC

Each tree runs the corpus once, in a subprocess whose path holds that tree's
`src` directory, this directory and `perfbench/`.  The corpus is 4,372 KB
texts, each parsed in both modes, so 8,744 runs: the 4,000 texts of
`conftest.mixed_kbs`, 300 `gen.make_case` KBs of seeds 1000-1299 over 4-8
classes, and the 72 `numeric-chain` KBs of seed 1.  A run records its
outcome (it saturates, or clashes at parsing or in saturation), the clash
message and chain, every edge's bounds in hex with their flags and its label
range, before and after saturation, the trace, and `statements`.  The script
prints each tree's outcome counts, then every field of every run that
differs.  Pytest does not collect this file.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
MODES = ("numeric", "qualitative")


def corpus():
    """(name, text) of each KB of the corpus."""
    import gen
    import workloads
    from conftest import mixed_kbs

    for k, text in enumerate(mixed_kbs(4000)):
        yield f"mixed {k}", text
    for seed in range(1000, 1300):
        rng, n = random.Random(seed), 4 + seed % 5
        pairs = gen.random_pairs(rng, n, 2 * n)
        yield f"case {seed}", gen.make_case(rng, n, pairs, MODES[seed % 2], (5, 7, 9)[seed % 3]).text
    for k, op in enumerate(workloads.numeric_chain(1)):
        yield f"chain {k}", op.case.text


def edges(kb) -> list[str]:
    """Each edge: its ends, the flagged hull in hex, and its label range."""
    shown = []
    for (frm, to), edge in sorted(kb.edges.items()):
        lo, lo_att, hi, hi_att = edge.hull
        label = "-" if edge.qual is None else kb.partition.name_of(edge.qual)
        shown.append(f"{frm} {to} {lo.hex()} {lo_att:d} {hi.hex()} {hi_att:d} {label}")
    return shown


def record(text: str, mode: str) -> dict:
    from linquant.network import ContradictionError, parse_kb, saturate, statements

    try:
        kb = parse_kb(text, mode)
    except ContradictionError as exc:
        return {"outcome": "clash at parsing", "message": str(exc)}
    stated = {"stated": edges(kb)}
    try:
        out, trace = saturate(kb)
    except ContradictionError as exc:
        chain = [str(step) for step in exc.chain]
        return stated | {"outcome": "clash in saturation", "message": str(exc), "chain": chain}
    steps = [str(step) for step in trace]
    return stated | {"outcome": "saturate", "saturated": edges(out), "trace": steps, "statements": statements(out)}


def emit() -> None:
    """Print where `linquant` was imported from, then one JSON line per run: name, mode, record."""
    import linquant

    print(json.dumps(str(Path(linquant.__file__).resolve())))
    for name, text in corpus():
        for mode in MODES:
            print(json.dumps([name, mode, record(text, mode)]))


def runs(src: str) -> dict:
    """The records of the corpus run on the tree whose source directory is `src`."""
    path = os.pathsep.join([src, str(TESTS), str(PERFBENCH)])
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-c", "import parity; parity.emit()"],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    imported, *lines = proc.stdout.splitlines()
    if not Path(json.loads(imported)).is_relative_to(Path(src).resolve()):
        raise SystemExit(f"{src}: linquant came from {json.loads(imported)}")
    return {(name, mode): rec for name, mode, rec in map(json.loads, lines)}


def main(parent: str, change: str) -> None:
    old, new = runs(parent), runs(change)
    for side, results in (("parent", old), ("change", new)):
        print(side, dict(Counter(rec["outcome"] for rec in results.values())))
    differ = 0
    for (name, mode), before in old.items():
        after = new[name, mode]
        fields = sorted(field for field in before.keys() | after.keys() if before.get(field) != after.get(field))
        differ += bool(fields)
        for field in fields:
            print(f"{name} {mode} {field}:\n  parent {before.get(field)!r}\n  change {after.get(field)!r}")
    print(f"{differ} of {len(old)} runs differ")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__.split("\n\n")[1].strip())
    main(*sys.argv[1:])
