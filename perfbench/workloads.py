"""The four workloads: their inputs, one operation, and the checks on its output.

A workload's `setup(seed)` imports what its operations use, builds their
inputs, parses them and warms the syllogism tables; it returns the list of
operations that the benchmark runs, in whole passes, again and again.
`Op.run` is the timed part and `Op.check`, which returns the problems it
finds, is not.  A problem that starts with "unsound:" is a saturated range
that excludes an attainable value.  An operation marked `fault` is
expected to show such problems, and only those, until the corner-hull
extension of `tables.eval_extended` is mended; every other operation must
pass every check.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from gen import SCALES, chain_pairs, chords, label_hull, make_case, random_pairs

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "_out"

POP_TOL = 1e-9  # population value against a saturated range
LP_TOL = 1e-7  # the separate LP against the oracle and the saturated ranges
CSV_TOL = 5e-4 + 1e-9  # saturated.csv cells are rounded to 3 decimals


def _contains(lo: float, hi: float, x: float, tol: float) -> bool:
    return lo - tol <= x <= hi + tol


def population_problems(case, out) -> list[str]:
    """Every saturated pair must contain the population's value."""
    problems = []
    for (frm, to), p in case.truth.items():
        ranges = [out.interval(frm, to)]
        if out.mode == "qualitative":
            ranges.append(out.partition.semantics(out.qual(frm, to)))
        for r in ranges:
            if not _contains(r.lo, r.hi, p, POP_TOL):
                problems.append(f"unsound: P({to}|{frm}) = {p} outside [{r.lo}, {r.hi}]")
    return problems


class SaturateOp:
    """Saturate one parsed KB."""

    fault = False

    def __init__(self, network, case) -> None:
        self.network = network
        self.case = case
        self.kb = network.parse_kb(case.text, case.mode)

    def run(self):
        return self.network.saturate(self.kb)[0]

    def check(self, out) -> list[str]:
        return population_problems(self.case, out)


CHAIN_N = 10  # classes per chain KB


def _chain_setup(seed: int, mode: str, scales: tuple[int, ...], chain_chords):
    """One KB per chord; the seed draws each KB's population and statement widths."""
    from linquant import network

    rng = random.Random(seed)
    ops = []
    for i, chord in enumerate(chain_chords):
        scale = scales[i % len(scales)]
        case = make_case(rng, CHAIN_N, chain_pairs(CHAIN_N, chord), mode, scale)
        ops.append(SaturateOp(network, case))
    if mode == "qualitative":
        for op in ops[: len(scales)]:
            network.gen_table_cached(op.kb.partition)
    return ops


def numeric_chain(seed: int):
    # Every chord twice, so that each seed's KBs have the same shapes and the
    # cost of a pass moves only with the drawn values.
    return _chain_setup(seed, "numeric", (7,), 2 * chords(CHAIN_N))


def qualitative_chain(seed: int):
    picked = random.Random(f"chords-{seed}").sample(chords(CHAIN_N), 4)
    return _chain_setup(seed, "qualitative", (7, 9), picked)


# -- certify-small --------------------------------------------------------------

# Qualitative KBs that do not depend on --seed: (scale, classes, stream index,
# hit by the corner-hull fault), each `fixed_case(scale, classes, index)`.
# The index is the first of its stream that the fault hits, or spares;
# `python3 perfbench/regen.py` finds them again.
FIXED = (
    (5, 5, 0, False),
    (5, 6, 0, False),
    (7, 5, 24, True),
    (7, 6, 0, False),
    (9, 5, 0, False),
    (9, 6, 32, True),
)
# Seeded numeric KBs: (scale of the @partition line, classes).
SEEDED = ((5, 5), (5, 6), (7, 5), (7, 6), (9, 5), (9, 6))


def certify_case(rng: random.Random, mode: str, scale: int, k: int):
    return make_case(rng, k, random_pairs(rng, k, 2 * k), mode, scale)


def fixed_case(scale: int, k: int, index: int):
    return certify_case(random.Random(f"fixed-{scale}-{k}-{index}"), "qualitative", scale, k)


class CertifyOp:
    """Parse, saturate, then the oracle's exact range for every ordered pair."""

    def __init__(self, network, oracle, case, fault: bool) -> None:
        self.network = network
        self.oracle = oracle
        self.case = case
        self.fault = fault
        self._lp = None

    def run(self):
        network, oracle = self.network, self.oracle
        kb = network.parse_kb(self.case.text, self.case.mode)
        k = len(kb.nodes)
        event = {name: oracle.class_event(k, i) for i, name in enumerate(kb.nodes)}
        given = [(event[to], event[frm], e.interval) for (frm, to), e in kb.edges.items()]
        out, _ = network.saturate(kb)
        exact = {
            (frm, to): oracle.solve_events(k, given, (event[to], event[frm]))
            for frm, to in itertools.permutations(kb.nodes, 2)
        }
        return out, exact

    def lp(self) -> dict:
        """The separate LP's range of every pair, solved once per KB."""
        if self._lp is None:
            from lp import lp_range

            names, k = self.case.names, len(self.case.names)
            self._lp = {
                (names[a], names[b]): lp_range(k, self.case.statements, a, b)
                for a, b in itertools.permutations(range(k), 2)
            }
        return self._lp

    def check(self, result) -> list[str]:
        out, exact = result
        problems = population_problems(self.case, out)
        if set(exact) != set(self.lp()):
            return problems + [f"oracle answered {len(exact)} pairs, not {len(self.lp())}"]
        for (frm, to), ref in self.lp().items():
            got = exact[(frm, to)]
            if ref is None or not got.ok:
                problems.append(f"P({to}|{frm}): LP {ref}, oracle status {got.status}")
                continue
            if abs(got.interval.lo - ref[0]) > LP_TOL or abs(got.interval.hi - ref[1]) > LP_TOL:
                problems.append(f"P({to}|{frm}): oracle {got.interval} != LP {ref}")
            ranges = [out.interval(frm, to)]
            if out.mode == "qualitative":
                ranges.append(out.partition.semantics(out.qual(frm, to)))
            for r in ranges:
                if r.lo > ref[0] + LP_TOL or r.hi < ref[1] - LP_TOL:
                    problems.append(f"unsound: P({to}|{frm}) saturated to [{r.lo}, {r.hi}] excludes LP {ref}")
        return problems


def certify_small(seed: int):
    from linquant import network, oracle
    from linquant.qualalg import Partition

    for thresholds, labels in SCALES.values():
        network.gen_table_cached(Partition(thresholds, labels))
    rng = random.Random(seed)
    ops = [CertifyOp(network, oracle, fixed_case(s, k, i), fault) for s, k, i, fault in FIXED]
    ops += [CertifyOp(network, oracle, certify_case(rng, "numeric", s, k), False) for s, k in SEEDED]
    return ops


# -- cli --------------------------------------------------------------------------


def read_kb(path: Path):
    """Class names, statements (frm, to, lo, hi) as hulls, and the scale of a KB file."""
    thresholds, labels, statements, names = (), (), [], []
    for raw in path.read_text(encoding="utf-8").splitlines():
        fields = raw.split("#")[0].split()
        if not fields:
            continue
        if fields[0] == "@partition":
            thresholds = tuple(float(f) for f in fields[1:])
        elif fields[0] == "@labels":
            labels = tuple(fields[1:])
        elif fields[0] in ("q", "n"):
            frm, to = fields[1], fields[2]
            for name in (frm, to):
                if name not in names:
                    names.append(name)
            if fields[0] == "n":
                lo, hi = float(fields[3]), float(fields[4])
            else:
                low = labels.index(fields[3])
                high = labels.index(fields[4]) if len(fields) > 4 else low
                lo, hi = label_hull(thresholds, low, high)
            statements.append((frm, to, lo, hi))
    return names, statements, thresholds, labels


class CliOp:
    """One `linquant` subprocess; `checker(op)` reads its output files and returns problems."""

    fault = False

    def __init__(self, name: str, args: list[str], checker) -> None:
        self.name = name
        self.args = args
        self.checker = checker
        self.cache: dict = {}

    def run(self):
        return run_program([sys.executable, "-m", "linquant.cli", *self.args])

    def check(self, result) -> list[str]:
        if result.status != 0:
            return [f"{self.name}: exit status {result.status}: {result.stderr.strip()[-300:]}"]
        return self.checker(self)


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        ":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class Exit(NamedTuple):
    """How a child process ended, and what it used."""

    status: int
    stdout: str
    stderr: str
    peak_mb: float  # peak RSS of this child alone
    cpu_s: float  # user and system CPU time of this child alone


def run_program(argv: list[str], timeout: float = 120.0) -> Exit:
    """Run to the end and wait for the child."""
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "stdout.txt", "w+") as out, open(OUT / "stderr.txt", "w+") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=program_env(), stdout=out, stderr=err)
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
            time.sleep(0.001)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Exit(proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024.0,
                    usage.ru_utime + usage.ru_stime)


def _kb_lp(op: CliOp, kb_path: Path) -> dict:
    """LP range of every ordered pair of a sample KB, solved once per run."""
    if "lp" not in op.cache:
        from lp import lp_range

        names, statements, _, _ = read_kb(kb_path)
        index = {n: i for i, n in enumerate(names)}
        st = [(index[f], index[t], lo, hi) for f, t, lo, hi in statements]
        op.cache["lp"] = {
            (f, t): lp_range(len(names), st, index[f], index[t])
            for f, t in itertools.permutations(names, 2)
        }
    return op.cache["lp"]


def check_propagate(kb_path: Path, out_dir: Path):
    def checker(op: CliOp) -> list[str]:
        with open(out_dir / "saturated.csv", encoding="utf-8", newline="") as f:
            header, *rows = csv.reader(f)
        cells = {
            (row[0], to): tuple(float(x) for x in cell.split(","))
            for row in rows for to, cell in zip(header[1:], row[1:])
        }
        problems = []
        _, statements, _, _ = read_kb(kb_path)
        for frm, to, lo, hi in statements:
            c_lo, c_hi = cells[(frm, to)]
            if c_lo < lo - CSV_TOL or c_hi > hi + CSV_TOL:
                problems.append(f"{kb_path.name}: P({to}|{frm}) = {cells[(frm, to)]} outside statement [{lo}, {hi}]")
        for pair, ref in _kb_lp(op, kb_path).items():
            c_lo, c_hi = cells[pair]
            if ref is None or c_lo > ref[0] + CSV_TOL or c_hi < ref[1] - CSV_TOL:
                problems.append(f"{kb_path.name}: P({pair[1]}|{pair[0]}) = {cells[pair]} excludes LP {ref}")
        return problems

    return checker


def check_query(kb_path: Path, frm: str, to: str, out_file: Path):
    def checker(op: CliOp) -> list[str]:
        answer = json.loads(out_file.read_text(encoding="utf-8"))[f"P({to}|{frm})"]
        ref = _kb_lp(op, kb_path)[(frm, to)]
        if ref is None or answer["lo"] > ref[0] + 1e-6 or answer["hi"] < ref[1] - 1e-6:
            return [f"query P({to}|{frm}) = {answer} excludes LP {ref}"]
        return []

    return checker


def check_tables(cfg: Path, out_dir: Path, seed: int, sample: int = 24):
    def checker(op: CliOp) -> list[str]:
        from lp import lp_range

        _, _, thresholds, labels = read_kb(cfg)
        rows = (out_dir / "table.csv").read_text(encoding="utf-8").splitlines()[1:]
        m = len(labels)
        if len(rows) != m**4:
            return [f"tables: {len(rows)} rows, expected {m ** 4}"]
        if "refs" not in op.cache:
            picks = random.Random(seed).sample(range(len(rows)), sample)
            refs = {}
            for i in picks:
                q1, q2, q3, q4, *_ = (labels.index(x) for x in rows[i].split(","))
                hull = [label_hull(thresholds, q, q) for q in (q1, q2, q3, q4)]
                # classes A, B, C = 0, 1, 2: Q1 = P(B|A), Q2 = P(A|B), Q3 = P(B|C), Q4 = P(C|B)
                st = [(0, 1, *hull[0]), (1, 0, *hull[1]), (2, 1, *hull[2]), (1, 2, *hull[3])]
                refs[i] = lp_range(3, st, 0, 2)
            op.cache["refs"] = refs
        problems = []
        for i, ref in op.cache["refs"].items():
            *_, q5_low, q5_high = rows[i].split(",")
            lo, hi = label_hull(thresholds, labels.index(q5_low), labels.index(q5_high))
            if ref is not None and (lo > ref[0] + LP_TOL or hi < ref[1] - LP_TOL):
                problems.append(f"tables row {rows[i]}: [{lo}, {hi}] excludes LP {ref}")
        return problems

    return checker


def check_robustness(out_file: Path, reference: str):
    def checker(op: CliOp) -> list[str]:
        report = json.loads(out_file.read_text(encoding="utf-8"))
        changed = report["changes_per_alpha"][reference]
        return [f"robustness: {changed} changes at the reference alpha"] if changed else []

    return checker


def check_check(out_file: Path):
    def checker(op: CliOp) -> list[str]:
        report = json.loads(out_file.read_text(encoding="utf-8"))
        problems = []
        if report["max_soundness_violation"] != 0:
            problems.append(f"check: max_soundness_violation {report['max_soundness_violation']}")
        problems += [f"check: adams {name} unsound" for name, e in report["adams"].items() if not e["sound"]]
        return problems

    return checker


def cli(seed: int):
    from linquant import cli as _cli  # noqa: F401  (the import the program pays on every call)
    from linquant import network

    samples = ROOT / "samples"
    for name in ("students_numeric.kb", "students7.kb", "students9.kb"):
        network.parse_kb((samples / name).read_text(encoding="utf-8"))
    out = OUT / "cli"
    out.mkdir(parents=True, exist_ok=True)
    numeric = samples / "students_numeric.kb"
    ops = []
    for name, kb, mode in (
        ("propagate-numeric", numeric, "numeric"),
        ("propagate-7", samples / "students7.kb", "qualitative"),
        ("propagate-9", samples / "students9.kb", "qualitative"),
    ):
        args = ["propagate", str(kb), "--mode", mode, "--out", str(out / name)]
        ops.append(CliOp(name, args, check_propagate(kb, out / name)))
    ops.append(CliOp(
        "query", ["query", str(numeric), "single", "student", "--out", str(out / "query.json")],
        check_query(numeric, "single", "student", out / "query.json"),
    ))
    cfg = samples / "scale7.cfg"
    ops.append(CliOp("tables", ["tables", str(cfg), "--out", str(out / "tables")],
                     check_tables(cfg, out / "tables", seed)))
    ops.append(CliOp(
        "robustness",
        ["robustness", "--alpha", "0.25:0.35:0.01", "--reference", "0.30", "--out", str(out / "robustness.json")],
        check_robustness(out / "robustness.json", "0.3000"),
    ))
    check_seed = str(seed % 2**32)
    ops.append(CliOp("check", ["check", "--n", "5", "--seed", check_seed, "--out", str(out / "check.json")],
                     check_check(out / "check.json")))
    return ops


WORKLOADS = {
    "numeric-chain": numeric_chain,
    "qualitative-chain": qualitative_chain,
    "certify-small": certify_small,
    "cli": cli,
}
