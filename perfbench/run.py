"""Benchmark of linquant: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload numeric-chain --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the program is imported from ./src.
With --trace 0 it sets up the workload, runs whole passes over its
operations in a closed loop (one caller, no threads) for at most --seconds
(at least one pass), checks every output, and prints the end-to-end
metrics.
With --trace 1 it makes one traced pass over every workload instead (see
README.md) and prints the per-layer metrics.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # fresh-interpreter set-ups per run, besides the run's own


def load_program() -> None:
    """Put ./src first on the path, or stop: the benchmark never measures another copy."""
    if not (ROOT / "src" / "linquant" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {ROOT / 'src' / 'linquant'}")
    sys.path.insert(0, str(ROOT / "src"))


def setup(workload: str, seed: int):
    from workloads import WORKLOADS

    t0 = time.process_time()
    ops = WORKLOADS[workload](seed)
    elapsed = time.process_time() - t0
    import linquant

    if Path(linquant.__file__).resolve().parent != ROOT / "src" / "linquant":
        raise SystemExit(f"error: linquant imported from {linquant.__file__}")
    return ops, elapsed


def setup_probe(workload: str, seed: int) -> float:
    """Set-up CPU time of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_op(op):
    """CPU time of one operation, or of the child process it ran; an exception is its output."""
    from workloads import Exit

    t0 = time.process_time()
    try:
        result = op.run()
    except Exception as exc:  # reported as a failed operation
        result = exc
    dt = time.process_time() - t0
    return result, result.cpu_s if isinstance(result, Exit) else dt


def verdict(op, result) -> list[str]:
    if isinstance(result, Exception):
        return [f"raised {type(result).__name__}: {result}"]
    return op.check(result)


class Tally:
    """Attempted and failed operations, and the problems that are not the kept fault."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def add(self, op, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            kept = [p for p in problems if op.fault and p.startswith("unsound:")]
            self.unexpected.extend([p for p in problems if p not in kept][:3])

    def result(self, metrics: dict) -> dict:
        for line in self.unexpected[:20]:
            print(f"unexpected: {line}", file=sys.stderr)
        return {"correct": not self.unexpected, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Whole passes over the workload's operations for at most `seconds` of wall time.

    Times are CPU time, so that time the shared host gives this vCPU to
    others is not counted.  op_ms is the geometric mean over the operations
    of each one's median repetition: a typical operation, where a median
    over operations would jump between the few discrete costs of the chain
    KBs, and a fastest repetition would fall with the number of passes the
    run made.  ops_per_s is every repetition's count over their summed
    time, so the heaviest operations dominate it.  Set-up probes run
    between passes, so that they too sample the run's whole span.
    """
    ops, own_setup = setup(workload, seed)
    gc.collect()  # the timed loop should not pay for collecting set-up garbage
    tally = Tally()
    times = [[] for _ in ops]
    setups, peak_mb = [own_setup], 0.0
    start = time.monotonic()
    last = 0.0  # wall time of the last pass, with its probe
    while not last or time.monotonic() - start + last <= seconds:
        t0 = time.monotonic()
        for op, samples in zip(ops, times):
            result, dt = run_op(op)
            samples.append(dt)
            if workload == "cli" and not isinstance(result, Exception):
                peak_mb = max(peak_mb, result.peak_mb)
            tally.add(op, verdict(op, result))
        if len(setups) <= SETUP_PROBES:
            setups.append(setup_probe(workload, seed))
        last = time.monotonic() - t0
    if workload != "cli":
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) <= SETUP_PROBES:
        setups.append(setup_probe(workload, seed))
    every = [dt for samples in times for dt in samples]
    return tally.result({
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "op_ms": {"value": 1000.0 * statistics.geometric_mean(map(statistics.median, times)), "unit": "ms"},
        "ops_per_s": {"value": len(every) / sum(every), "unit": "ops/s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    })


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_program()
    if args.setup_only:
        print(json.dumps({"setup_s": setup(args.workload, args.seed)[1]}))
        return 0
    if args.trace:
        from traced import traced_pass

        result = traced_pass(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
