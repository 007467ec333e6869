"""The traced pass: set-up and one pass of every workload, each layer wrapped.

Every per-layer metric belongs to the workload that drives its layer (see
README.md), so the pass covers all four workloads whatever --workload
names; it does a fixed amount of work, so for a given seed every count
repeats exactly.  `linquant` subprocesses of the cli workload run under
`tracer.py` and their spans are merged in.  The spans are written to
perfbench/_out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from run import HERE, Tally, verdict
from tracer import Tracer
from workloads import OUT, ROOT, WORKLOADS, CliOp, program_env, run_program

STARTS = 5  # bare interpreter starts
IMPORTS = 3  # `-X importtime` runs of `import linquant.cli`


def _import_times() -> tuple[float, float]:
    """(all, scipy) import time in ms of `import linquant.cli`, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import linquant.cli"],
        cwd=ROOT, env=program_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    every = scipy = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _, module = line[len("import time:"):].split("|")
        every += int(self_us)
        if module.strip().split(".")[0] == "scipy":
            scipy += int(self_us)
    return every / 1000.0, scipy / 1000.0


def _python_start_ms() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=program_env(), check=True, timeout=60)
    return 1000.0 * (time.perf_counter() - t0)


def _run_traced(tracer: Tracer, op, span: dict):
    if not isinstance(op, CliOp):
        return op.run()
    spans = OUT / "trace-cli" / f"{op.name}.json"
    spans.unlink(missing_ok=True)  # never merge a previous run's spans
    result = run_program([sys.executable, str(HERE / "tracer.py"), str(spans), "--", *op.args])
    tracer.merge(json.loads(spans.read_text()), span)
    return result


def traced_pass(workload: str, seed: int) -> dict:
    tracer = Tracer()
    tracer.install()
    tally = Tally()
    for name, setup in WORKLOADS.items():
        with tracer.span(f"workload.{name}"):
            with tracer.span("setup"):
                ops = setup(seed)
            for op in ops:
                with tracer.span("op") as span:
                    try:
                        result = _run_traced(tracer, op, span)
                    except Exception as exc:  # reported as a failed operation
                        result = exc
                tally.add(op, verdict(op, result))
    starts = [_python_start_ms() for _ in range(STARTS)]
    imports = [_import_times() for _ in range(IMPORTS)]
    tracer.dump(OUT / f"trace-{workload}-{seed}.json")
    return tally.result(layer_metrics(tracer, starts, imports))


def layer_metrics(tracer: Tracer, starts: list[float], imports: list[tuple]) -> dict:
    def calls(*names):
        return sum(tracer.totals.get(n, [0])[0] for n in names)

    def ms(*names):
        return 1000.0 * sum(tracer.totals.get(n, [0, 0.0])[1] for n in names)

    def per_call_ms(name, key, value):
        times = [s["end"] - s["start"] for s in tracer.spans if s["name"] == name and s.get(key) == value]
        return 1000.0 * statistics.median(times) if times else 0.0

    sat = tracer.totals.get("network.saturate", [0, 0.0, 0.0])
    syllogisms = ("bounds.syllogism_lower@network", "bounds.syllogism_lower@tables",
                  "bounds.syllogism_lower@bounds")
    upper = tuple(s.replace("lower", "upper") for s in syllogisms)
    tried_syl = calls("bounds.syllogism_lower@network", "tables.eval_extended")
    tried_cyc = calls("bounds.bayes_cycle", "network.gbt_qualitative")
    fired = sum(s.get("fired", 0) for s in tracer.spans if s["name"] == "network.saturate")
    values = {
        "network.saturate_self_ms": ("ms", 1000.0 * (sat[1] - sat[2])),
        "network.simple_cycles_ms": ("ms", ms("network.simple_cycles")),
        "network.syllogism_tried": ("count", tried_syl),
        "network.cycle_tried": ("count", tried_cyc),
        "network.fired": ("count", fired),
        "network.fire_ratio": ("ratio", fired / max(1, tried_syl + tried_cyc)),
        "network.parse_kb_ms": ("ms", ms("network.parse_kb")),
        "bounds.syllogism_calls": ("count", calls(*syllogisms)),
        "bounds.syllogism_ms": ("ms", ms(*syllogisms, *upper)),
        "bounds.bayes_cycle_calls": ("count", calls("bounds.bayes_cycle")),
        "bounds.bayes_cycle_ms": ("ms", ms("bounds.bayes_cycle")),
        "tables.eval_extended_calls": ("count", calls("tables.eval_extended")),
        "tables.eval_extended_ms": ("ms", ms("tables.eval_extended")),
        **{f"tables.gen_table_ms.s{m}": ("ms", per_call_ms("tables.gen_table", "scale", m))
           for m in (5, 7, 9)},
        "qualalg.qmul_calls": ("count", calls("qualalg.qmul")),
        "qualalg.qdiv_calls": ("count", calls("qualalg.qdiv")),
        "qualalg.arith_ms": ("ms", ms("qualalg.qmul", "qualalg.qdiv")),
        "qualalg.approximate_calls": ("count", calls("qualalg.approximate")),
        "qualalg.approximate_ms": ("ms", ms("qualalg.approximate")),
        "oracle.solve_events_calls": ("count", calls("oracle.solve_events")),
        **{f"oracle.solve_events_ms.k{k}": ("ms", per_call_ms("oracle.solve_events", "classes", k))
           for k in (3, 5, 6)},
        "cli.python_start_ms": ("ms", statistics.median(starts)),
        "cli.import_ms": ("ms", statistics.median(i[0] for i in imports)),
        "cli.import_scipy_ms": ("ms", statistics.median(i[1] for i in imports)),
    }
    return {name: {"value": value, "unit": unit} for name, (unit, value) in values.items()}
