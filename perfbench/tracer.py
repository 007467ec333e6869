"""Spans around calls into the program's layers, recorded from outside it.

`Tracer.install` replaces public functions where their callers look them
up (a module global such as `linquant.network.syllogism_lower`, or a
method such as `Partition.qmul`) with wrappers that time each call.
Every call adds to per-name totals: calls, seconds, and seconds spent in
wrapped callees, so that a layer's self time is its time minus theirs.
Coarse calls (saturate, parse_kb, gen_table, solve_events) and the
benchmark's own operations are also kept as spans, with a parent span and
the fine calls made under them; spans stay in memory until `dump`.

Run as a script, it traces one `linquant` command line in this process
and writes its spans to a JSON file:

    python3 perfbench/tracer.py SPANS.json -- propagate samples/students7.kb
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (module, attribute, span name, coarse?).  Names are "layer.function", with
# "@module" added where one function is looked up in several modules.
TARGETS = (
    ("linquant.network", "saturate", "network.saturate", True),
    ("linquant.network", "parse_kb", "network.parse_kb", True),
    ("linquant.network", "simple_cycles", "network.simple_cycles", False),
    ("linquant.network", "gbt_qualitative", "network.gbt_qualitative", False),
    ("linquant.network", "syllogism_lower", "bounds.syllogism_lower@network", False),
    ("linquant.network", "syllogism_upper", "bounds.syllogism_upper@network", False),
    ("linquant.network", "bayes_cycle", "bounds.bayes_cycle", False),
    ("linquant.network", "eval_extended", "tables.eval_extended", False),
    ("linquant.tables", "syllogism_lower", "bounds.syllogism_lower@tables", False),
    ("linquant.tables", "syllogism_upper", "bounds.syllogism_upper@tables", False),
    ("linquant.bounds", "syllogism_lower", "bounds.syllogism_lower@bounds", False),
    ("linquant.bounds", "syllogism_upper", "bounds.syllogism_upper@bounds", False),
    ("linquant.tables", "gen_table", "tables.gen_table", True),
    ("linquant.qualalg", "Partition.qmul", "qualalg.qmul", False),
    ("linquant.qualalg", "Partition.qdiv", "qualalg.qdiv", False),
    ("linquant.qualalg", "Partition.approximate", "qualalg.approximate", False),
    ("linquant.oracle", "solve_events", "oracle.solve_events", True),
)


def _span_attrs(name: str, args: tuple, result) -> dict:
    if name == "tables.gen_table":
        return {"scale": args[0].n_labels}
    if name == "oracle.solve_events":
        return {"classes": args[0]}
    if name == "network.saturate":
        return {"fired": len(result[1])}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, callee seconds]
        self.spans: list[dict] = []
        self._open: list[dict] = []  # coarse spans not yet ended
        self._child: list[list] = []  # callee-seconds accumulator per open call

    def install(self) -> None:
        import importlib

        for module, attr, name, coarse in TARGETS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, coarse))

    def _wrap(self, fn, name: str, coarse: bool):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        child, opened = self._child, self._open

        @functools.wraps(fn)
        def fine(*args, **kwargs):
            t0 = time.perf_counter()
            child.append([0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                totals[0] += 1
                totals[1] += dt
                totals[2] += child.pop()[0]
                if child:
                    child[-1][0] += dt
                if opened:
                    calls = opened[-1]["calls"].setdefault(name, [0, 0.0])
                    calls[0] += 1
                    calls[1] += dt

        @functools.wraps(fn)
        def span(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                record.update(_span_attrs(name, args, result))
            return result

        return span if coarse else fine

    def span(self, name: str, **attrs):
        """Context manager recording one coarse span (and its totals)."""
        return _Span(self, name, attrs)

    def merge(self, other: dict, parent: dict) -> None:
        """Fold a child process's dump in under `parent`."""
        for name, (calls, secs, inner) in other["totals"].items():
            tot = self.totals.setdefault(name, [0, 0.0, 0.0])
            tot[0] += calls
            tot[1] += secs
            tot[2] += inner
        base = len(self.spans)
        for rec in other["spans"]:
            rec = dict(rec, id=rec["id"] + base)
            rec["parent"] = parent["id"] if rec["parent"] is None else rec["parent"] + base
            self.spans.append(rec)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"totals": self.totals, "spans": self.spans}))


class _Span:
    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.record = {"id": None, "parent": None, "name": name, "calls": {}, **attrs}

    def __enter__(self) -> dict:
        tr, rec = self.tracer, self.record
        rec["id"] = len(tr.spans)
        rec["parent"] = tr._open[-1]["id"] if tr._open else None
        tr.spans.append(rec)
        tr._open.append(rec)
        tr._child.append([0.0])
        rec["start"] = time.perf_counter()
        return rec

    def __exit__(self, *exc) -> None:
        tr, rec = self.tracer, self.record
        rec["end"] = time.perf_counter()
        dt = rec["end"] - rec["start"]
        inner = tr._child.pop()[0]
        tr._open.pop()
        tot = tr.totals.setdefault(rec["name"], [0, 0.0, 0.0])
        tot[0] += 1
        tot[1] += dt
        tot[2] += inner
        if tr._child:
            tr._child[-1][0] += dt
        if tr._open:
            calls = tr._open[-1]["calls"].setdefault(rec["name"], [0, 0.0])
            calls[0] += 1
            calls[1] += dt


def main(argv: list[str]) -> int:
    out, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- LINQUANT-ARGS...")
    tracer = Tracer()
    tracer.install()
    from linquant import cli

    try:
        with tracer.span("cli.main", argv=cli_args):
            status = cli.main(cli_args)
    finally:
        tracer.dump(Path(out))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
