"""Command-line front end: tables, propagate, query, robustness, check.

`main` is the one error boundary.  An unreadable or malformed input ends in
one `error:` line on stderr and exit status 1, a contradiction in one
`contradiction:` line followed by its chain, and a bad command line in
argparse's usage error with status 2.  Any other exception is a bug and
keeps its traceback.

Each subcommand imports the modules it runs when it runs, so a process
loads only those: `tables` and `robustness` never load the saturation
engine, and `check` loads neither it nor the tables.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import qualalg

_INPUT_ERRORS = (
    OSError, UnicodeDecodeError, qualalg.ConfigError, qualalg.PartitionError, qualalg.UnknownNode
)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def cmd_tables(args) -> int:
    from . import tables

    p = qualalg.parse_partition_config(_read(args.config))
    table = tables.gen_table(p)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    (out / "table.csv").write_text(tables.table_to_csv(p, table), encoding="utf-8")
    (out / "table.md").write_text(tables.compact_to_markdown(p, table), encoding="utf-8")
    print(f"wrote {len(table)} rows to {out / 'table.csv'}")
    return 0


def _query_json(kb, pairs) -> str:
    from . import network

    payload = {}
    for frm, to in pairs:
        ival, qual = network.query(kb, frm, to)
        payload[f"P({to}|{frm})"] = {
            "lo": round(ival.lo, 6),
            "hi": round(ival.hi, 6),
            "qual_low": kb.partition.labels[qual.low],
            "qual_high": kb.partition.labels[qual.high],
        }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_propagate(args) -> int:
    from . import network

    kb = network.parse_kb(_read(args.kb), mode=args.mode)
    saturated, _ = network.saturate(kb)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    (out / "saturated.csv").write_text(network.matrix_csv(saturated), encoding="utf-8")
    lines = network.statements(saturated)
    (out / "statements.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print(line)
    if saturated.mode == "qualitative":
        derived = network.derived_statements(kb, saturated)
        if derived:
            print("derived:")
            for (frm, to), qual in derived.items():
                print(f"  {frm} -> {to} : {saturated.partition.name_of(qual)}")
    if saturated.queries:
        answer = _query_json(saturated, saturated.queries)
        (out / "answers.json").write_text(answer, encoding="utf-8")
        print(answer, end="")
    return 0


def cmd_query(args) -> int:
    from . import network

    saturated, _ = network.saturate(network.parse_kb(_read(args.kb), mode=args.mode))
    _write(args.out, _query_json(saturated, [(args.frm, args.to)]))
    return 0


def cmd_robustness(args) -> int:
    from . import tables

    report = tables.robustness_sweep(*args.alpha, args.reference)
    alphas = report.alpha_values
    # the fewest decimals, at least 4, that keep the swept alphas apart (they are rounded to 12)
    places = next(d for d in range(4, 13) if len({f"{a:.{d}f}" for a in alphas}) == len(alphas))
    payload = {
        "reference_alpha": report.reference_alpha,
        "alpha_values": list(alphas),
        "changes_per_alpha": {f"{a:.{places}f}": len(report.changed_per_alpha[a]) for a in alphas},
        "distinct_changed_tuples": report.distinct_count,
        "changed_tuples": [list(k) for k in report.changed_distinct],
        "half_product_flip_alphas": report.half_product_flip_alphas,
    }
    _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_check(args) -> int:
    from . import oracle

    report = oracle.run_check(args.n, args.seed)
    _write(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    adams_unsound = any(not rule["sound"] for rule in report.get("adams", {}).values())
    if report["max_soundness_violation"] > 0.0 or adams_unsound:
        print("soundness violation detected", file=sys.stderr)
        return 1
    return 0


def _alpha_range(text: str) -> tuple[float, float, float]:
    try:
        a_from, a_to, step = map(float, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError("expected from:to:step") from None
    return a_from, a_to, step


def _count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a whole number") from None
    if n < 0:
        raise argparse.ArgumentTypeError("expected a count >= 0")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="linquant",
        description="Propagate interval and linguistic-quantifier probability bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="generate the syllogism table")
    p_tables.add_argument("config", help="partition config file")
    p_tables.add_argument("--out", default=None, help="output directory")
    p_tables.set_defaults(func=cmd_tables)

    p_prop = sub.add_parser("propagate", help="saturate a knowledge base")
    p_prop.add_argument("kb", help="knowledge base file")
    p_prop.add_argument("--mode", choices=("numeric", "qualitative"), default="numeric")
    p_prop.add_argument("--out", default=None)
    p_prop.set_defaults(func=cmd_propagate)

    p_query = sub.add_parser("query", help="saturate then answer one query")
    p_query.add_argument("kb")
    p_query.add_argument("frm")
    p_query.add_argument("to")
    p_query.add_argument("--mode", choices=("numeric", "qualitative"), default="numeric")
    p_query.add_argument("--out", default=None)
    p_query.set_defaults(func=cmd_query)

    p_rob = sub.add_parser("robustness", help="sweep the few/half threshold")
    p_rob.add_argument("--alpha", type=_alpha_range, default="0.25:0.35:0.01", help="from:to:step")
    p_rob.add_argument("--reference", type=float, default=0.30)
    p_rob.add_argument("--out", default=None)
    p_rob.set_defaults(func=cmd_robustness)

    p_check = sub.add_parser("check", help="compare bounds against the LP oracle")
    p_check.add_argument("--n", type=_count, default=200)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except qualalg.ContradictionError as exc:
        print(f"contradiction: {exc}", file=sys.stderr)
        for step in exc.chain:
            print(f"  {step.phase} {step.context}: {step.edge} "
                  f"{step.before} -> {step.after}", file=sys.stderr)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
