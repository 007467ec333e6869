"""Exact attainable range of a conditional probability under interval constraints.

Ground truth for the bound formulas: over all joint distributions on the
2**k atoms of k base classes, what is the min/max of P(to|from)?
`solve_events` takes events over any class count; `OracleProblem`, the
class-pair form that `solve` takes, caps k at 4.

Each constraint P(u|v) in [l, h] is linear once multiplied through by the
conditioning mass:  l.P(v) <= P(u^v) <= h.P(v).  This makes the constraint
vacuous when P(v) = 0, mirroring the dropped-term convention of the bound
formulas.  The fractional objective P(to^from)/P(from) is handled by the
usual normalisation: optimise over y = x / P(from) with sum(y over from) = 1,
which sweeps exactly the distributions giving `from` positive mass.  If no
such distribution exists the target is unconstrained and [0, 1] is returned.
The LP is the only path: there is no fallback, and an answer is as exact as
the HiGHS solver.

`run_check` certifies the syllogism closed forms and the Adams rules
against the LP; it backs the `check` subcommand, the only one that needs
scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from . import adams
from .bounds import SyllogismInput, syllogism
from .qualalg import ProbInterval

Event = frozenset  # of atom indices


@dataclass(frozen=True)
class OracleProblem:
    class_count: int
    constraints: tuple[tuple[int, int, ProbInterval], ...]
    target: tuple[int, int]

    def __init__(self, class_count, constraints, target):
        if not 2 <= class_count <= 4:
            raise ValueError("class_count must be 2..4")
        seen = set()
        for frm, to, _ in constraints:
            if (frm, to) in seen:
                raise ValueError(f"duplicate constraint pair ({frm}, {to})")
            seen.add((frm, to))
        object.__setattr__(self, "class_count", class_count)
        object.__setattr__(self, "constraints", tuple(constraints))
        object.__setattr__(self, "target", tuple(target))


@dataclass(frozen=True)
class OracleResult:
    interval: ProbInterval
    status: str  # "ok" | "unconstrained" | "inconsistent"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def class_event(class_count: int, i: int) -> Event:
    return frozenset(a for a in range(2**class_count) if a >> i & 1)


def merged_pair_intervals(
    constraints: Sequence[tuple[Event, Event, ProbInterval]],
) -> dict[tuple[Event, Event], ProbInterval] | None:
    """Intersect constraints sharing a (condition, event) pair; None if empty."""
    merged: dict[tuple[Event, Event], ProbInterval] = {}
    for u, v, ival in constraints:
        key = (v, u)
        if key in merged:
            meet = merged[key].intersect(ival)
            if meet is None:
                return None
            merged[key] = meet
        else:
            merged[key] = ival
    return merged


def solve_events(
    class_count: int,
    constraints: Sequence[tuple[Event, Event, ProbInterval]],
    target: tuple[Event, Event],
) -> OracleResult:
    """Min/max of P(u|v) for events over the 2**class_count atoms."""
    merged = merged_pair_intervals(constraints)
    if merged is None:
        return OracleResult(ProbInterval(0.0, 1.0), "inconsistent")
    n = 2**class_count
    rows, rhs = [], []
    for (v, u), ival in merged.items():
        lo_row = np.zeros(n)
        hi_row = np.zeros(n)
        for a in v:
            lo_row[a] += ival.lo
            hi_row[a] -= ival.hi
        for a in u & v:
            lo_row[a] -= 1.0
            hi_row[a] += 1.0
        rows.extend((lo_row, hi_row))
        rhs.extend((0.0, 0.0))
    t_u, t_v = target
    norm = np.zeros(n)
    for a in t_v:
        norm[a] = 1.0
    obj = np.zeros(n)
    for a in t_u & t_v:
        obj[a] = 1.0
    a_ub = np.array(rows) if rows else None
    b_ub = np.array(rhs) if rhs else None
    vals = []
    for sign in (1.0, -1.0):
        res = linprog(
            sign * obj,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=norm.reshape(1, -1),
            b_eq=[1.0],
            bounds=(0.0, None),
            method="highs",
        )
        if not res.success:
            return OracleResult(ProbInterval(0.0, 1.0), "unconstrained")
        vals.append(float(np.clip(sign * res.fun, 0.0, 1.0)))
    lo, hi = min(vals), max(vals)
    return OracleResult(ProbInterval(lo, hi), "ok")


def solve(problem: OracleProblem) -> OracleResult:
    """`solve_events` on the class events of a class-pair problem."""
    k = problem.class_count
    cons = [
        (class_event(k, to), class_event(k, frm), ival)
        for frm, to, ival in problem.constraints
    ]
    frm, to = problem.target
    return solve_events(k, cons, (class_event(k, to), class_event(k, frm)))


# -- certification of the closed forms -----------------------------------------


def _random_interval(rng, precise: bool) -> ProbInterval:
    if precise:
        x = float(rng.uniform(0.05, 0.95))
        return ProbInterval(x, x)
    a, b = sorted(rng.uniform(0.0, 1.0, size=2))
    return ProbInterval(float(a), float(b))


def run_check(n: int, seed: int) -> dict:
    """Soundness/tightness comparison against the LP oracle plus rule checks."""
    rng = np.random.default_rng(seed)
    report = {
        "n": n,
        "seed": seed,
        "max_tight_gap": 0.0,
        "max_soundness_violation": 0.0,
        "tight_failures": 0,
    }
    for precise in (True, False):
        for _ in range(n):
            inp = SyllogismInput(*(_random_interval(rng, precise) for _ in range(4)))
            ca, _ = syllogism(inp)
            problem = OracleProblem(
                3,
                [
                    (0, 1, inp.b_given_a),
                    (1, 0, inp.a_given_b),
                    (1, 2, inp.c_given_b),
                    (2, 1, inp.b_given_c),
                ],
                (0, 2),
            )
            res = solve(problem)
            if not res.ok:
                continue
            violation = max(ca.lo - res.interval.lo, res.interval.hi - ca.hi, 0.0)
            report["max_soundness_violation"] = max(
                report["max_soundness_violation"], round(violation, 9)
            )
            if precise:
                gap = max(abs(ca.lo - res.interval.lo), abs(ca.hi - res.interval.hi))
                report["max_tight_gap"] = max(report["max_tight_gap"], round(gap, 9))
                if gap > 0.02:
                    report["tight_failures"] += 1
    if n > 0:
        report["adams"] = {}
        for name, bound, constraints, target in adams_oracle_problems(0.3):
            res = solve_events(3, constraints, target)
            report["adams"][name] = {
                "bound": round(bound, 9),
                "oracle_min": round(res.interval.lo, 9),
                "sound": bound <= res.interval.lo + 1e-6,
            }
    return report


def adams_oracle_problems(alpha: float):
    """(name, bound, constraints, target) at the event level, one per rule."""
    k = 3
    a_ev = class_event(k, 0)
    b_ev = class_event(k, 1)
    c_ev = class_event(k, 2)
    most = ProbInterval(1.0 - alpha, 1.0)
    return [
        (
            "triangularity",
            adams.triangularity_bound(alpha),
            [(b_ev, a_ev, most), (c_ev, a_ev, most)],
            (c_ev, a_ev & b_ev),
        ),
        (
            "bayes_rule",
            adams.bayes_rule_bound(alpha),
            [(b_ev, a_ev, most), (c_ev, a_ev & b_ev, most)],
            (c_ev, a_ev),
        ),
        (
            "disjunction",
            adams.disjunction_bound(alpha, alpha),
            [(c_ev, a_ev, most), (c_ev, b_ev, most)],
            (c_ev, a_ev | b_ev),
        ),
    ]
