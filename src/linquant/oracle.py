"""Exact attainable range of a conditional probability under interval constraints.

Ground truth for the bound formulas: over all joint distributions on the
2**k atoms of k base classes, what is the min/max of P(to|from)?
`solve_events` and `solve_small` take events over the atoms; `solve` takes
class pairs, constraints (frm, to, P(to|frm)) and a target (frm, to).

Each constraint P(u|v) in [l, h] is linear once multiplied through by the
conditioning mass:  l.P(v) <= P(u^v) <= h.P(v), its own two rows.  This
makes the constraint vacuous when P(v) = 0, mirroring the dropped-term
convention of the bound formulas; so a pair stated twice means what both
statements say, their intersection or, if that is empty, P(v) = 0.  The
fractional objective P(to^from)/P(from) is handled by the usual
normalisation: optimise over y = x / P(from) with sum(y over from) = 1,
which sweeps exactly the distributions giving `from` positive mass.  The
status is "ok", or "unconstrained" with [0, 1] if no such distribution
exists.  The LP is the only path: there is no fallback.

Two solvers answer it.  `solve_small`, a two-phase simplex in plain
Python floats, takes up to four classes (16 atoms); `solve` and
`run_check` use it.  `solve_events` hands any class count to scipy's
HiGHS and is the reference the tests hold `solve_small` to; it imports
numpy and scipy only when called, so importing this module loads neither.
The float pivots of `solve_small` use a fixed 1e-9 tolerance: on lower
bounds that are tiny and positive, as saturated KBs carry, it can raise or
return an unsound range, so it must not be given saturated KBs.

`run_check` certifies the syllogism closed forms and the Adams rules
against `solve_small`; it backs the `check` subcommand.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Sequence

from . import adams
from .bounds import SyllogismInput
from .qualalg import ProbInterval

Event = frozenset  # of atom indices


class OracleResult(NamedTuple):
    interval: ProbInterval
    status: str  # "ok" | "unconstrained"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def class_event(class_count: int, i: int) -> Event:
    return frozenset(a for a in range(2**class_count) if a >> i & 1)


def _lp_rows(
    class_count: int,
    constraints: Sequence[tuple[Event, Event, ProbInterval]],
    target: tuple[Event, Event],
) -> tuple[list[list[float]], list[float], list[float]]:
    """(rows, norm, obj) of the LP over atom masses.

    Each constraint P(u|v) in [l, h] gives the rows l.x(v) - x(u^v) <= 0
    and x(u^v) - h.x(v) <= 0; `norm` is the scaling x(target v) = 1 and
    `obj` the mass x(target u ^ target v).
    """
    n = 2**class_count
    rows = []
    for u, v, ival in constraints:
        lo_row = [0.0] * n
        hi_row = [0.0] * n
        for a in v:
            lo_row[a] += ival.lo
            hi_row[a] -= ival.hi
        for a in u & v:
            lo_row[a] -= 1.0
            hi_row[a] += 1.0
        rows += (lo_row, hi_row)
    t_u, t_v = target
    norm = [float(a in t_v) for a in range(n)]
    obj = [float(a in t_u and a in t_v) for a in range(n)]
    return rows, norm, obj


def _ok(lo: float, hi: float) -> OracleResult:
    return OracleResult(ProbInterval(min(max(0.0, lo), 1.0), min(max(0.0, hi), 1.0)), "ok")


_UNCONSTRAINED = OracleResult(ProbInterval(0.0, 1.0), "unconstrained")


def solve_events(
    class_count: int,
    constraints: Sequence[tuple[Event, Event, ProbInterval]],
    target: tuple[Event, Event],
) -> OracleResult:
    """Min/max of P(u|v) for events over the 2**class_count atoms, by HiGHS."""
    import numpy as np
    from scipy.optimize import linprog

    rows, norm, obj = _lp_rows(class_count, constraints, target)
    vals = []
    for sign in (1.0, -1.0):
        res = linprog(
            sign * np.array(obj),
            A_ub=np.array(rows) if rows else None,
            b_ub=np.zeros(len(rows)) if rows else None,
            A_eq=np.array([norm]),
            b_eq=[1.0],
            bounds=(0.0, None),
            method="highs",
        )
        if not res.success:
            return _UNCONSTRAINED
        vals.append(float(sign * res.fun))
    return _ok(min(vals), max(vals))


# -- the small exact solver ------------------------------------------------------

_EPS = 1e-9  # pivot and reduced-cost tolerance of the simplex


def _pivot(tab: list[list[float]], r: int, s: int) -> None:
    """Exchange the basic variable of row r with the nonbasic one of column s.

    `tab` is a condensed tableau: row i reads basic_i + sum_j tab[i][j].x_j =
    tab[i][-1] over the nonbasic x_j, and an objective row z = z0 + sum_j
    d_j.x_j is stored as [d_0, ..., -z0], so one update serves both.
    """
    prow = tab[r]
    p = prow[s]
    prow[:] = [x / p for x in prow]
    prow[s] = 1.0 / p
    for i, row in enumerate(tab):
        f = row[s]
        if i != r and f != 0.0:
            row[:] = [x - f * y for x, y in zip(row, prow)]
            row[s] = -f / p


def _minimise(tab: list[list[float]], basis: list[int], cols: list[int], m: int, z: int) -> None:
    """Pivot by Bland's rule until objective row z has no negative reduced cost.

    Rows 0..m-1 are constraints.  Bland's rule (lowest variable index enters;
    among tied ratios the lowest leaves) cannot cycle, which matters here:
    every inequality row has right-hand side 0, so most pivots are degenerate.
    """
    zrow = tab[z]
    while True:
        enter = [j for j, d in enumerate(zrow[:-1]) if d < -_EPS]
        if not enter:
            return
        s = min(enter, key=cols.__getitem__)
        ratios = [(tab[i][-1] / tab[i][s], i) for i in range(m) if tab[i][s] > _EPS]
        least = min(ratio for ratio, _ in ratios)
        r = min((i for ratio, i in ratios if ratio <= least + _EPS), key=basis.__getitem__)
        _pivot(tab, r, s)
        basis[r], cols[s] = cols[s], basis[r]


_MAX_CLASSES = 4  # of `solve_small`


def solve_small(
    class_count: int,
    constraints: Sequence[tuple[Event, Event, ProbInterval]],
    target: tuple[Event, Event],
) -> OracleResult:
    """`solve_events` for up to four classes, by a two-phase simplex in plain floats.

    Variables are the atom masses 0..n-1, one slack per inequality row and
    one artificial for the scaling row.  The rows are homogeneous, so phase
    1 (minimise the artificial) ends at 0 if some model gives the target's
    condition mass and at 1 if none does.  Phase 2 then minimises the
    target mass, and from that basis maximises it.  Past four classes it is
    slower than HiGHS and its float pivots can drift from the optimum, so
    larger inputs are refused.
    """
    if class_count > _MAX_CLASSES:
        raise ValueError(f"solve_small takes at most {_MAX_CLASSES} classes")
    rows, norm, obj = _lp_rows(class_count, constraints, target)
    n, m = len(norm), len(rows) + 1
    tab = [row + [0.0] for row in rows]
    tab += [norm + [1.0], [-x for x in norm] + [-1.0], obj + [0.0], [-x for x in obj] + [0.0]]
    cols, basis = list(range(n)), list(range(n, n + m))
    _minimise(tab, basis, cols, m, m)
    if -tab[m][-1] > 0.5:
        return _UNCONSTRAINED
    # Only the scaling row has a nonzero right-hand side, so every phase-1
    # pivot is degenerate but the last, in which the artificial leaves.
    s = cols.index(n + m - 1)
    for row in tab:  # it must not enter again
        row[s] = 0.0
    _minimise(tab, basis, cols, m, m + 1)
    lo = -tab[m + 1][-1]
    _minimise(tab, basis, cols, m, m + 2)
    return _ok(lo, tab[m + 2][-1])


def solve(
    class_count: int,
    constraints: Sequence[tuple[int, int, ProbInterval]],
    target: tuple[int, int],
) -> OracleResult:
    """`solve_small` on class pairs: constraints (frm, to, P(to|frm)), target (frm, to)."""

    def events(frm: int, to: int) -> tuple[Event, Event]:
        return class_event(class_count, to), class_event(class_count, frm)

    return solve_small(
        class_count, [(*events(frm, to), ival) for frm, to, ival in constraints], events(*target)
    )


# -- certification of the closed forms -----------------------------------------


def _random_interval(rng: random.Random, precise: bool) -> ProbInterval:
    if precise:
        x = rng.uniform(0.05, 0.95)
        return ProbInterval(x, x)
    a, b = sorted((rng.random(), rng.random()))
    return ProbInterval(a, b)


def run_check(n: int, seed: int) -> dict:
    """Soundness/tightness comparison against the LP oracle plus rule checks."""
    rng = random.Random(seed)
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
            ca = ProbInterval(inp.lower(), inp.upper())
            premises = [
                (0, 1, inp.b_given_a),
                (1, 0, inp.a_given_b),
                (1, 2, inp.c_given_b),
                (2, 1, inp.b_given_c),
            ]
            res = solve(3, premises, (0, 2))
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
            res = solve_small(3, constraints, target)
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
