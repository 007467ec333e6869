"""LP oracle; its answers are checked against primal-dual optimality certificates.

`solve` and `solve_small` run the plain-Python simplex; `solve_events`
runs HiGHS, the reference for every status and for the Adams problems.
"""

import numpy as np
import pytest

from linquant.oracle import (
    adams_oracle_problems,
    class_event,
    solve,
    solve_events,
    solve_small,
)
from linquant.qualalg import ProbInterval as I

from conftest import certified_range, class_masks, conditionals_of


def sampled_constraints(rng: np.random.Generator, k: int, count: int):
    """Feasible by construction: widen the conditionals of a sampled distribution.

    Returns `count` class-pair constraints (from, to, interval), a target
    pair and the distribution's atom masses.
    """
    masses = rng.dirichlet(np.ones(2**k))
    pcond = conditionals_of(masses, k)
    pairs = [(f, t) for f in range(k) for t in range(k) if f != t]
    rng.shuffle(pairs)
    cons = []
    for f, t in pairs[:count]:
        v = pcond(t, f)
        w1, w2 = rng.uniform(0.05, 0.25, 2)
        cons.append((f, t, I(max(0.0, v - w1), min(1.0, v + w2))))
    return cons, pairs[-1], masses


def random_problem(rng: np.random.Generator, trial: int):
    """(class count, constraints, target) of `solve`, and the sampled masses."""
    k = int(rng.integers(2, 5))
    cons, target, masses = sampled_constraints(rng, k, 4)
    return (k, cons, target), masses


# box endpoints of the grid certification; the 0 and 1 ends make degenerate LPs
GRID = (0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0)


def grid_problem(rng: np.random.Generator):
    """The syllogism's 3-class LP on four boxes with endpoints on GRID."""
    box = [I(*sorted(float(x) for x in rng.choice(GRID, 2))) for _ in range(4)]
    return 3, [(0, 1, box[0]), (1, 0, box[1]), (1, 2, box[2]), (2, 1, box[3])], (0, 2)


def highs(k: int, cons, target):
    """`solve_events` on the same class events as `solve`."""
    frm, to = target
    return solve_events(
        k,
        [(class_event(k, t), class_event(k, f), ival) for f, t, ival in cons],
        (class_event(k, to), class_event(k, frm)),
    )


def certified(k: int, cons, target) -> tuple[float, float]:
    """`certified_range` of a class-pair problem, its events built from class bitmasks."""
    masks = class_masks(k)
    frm, to = target
    return certified_range(
        [(masks[t], masks[f], ival) for f, t, ival in cons], (masks[to], masks[frm])
    )


def test_unconstrained_target_is_full():
    for res in (solve(3, [], (0, 2)), highs(3, [], (0, 2))):
        assert res.ok
        assert (res.interval.lo, res.interval.hi) == (0.0, 1.0)


def test_worked_point_inputs():
    res = solve(
        3,
        [
            (0, 1, I(0.6, 0.6)),
            (1, 0, I(0.8, 0.8)),
            (1, 2, I(0.8, 0.8)),
            (2, 1, I(0.4, 0.4)),
        ],
        (0, 2),
    )
    assert res.ok
    assert res.interval.lo == pytest.approx(0.45, abs=1e-6)


def test_typicality_agreement():
    res = solve(
        3,
        [
            (0, 1, I(1, 1)),
            (1, 0, I(0.8, 0.8)),
            (1, 2, I(0.9, 0.9)),
            (2, 1, I(1, 1)),
        ],
        (0, 2),
    )
    assert res.interval.lo == pytest.approx(0.875, abs=1e-6)
    assert res.interval.hi == pytest.approx(1.0, abs=1e-6)


def test_monotone_under_extra_constraints():
    rng = np.random.default_rng(12)
    for trial in range(15):
        (k, cons, target), _ = random_problem(rng, trial)
        base = solve(k, cons[:-1], target)
        full = solve(k, cons, target)
        if base.ok and full.ok:
            assert base.interval.lo <= full.interval.lo + 1e-9
            assert full.interval.hi <= base.interval.hi + 1e-9


def test_contains_sampled_value():
    rng = np.random.default_rng(13)
    for trial in range(15):
        (k, cons, (frm, to)), masses = random_problem(rng, trial)
        res = solve(k, cons, (frm, to))
        assert res.ok
        pcond = conditionals_of(masses, k)
        assert res.interval.contains(pcond(to, frm), tol=1e-7)


def test_repeated_pair():
    # Each statement keeps its own rows: a pair stated twice means what both
    # say, their intersection or, when they are disjoint, P(A) = 0.  Here
    # P(C|A) is [0.25, 0.641] on the intersection, and either statement
    # alone moves one end of it.
    rest = [(1, 0, I(0.8, 1.0)), (1, 2, I(0.7, 0.9)), (2, 1, I(0.8, 1.0))]
    twice = [(0, 1, I(0.2, 0.5)), *rest, (0, 1, I(0.4, 0.7))]
    once = [(0, 1, I(0.4, 0.5)), *rest]
    clash = [(0, 1, I(0.2, 0.3)), (0, 1, I(0.5, 0.6))]
    for solver in (solve, highs):
        got, want = solver(3, twice, (0, 2)), solver(3, once, (0, 2))
        assert got.ok and want.ok
        assert abs(got.interval.lo - want.interval.lo) <= 1e-7
        assert abs(got.interval.hi - want.interval.hi) <= 1e-7
        res = solver(3, clash, (0, 2))
        assert res.status == "unconstrained"
        assert (res.interval.lo, res.interval.hi) == (0.0, 1.0)


def test_forced_zero_mass_is_unconstrained():
    # P(everything|A) = 0 can only hold vacuously, forcing P(A) = 0 and
    # leaving any conditional on A free by convention
    everything = frozenset(range(4))
    cons = [(everything, class_event(2, 0), I(0.0, 0.0))]
    for solver in (solve_small, solve_events):
        res = solver(2, cons, (class_event(2, 1), class_event(2, 0)))
        assert res.status == "unconstrained"
        assert (res.interval.lo, res.interval.hi) == (0.0, 1.0)


def test_lp_answers_are_certified():
    rng = np.random.default_rng(14)
    problems = [random_problem(rng, trial)[0] for trial in range(50)]
    problems += [grid_problem(rng) for _ in range(200)]
    for problem in problems:
        lp = solve(*problem)
        assert lp.status == highs(*problem).status
        if lp.ok:  # else no model gives the target's condition mass
            lo, hi = certified(*problem)
            assert abs(lp.interval.lo - lo) <= 1e-7 and abs(lp.interval.hi - hi) <= 1e-7


@pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3])
def test_adams_problems_match_highs(alpha):
    for name, _, constraints, target in adams_oracle_problems(alpha):
        small, ref = solve_small(3, constraints, target), solve_events(3, constraints, target)
        assert small.ok and ref.ok, name
        assert abs(small.interval.lo - ref.interval.lo) <= 1e-7, name
        assert abs(small.interval.hi - ref.interval.hi) <= 1e-7, name


@pytest.mark.parametrize("k", [5, 6])
def test_certified_beyond_four_classes(k):
    # `solve` stops at four classes; solve_events takes events over any.
    # 4k widened conditionals, so that most range ends lie inside (0, 1)
    rng = np.random.default_rng(k)
    event = [class_event(k, i) for i in range(k)]
    for _ in range(3):
        cons, (frm, to), masses = sampled_constraints(rng, k, 4 * k)
        res = solve_events(
            k, [(event[t], event[f], ival) for f, t, ival in cons], (event[to], event[frm])
        )
        lo, hi = certified(k, cons, (frm, to))
        assert res.ok and res.interval.contains(conditionals_of(masses, k)(to, frm), tol=1e-7)
        assert abs(res.interval.lo - lo) <= 1e-7 and abs(res.interval.hi - hi) <= 1e-7


def test_class_count_validation():
    with pytest.raises(ValueError):
        solve(5, [], (0, 1))
    with pytest.raises(ValueError):
        solve_small(5, [], (class_event(5, 1), class_event(5, 0)))
