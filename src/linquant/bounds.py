"""Optimal interval bounds for chaining conditional probabilities.

Given interval constraints on P(B|A), P(A|B), P(C|B) and P(B|C), the
syllogism pattern bounds P(C|A); the same forms on the input reversed,
with the roles of A and C swapped, bound P(A|C).  The lower bound is

    P*(C|A) >= P*(B|A) . max(0, 1 - (1 - P*(C|B)) / P*(A|B))

with stars denoting the matching endpoint.  The upper bound is the minimum
of 1 and four expressions:

    u2 = 1 - lo(B|A) . (1 - hi(C|B) / lo(A|B))
    u3 = hi(B|A) . hi(C|B) / (lo(A|B) . lo(B|C))
    u4 = hi(B|A) . (1 + hi(C|B) . (1 - lo(B|C)) / (lo(A|B) . lo(B|C)))
    u5 = hi(C|B) / (hi(C|B) + lo(B|C) . (lo(A|B) - hi(C|B)))

u2 decreases in P(B|A) while u3/u4 increase, so the crossing value u5
sharpens the bound exactly when lo(A|B) > hi(C|B) and the crossing point

    theta = lo(B|C) . lo(A|B) / (lo(B|C) . lo(A|B) + hi(C|B) . (1 - lo(B|C)))

falls inside [lo(B|A), hi(B|A)].  Any expression with a zero denominator
contributes no constraint.  The endpoint choices in u3/u4 are the ones
certified tight against the exact LP oracle (see tests); a transcription
with hi(B|C) in the denominators is provably unsound.

The closed forms take the endpoint floats they read, so a caller that
keeps bounds in flat lists builds no interval to call them:

    syllogism_lower(lo(B|A), lo(A|B), lo(C|B))
    syllogism_upper(lo(B|A), hi(B|A), lo(A|B), hi(C|B), lo(B|C))

Six endpoints in all; hi(A|B) and hi(B|C) are never read.
`SyllogismInput.lower` and `.upper` pick these ends from four intervals.
The lower bound never exceeds the upper one by more than rounding (the
tests check lo <= hi + 1e-12), and `ProbInterval` closes that gap.

The module also provides the cycle form of Bayes' theorem,
`bayes_cycle(forward_lo, forward_hi, backward_lo, backward_hi)`, which takes
both ends of every premise and proposes a (lo, hi) pair as the two
syllogism ends do, and the closed form for the typicality special case
P(B|A) = P(B|C) = 1.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple, Sequence

from .qualalg import ProbInterval, Value

COND_TOL = 1e-12


class SyllogismInput(NamedTuple):
    """Interval constraints on the four conditionals linking A, B, C."""

    b_given_a: ProbInterval
    a_given_b: ProbInterval
    c_given_b: ProbInterval
    b_given_c: ProbInterval

    def lower(self) -> float:
        """`syllogism_lower` on the endpoints it reads."""
        return syllogism_lower(self.b_given_a.lo, self.a_given_b.lo, self.c_given_b.lo)

    def upper(self) -> float:
        """`syllogism_upper` on the endpoints it reads."""
        ba, c = self.b_given_a, self.c_given_b
        return syllogism_upper(ba.lo, ba.hi, self.a_given_b.lo, c.hi, self.b_given_c.lo)


def syllogism_lower(ba_lo: float, ab_lo: float, cb_lo: float) -> float:
    """lo P(C|A) from lo P(B|A), lo P(A|B) and lo P(C|B)."""
    if ba_lo <= 0.0:
        return 0.0
    if ab_lo <= 0.0:
        # quotient term dropped; it only survives when P(C|B) is certain
        factor = 1.0 if cb_lo >= 1.0 - COND_TOL else 0.0
    else:
        factor = max(0.0, 1.0 - (1.0 - cb_lo) / ab_lo)
    return ba_lo * factor


def syllogism_upper(ba_lo: float, ba_hi: float, ab_lo: float, cb_hi: float, bc_lo: float) -> float:
    """hi P(C|A) from lo and hi P(B|A), lo P(A|B), hi P(C|B) and lo P(B|C)."""
    terms = [1.0]
    if ab_lo > 0.0 and ba_lo > 0.0:  # with ba_lo = 0 the term is 1, and 0 * -inf would be nan
        terms.append(1.0 - ba_lo * (1.0 - cb_hi / ab_lo))
    den = ab_lo * bc_lo
    if den > 0.0:  # not `ab_lo > 0 and bc_lo > 0`: their product can underflow to 0
        terms.append(ba_hi * cb_hi / den)
        terms.append(ba_hi * (1.0 + cb_hi * (1.0 - bc_lo) / den))
    if ab_lo > cb_hi + COND_TOL:
        den_theta = bc_lo * ab_lo + cb_hi * (1.0 - bc_lo)
        if den_theta > COND_TOL:
            theta = bc_lo * ab_lo / den_theta
            if ba_lo <= theta + COND_TOL and theta <= ba_hi + COND_TOL:
                den5 = cb_hi + bc_lo * (ab_lo - cb_hi)
                if den5 > COND_TOL:
                    terms.append(cb_hi / den5)
    return min(terms)


def bayes_cycle(
    forward_lo: Sequence[float], forward_hi: Sequence[float],
    backward_lo: Sequence[float], backward_hi: Sequence[float],
) -> tuple[float, float]:
    """Propose a (lo, hi) pair for the edge P(A1|Ak) of a cycle A1..Ak via the product identity.

    The forward premises are P(A_{i+1}|A_{i+2}) for i < k-1, then P(Ak|A1);
    the backward ones are P(A_{i+2}|A_{i+1}) for i < k-1, one fewer, never
    the target.  Each is given by its two ends, in that order.  The identity

        P(A1|Ak) = P(Ak|A1) . prod_i P(Ai|Ai+1) / P(Ai+1|Ai)

    gives one bound per side, each product taken left to right, clipped to
    [0, 1]; a zero denominator leaves that side vacuous.  The tests hold
    saturation's ratio closure (`network._Store.bayes`) to this rule.
    """
    if len(backward_lo) != len(forward_lo) - 1 or not backward_lo:
        raise ValueError("a cycle needs k >= 2 forward edges and k - 1 backward edges")
    den_lo, den_hi = prod(backward_lo), prod(backward_hi)
    hi = 1.0 if den_lo <= 0.0 else min(1.0, prod(forward_hi) / den_lo)
    lo = 0.0 if den_hi <= 0.0 else min(1.0, prod(forward_lo) / den_hi)
    return lo, hi


class TypicalityInput(Value):
    """P(A|B) = t, P(C|B) = alpha with P(B|A) = P(B|C) = 1."""

    __slots__ = ("t", "alpha")

    def __init__(self, t: float, alpha: float) -> None:
        if not (0.0 <= t <= 1.0 and 0.0 <= alpha <= 1.0):
            raise ValueError("typicality inputs must lie in [0, 1]")
        self.t = t
        self.alpha = alpha


def typicality_bounds(inp: TypicalityInput) -> ProbInterval:
    """Closed form for P(C|A) when A is a typicality-t subclass of B."""
    if inp.t <= 0.0:
        raise ValueError("undefined reference class: typicality index is 0")
    lo = max(0.0, 1.0 - (1.0 - inp.alpha) / inp.t)
    hi = min(1.0, inp.alpha / inp.t)
    return ProbInterval(lo, hi)
