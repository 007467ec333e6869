"""Optimal interval bounds for chaining conditional probabilities.

Given interval constraints on P(B|A), P(A|B), P(C|B) and P(B|C), the
syllogism pattern bounds P(C|A) (and, by swapping the roles of A and C,
P(A|C)).  The lower bound is

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

The module also provides the cycle form of Bayes' theorem, which proposes
a (lo, hi) pair as the two syllogism ends do, and the closed form for the
typicality special case P(B|A) = P(B|C) = 1.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .qualalg import ProbInterval, Value

COND_TOL = 1e-12


class SyllogismInput(NamedTuple):
    """Interval constraints on the four conditionals linking A, B, C."""

    b_given_a: ProbInterval
    a_given_b: ProbInterval
    c_given_b: ProbInterval
    b_given_c: ProbInterval

    def swapped(self) -> "SyllogismInput":
        """Same pattern with the roles of A and C exchanged."""
        return SyllogismInput(
            b_given_a=self.b_given_c,
            a_given_b=self.c_given_b,
            c_given_b=self.a_given_b,
            b_given_c=self.b_given_a,
        )


def syllogism_lower(inp: SyllogismInput) -> float:
    b, a, c = inp.b_given_a, inp.a_given_b, inp.c_given_b
    if b.lo <= 0.0:
        return 0.0
    if a.lo <= 0.0:
        # quotient term dropped; it only survives when P(C|B) is certain
        factor = 1.0 if c.lo >= 1.0 - COND_TOL else 0.0
    else:
        factor = max(0.0, 1.0 - (1.0 - c.lo) / a.lo)
    return b.lo * factor


def syllogism_upper(inp: SyllogismInput) -> float:
    b, a, c, d = inp.b_given_a, inp.a_given_b, inp.c_given_b, inp.b_given_c
    terms = [1.0]
    if a.lo > 0.0 and b.lo > 0.0:  # with b.lo = 0 the term is 1, and 0 * -inf would be nan
        terms.append(1.0 - b.lo * (1.0 - c.hi / a.lo))
    den = a.lo * d.lo
    if den > 0.0:  # not `a.lo > 0 and d.lo > 0`: their product can underflow to 0
        terms.append(b.hi * c.hi / den)
        terms.append(b.hi * (1.0 + c.hi * (1.0 - d.lo) / den))
    if a.lo > c.hi + COND_TOL:
        den_theta = d.lo * a.lo + c.hi * (1.0 - d.lo)
        if den_theta > COND_TOL:
            theta = d.lo * a.lo / den_theta
            if b.lo <= theta + COND_TOL and theta <= b.hi + COND_TOL:
                den5 = c.hi + d.lo * (a.lo - c.hi)
                if den5 > COND_TOL:
                    terms.append(c.hi / den5)
    return min(terms)


def syllogism(inp: SyllogismInput) -> tuple[ProbInterval, ProbInterval]:
    """Bounds on P(C|A) and on P(A|C).

    The lower bound never exceeds the upper one by more than rounding
    (the tests check lo <= hi + 1e-12), and `ProbInterval` closes that gap.
    """
    swapped = inp.swapped()
    return (
        ProbInterval(syllogism_lower(inp), syllogism_upper(inp)),
        ProbInterval(syllogism_lower(swapped), syllogism_upper(swapped)),
    )


def bayes_cycle(
    forward: Sequence[ProbInterval], backward: Sequence[ProbInterval]
) -> tuple[float, float]:
    """Propose a (lo, hi) pair for the edge P(A1|Ak) of a cycle A1..Ak via the product identity.

    forward[i] = P(A_{i+1}|A_{i+2}) for i < k-1 and forward[-1] = P(Ak|A1);
    backward[i] = P(A_{i+2}|A_{i+1}) for i < k-1, so it holds one edge
    fewer and never the target.  The identity

        P(A1|Ak) = P(Ak|A1) . prod_i P(Ai|Ai+1) / P(Ai+1|Ai)

    gives one bound per side, clipped to [0, 1]; a zero denominator leaves
    that side vacuous.  Meeting the pair with the edge's current range is
    the caller's step.
    """
    if len(backward) != len(forward) - 1 or not backward:
        raise ValueError("a cycle needs k >= 2 forward edges and k - 1 backward edges")
    num_lo = num_hi = den_lo = den_hi = 1.0  # each product left to right, as `math.prod`
    for f in forward:
        num_lo, num_hi = num_lo * f.lo, num_hi * f.hi
    for b in backward:
        den_lo, den_hi = den_lo * b.lo, den_hi * b.hi
    hi = 1.0 if den_lo <= 0.0 else min(1.0, num_hi / den_lo)
    lo = 0.0 if den_hi <= 0.0 else min(1.0, num_lo / den_hi)
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
