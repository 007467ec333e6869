"""Finite-strength counterparts of the three classic high-probability rules.

With "most" read as P >= 1 - alpha, triangularity and the Bayes rule are
special cases of the syllogism pattern (identify the middle class with the
intersection A^B, whose membership in A is certain); disjunction follows
from an exact identity for P(C|A u B).  Each rule keeps a quantified lower
bound rather than Adams' infinitesimal guarantee.
"""

from __future__ import annotations

from .bounds import SyllogismInput
from .qualalg import ProbInterval


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 0.5):
        raise ValueError(f"alpha {alpha} outside (0, 1/2)")


def triangularity_bound(alpha: float) -> float:
    """Lower bound on P(C|A^B) from P(B|A) >= 1-a and P(C|A) >= 1-a."""
    _check_alpha(alpha)
    return (1.0 - 2.0 * alpha) / (1.0 - alpha)


def bayes_rule_bound(alpha: float) -> float:
    """Lower bound on P(C|A) from P(B|A) >= 1-a and P(C|A^B) >= 1-a."""
    _check_alpha(alpha)
    return (1.0 - alpha) ** 2


def disjunction_bound(alpha: float, alpha_prime: float) -> float:
    """Lower bound on P(C|AuB) from P(C|A) >= 1-a and P(C|B) >= 1-a'."""
    _check_alpha(alpha)
    _check_alpha(alpha_prime)
    return max(0.0, 1.0 - alpha - alpha_prime)


def disjunction_identity(
    p_c_a: float, p_b_a: float, p_c_b: float, p_a_b: float, p_c_ab: float
) -> float:
    """Exact value of P(C|AuB) from the five listed conditionals.

    p_c_ab is P(C | A^B).  Exact for the conditionals of any distribution
    in which A, B and A^B all have positive mass.
    """
    if p_b_a <= 0.0 or p_a_b <= 0.0:
        raise ZeroDivisionError("P(B|A) and P(A|B) must be positive")
    denominator = 1.0 / p_b_a + 1.0 / p_a_b - 1.0
    if abs(denominator) < 1e-15:
        raise ZeroDivisionError("degenerate denominator in the union identity")
    return (p_c_a / p_b_a + p_c_b / p_a_b - p_c_ab) / denominator


# -- syllogism encodings, used to cross-check the closed forms ---------------


def triangularity_via_syllogism(alpha: float) -> float:
    """Triangularity as a syllogism with B' = A and A' = A^B."""
    _check_alpha(alpha)
    most = ProbInterval(1.0 - alpha, 1.0)
    inp = SyllogismInput(
        b_given_a=ProbInterval(1.0, 1.0),  # P(A | A^B)
        a_given_b=most,                    # P(A^B | A) = P(B|A)
        c_given_b=most,                    # P(C | A)
        b_given_c=ProbInterval(0.0, 1.0),  # P(A^B | C) unknown
    )
    return inp.lower()


def bayes_via_syllogism(alpha: float) -> float:
    """The Bayes rule as a syllogism with B' = A^B."""
    _check_alpha(alpha)
    most = ProbInterval(1.0 - alpha, 1.0)
    inp = SyllogismInput(
        b_given_a=most,                    # P(A^B | A) = P(B|A)
        a_given_b=ProbInterval(1.0, 1.0),  # P(A | A^B)
        c_given_b=most,                    # P(C | A^B)
        b_given_c=ProbInterval(0.0, 1.0),  # P(A^B | C) unknown
    )
    return inp.lower()
