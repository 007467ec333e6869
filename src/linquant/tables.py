"""Qualitative syllogism: range evaluation, tables, compaction, robustness.

Q5 = P(C|A) follows from Q1 = P(B|A), Q2 = P(A|B), Q3 = P(B|C) and
Q4 = P(C|B).  For label ranges it is computed numerically on the hull
semantics of the ranges and approximated once, at the very end; chaining
pre-approximated sub-results instead loses too much precision.  That range
evaluation, `eval_extended`, is what the tables and the tests check;
saturation does not call it, but runs the same closed forms on the hulls it
stores (`network`).  The table maps every 4-tuple of elementary labels to
its Q5 through the same evaluation; it is a plain dict, and its partition
stays with the caller.
Q6 = P(A|C) needs no table of its own: it is the Q5 entry of the
role-swapped key, `table[(q3, q4, q1, q2)]`.
"""

from __future__ import annotations

import csv
import io
import itertools
from typing import NamedTuple

from .bounds import SyllogismInput, syllogism_lower, syllogism_upper
from .qualalg import SCALE5_LABELS, Partition, ProbInterval, QRange, ThresholdOutOfRange

Key = tuple[int, int, int, int]


def _bounds(h1: ProbInterval, h2: ProbInterval, h3: ProbInterval, h4: ProbInterval) -> ProbInterval:
    """Numeric P(C|A) bounds from the hulls of Q1..Q4."""
    return ProbInterval(
        syllogism_lower(h1.lo, h2.lo, h4.lo), syllogism_upper(h1.lo, h1.hi, h2.lo, h4.hi, h3.lo)
    )


def eval_extended(p: Partition, r1: QRange, r2: QRange, r3: QRange, r4: QRange) -> QRange:
    """Q5 for label ranges: the closed forms on the ranges' hulls, approximated once.

    This is the hull of the table cells in the ranges (the tests check it
    on every 5-label range tuple).  A hull of the corner cells alone is
    not: the crossing term of the upper bound peaks at an interior value
    of P(B|A), which no corner cell sees.
    """
    return p.approximate(_bounds(*(p.semantics(r) for r in (r1, r2, r3, r4))))


def gen_table(p: Partition) -> dict[Key, QRange]:
    """`eval_extended` of every elementary 4-tuple, in key order, each label's hull taken once."""
    hulls = [p.semantics(QRange(q, q)) for q in range(p.n_labels)]
    return {
        key: p.approximate(_bounds(*(hulls[q] for q in key)))
        for key in itertools.product(range(p.n_labels), repeat=4)
    }


# -- compaction ---------------------------------------------------------------


class CompactGroup(NamedTuple):
    output: QRange
    patterns: tuple[tuple[QRange, QRange, QRange, QRange], ...]
    size: int


Pattern = tuple[tuple[int, int], ...]  # one (low, high) label run per Q1..Q4


def _merge_axis(rows: list[Pattern], axis: int) -> list[Pattern]:
    """Merge label runs along one axis among rows identical elsewhere."""
    merged: list[Pattern] = []
    for row in sorted(rows, key=lambda r: r[:axis] + r[axis + 1:] + (r[axis],)):
        if merged:
            prev = merged[-1]
            if (
                prev[:axis] == row[:axis] and prev[axis + 1:] == row[axis + 1:]
                and prev[axis][1] + 1 == row[axis][0]
            ):
                merged[-1] = prev[:axis] + ((prev[axis][0], row[axis][1]),) + prev[axis + 1:]
                continue
        merged.append(row)
    return merged


def compact(table: dict[Key, QRange]) -> list[CompactGroup]:
    """Group tuples by output, merging contiguous blocks for presentation.

    Lossless: expanding every pattern of every group reproduces the full
    entry map exactly.
    """
    by_output: dict[tuple[int, int], list[Pattern]] = {}
    for key in sorted(table):
        q5 = table[key]
        by_output.setdefault((q5.low, q5.high), []).append(tuple(zip(key, key)))
    groups = []
    for output in sorted(by_output):
        rows = by_output[output]
        size = len(rows)
        for axis in (3, 2, 1, 0):
            rows = _merge_axis(rows, axis)
        patterns = tuple(tuple(QRange(*run) for run in row) for row in sorted(rows))
        groups.append(CompactGroup(QRange(*output), patterns, size))
    groups.sort(key=lambda g: -g.size)
    return groups


# -- serialization -------------------------------------------------------------


def table_to_csv(p: Partition, table: dict[Key, QRange]) -> str:
    """Full entry map, one row per tuple, lexicographic order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["q1", "q2", "q3", "q4", "q5_low", "q5_high"])
    for key in sorted(table):
        q5 = table[key]
        writer.writerow([p.labels[i] for i in key] + [p.labels[q5.low], p.labels[q5.high]])
    return buf.getvalue()


def compact_to_markdown(p: Partition, table: dict[Key, QRange]) -> str:
    lines = [
        "| Q1 | Q2 | Q3 | Q4 | Q5 | tuples |",
        "|---|---|---|---|---|---|",
    ]
    for group in compact(table):
        first = True
        for pat in group.patterns:
            cells = [p.name_of(q) for q in pat]
            out = p.name_of(group.output) if first else ""
            count = str(group.size) if first else ""
            lines.append("| " + " | ".join(cells + [out, count]) + " |")
            first = False
    return "\n".join(lines) + "\n"


# -- robustness over the few/half threshold ------------------------------------


class RobustnessReport(NamedTuple):
    reference_alpha: float
    alpha_values: tuple[float, ...]
    changed_per_alpha: dict[float, tuple[Key, ...]]
    changed_distinct: tuple[Key, ...]

    @property
    def distinct_count(self) -> int:
        return len(self.changed_distinct)

    @property
    def half_product_flip_alphas(self) -> list[float]:
        """The swept alphas at or past (3 - sqrt 5) / 2, where half * half falls to `few`."""
        return [a for a in self.alpha_values if a >= (3 - 5**0.5) / 2]


_MAX_ALPHAS = 1_000  # tables one robustness sweep may build, about 4 ms each


def robustness_sweep(
    alpha_from: float, alpha_to: float, step: float, reference_alpha: float
) -> RobustnessReport:
    """Regenerate the 5-label table per alpha and diff against the reference.

    Each distinct alpha gets one table, the reference's first, so a bad
    reference fails before any other table is built.
    """
    if not (0.0 < alpha_from <= alpha_to < 0.5):
        raise ThresholdOutOfRange("alpha range must satisfy 0 < from <= to < 0.5")
    if not step > 0.0:
        raise ThresholdOutOfRange("alpha step must be positive")
    if (alpha_to - alpha_from + 1e-12) / step >= _MAX_ALPHAS:  # the loop below makes one more
        raise ThresholdOutOfRange(f"alpha step too small: more than {_MAX_ALPHAS} alphas")
    alphas = {}  # each alpha once, though several steps round to it
    a = alpha_from
    while a <= alpha_to + 1e-12:
        alphas[round(a, 12)] = None
        a += step
    built = {
        a: gen_table(Partition((a, 1 - a), SCALE5_LABELS))
        for a in dict.fromkeys((reference_alpha, *alphas))
    }
    reference = built[reference_alpha]
    per_alpha = {
        alpha: tuple(key for key in reference if built[alpha][key] != reference[key])
        for alpha in alphas
    }
    distinct = set().union(*per_alpha.values())
    return RobustnessReport(
        reference_alpha, tuple(alphas), per_alpha, tuple(sorted(distinct))
    )


# -- extreme-quantifier analytic forms ------------------------------------------


class CoreRowVerdict(NamedTuple):
    inputs: tuple[str, str, str, str]
    bound_kind: str  # "upper" | "lower"
    computed: float
    analytic: float
    witness: SyllogismInput

    @property
    def holds(self) -> bool:
        return abs(self.computed - self.analytic) <= 1e-9


def robust_core_check(alpha: float) -> list[CoreRowVerdict]:
    """Check the six unstable extreme-quantifier cases against closed forms.

    Inputs are boxes of the shape P <= alpha ("few") or P >= 1 - alpha
    ("most"); requires alpha <= 1/3 so every output stays within one
    symbolic region.
    """
    if not (0.0 < alpha <= 1.0 / 3.0 + 1e-12):
        raise ValueError("analysis requires 0 < alpha <= 1/3")
    lo, hi = ProbInterval(0.0, alpha), ProbInterval(1.0 - alpha, 1.0)
    a2 = alpha**2 / (1.0 - alpha) ** 2
    rows = [
        (("few", "most", "most", "few"), "upper", a2),
        (("few", "most", "most", "most"), "upper", a2 + alpha),
        (("most", "most", "few", "few"), "upper", 2.0 * alpha),
        (("most", "most", "few", "most"), "lower", 1.0 - 2.0 * alpha),
        (("most", "most", "most", "few"), "upper", alpha / ((1.0 - alpha) ** 2 + alpha**2)),
        (("most", "most", "most", "most"), "lower", 1.0 - 2.0 * alpha),
    ]
    verdicts = []
    for names, kind, analytic in rows:
        box = {"few": lo, "most": hi}
        inp = SyllogismInput(
            b_given_a=box[names[0]],
            a_given_b=box[names[1]],
            b_given_c=box[names[2]],
            c_given_b=box[names[3]],
        )
        computed = inp.upper() if kind == "upper" else inp.lower()
        verdicts.append(CoreRowVerdict(names, kind, computed, analytic, inp))
    return verdicts


def five_inequalities(alpha: float) -> list[tuple[str, float, float]]:
    """The five relations guaranteeing stable symbolic outputs for alpha <= 1/3.

    Returns (description, lhs, rhs) with lhs <= rhs expected.
    """
    a2 = alpha**2 / (1.0 - alpha) ** 2
    return [
        ("a^2/(1-a)^2 <= a", a2, alpha),
        ("a + a^2/(1-a)^2 <= 1-a", alpha + a2, 1.0 - alpha),
        ("2a <= 1-a", 2.0 * alpha, 1.0 - alpha),
        ("a <= 1-2a", alpha, 1.0 - 2.0 * alpha),
        (
            "a/((1-a)^2+a^2) <= 1-a",
            alpha / ((1.0 - alpha) ** 2 + alpha**2),
            1.0 - alpha,
        ),
    ]
