"""Scale construction, approximation, orderings, and the product/quotient algebra."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linquant import qualalg
from linquant.network import KnowledgeBase, ingest
from linquant.qualalg import (
    AsymmetricThresholds,
    ContradictionError,
    DuplicateLabels,
    NonIncreasingThresholds,
    Partition,
    ProbInterval,
    QRange,
    WrongLabelCount,
    hull,
    meet,
    scale5,
    scale7,
)

from conftest import (
    all_ranges, certainty_leq, contains, contains_interval, covers, holds, midpoint, points_of, value_set,
)

D = (3 - math.sqrt(5)) / 2  # half*half collapses to few at and above this


class TestBuildPartition:
    def test_default_seven(self, p7):
        assert p7.n_labels == 7
        assert p7.labels[0] == "none" and p7.labels[-1] == "all"

    def test_five_label(self):
        p = Partition((0.3, 0.7), ("none", "few", "half", "most", "all"))
        assert p.n_labels == 5

    def test_non_increasing(self):
        with pytest.raises(NonIncreasingThresholds):
            Partition((0.4, 0.3), ("a", "b", "c", "d", "e"))

    def test_asymmetric(self):
        with pytest.raises(AsymmetricThresholds):
            Partition((0.2, 0.5, 0.7), ("a", "b", "c", "d", "e", "f"))

    def test_duplicate_labels(self):
        with pytest.raises(DuplicateLabels):
            Partition((0.3, 0.7), ("none", "few", "few", "most", "all"))

    def test_wrong_count(self):
        with pytest.raises(WrongLabelCount):
            Partition((0.3, 0.7), ("none", "few", "all"))


class TestValues:
    def test_equal_and_hashed_by_value(self):
        for a, b in ((ProbInterval(0.2, 0.8), ProbInterval(0.2, 0.8)), (QRange(1, 3), QRange(1, 3))):
            assert a == b and hash(a) == hash(b) and a is not b
            assert len({a, b}) == 1
        assert ProbInterval(0.2, 0.8) != ProbInterval(0.2, 0.7)
        assert QRange(1, 3) != QRange(1, 2)

    def test_equal_only_within_a_type(self):
        assert ProbInterval(0.0, 1.0) != QRange(0, 1)
        assert QRange(0, 1) != (0, 1)

    def test_clamped_and_shown(self):
        i = ProbInterval(-1e-12, 1 + 1e-12)
        assert (i.lo, i.hi) == (0.0, 1.0)
        assert repr(i) == "ProbInterval(lo=0.0, hi=1.0)"
        assert repr(QRange(1, 3)) == "QRange(low=1, high=3)"

    def test_negative_zero_clamped_to_zero(self):
        for i in (ProbInterval(-0.0, 0.5), ProbInterval(-0.0, -0.0)):
            assert math.copysign(1, i.lo) == 1 and math.copysign(1, i.hi) == 1

    @pytest.mark.parametrize("lo, hi", [(0.6, 0.5), (-0.1, 0.5), (0.5, 1.1)])
    def test_invalid_interval(self, lo, hi):
        with pytest.raises(ValueError, match="invalid probability interval"):
            ProbInterval(lo, hi)

    def test_invalid_range(self):
        with pytest.raises(ValueError, match="above high"):
            QRange(3, 2)

    def test_range_outside_the_scale(self, p7):
        with pytest.raises(ValueError) as err:
            p7.validate(QRange(0, 7))
        assert str(err.value) == "QRange(low=0, high=7) outside scale with 7 labels"

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_scale5_alpha_outside_its_range(self, alpha):
        with pytest.raises(qualalg.ThresholdOutOfRange) as err:
            scale5(alpha)
        assert str(err.value) == f"alpha {alpha} outside (0, 0.5)"


class TestSemantics:
    def test_few_to_most(self, p7):
        assert p7.semantics(p7.range_of("few", "most")) == ProbInterval(0.2, 0.8)

    def test_all_singleton(self, p7):
        assert p7.semantics(p7.range_of("all")) == ProbInterval(1.0, 1.0)

    def test_half_to_all(self, p7):
        assert p7.semantics(p7.range_of("half", "all")) == ProbInterval(0.4, 1.0)


class TestApproximate:
    def test_hull_into_half_all(self, p7):
        assert p7.approximate(ProbInterval(0.45, 1.0)) == p7.range_of("half", "all")

    def test_point_inside(self, p7):
        assert p7.approximate(ProbInterval(0.3, 0.3)) == p7.range_of("few")

    def test_zero_pulls_in_none(self, p7):
        assert p7.approximate(ProbInterval(0.0, 0.19)) == p7.range_of("none", "al-none")

    def test_threshold_bounds_go_inward(self, p7):
        assert p7.approximate(ProbInterval(0.4, 0.6)) == p7.range_of("half")
        assert p7.approximate(ProbInterval(0.2, 0.4)) == p7.range_of("few")


class TestAntonym:
    def test_almost_none(self, p7):
        assert p7.antonym(p7.range_of("al-none")) == p7.range_of("al-all")

    def test_half_selfmirror(self, p7):
        assert p7.antonym(p7.range_of("half")) == p7.range_of("half")

    def test_none_few(self, p7):
        assert p7.antonym(p7.range_of("none", "few")) == p7.range_of("most", "all")

    def test_involution_and_reflection(self, p7):
        for q in all_ranges(p7):
            assert p7.antonym(p7.antonym(q)) == q
            sem = p7.semantics(q)
            mirrored = p7.semantics(p7.antonym(q))
            assert mirrored.lo == pytest.approx(1 - sem.hi)
            assert mirrored.hi == pytest.approx(1 - sem.lo)


class TestCertaintyOrder:
    def test_elementary(self, p7):
        assert certainty_leq(p7.range_of("few"), p7.range_of("half"))

    def test_incomparable(self, p7):
        # lows rise but highs drop: neither direction holds
        assert not certainty_leq(p7.range_of("few", "all"), p7.range_of("most", "al-all"))
        assert not certainty_leq(p7.range_of("most", "al-all"), p7.range_of("few", "all"))

    def test_partial_order(self, p7):
        ranges = list(all_ranges(p7))
        for q1 in ranges:
            assert certainty_leq(q1, q1)
            for q2 in ranges:
                if certainty_leq(q1, q2) and certainty_leq(q2, q1):
                    assert q1 == q2

    def test_total_on_elementary_matches_midpoints(self, p7):
        elems = [QRange(i, i) for i in range(p7.n_labels)]
        for a in elems:
            for b in elems:
                assert certainty_leq(a, b) or certainty_leq(b, a)
                if certainty_leq(a, b):
                    assert midpoint(p7, a.low) <= midpoint(p7, b.low) + 1e-12


class TestHullMeet:
    def test_worked_hull(self, p7):
        got = hull(p7.range_of("al-all"), p7.range_of("half", "most"))
        assert got == p7.range_of("half", "al-all")

    def test_disjoint_meet_empty(self, p7):
        assert meet(p7.range_of("few"), p7.range_of("most")) is None

    def test_idempotent(self, p7):
        for q in all_ranges(p7):
            assert hull(q, q) == q
            assert meet(q, q) == q

    def test_lattice_laws(self, p7):
        ranges = list(all_ranges(p7))
        for q1 in ranges:
            for q2 in ranges:
                assert hull(q1, q2) == hull(q2, q1)
                m = meet(q1, q2)
                assert (m is None) == (meet(q2, q1) is None)
                if m is not None:
                    assert meet(q2, q1) == m
                    # absorption where the meet exists
                    assert hull(q1, m) == q1
                    assert meet(q1, hull(q1, q2)) == q1


class TestSpecificity:
    def test_levels(self, p7):
        assert p7.specificity_level(p7.range_of("few")) == 1
        assert p7.specificity_level(p7.full_range()) == 7
        # few..most spans few, half, most
        assert p7.specificity_level(p7.range_of("few", "most")) == 3
        assert p7.specificity_level(p7.range_of("few", "al-all")) == 4


class TestProduct:
    def test_few_few(self, p5):
        assert p5.qmul(p5.range_of("few"), p5.range_of("few")) == p5.range_of("few")

    def test_half_half(self, p5):
        assert p5.qmul(p5.range_of("half"), p5.range_of("half")) == p5.range_of("few", "half")

    def test_most_most(self, p5):
        assert p5.qmul(p5.range_of("most"), p5.range_of("most")) == p5.range_of("half", "most")

    def test_all_is_identity(self, p5):
        for q in all_ranges(p5):
            assert p5.qmul(p5.range_of("all"), q) == q

    def test_none_absorbs(self, p5):
        for q in all_ranges(p5):
            assert p5.qmul(p5.range_of("none"), q) == p5.range_of("none")

    def test_commutative(self, p5):
        for q1 in all_ranges(p5):
            for q2 in all_ranges(p5):
                assert p5.qmul(q1, q2) == p5.qmul(q2, q1)

    def test_contains_pointwise_products(self, p5):
        import numpy as np

        rng = np.random.default_rng(0)
        ranges = list(all_ranges(p5))
        for q1 in ranges:
            for q2 in ranges:
                s1, s2 = p5.semantics(q1), p5.semantics(q2)
                out = p5.semantics(p5.qmul(q1, q2))
                for _ in range(5):
                    x = rng.uniform(s1.lo, s1.hi)
                    y = rng.uniform(s2.lo, s2.hi)
                    assert contains(out, x * y, tol=1e-9)

    @pytest.mark.parametrize("alpha,expect_flip", [(0.35, False), (0.39, True)])
    def test_half_half_flip(self, alpha, expect_flip):
        p = scale5(alpha)
        got = p.qmul(p.range_of("half"), p.range_of("half"))
        if expect_flip:
            assert got == p.range_of("few")
            assert p.qmul(p.range_of("most"), p.range_of("most")) == p.range_of("few", "most")
        else:
            assert got == p.range_of("few", "half")
            assert p.qmul(p.range_of("most"), p.range_of("most")) == p.range_of("half", "most")


class TestQuotient:
    def test_few_over_most(self, p5):
        assert p5.qdiv(p5.range_of("few"), p5.range_of("most")) == p5.range_of("few", "half")

    def test_half_over_half(self, p5):
        assert p5.qdiv(p5.range_of("half"), p5.range_of("half")) == p5.range_of("half", "all")

    def test_few_over_none(self, p5):
        assert p5.qdiv(p5.range_of("few"), p5.range_of("none")) == p5.range_of("all")

    def test_none_rows(self, p5):
        none = p5.range_of("none")
        assert p5.qdiv(none, none) == p5.full_range()
        for name in ("few", "half", "most", "all"):
            assert p5.qdiv(none, p5.range_of(name)) == none
            assert p5.qdiv(p5.range_of(name), none) == p5.range_of("all")

    def test_half_over_most(self, p5):
        assert p5.qdiv(p5.range_of("half"), p5.range_of("most")) == p5.range_of("half", "all")

    def test_reachable_zero_over_zero(self, p5):
        # [none, few] can be 0, and 0/0 says nothing
        assert p5.qdiv(p5.range_of("none"), p5.range_of("none", "few")) == p5.full_range()

    def test_quotient_above_one_truncates(self, p5):
        # most / few is at least 0.7 / 0.3 > 1
        assert p5.qdiv(p5.range_of("most"), p5.range_of("few")) == p5.range_of("all")

    def test_ratios_of_at_least_one_truncate_onto_one(self, p5):
        # 1 / y > 1 for every y < 1 of these ranges, and 1 / 0 saturates at 1
        for den in (("most",), ("half", "most"), ("none", "most")):
            assert p5.qdiv(p5.range_of("all"), p5.range_of(*den)) == p5.range_of("all")

    @pytest.mark.parametrize("p", [scale5(0.3), scale7()], ids=["5", "7"])
    def test_contains_pointwise_quotients(self, p):
        # x and y from the exact value sets, built from the thresholds alone
        rng = random.Random(p.n_labels)
        points = {q: points_of(value_set(p, q), rng) for q in all_ranges(p)}
        for q1, xs in points.items():
            for q2, ys in points.items():
                out = p.qdiv(q1, q2)
                for x in xs:
                    for y in ys:
                        if y > 0.0:
                            r = min(1.0, x / y)
                            assert covers(p, out, ProbInterval(r, r)), (q1, q2, x, y)


class TestGalois:
    def test_roundtrip_on_value_sets(self, p7):
        # exact at the value-set level for every element of U
        for q in all_ranges(p7):
            lo, lo_att, hi, hi_att = p7.flagged_semantics(q)
            assert p7._approximate(lo, lo_att, hi, hi_att) == q

    def test_semantics_of_approximation_covers(self, p7):
        import numpy as np

        rng = np.random.default_rng(1)
        for _ in range(300):
            a, b = sorted(rng.uniform(0, 1, 2))
            i = ProbInterval(float(a), float(b))
            q = p7.approximate(i)
            assert contains_interval(p7.semantics(q), i)

    def test_minimality(self, p5, p7, p9):
        import numpy as np

        def assert_minimal(p, i):
            q = p.approximate(i)
            assert covers(p, q, i)
            for other in all_ranges(p):
                inside = (
                    other.low >= q.low
                    and other.high <= q.high
                    and p.specificity_level(other) < p.specificity_level(q)
                )
                if inside:
                    assert not covers(p, other, i)

        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b = sorted(rng.uniform(0, 1, 2))
            assert_minimal(p7, ProbInterval(float(a), float(b)))
        # ends on and near the thresholds, where TOL = 1e-9 decides the label
        for p in (p5, p7, p9):
            points = sorted(t + d for t in p.thresholds for d in (0, 5e-10, -5e-10, 2e-9, -2e-9))
            for a, b in itertools.combinations_with_replacement(points, 2):
                assert_minimal(p, ProbInterval(a, b))


def _common(s, t):
    """The values two value sets share, as a value set, or None when they share none."""
    lo, hi = max(s[0], t[0]), min(s[2], t[2])
    lo_closed = all(closed for end, closed in (s[:2], t[:2]) if end == lo)
    hi_closed = all(closed for end, closed in (s[2:], t[2:]) if end == hi)
    return (lo, lo_closed, hi, hi_closed) if lo < hi or lo == hi and lo_closed and hi_closed else None


def _symmetric_scales():
    """The 3-, 4-, 5-, 7- and 9-label scales, then a few seeded symmetric ones."""
    yield Partition((), ("none", "some", "all"))
    yield Partition((0.5,), ("none", "few", "many", "all"))
    yield from (scale5(0.3), scale7(), qualalg.scale9())
    rng = random.Random(3)
    for _ in range(6):
        halves = sorted(round(rng.uniform(0.02, 0.48), 3) for _ in range(rng.randint(1, 3)))
        middle = [0.5] if rng.random() < 0.5 else []
        thresholds = halves + middle + [1.0 - t for t in reversed(halves)]
        yield Partition(thresholds, tuple(f"L{i}" for i in range(len(thresholds) + 3)))


def _clashes(p, *lines: str) -> bool:
    """Whether ingesting the lines, in order, into an empty KB over the scale p is a contradiction."""
    kb = KnowledgeBase(p)
    try:
        for line in lines:
            ingest(kb, line)
    except ContradictionError:
        return True
    return False


def _named(p, q) -> str:
    return f"{p.labels[q.low]} {p.labels[q.high]}"


@pytest.mark.parametrize("p", list(_symmetric_scales()), ids=lambda p: f"{p.n_labels}-{p.thresholds}")
def test_touch_and_certainty_by_value_sets(p):
    # whether two ranges with no common label share a value (`intersection`
    # of their flagged hulls), and whether a self edge clashes with a range,
    # against value sets built from the thresholds alone, never from
    # `Partition`'s own tables
    ranges = list(all_ranges(p))
    for q in ranges:
        assert _clashes(p, f"q a a {_named(p, q)}") != holds(value_set(p, q), 1.0), q
    disjoint = [(q, r) for q in ranges for r in ranges if meet(q, r) is None]
    assert disjoint
    for q, r in disjoint:
        shared = qualalg.intersection(p.flagged_semantics(q), p.flagged_semantics(r))
        assert (shared is None) == (_common(value_set(p, q), value_set(p, r)) is None), (q, r)


@pytest.mark.parametrize("p", list(_symmetric_scales()), ids=lambda p: f"{p.n_labels}-{p.thresholds}")
def test_statements_clash_exactly_when_their_value_sets_share_none(p):
    # every ordered pair of ranges on one edge, and every range with every
    # closed interval whose ends lie on 0, the thresholds, their midpoints
    # and 1, in both orders, against value sets built from the thresholds alone
    ranges = list(all_ranges(p))
    for q, r in itertools.product(ranges, repeat=2):
        expected = _common(value_set(p, q), value_set(p, r)) is None
        assert _clashes(p, f"q x y {_named(p, q)}", f"q x y {_named(p, r)}") == expected, (q, r)
    ends = (0.0, *p.thresholds, 1.0)
    grid = sorted({*ends, *((a + b) / 2 for a, b in zip(ends, ends[1:]))})
    for q in ranges:
        stated = f"q x y {_named(p, q)}"
        for lo, hi in itertools.combinations_with_replacement(grid, 2):
            expected = _common(value_set(p, q), (lo, True, hi, True)) is None
            interval = f"n x y {lo!r} {hi!r}"
            assert _clashes(p, stated, interval) == expected, (q, lo, hi)
            assert _clashes(p, interval, stated) == expected, (q, lo, hi)


@pytest.mark.parametrize("p", list(_symmetric_scales()), ids=lambda p: f"{p.n_labels}-{p.thresholds}")
def test_intersection_of_ranges_is_that_of_their_value_sets(p):
    for q, r in itertools.product(all_ranges(p), repeat=2):
        shared = qualalg.intersection(p.flagged_semantics(q), p.flagged_semantics(r))
        assert shared == _common(value_set(p, q), value_set(p, r)), (q, r)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    ends=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    gap=st.sampled_from([None, -3e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 3e-9]),
)
def test_intersection_of_closed_hulls_is_the_float_meet(ends, gap):
    # given a gap, the second hull starts that far above the end of the first
    (a, b), (c, d) = sorted(ends[:2]), sorted(ends[2:])
    if gap is not None:
        c, d = b + gap, max(d, b + gap)
    lo, hi = max(a, c), min(b, d)
    expected = None if lo > hi + qualalg.TOL else (lo, True, max(lo, hi), True)
    assert qualalg.intersection((a, True, b, True), (c, True, d, True)) == expected


# hypothesis strategies over symmetric partitions


@st.composite
def partitions(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    lows = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.05, max_value=0.44),
                min_size=k,
                max_size=k,
                unique_by=lambda x: round(x, 2),
            )
        )
    )
    lows = [round(x, 2) for x in lows]
    thresholds = sorted(set(lows) | {round(1 - x, 2) for x in lows})
    labels = tuple(f"L{i}" for i in range(len(thresholds) + 3))
    return Partition(thresholds, labels)


@st.composite
def partition_and_range(draw):
    p = draw(partitions())
    lo = draw(st.integers(min_value=0, max_value=p.n_labels - 1))
    hi = draw(st.integers(min_value=lo, max_value=p.n_labels - 1))
    return p, QRange(lo, hi)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(partition_and_range())
def test_antonym_involution_property(pq):
    p, q = pq
    assert p.antonym(p.antonym(q)) == q


@settings(max_examples=150, deadline=None, derandomize=True)
@given(partition_and_range())
def test_value_set_roundtrip_property(pq):
    p, q = pq
    lo, lo_att, hi, hi_att = p.flagged_semantics(q)
    assert p._approximate(lo, lo_att, hi, hi_att) == q


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    partitions(),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_approximation_sound_property(p, a, b):
    i = ProbInterval(min(a, b), max(a, b))
    assert contains_interval(p.semantics(p.approximate(i)), i)


def test_parse_partition_config():
    p = qualalg.parse_partition_config(
        "# scale\n@partition 0.3 0.7\n@labels none few half most all\n"
    )
    assert p.labels == ("none", "few", "half", "most", "all")


def test_parse_partition_config_missing_labels():
    with pytest.raises(qualalg.ConfigError, match="^missing @labels line$") as err:
        qualalg.parse_partition_config("@partition 0.3 0.7\n")
    assert err.value.line_no is None


@pytest.mark.parametrize("text, line", [
    ("@partition 0.7 0.3\n@labels none few half most all\n", 1),
    ("# scale\n@partition 0.3 0.7\n@labels none few few most all\n", 3),
    ("@labels none few half most all\n@partition\n", 1),
])
def test_parse_partition_config_names_the_line(text, line):
    with pytest.raises(qualalg.ConfigError, match=f"^line {line}: invalid partition: ") as err:
        qualalg.parse_partition_config(text)
    assert err.value.line_no == line


@pytest.mark.parametrize("extra, message", [
    ("@lables x", "line 3: unknown directive '@lables'"),
    ("@partition 0.2 0.8", "line 3: second @partition line"),
    ("@labels a b c d e", "line 3: second @labels line"),
])
def test_parse_partition_config_directive_once(extra, message):
    with pytest.raises(qualalg.ConfigError) as err:
        qualalg.parse_partition_config(
            "@partition 0.3 0.7\n@labels none few half most all\n" + extra + "\n"
        )
    assert str(err.value) == message and err.value.line_no == 3
