"""Knowledge base ingestion, saturation, cycles, and querying."""

import collections
import contextlib
import functools
import importlib.util
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from linquant import network, qualalg
from linquant.network import (
    ContradictionError,
    KnowledgeBase,
    UnknownNode,
    gbt_qualitative,
    ingest,
    parse_kb,
    saturate,
    simple_cycles,
)
from linquant.oracle import class_event, solve, solve_events
from linquant.qualalg import ProbInterval as I

from conftest import (
    SCALE7, STUDENTS_KB7, STUDENTS_KB9, STUDENTS_NUMERIC, all_ranges, certified_range, chain_kb,
    class_masks, conditionals_of, contains, contains_interval, covers, cycle_rotations, points_of,
    random_numeric_kbs, rotation_candidate, value_set,
)


def _load_perfbench_gen():
    """`perfbench/gen.py`, the benchmark's seeded generator of consistent KBs."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PERFBENCH_GEN = _load_perfbench_gen()


class TestIngest:
    def test_qualitative_statement(self, p7):
        kb = KnowledgeBase(p7, "qualitative")
        ingest(kb, "q student sport most al-all")
        assert kb.interval("student", "sport") == I(0.6, 1.0)
        assert kb.qual("student", "sport") == p7.range_of("most", "al-all")

    def test_numeric_statement(self, p7):
        kb = KnowledgeBase(p7, "numeric")
        ingest(kb, "n single children 0.05 0.8")
        assert kb.interval("single", "children") == I(0.05, 0.8)

    def test_reingest_intersects(self, p7):
        kb = KnowledgeBase(p7, "numeric")
        ingest(kb, "n a b 0 0.5")
        ingest(kb, "n a b 0.3 1")
        assert kb.interval("a", "b") == I(0.3, 0.5)

    def test_stated_range_meets_numeric_statement(self, p7):
        kb = KnowledgeBase(p7, "numeric")
        ingest(kb, "q a b al-none al-all")
        ingest(kb, "n a b 0.9 1")
        assert kb.qual("a", "b") == p7.range_of("al-all")
        ingest(kb, "n b a 0.9 1")
        ingest(kb, "q b a al-none al-all")
        assert kb.qual("b", "a") == p7.range_of("al-all")

    def test_stated_range_excluding_the_interval(self, p7):
        kb = KnowledgeBase(p7, "numeric")
        ingest(kb, "q a b al-none")
        with pytest.raises(ContradictionError, match="a -> b"):
            ingest(kb, "n a b 0 0")

    @pytest.mark.parametrize("lines, label", [
        (["q a b half", "n a b 0.3 0.4"], "half"),
        (["n a b 0.3 0.4", "q a b half"], "half"),
        (["q a b al-all", "n a b 0.7 0.8"], "al-all"),
        (["q a b half", "q a b most"], "most"),
        (["q a b most", "q a b half"], "most"),
    ])
    def test_point_on_threshold_keeps_stated_label(self, p7, lines, label):
        # the point lies on the threshold below the stated label, which contains it
        kb = parse_kb("@partition 0.2 0.4 0.6 0.8\n@labels " + " ".join(p7.labels) + "\n"
                      + "\n".join(lines) + "\n")
        assert kb.qual("a", "b") == p7.range_of(label)

    def test_derived_range_touching_the_edge_keeps_the_edge(self, p7):
        # unlike two statements, which keep the upper range (above)
        labels = network._domain(parse_kb(SCALE7 + "q a b half\nq b a most\n", "qualitative"))
        half, most = p7.flagged_semantics(p7.range_of("half")), p7.flagged_semantics(p7.range_of("most"))
        assert labels.narrow(labels.edge("a", "b"), most) is network._SAME
        assert labels.narrow(labels.edge("b", "a"), half) is network._SAME

    def test_derived_point_on_the_threshold_below_keeps_the_lowest_label(self, p7):
        # the candidate meets [most, al-all] only at 0.6, a value of most (and
        # of half), so the edge keeps most, as `Partition.restrict` does
        labels = network._domain(parse_kb(SCALE7 + "q a b most al-all\n", "qualitative"))
        most = p7.flagged_semantics(p7.range_of("most"))
        assert labels.narrow(labels.edge("a", "b"), (0.5, True, 0.6, True)) == most

    def test_derived_range_meets_the_edge_by_value_sets(self, p7):
        # few is [0.2, 0.4]: a candidate from 0.41 shares no value with it,
        # though its approximation, half, touches few at 0.4; one from 0.4 does
        labels = network._domain(parse_kb(SCALE7 + "q a b few\n", "qualitative"))
        assert labels.narrow(labels.edge("a", "b"), (0.41, True, 0.5, True)) is None
        assert labels.narrow(labels.edge("a", "b"), (0.4, True, 0.5, True)) is network._SAME

    @pytest.mark.parametrize("lines", [
        ["q a b none", "q a b al-none"],
        ["q a b al-all", "q a b all"],
    ])
    def test_ranges_touching_at_an_excluded_end(self, p7, lines):
        # al-none excludes 0 and al-all excludes 1, so neither pair shares a value
        with pytest.raises(ContradictionError, match="a -> b"):
            parse_kb("@partition 0.2 0.4 0.6 0.8\n@labels " + " ".join(p7.labels) + "\n"
                     + "\n".join(lines) + "\n")

    def test_contradictory_reingest(self, p7):
        kb = KnowledgeBase(p7, "numeric")
        ingest(kb, "n a b 0 0.2")
        with pytest.raises(ContradictionError) as err:
            ingest(kb, "n a b 0.5 1")
        assert "a -> b" in str(err.value)

    @pytest.mark.parametrize("mode", ["Qualitative", "labels", ""])
    def test_unknown_mode(self, p7, mode):
        # only "qualitative" picks the label domain, so any other name but
        # "numeric" would run numeric mode unseen
        with pytest.raises(ValueError, match=f"unknown mode {mode!r}"):
            parse_kb(SCALE7 + "q a b most\n", mode)
        with pytest.raises(ValueError, match=f"unknown mode {mode!r}"):
            KnowledgeBase(p7, mode)

    def test_copy_shares_no_container(self, p7):
        kb = KnowledgeBase(p7, "numeric")
        ingest(kb, "n a b 0.2 0.4")
        ingest(kb, "? a b")
        dup = kb.copy()
        assert dup == kb and dup.partition is kb.partition
        for name in ("nodes", "edges", "queries"):
            assert getattr(dup, name) is not getattr(kb, name)
        ingest(dup, "n b c 0.5 0.6")
        ingest(dup, "? b c")
        assert dup != kb
        assert kb.nodes == ["a", "b"] and list(kb.edges) == [("a", "b")] and kb.queries == [("a", "b")]

    def test_query_line(self, p7):
        kb = KnowledgeBase(p7, "numeric")
        ingest(kb, "? a b")
        assert kb.queries == [("a", "b")]

    def test_parse_kb_reports_line(self):
        text = "@partition 0.3 0.7\n@labels none few half most all\nq a b nosuch\n"
        with pytest.raises(qualalg.ConfigError) as err:
            parse_kb(text)
        assert "line 3" in str(err.value)


class TestCycles:
    def test_enumeration_counts(self):
        nodes = ["a", "b", "c", "d", "e"]
        cycles = simple_cycles(nodes, 4)
        assert len([c for c in cycles if len(c) == 3]) == 10
        assert len([c for c in cycles if len(c) == 4]) == 15

    def test_shortest_first_and_canonical(self):
        cycles = simple_cycles(["c", "a", "b", "d"], 4)
        assert all(len(c) == 3 for c in cycles[:4])
        for c in cycles:
            assert c[0] == min(c)
            assert c[1] < c[-1]


class TestSaturateNumeric:
    def test_diagonal_only_fixpoint(self, p7):
        kb = KnowledgeBase(p7, "numeric")
        for n in ("a", "b", "c"):
            kb.add_node(n)
        sat, trace = saturate(kb)
        assert trace == []
        assert sat.interval("a", "b") == I(0, 1)

    def test_idempotent(self, p7):
        kb = parse_kb(STUDENTS_NUMERIC, mode="numeric")
        sat, _ = saturate(kb)
        again, trace = saturate(sat)
        assert trace == []

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            kb = parse_kb(STUDENTS_NUMERIC, mode="numeric")
            sat, trace = saturate(kb)
            runs.append((network.matrix_csv(sat), [str(s) for s in trace]))
        assert runs[0] == runs[1]

    def test_intervals_shrink_monotonically(self):
        kb = parse_kb(STUDENTS_NUMERIC, mode="numeric")
        widths = {}
        sat, trace = saturate(kb)
        for step in trace:
            lo0, hi0 = (float(x) for x in step.before.strip("[]").split(","))
            lo1, hi1 = (float(x) for x in step.after.strip("[]").split(","))
            assert lo1 >= lo0 - 1e-12 and hi1 <= hi0 + 1e-12

    def test_small_kb_sound_against_oracle(self):
        rng = np.random.default_rng(23)
        p = qualalg.scale7()
        names = ["a", "b", "c", "d"]
        for trial in range(6):
            masses = rng.dirichlet(np.ones(16))
            pcond = conditionals_of(masses, 4)
            kb = KnowledgeBase(p, "numeric")
            pairs = [(f, t) for f in range(4) for t in range(4) if f != t]
            rng.shuffle(pairs)
            cons = []
            for f, t in pairs[:7]:
                v = pcond(t, f)
                w1, w2 = rng.uniform(0.02, 0.2, 2)
                iv = I(max(0.0, v - w1), min(1.0, v + w2))
                ingest(kb, f"n {names[f]} {names[t]} {iv.lo} {iv.hi}")
                cons.append((f, t, iv))
            sat, _ = saturate(kb)
            for f in range(4):
                for t in range(4):
                    if f == t:
                        continue
                    res = solve(4, cons, (f, t))
                    if not res.ok:
                        continue
                    got = sat.interval(names[f], names[t])
                    assert got.lo <= res.interval.lo + 1e-6
                    assert res.interval.hi <= got.hi + 1e-6

    def test_contradiction_reports_chain(self, p7):
        kb = KnowledgeBase(p7, "numeric")
        # certain chain a=b=c but a->c pinned low
        ingest(kb, "n a b 1 1")
        ingest(kb, "n b a 1 1")
        ingest(kb, "n b c 1 1")
        ingest(kb, "n c b 1 1")
        ingest(kb, "n a c 0 0.2")
        with pytest.raises(ContradictionError):
            saturate(kb)

    def test_stated_range_clash_reports_chain(self, p7):
        # the syllogism through c pins P(y|x) to 0, which leaves no label of al-none
        kb = KnowledgeBase(p7, "numeric")
        for line in ("q x y al-none", "n x c 1 1", "n c x 1 1", "n c y 0 0",
                     "n a c 0.5 0.6", "n c a 0.3 0.9"):
            ingest(kb, line)
        with pytest.raises(ContradictionError) as err:
            saturate(kb)
        assert str(err.value) == "syllogism (x, c, y): contradiction on edge x -> y: al-none vs [0.000, 0.000]"
        assert [step.context for step in err.value.chain][0] == ("a", "c", "x")

    def test_syllogism_clash_message(self):
        with pytest.raises(ContradictionError) as err:
            saturate(parse_kb(chain_kb(12) + "n c0 c2 0 0.05\n"))
        assert str(err.value) == (
            "syllogism (c1, c0, c2) empties edge c1 -> c2: [0.600, 0.800] meets [0.000000, 0.495833]"
        )


def _mixed_line(rng: random.Random, p, names: list[str]) -> str:
    """A label range, or an interval that half the time has its ends on a grid of tenths."""
    a, b = rng.sample(names, 2)
    if rng.random() < 0.5:
        low, high = sorted(rng.randrange(p.n_labels) for _ in range(2))
        return f"q {a} {b} {p.labels[low]} {p.labels[high]}"
    grid = rng.random() < 0.5
    lo, hi = sorted(rng.randint(0, 10) / 10 if grid else rng.random() for _ in range(2))
    return f"n {a} {b} {lo!r} {hi!r}"


def _mixed_kb(rng: random.Random, p) -> str:
    """A KB over 3-6 classes whose lines mix label ranges and intervals, often clashing."""
    names = [f"c{i}" for i in range(rng.randint(3, 6))]
    lines = [f"@partition {' '.join(map(str, p.thresholds))}", f"@labels {' '.join(p.labels)}"]
    lines += [_mixed_line(rng, p, names) for _ in range(rng.randint(3, 14))]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("mode", ["numeric", "qualitative"])
def test_stated_range_agrees_with_its_interval(mode):
    # `_constrain` meets a narrowed value into its edge as it meets a
    # statement.  In qualitative mode that intersects the edge's interval
    # with the new range's hull and restricts the new range to the result;
    # on edges that keep this invariant neither step can fail or drop a
    # label, so the edge takes the range that `narrow` returned.
    rng = random.Random(12)
    checked = 0
    for _ in range(300):
        p = rng.choice((qualalg.scale5(0.3), qualalg.scale7(), qualalg.scale9()))
        kbs = []
        try:
            kbs.append(parse_kb(_mixed_kb(rng, p), mode))
            kbs.append(saturate(kbs[0])[0])
        except ContradictionError:
            pass
        for kb in kbs:
            for pair, edge in kb.edges.items():
                if edge.qual is None:
                    continue
                checked += 1
                assert p.restrict(edge.qual, edge.interval.flagged()) == edge.qual, (pair, edge)
                if mode == "qualitative":
                    hull = p.semantics(edge.qual)
                    assert contains_interval(hull, edge.interval, tol=0.0), (pair, edge)
    assert checked > 1000


def test_a_statement_never_widens_a_numeric_interval():
    # numeric saturation is monotone: one more statement on a KB that stays
    # consistent keeps every saturated interval inside its old one, up to the
    # 1e-9 stop of each run.  Qualitative mode is not held to this: a point
    # on a threshold lies in the labels either side, and a range narrowed to
    # one keeps only one of them, which can lie outside the range that
    # saturation gave without the statement.
    rng = random.Random(5)
    checked = 0
    for _ in range(2000):
        p = rng.choice((qualalg.scale5(0.3), qualalg.scale7(), qualalg.scale9()))
        text = _mixed_kb(rng, p)
        try:
            before = saturate(parse_kb(text))[0]
            extra = _mixed_line(rng, p, sorted(before.nodes))
            after = saturate(parse_kb(text + extra + "\n"))[0]
        except ContradictionError:
            continue
        checked += 1
        for pair in itertools.permutations(before.nodes, 2):
            old, new = before.interval(*pair), after.interval(*pair)
            assert new.lo >= old.lo - 1e-8 and new.hi <= old.hi + 1e-8, (text, extra, pair)
    assert checked > 1000


# P(c2|c3) is stated from 0.41, while the syllogism through c0 caps it at
# 0.357; no distribution gives c0, c2 or c3 mass.  On the label scale the
# stated [half, v-many] and the candidate [none, few] touch at 0.4 by name,
# but the candidate's value set ends at 0.385
EMPTY_MEET_KB = """\
@partition 0.1 0.2 0.4 0.6 0.8 0.9
@labels none al-none v-few few half most v-many al-all all
q c2 c3 al-none all
n c3 c2 0.4101674544646118 0.8206003996301467
q c1 c0 none most
n c0 c3 0.6498814957384126 0.7038076859070301
n c0 c2 0.0 0.2
n c2 c0 0.8 0.9
"""


@pytest.mark.parametrize("mode", ["numeric", "qualitative"])
def test_clash_of_value_sets_whose_labels_touch(mode):
    with pytest.raises(ContradictionError, match=r"^syllogism \(c3, c0, c2\) empties edge c3 -> c2"):
        saturate(parse_kb(EMPTY_MEET_KB, mode))


# the cycle c1 -> c2 -> c0 -> c1 pins P(c1|c0) to 0, which the stated range
# [al-none, half] excludes: numeric mode narrows the interval to [0, 0] and
# the stated range has no label left, qualitative mode empties the edge
CYCLE_OPEN_END_KB = SCALE7 + """\
q c1 c2 half half
q c0 c1 al-none half
q c1 c0 none none
n c2 c0 0.11641929707379628 0.4897393108282905
"""


@pytest.mark.parametrize("mode, message", [
    ("numeric", "bayes (c1, c2, c0): contradiction on edge c0 -> c1: [al-none, half] vs [0.000, 0.000]"),
    ("qualitative",
     "gbt (c1, c2, c0) empties edge c0 -> c1: [al-none, half] meets none [0.000000, 0.000000]"),
])
def test_cycle_clash_on_an_open_stated_end(mode, message):
    with pytest.raises(ContradictionError) as err:
        saturate(parse_kb(CYCLE_OPEN_END_KB, mode))
    assert str(err.value) == message


def _stated_by_form(p, frm: str, to: str, v: Fraction, form: int) -> str:
    """One true statement about P(to|frm) = v: a grid interval, a point, or a label containing v."""
    point = I(float(v), float(v))
    if form == 0:
        return f"n {frm} {to} {float(math.floor(v * 5) / 5)} {float(math.ceil(v * 5) / 5)}"
    if form == 1:
        return f"n {frm} {to} {float(v)} {float(v)}"
    label = p.approximate(point).low  # the label below, for a point on a threshold
    if form == 3 and label < p.top and covers(p, qualalg.QRange(label + 1, label + 1), point):
        label += 1  # the label above, which contains that point too
    return f"q {frm} {to} {p.labels[label]}"


@pytest.mark.parametrize("mode", ["numeric", "qualitative"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    weights=st.lists(st.integers(0, 3), min_size=8, max_size=8),
    forms=st.lists(st.integers(0, 3), min_size=12, max_size=12),
)
# P(a|b) = 0.6 sits on the threshold that `half` and `most` share, and both contain it
@example(weights=[0, 0, 0, 0, 0, 0, 2, 3], forms=[1, 1, 1, 1, 3, 1] * 2)
def test_kb_of_one_distribution_is_consistent(mode, weights, forms):
    # 3 classes with small integer atom weights, so that the conditionals
    # often sit on a threshold of the 7-label scale; two statements per pair,
    # each true of that distribution, so saturation must keep each conditional
    assume(all(sum(w for a, w in enumerate(weights) if a >> i & 1) for i in range(3)))
    p = qualalg.scale7()
    pcond = conditionals_of([Fraction(w) for w in weights], 3)
    pairs = [(f, t) for f in range(3) for t in range(3) if f != t]
    names = "abc"
    lines = [_stated_by_form(p, names[f], names[t], pcond(t, f), form)
             for (f, t), form in zip(pairs + pairs, forms)]
    sat, _ = saturate(parse_kb(
        "@partition 0.2 0.4 0.6 0.8\n@labels " + " ".join(p.labels) + "\n" + "\n".join(lines) + "\n",
        mode,
    ))
    for f, t in pairs:
        v = float(pcond(t, f))
        assert contains(sat.interval(names[f], names[t]), v, tol=1e-9), (lines, f, t)
        assert contains(p.semantics(sat.qual(names[f], names[t])), v, tol=1e-9), (lines, f, t)


class TestSaturateQualitative:
    def test_student_example_seven_labels(self):
        kb = parse_kb(STUDENTS_KB7, mode="qualitative")
        before = kb.copy()
        sat, trace = saturate(kb)
        p = sat.partition
        derived = network.derived_statements(before, sat)
        assert derived[("student", "single")] == p.range_of("few", "all")
        assert derived[("sport", "children")] == p.range_of("none", "few")
        # the sound fixpoint; see the acceptance suite for the printed-value check
        assert derived[("single", "student")] == p.range_of("al-none", "most")
        assert derived[("young", "single")] == p.range_of("most", "all")

    def test_trace_bounded_by_lattice_depth(self):
        kb = parse_kb(STUDENTS_KB7, mode="qualitative")
        sat, trace = saturate(kb)
        m = kb.partition.n_labels
        n_pairs = len(kb.nodes) * (len(kb.nodes) - 1)
        assert len(trace) <= n_pairs * (m * (m + 1) // 2)

    def test_idempotent_and_deterministic(self):
        kb = parse_kb(STUDENTS_KB7, mode="qualitative")
        sat, _ = saturate(kb)
        again, trace = saturate(sat)
        assert trace == []
        kb2 = parse_kb(STUDENTS_KB7, mode="qualitative")
        sat2, _ = saturate(kb2)
        assert network.matrix_csv(sat) == network.matrix_csv(sat2)

    def test_mode_coherence(self):
        kb = parse_kb(STUDENTS_KB7, mode="qualitative")
        satq, _ = saturate(kb)
        kbn = KnowledgeBase(kb.partition, "numeric")
        for pair, edge in parse_kb(STUDENTS_KB7, mode="qualitative").edges.items():
            kbn.add_node(pair[0])
            kbn.add_node(pair[1])
            kbn.edges[pair] = network.Edge(edge.interval, None)
        satn, _ = saturate(kbn)
        for f in satq.nodes:
            for t in satq.nodes:
                if f == t:
                    continue
                hull = satq.partition.semantics(satq.qual(f, t))
                num = satn.interval(f, t)
                assert contains_interval(hull, num, tol=1e-9)


def assert_contains_lp_ranges(kb: KnowledgeBase, sat: KnowledgeBase) -> None:
    """Every informative saturated label hull contains the global LP range."""
    k = len(kb.nodes)
    event = {name: class_event(k, i) for i, name in enumerate(kb.nodes)}
    cons = [(event[t], event[f], e.interval) for (f, t), e in kb.edges.items()]
    for f, t in itertools.permutations(kb.nodes, 2):
        got = sat.qual(f, t)
        if got == kb.partition.full_range():
            continue
        lp = solve_events(k, cons, (event[t], event[f]))
        assert lp.ok
        assert contains_interval(kb.partition.semantics(got), lp.interval, tol=1e-7), (
            f, t, kb.partition.name_of(got), lp.interval,
        )


def labelled_kbs(p):
    """Ten seeded 5-class qualitative KBs whose ten statements label the
    conditionals of one random joint distribution, so every KB is consistent."""
    rng = np.random.default_rng(p.n_labels)
    names = ["a", "b", "c", "d", "e"]
    pairs = [(f, t) for f in range(5) for t in range(5) if f != t]
    for _ in range(10):
        pcond = conditionals_of(rng.dirichlet(np.full(32, 0.3)), 5)
        kb = KnowledgeBase(p, "qualitative")
        for name in names:
            kb.add_node(name)
        for i in rng.permutation(len(pairs))[:10]:
            f, t = pairs[i]
            v = pcond(t, f)
            w = float(rng.choice([0.0, 0.1]))
            q = p.approximate(I(max(0.0, v - w), min(1.0, v + w)))
            ingest(kb, f"q {names[f]} {names[t]} {p.labels[q.low]} {p.labels[q.high]}")
        yield kb


class TestQualitativeSoundness:
    def test_crossing_term_reaches_the_lp_maximum(self, p7):
        # corner cells of the four ranges cap P(c|a) at `most` (0.8); the LP
        # maximum is 0.909, the crossing term at an interior P(b|a)
        kb = KnowledgeBase(p7, "qualitative")
        for line in ("q a b none all", "q b a most", "q c b few", "q b c few"):
            ingest(kb, line)
        sat, _ = saturate(kb)
        assert sat.qual("a", "c") == p7.range_of("none", "al-all")
        event = {name: class_event(3, i) for i, name in enumerate(kb.nodes)}
        cons = [(event[t], event[f], e.interval) for (f, t), e in kb.edges.items()]
        lp = solve_events(3, cons, (event["c"], event["a"]))
        assert lp.interval.hi == pytest.approx(0.909, abs=1e-3)
        assert contains_interval(p7.semantics(sat.qual("a", "c")), lp.interval)

    @pytest.mark.parametrize("scale", ["p5", "p7", "p9"])
    def test_contains_global_lp_range(self, scale, request):
        for kb in labelled_kbs(request.getfixturevalue(scale)):
            sat, _ = saturate(kb)
            assert_contains_lp_ranges(kb, sat)

    def test_zero_denominator_cycle_refines_nothing(self, p7):
        # every cycle through a -> b divides by P(b|a) = none; the LP leaves
        # P(a|c) and P(c|b) in [0, 1], so no cycle may derive `all` for them
        kb = KnowledgeBase(p7, "qualitative")
        ingest(kb, "q a b none")
        kb.add_node("c")
        sat, _ = saturate(kb)
        assert sat.qual("c", "a") == sat.qual("b", "c") == p7.full_range()
        assert_contains_lp_ranges(kb, sat)


# a 16-class chain of a seeded population, both directions along the chain
# and the chord c03-c09 each way
CHAIN16 = SCALE7 + """\
n c00 c01 0.655 0.746
n c01 c02 0.338 0.479
n c02 c03 0.475 0.547
n c03 c04 0.451 0.628
n c04 c05 0.552 0.643
n c05 c06 0.391 0.525
n c06 c07 0.381 0.524
n c07 c08 0.547 0.719
n c08 c09 0.418 0.567
n c09 c10 0.293 0.403
n c10 c11 0.314 0.482
n c11 c12 0.498 0.620
n c12 c13 0.631 0.764
n c13 c14 0.390 0.553
n c14 c15 0.495 0.598
n c01 c00 0.596 0.762
n c02 c01 0.528 0.669
n c03 c02 0.255 0.381
n c04 c03 0.529 0.667
n c05 c04 0.464 0.566
n c06 c05 0.485 0.643
n c07 c06 0.569 0.747
n c08 c07 0.419 0.517
n c09 c08 0.651 0.737
n c10 c09 0.472 0.605
n c11 c10 0.305 0.400
n c12 c11 0.339 0.445
n c13 c12 0.576 0.689
n c14 c13 0.574 0.667
n c15 c14 0.521 0.572
n c03 c09 0.045 0.146
n c09 c03 0.010 0.158
"""


def assert_fixpoint(sat: KnowledgeBase) -> None:
    """One more pass of both rules over every context, by class number, narrows no edge."""
    domain = network._domain(sat)
    classes = range(domain.n)
    rotations = itertools.chain.from_iterable(map(cycle_rotations, simple_cycles(classes, 4)))
    for rule, contexts in ((domain.syllogism, itertools.permutations(classes, 3)),
                           (functools.partial(rotation_candidate, domain), rotations)):
        for context in contexts:
            target, candidate = rule(context)
            assert domain.narrow(target, candidate) is network._SAME, (
                [domain.names[x] for x in context], domain.show(domain.value(target))
            )


def gbt(kb: KnowledgeBase, seq: tuple[str, ...]):
    """The qualitative cycle rule's candidate on the rotation `seq` of class names, approximated."""
    domain = network._domain(kb)
    _, candidate = rotation_candidate(domain, [domain.index[name] for name in seq])
    return kb.partition._approximate(*candidate)


def _fixpoint_cases():
    for p in (qualalg.scale5(0.3), qualalg.scale7(), qualalg.scale9()):
        yield from labelled_kbs(p)
    yield from random_numeric_kbs(10)
    for mode in ("numeric", "qualitative"):
        yield parse_kb(chain_kb(12), mode)
    yield parse_kb(STUDENTS_KB7, mode="qualitative")
    yield parse_kb(STUDENTS_KB9, mode="qualitative")
    yield parse_kb(STUDENTS_NUMERIC, mode="numeric")


def distinct(contexts: list[tuple[str, ...]]) -> set[tuple[str, ...]]:
    """The set of a list of contexts that repeats none."""
    assert len(contexts) == len(set(contexts))
    return set(contexts)


class TestWorklist:
    def test_saturation_is_a_fixpoint_of_every_context(self):
        # the worklist skips contexts that cannot narrow; a full pass over
        # every context after saturation shows that none it skipped could
        cases = list(_fixpoint_cases())
        assert len(cases) == 45
        for kb in cases:
            sat, _ = saturate(kb)
            assert_fixpoint(sat)

    def test_contexts_that_read_an_edge(self):
        # the syllogisms queued after an edge narrows are exactly those that
        # read that edge and whose premise ends can narrow, each once, and
        # the first queue is every syllogism whose premise ends can: lo(b|a)
        # and lo(c|b) positive, or lo(a|b) positive with hi(c|b) below 1 or
        # lo(b|c) positive (`TestStructuralVacuity`)
        for kb in (list(random_numeric_kbs(2))[1], parse_kb(chain_kb(6))):
            domain = network._domain(kb)
            names = domain.names
            nodes = range(len(names))

            def lo(u, v):
                return kb.interval(names[u], names[v]).lo  # P(v|u)

            def can_narrow(a, b, c):
                return (lo(a, b) > 0 and lo(b, c) > 0
                        or lo(b, a) > 0 and (kb.interval(names[b], names[c]).hi < 1 or lo(c, b) > 0))

            informative = {(u, v) for u, v in itertools.permutations(nodes, 2)
                           if kb.interval(names[u], names[v]) != qualalg.FULL}
            near = informative | {pair[::-1] for pair in informative}
            assert 0 < len(near) < len(nodes) * (len(nodes) - 1)
            triples = {t for t in itertools.permutations(nodes, 3) if can_narrow(*t)}
            assert triples < {t for t in itertools.permutations(nodes, 3) if {t[:2], t[1:]} <= near}
            assert distinct(domain.triples()) == triples
            for pair in near:  # the engine asks only about an edge that has just narrowed
                edge = {pair, pair[::-1]}
                assert distinct(domain.triples(pair)) == {
                    t for t in triples if edge & {t[:2], t[1::-1], t[1:], t[:0:-1]}
                }

    @pytest.mark.parametrize("mode", ["numeric", "qualitative"])
    def test_a_dropped_context_cannot_narrow(self, mode, monkeypatch):
        # the worklist drops a context whose premise ends leave its candidate
        # vacuous; each time the engine lists contexts, every context that
        # read what moved and is not listed gets `_SAME` from `narrow`, so
        # the fixpoint is the one of queueing them all.  The stated label
        # ranges have open ends, and cycle candidates whose upper end is 1
        # and open
        checked = collections.Counter()

        def check(domain, rule, contexts, listed):
            listed = set(listed)
            for context in contexts:
                if context not in listed:
                    assert domain.narrow(*rule(context)) is network._SAME, (rule.__name__, context)
                    checked[rule.__name__] += 1

        def triples(domain, pair=None):
            listed = triples_of(domain, pair)
            every = itertools.permutations(range(domain.n), 3)
            reads = every if pair is None else (t for t in every if set(pair) in ({*t[:2]}, {*t[1:]}))
            check(domain, domain.syllogism, reads, listed)
            return listed

        def close(domain):
            listed = close_of(domain)
            check(domain, domain.bayes, itertools.permutations(range(domain.n), 2), listed)
            return listed

        def relax(domain, u, v):
            before = list(zip(domain.ratio, domain.ratio_att))
            listed = relax_of(domain, u, v)
            moved = [divmod(e, domain.n) for e, old in enumerate(before)
                     if old != (domain.ratio[e], domain.ratio_att[e])]
            check(domain, domain.bayes, [(v, u), *moved, *(pair[::-1] for pair in moved)], listed)
            return listed

        store = network._Store
        triples_of, close_of, relax_of = store.triples, store.close, store.relax
        monkeypatch.setattr(store, "triples", triples)
        monkeypatch.setattr(store, "close", close)
        monkeypatch.setattr(store, "relax", relax)
        rng = random.Random(12)
        texts = []
        for _ in range(600):
            p = rng.choice((qualalg.scale5(0.3), qualalg.scale7(), qualalg.scale9()))
            texts.append(_mixed_kb(rng, p))
        rng = random.Random(26)
        for k in range(80):
            n = 5 + k % 4
            pairs = PERFBENCH_GEN.random_pairs(rng, n, 2 * n)
            texts.append(PERFBENCH_GEN.make_case(rng, n, pairs, mode, (5, 7, 9)[k % 3]).text)
        steps = 0
        for text in texts:
            try:
                steps += len(saturate(parse_kb(text, mode))[1])
            except ContradictionError:
                pass
        assert steps > 500 and checked["syllogism"] > 30_000 and checked["bayes"] > 5_000, (steps, checked)

    def test_ratio_bounds_stay_closed(self, monkeypatch):
        # the ratio bounds that saturation relaxes as edges narrow are those
        # of one Floyd-Warshall pass over the edges it ends with
        domains = []
        make = network._domain
        monkeypatch.setattr(network, "_domain", lambda kb: domains.append(make(kb)) or domains[-1])
        kbs = [*random_numeric_kbs(4), parse_kb(chain_kb(12)), parse_kb(CHAIN16),
               parse_kb(STUDENTS_NUMERIC), parse_kb(STUDENTS_KB9, "qualitative"),
               *labelled_kbs(qualalg.scale7())]
        moved = 0
        for kb in kbs:
            sat, trace = saturate(kb)
            kept, fresh = domains[-1], make(sat)
            fresh.close()
            moved += len(trace)
            assert kept.ratio_att == fresh.ratio_att
            for got, want in zip(kept.ratio, fresh.ratio):
                assert got == want or got == pytest.approx(want, rel=1e-12), (got, want)
        assert moved > 100

    def test_store_reads_the_kb_edges_once(self, monkeypatch):
        # the store reads each stated edge from `kb.edges` when it is built;
        # after that it writes the hulls that `narrow` returns
        for kb in (parse_kb(CHAIN16), parse_kb(STUDENTS_KB9, "qualitative")):
            domain, calls = type(network._domain(kb)), []
            flagged = domain.flagged
            with monkeypatch.context() as patch:
                patch.setattr(domain, "flagged", lambda *args: calls.append(args) or flagged(*args))
                _, trace = saturate(kb)
            assert trace and len(calls) == len(kb.edges), (len(trace), len(calls))

    def test_independent_of_the_queue_order(self, monkeypatch):
        # the fixpoint does not depend on the order of application; in numeric
        # mode a move of at most 1e-9 ends it, so the stop point may differ by
        # a few of those
        def saturated(kb):
            try:
                sat, _ = saturate(kb)
            except ContradictionError:
                return None
            assert_fixpoint(sat)
            return sat

        cases = [*_fixpoint_cases(), *itertools.islice(random_numeric_kbs(40), 10, None)]
        cases.append(parse_kb(chain_kb(12) + "n c0 c2 0 0.05\n"))  # a clash
        first = [saturated(kb) for kb in cases]
        assert first[-1] is None
        for name in ("triples", "close", "relax"):  # every batch the worklists take, reversed
            listed = getattr(network._Store, name)
            monkeypatch.setattr(
                network._Store, name, lambda store, *args, listed=listed: listed(store, *args)[::-1]
            )
        for kb, one in zip(cases, first):
            other = saturated(kb)
            assert (one is None) == (other is None)
            if one is None:
                continue
            for pair in itertools.permutations(kb.nodes, 2):
                assert one.qual(*pair) == other.qual(*pair), pair
                a, b = one.interval(*pair), other.interval(*pair)
                assert abs(a.lo - b.lo) <= 1e-8 and abs(a.hi - b.hi) <= 1e-8, (pair, a, b)

    @staticmethod
    @contextlib.contextmanager
    def _count_rule_calls(monkeypatch):
        """Count the calls of `syllogism_lower` and of the cycle rule, each of which must be called."""
        calls: collections.Counter = collections.Counter()
        for owner, name in ((network, "syllogism_lower"), (network._Store, "bayes")):
            rule = getattr(owner, name)

            def counted(*args, rule=rule, name=name):
                calls[name] += 1
                return rule(*args)

            monkeypatch.setattr(owner, name, counted)
        yield calls
        assert calls["syllogism_lower"] > 0 and calls["bayes"] > 0, calls

    def test_applies_only_contexts_that_can_narrow(self, monkeypatch):
        # sweeping every context until nothing changes takes 10,080
        # syllogism calls on this KB, and 240 cycle-rule calls a sweep
        with self._count_rule_calls(monkeypatch) as calls:
            sat, trace = saturate(parse_kb(CHAIN16))
        assert len(trace) > 10
        assert calls["syllogism_lower"] < 1000
        assert calls["bayes"] < 1000
        assert_fixpoint(sat)

    def test_64_class_chain(self, monkeypatch):
        # 64 classes have about 1.9 M simple cycles of up to four nodes; the
        # cycle rule tries each of the 4,032 ordered pairs about once
        with self._count_rule_calls(monkeypatch) as calls:
            sat, _ = saturate(parse_kb(chain_kb(64)))
        assert sat.interval("c0", "c2").lo > 0.1
        assert calls["syllogism_lower"] < 5000
        assert calls["bayes"] < 5000

    def test_rule_applications_on_numeric_chains(self, monkeypatch):
        # 10-class chains of seeded intervals, both ways along the chain and
        # one chord both ways, one KB per chord, as in the benchmark's
        # numeric-chain workload.  Queueing every context with an informative
        # edge either side took 4,880 syllogisms and 3,284 cycle tries here;
        # queueing only the contexts whose premise ends can narrow takes
        # 2,545 and 1,008, for the same 468 narrowings
        rng = random.Random(1)
        gen = PERFBENCH_GEN
        with self._count_rule_calls(monkeypatch) as calls:
            fired = sum(
                len(saturate(parse_kb(gen.make_case(rng, 10, gen.chain_pairs(10, chord), "numeric", 7).text))[1])
                for chord in gen.chords(10)
            )
        assert fired > 400
        assert calls["syllogism_lower"] < 3_000
        assert calls["bayes"] < 1_300

    @pytest.mark.parametrize("mode", ["numeric", "qualitative"])
    def test_independent_of_the_statement_order(self, mode):
        # saturation numbers the classes in sorted order, so the order in
        # which statements name them changes no bound, range or trace step
        def outcome(text):
            try:
                sat, trace = saturate(parse_kb(text, mode))
            except ContradictionError as exc:
                return str(exc), exc.chain
            return {
                pair: (sat.interval(*pair).lo.hex(), sat.interval(*pair).hi.hex(), sat.qual(*pair))
                for pair in itertools.permutations(sorted(sat.nodes), 2)
            }, trace

        texts = [STUDENTS_KB7, STUDENTS_KB9, STUDENTS_NUMERIC, CHAIN16, chain_kb(12) + "n c0 c2 0 0.05\n"]
        for text in texts:
            lines = text.splitlines()
            head = [line for line in lines if line.startswith("@")]
            body = [line for line in lines if not line.startswith("@")]
            want = outcome(text)
            for seed in range(4):
                random.Random(seed).shuffle(body)
                assert outcome("\n".join(head + body) + "\n") == want, seed

    def test_independent_of_the_hash_seed(self):
        script = (
            "import sys\n"
            "from linquant.network import parse_kb, saturate\n"
            "for text, mode in zip(sys.argv[1:], ('numeric', 'qualitative')):\n"
            "    sat, trace = saturate(parse_kb(text, mode))\n"
            "    for f in sat.nodes:\n"
            "        print([(repr(sat.interval(f, t)), repr(sat.qual(f, t))) for t in sat.nodes])\n"
            "    print(repr(trace))\n"
        )
        src = str(Path(network.__file__).resolve().parents[1])
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-c", script, CHAIN16, STUDENTS_KB9],
                env=env, capture_output=True, text=True, timeout=60, check=True,
            )
            outputs.append(proc.stdout)
        assert "TraceStep" in outputs[0]
        assert outputs[0] == outputs[1]


# a ring of five classes, each pair of neighbours stated both ways, of one
# random distribution: only the cycle through all five narrows P(c4|c0)
RING5_NUMERIC = SCALE7 + """\
n c0 c1 0.469 0.519
n c1 c0 0.788 0.848
n c1 c2 0.841 0.886
n c2 c1 0.426 0.456
n c2 c3 0.37 0.442
n c3 c2 0.763 0.819
n c3 c4 0.347 0.348
n c4 c3 0.507 0.595
n c4 c0 0.165 0.2
n c0 c4 0.024 0.116
"""

# the 3- and 4-class cycles show that P(c2|c3) is positive; the cycle
# c2, c1, c0, c4, c3 shows that it is at least 0.2
RING5_QUALITATIVE = SCALE7 + """\
q c0 c1 most most
q c1 c0 most most
q c1 c2 most al-all
q c2 c1 most most
q c2 c3 most most
q c3 c4 al-all all
q c4 c3 most al-all
q c4 c0 al-all al-all
q c0 c4 al-all al-all
"""


def certified(kb: KnowledgeBase, frm: str, to: str) -> tuple[float, float]:
    """`certified_range` of P(to|frm) under the KB's statements."""
    masks = dict(zip(kb.nodes, class_masks(len(kb.nodes))))
    cons = [(masks[t], masks[f], e.interval) for (f, t), e in kb.edges.items()]
    return certified_range(cons, (masks[to], masks[frm]))


def shown_ends(kb: KnowledgeBase, shown: str) -> tuple:
    """The ends of a value as a trace step shows it: floats, or the numbers of its labels."""
    if kb.mode == "numeric":
        return tuple(float(end) for end in shown.strip("[]").split(", "))
    q = {kb.partition.name_of(q): q for q in all_ranges(kb.partition)}[shown]
    return q.low, q.high


class TestCycleClosure:
    def test_five_class_cycle_numeric(self):
        kb = parse_kb(RING5_NUMERIC)
        sat, trace = saturate(kb)
        assert {len(step.context) for step in trace if step.edge == ("c0", "c4")} == {5}
        lo, hi = certified(kb, "c0", "c4")
        got = sat.interval("c0", "c4")
        assert contains_interval(got, I(lo, hi), tol=1e-9)
        assert (got.lo, got.hi) == pytest.approx((lo, hi), abs=1e-6)

    def test_five_class_cycle_qualitative(self):
        kb = parse_kb(RING5_QUALITATIVE, "qualitative")
        sat, trace = saturate(kb)
        assert [len(step.context) for step in trace if step.edge == ("c3", "c2")] == [5]
        p = kb.partition
        lp = I(*certified(kb, "c3", "c2"))
        assert sat.qual("c3", "c2") == p.approximate(lp) == p.range_of("few", "all")

    def test_each_cycle_step_explains_itself(self):
        # a cycle step names a simple cycle y, .., x for its edge x -> y, and
        # that rotation, read at the fixpoint, moves each end that the step
        # moved at least as far (numeric steps show three decimals)
        steps = 0
        rings = parse_kb(RING5_NUMERIC), parse_kb(RING5_QUALITATIVE, "qualitative"), parse_kb(HOP_LOOP_KB)
        for kb in (*_fixpoint_cases(), *rings):
            sat, trace = saturate(kb)
            domain = network._domain(sat)
            for step in trace:
                if step.phase == "syllogism":
                    continue
                steps += 1
                assert len(set(step.context)) == len(step.context), step
                assert (step.context[0], step.context[-1]) == step.edge[::-1], step
                target, candidate = rotation_candidate(domain, [domain.index[x] for x in step.context])
                assert domain.pair(target) == step.edge
                if kb.mode == "numeric":
                    got, tol = (candidate[0], candidate[2]), 5e-4
                else:
                    q = kb.partition._approximate(*candidate)
                    got, tol = (q.low, q.high), 0
                before_lo, before_hi = shown_ends(kb, step.before)
                lo, hi = shown_ends(kb, step.after)
                assert lo == before_lo or got[0] >= lo - tol, step
                assert hi == before_hi or got[1] <= hi + tol, step
        assert steps > 100


    def test_a_ratio_that_falls_by_rounding_keeps_its_path(self):
        # after `close`, c0 -> c2 -> c0 multiplies to 1, and its rounding once
        # "tightened" ratio(c0, c4) through c2 while ratio(c2, c4) ran through
        # c0, so the first step on c2 -> c4 named the walk c0, c2, c0, c2
        sat, trace = saturate(parse_kb(HOP_LOOP_KB))
        steps = [step for step in trace if step.phase == "bayes"]
        assert steps[0].edge == ("c2", "c4") and steps[0].context == ("c4", "c0", "c2")


HOP_LOOP_KB = SCALE7 + """\
n c4 c0 0.6436205744307797 0.7796491580119393
n c2 c0 0.5 0.5
n c0 c2 0.7 0.7
n c4 c2 0.1 0.2
"""


class TestGBT:
    def test_all_certain_cycle(self, p7):
        kb = KnowledgeBase(p7, "qualitative")
        for line in ("q a b all", "q b a all", "q b c all", "q c b all",
                     "q c a all", "q a c all"):
            ingest(kb, line)
        assert gbt(kb, ("a", "b", "c")) == p7.range_of("all")
        certain = p7.flagged_semantics(p7.range_of("all"))
        assert p7._approximate(*gbt_qualitative([certain] * 3, [certain] * 2)) == p7.range_of("all")

    def test_never_sharper_than_few_all(self, p5):
        # interior-label chains; the quotient of their products can at best
        # pin down [few, all]
        import itertools

        interior = [p5.range_of(n) for n in ("few", "half", "most")]
        floor_level = p5.specificity_level(p5.range_of("few", "all"))
        for labels in itertools.product(interior, repeat=5):
            kb = KnowledgeBase(p5, "qualitative")
            names = ("a", "b", "c")
            chain = [("a", "b"), ("b", "c"), ("c", "a"), ("b", "a"), ("c", "b")]
            for (f, t), q in zip(chain, labels):
                kb.add_node(f)
                kb.add_node(t)
                kb.edges[(f, t)] = network.Edge(p5.semantics(q), q)
            got = gbt(kb, names)
            assert p5.specificity_level(got) >= min(
                floor_level, p5.specificity_level(kb.qual("c", "a"))
            )

    def test_student_kb_unchanged(self):
        kb = parse_kb(STUDENTS_KB7, mode="qualitative")
        sat, trace = saturate(kb)
        assert all(step.phase != "gbt" for step in trace)
        domain = network._domain(sat)
        for cycle in simple_cycles(range(domain.n), 4):
            for seq in cycle_rotations(cycle):
                assert domain.narrow(*rotation_candidate(domain, seq)) is network._SAME

    @pytest.mark.parametrize("scale", ["p5", "p7", "p9"])
    def test_never_looser_than_the_stepwise_algebra_and_sound_pointwise(self, scale, request):
        # the rule approximates once; the label algebra approximates after
        # every product, as the rule did before
        p = request.getfixturevalue(scale)
        rng = random.Random(p.n_labels)
        points = {q: points_of(value_set(p, q), rng) for q in all_ranges(p)}
        for forward, backward in _cycle_premises(p, rng):
            got = p._approximate(*gbt_qualitative(
                [p.flagged_semantics(q) for q in forward], [p.flagged_semantics(q) for q in backward]
            ))
            stepwise = _stepwise_gbt(p, forward, backward)
            assert stepwise.low <= got.low and got.high <= stepwise.high, (forward, backward)
            for _ in range(8):
                num = math.prod(rng.choice(points[q]) for q in forward)
                den = math.prod(rng.choice(points[q]) for q in backward)
                r = min(1.0, num / den) if den > 0.0 else None
                # the scale tells no value within TOL of 0 or 1 from that end
                if r in (0.0, 1.0) or r is not None and qualalg.TOL < r < 1.0 - qualalg.TOL:
                    assert covers(p, got, I(r, r)), (forward, backward, r)

    def test_students9_ranges_tightened_by_one_approximation(self):
        # the label algebra stops at [most, al-all] and [half, all]
        kb = parse_kb(STUDENTS_KB9, mode="qualitative")
        sat, _ = saturate(kb)
        p = kb.partition
        event = {name: class_event(len(kb.nodes), i) for i, name in enumerate(kb.nodes)}
        cons = [(event[t], event[f], e.interval) for (f, t), e in kb.edges.items()]
        for pair, want, lp_range in (
            (("student", "sport"), p.range_of("v-many", "al-all"), (0.81, 1.0)),
            (("student", "single"), p.range_of("most", "all"), (0.6075, 1.0)),
        ):
            assert sat.qual(*pair) == want
            lp = solve_events(len(kb.nodes), cons, (event[pair[1]], event[pair[0]]))
            assert (lp.interval.lo, lp.interval.hi) == pytest.approx(lp_range, abs=1e-9)
            assert contains_interval(p.semantics(want), lp.interval, tol=1e-9)


def _stepwise_gbt(p, forward, backward):
    """The cycle rule in the label algebra: approximated after every product."""
    num = forward[-1]
    for q in forward[:-1]:
        num = p.qmul(num, q)
    den = backward[0]
    for q in backward[1:]:
        den = p.qmul(den, q)
    return p.full_range() if den.high == 0 else p.qdiv(num, den)


def _cycle_premises(p, rng: random.Random):
    """Cycle premises (forward, backward): on the 5-label scale every elementary
    3-cycle tuple; on the others 1,500 seeded 3- and 4-class range tuples each."""
    if p.n_labels == 5:
        for labels in itertools.product([qualalg.QRange(i, i) for i in range(5)], repeat=5):
            yield list(labels[:3]), list(labels[3:])
        return
    ranges = list(all_ranges(p))
    for k in (3, 4):
        for _ in range(1500):
            labels = [rng.choice(ranges) for _ in range(2 * k - 1)]
            yield labels[:k], labels[k:]


class TestQuery:
    def test_known_pair(self):
        kb = parse_kb(STUDENTS_NUMERIC, mode="numeric")
        sat, _ = saturate(kb)
        ival, qual = network.query(sat, "children", "student")
        assert ival.hi == pytest.approx(0.099, abs=0.01)

    def test_diagonal(self, p7):
        kb = KnowledgeBase(p7, "numeric")
        kb.add_node("x")
        ival, qual = network.query(kb, "x", "x")
        assert (ival.lo, ival.hi) == (1.0, 1.0)
        assert qual == p7.range_of("all")

    def test_absent_pair_vacuous(self, p7):
        kb = KnowledgeBase(p7, "numeric")
        kb.add_node("x")
        kb.add_node("y")
        ival, qual = network.query(kb, "x", "y")
        assert (ival.lo, ival.hi) == (0.0, 1.0)
        assert qual == p7.full_range()

    def test_unknown_node(self, p7):
        kb = KnowledgeBase(p7, "numeric")
        with pytest.raises(UnknownNode, match="unknown node 'no'"):
            network.query(kb, "no", "pe")

    def test_stated_range_follows_narrowed_interval(self):
        # the syllogism through c narrows P(b|a) to [0.8, 1]: of the stated range only al-all is left
        kb = parse_kb(
            "@partition 0.2 0.4 0.6 0.8\n@labels none al-none few half most al-all all\n"
            "q a b al-none al-all\nn a c 0.9 1\nn c b 0.9 1\nn c a 0.9 1\nn b c 0.9 1\n"
        )
        sat, _ = saturate(kb)
        ival, qual = network.query(sat, "a", "b")
        assert ival.lo == pytest.approx(0.8)
        assert qual == sat.partition.range_of("al-all")
