"""Knowledge base ingestion, saturation, cycles, and querying."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from linquant.oracle import OracleProblem, class_event, solve, solve_events
from linquant.qualalg import ProbInterval as I

from conftest import STUDENTS_KB7, STUDENTS_NUMERIC, conditionals_of


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
    ])
    def test_point_on_threshold_keeps_stated_label(self, p7, lines, label):
        # the point lies on the threshold below the stated label, which contains it
        kb = parse_kb("@partition 0.2 0.4 0.6 0.8\n@labels " + " ".join(p7.labels) + "\n"
                      + "\n".join(lines) + "\n")
        assert kb.qual("a", "b") == p7.range_of(label)

    def test_contradictory_reingest(self, p7):
        kb = KnowledgeBase(p7, "numeric")
        ingest(kb, "n a b 0 0.2")
        with pytest.raises(ContradictionError) as err:
            ingest(kb, "n a b 0.5 1")
        assert "a -> b" in str(err.value)

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
                    res = solve(OracleProblem(4, cons, (f, t)))
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
        clash = r"^syllogism \(x, c, y\): .* x -> y: al-none"
        with pytest.raises(ContradictionError, match=clash) as err:
            saturate(kb)
        assert [step.context for step in err.value.chain][0] == ("a", "c", "x")


def _stated_by_form(p, frm: str, to: str, v: Fraction, form: int) -> str:
    """One true statement about P(to|frm) = v: a grid interval, a point, or a label containing v."""
    point = I(float(v), float(v))
    if form == 0:
        return f"n {frm} {to} {float(math.floor(v * 5) / 5)} {float(math.ceil(v * 5) / 5)}"
    if form == 1:
        return f"n {frm} {to} {float(v)} {float(v)}"
    label = p.approximate(point).low  # the label below, for a point on a threshold
    if form == 3 and label < p.top and p.covers(qualalg.QRange(label + 1, label + 1), point):
        label += 1  # the label above, which contains that point too
    return f"q {frm} {to} {p.labels[label]}"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    weights=st.lists(st.integers(0, 3), min_size=8, max_size=8),
    forms=st.lists(st.integers(0, 3), min_size=12, max_size=12),
)
def test_kb_of_one_distribution_is_consistent(weights, forms):
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
        "@partition 0.2 0.4 0.6 0.8\n@labels " + " ".join(p.labels) + "\n" + "\n".join(lines) + "\n"
    ))
    for f, t in pairs:
        v = float(pcond(t, f))
        assert sat.interval(names[f], names[t]).contains(v, tol=1e-9), (lines, f, t)
        assert p.semantics(sat.qual(names[f], names[t])).contains(v, tol=1e-9), (lines, f, t)


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
                assert hull.contains_interval(num, tol=1e-9)


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
        assert kb.partition.semantics(got).contains_interval(lp.interval, tol=1e-7), (
            f, t, kb.partition.name_of(got), lp.interval,
        )


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
        assert p7.semantics(sat.qual("a", "c")).contains_interval(lp.interval)

    @pytest.mark.parametrize("scale", ["p5", "p7", "p9"])
    def test_contains_global_lp_range(self, scale, request):
        # 5-class KBs whose ten statements label the conditionals of one
        # random joint distribution, so every KB is consistent
        p = request.getfixturevalue(scale)
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


class TestGBT:
    def test_all_certain_cycle(self, p7):
        kb = KnowledgeBase(p7, "qualitative")
        for line in ("q a b all", "q b a all", "q b c all", "q c b all",
                     "q c a all", "q a c all"):
            ingest(kb, line)
        got = gbt_qualitative(kb, ("a", "b", "c"))
        assert got == p7.range_of("all")

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
            got = gbt_qualitative(kb, names)
            assert p5.specificity_level(got) >= min(
                floor_level, p5.specificity_level(kb.qual("c", "a"))
            )

    def test_student_kb_unchanged(self):
        kb = parse_kb(STUDENTS_KB7, mode="qualitative")
        sat, trace = saturate(kb)
        assert all(step.phase != "gbt" for step in trace)
        for cycle in simple_cycles(sat.nodes, 4):
            for seq in network._cycle_rotations(cycle):
                target = (seq[-1], seq[0])
                assert gbt_qualitative(sat, seq) == sat.qual(*target)


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
