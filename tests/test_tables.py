"""Syllogism table generation, extension, compaction, robustness analysis."""

import itertools

import numpy as np
import pytest

from linquant import oracle, qualalg, tables
from linquant.bounds import SyllogismInput
from linquant.qualalg import QRange
from linquant.tables import (
    compact,
    eval_extended,
    five_inequalities,
    gen_table,
    robust_core_check,
    robustness_sweep,
    table_to_csv,
)

from conftest import all_ranges, contains_interval


@pytest.fixture(scope="module")
def t7(p7):
    return gen_table(p7)


@pytest.fixture(scope="module")
def t5(p5):
    return gen_table(p5)


@pytest.fixture(scope="module")
def t9(p9):
    return gen_table(p9)


def key_of(p, *names):
    return tuple(p.label_index(n) for n in names)


class TestGenTable:
    def test_worked_entry(self, p7, t7):
        got = t7[key_of(p7, "most", "al-all", "half", "al-all")]
        assert got == p7.range_of("half", "all")

    def test_certain_chain(self, p7, t7):
        got = t7[key_of(p7, "all", "all", "all", "all")]
        assert got == p7.range_of("all")

    def test_uninformative_row(self, p5, t5):
        got = t5[key_of(p5, "all", "most", "all", "half")]
        assert got == p5.full_range()

    def test_every_entry_contains_the_lp_range(self, p5, t5, p7, t7):
        # held to the 3-class LP on the four closed hulls, A, B, C = 0, 1, 2,
        # written apart from `tables`, so that a wrong premise order shows
        checked = 0
        for p, table in ((p5, t5), (p7, t7)):
            for key, q5 in table.items():
                ba, ab, bc, cb = (p.semantics(QRange(q, q)) for q in key)
                res = oracle.solve(3, [(0, 1, ba), (1, 0, ab), (2, 1, bc), (1, 2, cb)], (0, 2))
                if res.ok:
                    assert contains_interval(p.semantics(q5), res.interval), (p.n_labels, key)
                    checked += 1
        assert checked > 2000

    def test_deterministic(self, p5, t5):
        again = gen_table(p5)
        assert again == t5


class TestQ6:
    """Q6 = P(A|C) is the Q5 entry of the role-swapped key."""

    def test_worked_entry(self, p7, t7):
        q1, q2, q3, q4 = key_of(p7, "most", "al-all", "half", "al-all")
        assert t7[(q3, q4, q1, q2)] == p7.range_of("few", "all")

    def test_certain_chain(self, p7, t7):
        q1, q2, q3, q4 = key_of(p7, "all", "all", "all", "all")
        assert t7[(q3, q4, q1, q2)] == p7.range_of("all")


class TestEvalExtended:
    def test_worked_hull(self, p7, t7):
        got = eval_extended(
            p7,
            p7.range_of("most", "all"),
            p7.range_of("all"),
            p7.range_of("none", "all"),
            p7.range_of("al-all"),
        )
        assert got == p7.range_of("half", "all")

    def test_elementary_matches_table(self, p5, t5):
        for key in t5:
            ranges = [QRange(i, i) for i in key]
            assert eval_extended(p5, *ranges) == t5[key]

    def test_monotone_under_widening(self, p5, t5):
        # every elementary tuple, every one-step widening of each argument
        for key in t5:
            base = t5[key]
            for pos in range(4):
                for delta in ((-1, 0), (0, 1)):
                    lo = key[pos] + delta[0]
                    hi = key[pos] + delta[1]
                    if lo < 0 or hi > p5.top:
                        continue
                    ranges = [QRange(i, i) for i in key]
                    ranges[pos] = QRange(lo, hi)
                    widened = eval_extended(p5, *ranges)
                    assert qualalg.hull(widened, base) == widened

    def test_monotone_on_random_range_tuples(self, p5, t5):
        rng = np.random.default_rng(21)
        ranges = list(all_ranges(p5))
        for _ in range(300):
            inner = [ranges[rng.integers(len(ranges))] for _ in range(4)]
            outer = [
                QRange(rng.integers(0, q.low + 1), rng.integers(q.high, p5.top + 1))
                for q in inner
            ]
            got_in = eval_extended(p5, *inner)
            got_out = eval_extended(p5, *outer)
            assert qualalg.hull(got_out, got_in) == got_out


def hull_of_cells(table, ranges):
    """The hull of every table cell whose labels lie in the four ranges."""
    cells = [
        table[key]
        for key in itertools.product(*(range(r.low, r.high + 1) for r in ranges))
    ]
    return QRange(min(c.low for c in cells), max(c.high for c in cells))


class TestEvalExtendedIsCellHull:
    """eval_extended equals the hull of the table cells in its ranges."""

    def test_every_range_tuple_five_labels(self, p5, t5):
        # min/max of the cell bounds over every range along each axis in turn,
        # so that all 50,625 hulls come from one pass over the table
        ranges = list(all_ranges(p5))
        m = p5.n_labels
        low = np.empty((m,) * 4, dtype=int)
        high = np.empty((m,) * 4, dtype=int)
        for key, q5 in t5.items():
            low[key], high[key] = q5.low, q5.high
        for axis in range(4):
            low = np.stack(
                [low.take(range(r.low, r.high + 1), axis).min(axis) for r in ranges], axis
            )
            high = np.stack(
                [high.take(range(r.low, r.high + 1), axis).max(axis) for r in ranges], axis
            )
        for idx in itertools.product(range(len(ranges)), repeat=4):
            got = eval_extended(p5, *(ranges[i] for i in idx))
            assert got == QRange(int(low[idx]), int(high[idx])), idx

    @pytest.mark.parametrize("scale", ["p7", "p9"])
    def test_sampled_range_tuples(self, scale, request):
        p = request.getfixturevalue(scale)
        table = gen_table(p)
        ranges = list(all_ranges(p))
        rng = np.random.default_rng(p.n_labels)
        for _ in range(4000):
            picked = [ranges[i] for i in rng.integers(len(ranges), size=4)]
            assert eval_extended(p, *picked) == hull_of_cells(table, picked), picked

    def test_crossing_term_inside_the_range(self, p7, t7):
        # the ROADMAP case: the upper bound peaks at an interior P(B|A), so the
        # corner cells alone give at most `most` where the cells reach al-all
        ranges = (p7.full_range(), p7.range_of("most"), p7.range_of("few"), p7.range_of("few"))
        got = eval_extended(p7, *ranges)
        assert got == p7.range_of("none", "al-all") == hull_of_cells(t7, ranges)


class TestCompact:
    def test_group_membership(self, p5, t5):
        groups = {g.output: g for g in compact(t5)}
        target = p5.range_of("half", "all")
        most = p5.label_index("most")
        member = tuple(QRange(most, most) for _ in range(4))
        assert any(
            all(pat[i].low <= most <= pat[i].high for i in range(4))
            for pat in groups[target].patterns
        )

    def test_singleton_certain_group(self, p5, t5):
        groups = {g.output: g for g in compact(t5)}
        sure = groups[p5.range_of("all")]
        assert sure.size >= 1

    @pytest.mark.parametrize("name", ["t5", "t7", "t9"])
    def test_lossless_and_total(self, name, request):
        table = request.getfixturevalue(name)
        groups = compact(table)
        assert sum(g.size for g in groups) == len(table)
        rebuilt = {}
        for g in groups:
            for pat in g.patterns:
                for k1 in pat[0]:
                    for k2 in pat[1]:
                        for k3 in pat[2]:
                            for k4 in pat[3]:
                                key = (k1, k2, k3, k4)
                                assert key not in rebuilt
                                rebuilt[key] = g.output
        assert rebuilt == table

    def test_group_count_bounded(self, t5):
        assert len(compact(t5)) <= 625


class TestRobustness:
    def test_reference_only_no_changes(self):
        rep = robustness_sweep(0.30, 0.30, 0.01, 0.30)
        assert rep.distinct_count == 0

    def test_sweep_below_and_above(self):
        rep = robustness_sweep(0.25, 0.35, 0.01, 0.30)
        # the nine extreme-tuple flips fire only past 1/3
        for alpha in rep.alpha_values:
            if 0.30 <= alpha <= 1 / 3:
                assert len(rep.changed_per_alpha[alpha]) == 0
        flips = rep.changed_per_alpha[0.34]
        assert len(flips) == 9

    def test_builds_each_alpha_once(self, monkeypatch):
        # the default sweep's eleven alphas include the reference 0.30
        built = []
        gen = tables.gen_table
        monkeypatch.setattr(tables, "gen_table", lambda p: built.append(p.thresholds) or gen(p))
        robustness_sweep(0.25, 0.35, 0.01, 0.30)
        assert len(built) == len(set(built)) == 11
        assert built[0] == (0.30, 0.70)

    def test_product_flip_across_d(self):
        p35, p39 = qualalg.scale5(0.35), qualalg.scale5(0.39)
        assert p35.qmul(p35.range_of("half"), p35.range_of("half")) == p35.range_of(
            "few", "half"
        )
        assert p39.qmul(p39.range_of("half"), p39.range_of("half")) == p39.range_of("few")

    def test_bad_range(self):
        with pytest.raises(ValueError):
            robustness_sweep(0.0, 0.4, 0.01, 0.3)


class TestRobustEnvelope:
    # the informative few/most rows of the stable table at alpha = 0.3;
    # a computed bound of exactly 0 (resp. 1) additionally pulls in the
    # none (resp. all) label, which the compact reference notation elides
    ROWS = [
        (("few", "most", "few", "few"), ("none", "most")),
        (("few", "most", "most", "few"), ("none", "few")),
        (("few", "most", "few", "most"), ("few", "all")),
        (("few", "most", "most", "most"), ("few", "half")),
        (("most", "most", "few", "few"), ("none", "half")),
        (("most", "most", "few", "most"), ("half", "all")),
        (("most", "most", "most", "few"), ("none", "half")),
        (("most", "most", "most", "most"), ("half", "all")),
    ]

    def test_rows_match_up_to_extreme_inclusion(self, p5, t5):
        for names, (lo_name, hi_name) in self.ROWS:
            key = key_of(p5, *names)
            got = t5[key]
            want = p5.range_of(lo_name, hi_name)
            q1, q2, q3, q4 = (p5.semantics(QRange(q, q)) for q in key)
            inp = SyllogismInput(b_given_a=q1, a_given_b=q2, c_given_b=q4, b_given_c=q3)
            low_ok = got.low == want.low or (got.low == 0 and inp.lower() == 0.0)
            high_ok = got.high == want.high or (
                got.high == p5.top and inp.upper() == 1.0
            )
            assert low_ok and high_ok, (names, p5.name_of(got), p5.name_of(want))


class TestCoreRows:
    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3, 1 / 3])
    def test_analytic_forms(self, alpha):
        for verdict in robust_core_check(alpha):
            assert verdict.holds, verdict

    def test_examples_at_03(self):
        rows = {v.inputs: v for v in robust_core_check(0.3)}
        assert rows[("most", "most", "few", "few")].computed == pytest.approx(0.6)
        assert rows[("most", "most", "most", "most")].computed == pytest.approx(0.4)

    def test_inequalities_on_grid(self):
        for alpha in np.linspace(0.05, 1 / 3, 50):
            for desc, lhs, rhs in five_inequalities(float(alpha)):
                assert lhs <= rhs + 1e-12, (alpha, desc)

    def test_rejects_large_alpha(self):
        with pytest.raises(ValueError):
            robust_core_check(0.4)


class TestSerialization:
    def test_csv_shape(self, p5, t5):
        lines = table_to_csv(p5, t5).strip().splitlines()
        assert len(lines) == 1 + 625
        assert lines[0] == "q1,q2,q3,q4,q5_low,q5_high"

    def test_markdown_renders(self, p5, t5):
        md = tables.compact_to_markdown(p5, t5)
        assert md.startswith("|")
