"""Syllogism bounds, cycle refinement, typicality; oracle-certified where derived."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linquant.bounds import (
    SyllogismInput,
    TypicalityInput,
    bayes_cycle,
    syllogism_lower,
    syllogism_upper,
    typicality_bounds,
)
from linquant.oracle import solve
from linquant.qualalg import ProbInterval as I

from conftest import conditionals_of, random_subinterval, syllogism

WORKED = SyllogismInput(
    b_given_a=I(0.6, 0.8),
    a_given_b=I(0.8, 1.0),
    c_given_b=I(0.8, 1.0),
    b_given_c=I(0.4, 0.6),
)

ALL_ONES = SyllogismInput(I(1, 1), I(1, 1), I(1, 1), I(1, 1))


def oracle_range(inp: SyllogismInput) -> I:
    """Attainable range of P(C|A), classes 0=A, 1=B, 2=C."""
    res = solve(
        3,
        [
            (0, 1, inp.b_given_a),
            (1, 0, inp.a_given_b),
            (1, 2, inp.c_given_b),
            (2, 1, inp.b_given_c),
        ],
        (0, 2),
    )
    assert res.ok
    return res.interval


class TestLower:
    def test_worked_instance(self):
        assert WORKED.lower() == syllogism_lower(0.6, 0.8, 0.8) == pytest.approx(0.45, abs=1e-12)

    def test_certain_chain(self):
        assert ALL_ONES.lower() == 1.0

    def test_vacuous_first_factor(self):
        inp = SyllogismInput(I(0, 1), I(0.8, 1), I(0.8, 1), I(0.4, 0.6))
        assert inp.lower() == 0.0


class TestUpper:
    def test_worked_instance(self):
        assert WORKED.upper() == syllogism_upper(0.6, 0.8, 0.8, 1.0, 0.4) == 1.0

    def test_certain_chain(self):
        assert ALL_ONES.upper() == 1.0

    def test_crossing_term(self):
        # frozen from the LP oracle: [0.0, 0.4]; the naive four-term
        # minimum stops at 0.45
        inp = SyllogismInput(I(0.6, 0.9), I(0.8, 0.8), I(0.2, 0.2), I(0.5, 0.5))
        assert inp.upper() == pytest.approx(0.4, abs=1e-12)
        rng = oracle_range(inp)
        assert rng.hi == pytest.approx(0.4, abs=1e-6)

    def test_crossing_term_condition_not_met(self):
        # same box but P(B|A) pinned above the crossing point 0.8
        inp = SyllogismInput(I(0.85, 0.9), I(0.8, 0.8), I(0.2, 0.2), I(0.5, 0.5))
        got = inp.upper()
        assert got == pytest.approx(oracle_range(inp).hi, abs=1e-6)
        assert got < 0.4  # the increasing term evaluated at 0.9 no longer binds

    def test_underflowing_denominator(self):
        # lo(A|B) . lo(B|C) = 1e-400 underflows to 0, so u3 and u4 drop out
        tiny = SyllogismInput(I(0.5, 0.6), I(1e-200, 0.5), I(0.5, 0.6), I(1e-200, 0.5))
        assert tiny.upper() == 1.0
        # where the product does not underflow, u3 is the formula as written
        small = SyllogismInput(I(0.0, 1e-210), I(1e-100, 0.5), I(0.5, 0.6), I(1e-100, 0.5))
        assert small.upper() == 1e-210 * 0.6 / (1e-100 * 1e-100)


class TestSyllogism:
    def test_worked_pair(self):
        ca, ac = syllogism(WORKED)
        assert (ca.lo, ca.hi) == (pytest.approx(0.45, abs=1e-12), 1.0)
        assert (ac.lo, ac.hi) == (pytest.approx(0.30, abs=1e-12), 1.0)

    def test_all_ones(self):
        ca, ac = syllogism(ALL_ONES)
        assert (ca.lo, ca.hi) == (1.0, 1.0)
        assert (ac.lo, ac.hi) == (1.0, 1.0)

    def test_impossible_link_unconstrained(self):
        # P(B|A) = 0 with nothing else known leaves P(C|A) free
        inp = SyllogismInput(I(0, 0), I(0, 1), I(0, 1), I(0, 1))
        ca, _ = syllogism(inp)
        assert (ca.lo, ca.hi) == (0.0, 1.0)
        res = solve(3, [(0, 1, I(0, 0))], (0, 2))
        assert res.ok and (res.interval.lo, res.interval.hi) == (0.0, 1.0)

    def test_zero_weight_with_overflowing_quotient(self):
        # lo(B|A) = 0 makes u2 exactly 1; hi(C|B) / lo(A|B) overflows, and 0 * -inf would be nan
        inp = SyllogismInput(I(0, 0.5), I(5e-324, 0.5), I(0.5, 0.6), I(0.5, 0.5))
        assert inp.upper() == 1.0

    def test_reads_only_its_endpoints(self):
        # neither bound reads hi(A|B) or hi(B|C), and the lower bound reads no upper end
        rng = np.random.default_rng(4)
        for _ in range(100):
            inp = SyllogismInput(*(random_subinterval(rng) for _ in range(4)))
            b, a, c, d = inp
            for top in (lambda x: 1.0, lambda x: x):
                other = SyllogismInput(b, I(a.lo, top(a.lo)), c, I(d.lo, top(d.lo)))
                assert (other.lower(), other.upper()) == (inp.lower(), inp.upper())
            assert SyllogismInput(I(b.lo, 1.0), a, I(c.lo, 1.0), d).lower() == inp.lower()

    def test_role_swap_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            inp = SyllogismInput(*(random_subinterval(rng) for _ in range(4)))
            ca, ac = syllogism(inp)
            ca2, ac2 = syllogism(SyllogismInput(*inp[::-1]))
            assert ca == ac2 and ac == ca2

    def test_monotone_in_inputs(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            inner = [random_subinterval(rng) for _ in range(4)]
            outer = [
                I(iv.lo * rng.uniform(0, 1), iv.hi + (1 - iv.hi) * rng.uniform(0, 1))
                for iv in inner
            ]
            ca_in, _ = syllogism(SyllogismInput(*inner))
            ca_out, _ = syllogism(SyllogismInput(*outer))
            assert ca_out.lo <= ca_in.lo + 1e-12
            assert ca_in.hi <= ca_out.hi + 1e-12

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(
        st.tuples(*[st.one_of(
            st.sampled_from([0.0, 5e-324, 1e-300, 1e-200, 1e-16, 1e-12, 1.0]),
            st.floats(min_value=0.0, max_value=1.0),
        )] * 2),
        min_size=4, max_size=4,
    ))
    def test_lower_never_exceeds_upper(self, ends):
        # why the syllogism needs no guard against an inverted result
        inp = SyllogismInput(*(I(min(e), max(e)) for e in ends))
        for case in (inp, SyllogismInput(*inp[::-1])):
            assert case.lower() <= case.upper() + 1e-12

    def test_sound_against_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            inp = SyllogismInput(*(random_subinterval(rng) for _ in range(4)))
            ca, _ = syllogism(inp)
            rng_true = oracle_range(inp)
            assert ca.lo <= rng_true.lo + 1e-7
            assert rng_true.hi <= ca.hi + 1e-7

    def test_tight_on_precise_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            vals = rng.uniform(0.05, 0.95, 4)
            inp = SyllogismInput(*(I(v, v) for v in vals))
            ca, _ = syllogism(inp)
            rng_true = oracle_range(inp)
            assert ca.lo == pytest.approx(rng_true.lo, abs=2e-7)
            assert ca.hi == pytest.approx(rng_true.hi, abs=2e-7)


def _ends(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` sorted end pairs, each end a special value or a uniform draw."""
    special = np.array([0.0, 5e-324, 1e-12, 1 - 1e-12, 1.0])
    ends = np.where(
        rng.random((count, 2)) < 0.5,
        special[rng.integers(len(special), size=(count, 2))],
        rng.random((count, 2)),
    )
    return np.sort(ends, axis=1)


class TestStructuralVacuity:
    """Premises whose ends alone leave a closed form vacuous, whatever the other ends.

    The saturation engine's filters rest on these: `network._Store.triples`
    drops a syllogism whose premise ends leave both closed forms vacuous.
    """

    def test_lower_is_zero_without_lo_ba_or_lo_cb(self):
        rng = np.random.default_rng(12)
        for ba, ab, cb in zip(*(_ends(rng, 5000) for _ in range(3))):
            ba_lo, ab_lo, cb_lo = float(ba[0]), float(ab[0]), float(cb[0])
            assert syllogism_lower(0.0, ab_lo, cb_lo) == 0.0, (ab, cb)
            assert syllogism_lower(ba_lo, ab_lo, 0.0) == 0.0, (ba, ab)

    def test_upper_is_one_without_lo_ab_or_with_hi_cb_one_and_no_lo_bc(self):
        rng = np.random.default_rng(13)
        for ba, ab, cb, bc in zip(*(_ends(rng, 5000) for _ in range(4))):
            ba_lo, ba_hi, ab_lo, cb_hi, bc_lo = map(float, (*ba, ab[0], cb[1], bc[0]))
            assert syllogism_upper(ba_lo, ba_hi, 0.0, cb_hi, bc_lo) == 1.0, (ba, cb, bc)
            assert syllogism_upper(ba_lo, ba_hi, ab_lo, 1.0, 0.0) == 1.0, (ba, ab)


class TestBayesCycle:
    def test_identity_chain(self):
        lo, hi = bayes_cycle([1.0] * 3, [1.0] * 3, [1.0] * 2, [1.0] * 2)
        assert (lo, hi) == (1.0, 1.0)

    def test_pins_known_distribution(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            masses = rng.dirichlet(np.ones(8))
            pcond = conditionals_of(masses, 3)
            fwd_vals = [pcond(0, 1), pcond(1, 2), pcond(2, 0)]
            bwd_vals = [pcond(1, 0), pcond(2, 1), pcond(0, 2)]
            assert math.prod(fwd_vals) / math.prod(bwd_vals) == pytest.approx(1.0, abs=1e-12)
            lo, hi = bayes_cycle(fwd_vals, fwd_vals, bwd_vals[:-1], bwd_vals[:-1])
            assert lo == pytest.approx(pcond(0, 2), abs=1e-12)
            assert hi == pytest.approx(pcond(0, 2), abs=1e-12)

    def test_zero_denominator_drops_refinement(self):
        lo, hi = bayes_cycle([0.0] * 3, [1.0] * 3, [0.0, 1.0], [1.0, 1.0])
        assert (lo, hi) == (0.0, 1.0)

    def test_premise_counts_are_checked(self):
        with pytest.raises(ValueError) as err:
            bayes_cycle([1.0, 1.0], [1.0, 1.0], [], [])
        assert str(err.value) == "a cycle needs k >= 2 forward edges and k - 1 backward edges"


class TestTypicality:
    def test_full_typicality(self):
        got = typicality_bounds(TypicalityInput(1.0, 0.55))
        assert (got.lo, got.hi) == (0.55, 0.55)

    def test_low_typicality_is_vacuous(self):
        got = typicality_bounds(TypicalityInput(0.3, 0.5))
        assert (got.lo, got.hi) == (0.0, 1.0)

    def test_derived_case(self):
        got = typicality_bounds(TypicalityInput(0.8, 0.9))
        assert got.lo == pytest.approx(0.875, abs=1e-12)
        assert got.hi == 1.0
        # agrees with the syllogism encoding and with the oracle
        inp = SyllogismInput(I(1, 1), I(0.8, 0.8), I(0.9, 0.9), I(1, 1))
        ca, _ = syllogism(inp)
        assert (ca.lo, ca.hi) == (pytest.approx(got.lo), pytest.approx(got.hi))
        rng_true = oracle_range(inp)
        assert rng_true.lo == pytest.approx(0.875, abs=1e-6)
        assert rng_true.hi == pytest.approx(1.0, abs=1e-6)

    def test_zero_reference_class(self):
        with pytest.raises(ValueError):
            typicality_bounds(TypicalityInput(0.0, 0.5))

    def test_inputs_outside_the_unit_interval(self):
        with pytest.raises(ValueError) as err:
            TypicalityInput(1.5, 0.2)
        assert str(err.value) == "typicality inputs must lie in [0, 1]"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_t_one_reproduces_alpha(self, alpha):
        got = typicality_bounds(TypicalityInput(1.0, alpha))
        assert got.lo == pytest.approx(alpha) and got.hi == pytest.approx(alpha)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.floats(min_value=0.001, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_vacuous_iff_low_typicality(self, t, alpha):
        got = typicality_bounds(TypicalityInput(t, alpha))
        vacuous = got.lo == 0.0 and got.hi == 1.0
        assert vacuous == (t <= min(alpha, 1 - alpha) + 1e-12)
