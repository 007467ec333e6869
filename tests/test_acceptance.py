"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every expected value is pinned here at its stated tolerance.  Two checks
fail by design against the published reference outputs, and the `FOUND:`
lines of CHANGES.md record the LP evidence for each:

* c05 (robustness sweep): the published count of 9 changed tuples is wrong,
  but neither the LP-exact count (10) nor the program's (12, two of them
  from table entries looser than the LP) is promised by the documents, so
  the reference stays pinned.
* c07 (9-label run) fails on two pairs.  The published P(single|student) =
  [half, all] is looser than the program's [most, all], which is sound: it
  is the approximation of the LP range [0.6075, 1], so no sound change to
  the program gives the published range.  The published P(sport|single) =
  [most, v-many] is the exact global LP range, which local chaining cannot
  derive; the program's [most, al-all] is sound but incomplete.
"""

import math
import time

import numpy as np

from linquant import adams, network, qualalg, tables
from linquant.bounds import SyllogismInput
from linquant.network import parse_kb, saturate, simple_cycles
from linquant.oracle import (
    adams_oracle_problems,
    class_event,
    solve,
    solve_events,
)
from linquant.qualalg import ProbInterval as I
from linquant.qualalg import scale5, scale7

from conftest import (
    STUDENTS_KB7,
    STUDENTS_KB9,
    STUDENTS_NUMERIC,
    STUDENTS_SATURATED,
    all_ranges,
    certified_range,
    contains_interval,
    covers,
    cycle_rotations,
    random_subinterval,
    rotation_candidate,
    syllogism,
)


def verdict(num: int, name: str, failures: list[str], notes: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"[{num:2d}] {name}: {status}"
    if notes:
        line += f"  ({notes})"
    print(line)
    for f in failures:
        print(f"     - {f}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def syllogism_oracle_range(inp: SyllogismInput) -> I:
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
    return res.interval if res.ok else None


def kb_oracle_range(kb, frm: str, to: str):
    """Global LP range of P(to|frm) under every statement of kb, one class per node."""
    k = len(kb.nodes)
    event = {name: class_event(k, i) for i, name in enumerate(kb.nodes)}
    cons = [(event[t], event[f], edge.interval) for (f, t), edge in sorted(kb.edges.items())]
    return solve_events(k, cons, (event[to], event[frm]))


def test_c01_worked_syllogism_instance():
    failures = []
    p = scale7()
    inp = SyllogismInput(I(0.6, 0.8), I(0.8, 1.0), I(0.8, 1.0), I(0.4, 0.6))
    t0 = time.perf_counter()
    ca, ac = syllogism(inp)
    elapsed = time.perf_counter() - t0
    if abs(ca.lo - 0.45) > 1e-9 or abs(ca.hi - 1.0) > 1e-9:
        failures.append(f"P(C|A) = {ca}, expected [0.45, 1]")
    if abs(ac.lo - 0.30) > 1e-9 or abs(ac.hi - 1.0) > 1e-9:
        failures.append(f"P(A|C) = {ac}, expected [0.30, 1]")
    if p.approximate(ca) != p.range_of("half", "all"):
        failures.append(f"approx P(C|A) = {p.name_of(p.approximate(ca))}")
    if p.approximate(ac) != p.range_of("few", "all"):
        failures.append(f"approx P(A|C) = {p.name_of(p.approximate(ac))}")
    if elapsed > 0.05:
        failures.append(f"runtime {elapsed * 1000:.1f} ms")
    verdict(1, "worked syllogism instance", failures)


def test_c02_convex_hull_extension():
    p = scale7()
    got = tables.eval_extended(
        p,
        p.range_of("most", "all"),
        p.range_of("all"),
        p.range_of("none", "all"),
        p.range_of("al-all"),
    )
    failures = []
    if got != p.range_of("half", "all"):
        failures.append(f"extension gave {p.name_of(got)}, expected [half, all]")
    verdict(2, "convex-hull extension", failures)


def test_c03_product_quotient_algebra():
    failures = []
    p = scale5(0.3)
    few, half, most = p.range_of("few"), p.range_of("half"), p.range_of("most")
    cases = [
        ("few*few", p.qmul(few, few), few),
        ("half*half", p.qmul(half, half), p.range_of("few", "half")),
        ("most*most", p.qmul(most, most), p.range_of("half", "most")),
        ("few/most", p.qdiv(few, most), p.range_of("few", "half")),
        ("half/half", p.qdiv(half, half), p.range_of("half", "all")),
    ]
    for name, got, want in cases:
        if got != want:
            failures.append(f"{name} = {p.name_of(got)}, expected {p.name_of(want)}")
    d = (3 - math.sqrt(5)) / 2
    p38, p385 = scale5(0.38), scale5(0.385)
    if p38.qmul(p38.range_of("half"), p38.range_of("half")) != p38.range_of("few", "half"):
        failures.append("half*half flipped below the threshold (alpha = 0.38)")
    if p385.qmul(p385.range_of("half"), p385.range_of("half")) != p385.range_of("few"):
        failures.append("half*half failed to flip above the threshold (alpha = 0.385)")
    if not (0.38 < d < 0.385):
        failures.append("threshold constant out of place")
    verdict(3, "product/quotient algebra at alpha = 0.3", failures)


def test_c04_analytic_extreme_forms():
    failures = []
    for alpha in (0.1, 0.2, 0.3, 1 / 3):
        for row in tables.robust_core_check(alpha):
            if abs(row.computed - row.analytic) > 1e-9:
                failures.append(
                    f"alpha={alpha:.4f} row {row.inputs}: computed {row.computed!r}"
                    f" vs analytic {row.analytic!r}"
                )
    for alpha in np.linspace(0.01, 1 / 3, 50):
        for desc, lhs, rhs in tables.five_inequalities(float(alpha)):
            if lhs > rhs + 1e-12:
                failures.append(f"inequality {desc} fails at alpha={alpha:.4f}")
    verdict(4, "extreme-quantifier analytic forms", failures)


def test_c05_robustness_sweep():
    failures = []
    t0 = time.perf_counter()
    report = tables.robustness_sweep(0.25, 0.35, 0.01, 0.30)
    elapsed = time.perf_counter() - t0
    wide = tables.robustness_sweep(0.25, 0.38, 0.01, 0.30)
    notes = (
        f"0.25-0.35: {report.distinct_count} distinct, 0.25-0.38: {wide.distinct_count},"
        f" {elapsed:.1f}s"
    )
    if elapsed > 60:
        failures.append(f"sweep took {elapsed:.1f}s")
    if report.distinct_count > 9:
        # 12 with certified-tight bounds: the nine label flips past alpha = 1/3
        # plus three tuples whose true maximum a(2-a)/(1-a) crosses the
        # most/half threshold near alpha = 0.293 (LP-verified tight; the
        # reference count of nine comes from the unsound transcription,
        # which is label-stable there).  See decisions ledger.
        extra = [k for k in report.changed_distinct
                 if k not in wide.changed_per_alpha.get(0.34, ())]
        failures.append(
            f"distinct changed tuples = {report.distinct_count} > 9; "
            f"tuples beyond the nine late flips: {extra}"
        )
    verdict(5, "robustness sweep 0.25-0.35", failures, notes)


def test_c06_seven_label_run():
    failures = []
    kb = parse_kb(STUDENTS_KB7, mode="qualitative")
    before = kb.copy()
    sat, _ = saturate(kb)
    p = sat.partition
    derived = network.derived_statements(before, sat)
    expected = {
        ("student", "single"): p.range_of("few", "all"),
        ("sport", "children"): p.range_of("none", "few"),
        # published as [al-none, half], which excludes the attainable values
        # in (0.6, 0.65625] of the LP range [0.15, 0.65625]
        ("single", "student"): p.range_of("al-none", "most"),
    }
    for pair, want in expected.items():
        # each pin must be the most specific range any sound method can give
        attainable = kb_oracle_range(before, *pair).interval
        if not covers(p, want, attainable) or p.approximate(attainable) != want:
            failures.append(
                f"pin {pair[0]} -> {pair[1]} = {p.name_of(want)} is not the"
                f" approximation of the LP range {attainable}"
            )
        got = derived.get(pair)
        if got is None:
            failures.append(f"{pair[0]} -> {pair[1]} not derived")
        elif got != want:
            failures.append(
                f"{pair[0]} -> {pair[1]} = {p.name_of(got)}, expected {p.name_of(want)}"
            )
    extras = {pair for pair in derived if pair not in expected}
    notes = f"additional sound derivations: {sorted(extras)}" if extras else ""
    verdict(6, "student run, 7-label scale", failures, notes)


def test_c07_nine_label_run():
    failures = []
    kb = parse_kb(STUDENTS_KB9, mode="qualitative")
    sat, _ = saturate(kb)
    p = sat.partition
    expected = {
        ("student", "single"): p.range_of("half", "all"),
        ("student", "children"): p.range_of("none", "half"),
        ("sport", "children"): p.range_of("none", "v-few"),
        ("single", "sport"): p.range_of("most", "v-many"),
    }
    for pair, want in expected.items():
        got = sat.qual(*pair)
        if got != want:
            msg = f"{pair[0]} -> {pair[1]} = {p.name_of(got)}, reference {p.name_of(want)}"
            if pair == ("single", "sport"):
                # sound fixpoint is [most, al-all]: the decisive corner box
                # attains 0.911 (LP), so al-all is forced; 0.9 is reachable
                # only via the unsound transcription (ledger entry).
                msg += " [corner box LP max = 0.911 > 0.9]"
            failures.append(msg)
    verdict(7, "student run, 9-label scale", failures)


def test_c08_numeric_run():
    failures = []
    kb = parse_kb(STUDENTS_NUMERIC, mode="numeric")
    sat, trace = saturate(kb)
    anchors = {
        ("children", "student"): (0.000, 0.099),
        ("children", "sport"): (0.000, 0.127),
        ("student", "single"): (0.607, 1.000),
        ("sport", "young"): (0.900, 0.958),
    }
    for (frm, to), (lo, hi) in anchors.items():
        got = sat.interval(frm, to)
        if abs(got.lo - lo) > 0.01 or abs(got.hi - hi) > 0.01:
            failures.append(f"P({to}|{frm}) = {got}, reference [{lo}, {hi}]")
    # every saturated entry must contain the LP-attainable range
    names = sat.nodes
    residuals = []
    for frm in names:
        for to in names:
            if frm == to:
                continue
            res = kb_oracle_range(kb, frm, to)
            if not res.ok:
                continue
            got = sat.interval(frm, to)
            if got.lo > res.interval.lo + 1e-6 or got.hi < res.interval.hi - 1e-6:
                failures.append(
                    f"unsound entry P({to}|{frm}) = {got}, attainable {res.interval}"
                )
            ref = STUDENTS_SATURATED.get((frm, to))
            if ref and (abs(got.lo - ref[0]) > 0.01 or abs(got.hi - ref[1]) > 0.01):
                residuals.append(
                    f"P({to}|{frm}) = {got} vs printed {list(ref)};"
                    f" attainable {res.interval}"
                )
    notes = "; ".join(residuals) if residuals else "full matrix reproduced"
    verdict(8, "numeric saturation anchors", failures, notes)


def test_c09_oracle_certified_bounds():
    failures = []
    rng = np.random.default_rng(1234)
    worst_gap = 0.0
    for _ in range(200):
        vals = rng.uniform(0.05, 0.95, 4)
        inp = SyllogismInput(*(I(float(v), float(v)) for v in vals))
        ca, _ = syllogism(inp)
        true = syllogism_oracle_range(inp)
        if true is None:
            continue
        gap = max(abs(ca.lo - true.lo), abs(ca.hi - true.hi))
        worst_gap = max(worst_gap, gap)
        if gap > 0.02:
            failures.append(f"precise input {vals} gap {gap:.4f}")
    violations = 0
    for _ in range(200):
        inp = SyllogismInput(*(random_subinterval(rng) for _ in range(4)))
        ca, _ = syllogism(inp)
        true = syllogism_oracle_range(inp)
        if true is None:
            continue
        if ca.lo > true.lo + 1e-7 or ca.hi < true.hi - 1e-7:
            violations += 1
            failures.append(f"interval input unsound: {ca} vs {true}")
    verdict(
        9,
        "tightness and soundness vs oracle (200 + 200)",
        failures,
        f"worst precise gap {worst_gap:.2e}, interval violations {violations}",
    )


def test_c10_adams_bounds():
    failures = []
    alpha = 0.3
    tri = adams.triangularity_bound(alpha)
    bay = adams.bayes_rule_bound(alpha)
    dis = adams.disjunction_bound(alpha, alpha)
    if abs(tri - 0.5714285714285714) > 1e-12:
        failures.append(f"triangularity = {tri}")
    if abs(bay - 0.49) > 1e-12:
        failures.append(f"bayes = {bay}")
    if abs(dis - 0.4) > 1e-12:
        failures.append(f"disjunction = {dis}")
    gaps = {}

    def mask(event):
        return np.isin(np.arange(8), sorted(event))

    for name, bound, constraints, target in adams_oracle_problems(alpha):
        lp = solve_events(3, constraints, target)
        certified_lo, _ = certified_range(
            [(mask(u), mask(v), ival) for u, v, ival in constraints], tuple(map(mask, target))
        )
        if bound > lp.interval.lo + 1e-6:
            failures.append(f"{name} bound {bound} above oracle min {lp.interval.lo}")
        if abs(certified_lo - lp.interval.lo) > 1e-7:
            failures.append(
                f"{name} oracle min {lp.interval.lo:.9f} differs from the certified"
                f" minimum {certified_lo:.9f}"
            )
        gaps[name] = lp.interval.lo - bound
        if name == "disjunction":
            # 1 - 2a is sound but never attained: with A^B inside C and the
            # rest of A and B outside it, min P(C|AuB) = (1-a)/(1+a)
            exact = (1 - alpha) / (1 + alpha)
            if abs(lp.interval.lo - exact) > 1e-6:
                failures.append(
                    f"disjunction oracle min {lp.interval.lo:.6f}, expected"
                    f" (1-a)/(1+a) = {exact:.6f}"
                )
        elif gaps[name] > 0.02:
            failures.append(
                f"{name} bound {bound:.4f} not attained: oracle min"
                f" {lp.interval.lo:.4f}, gap {gaps[name]:.4f}"
            )
    rng = np.random.default_rng(42)
    for _ in range(50):
        x = rng.dirichlet(np.ones(8))

        def mass(pred):
            return sum(x[a] for a in range(8) if pred(a))

        p_a = mass(lambda a: a & 1)
        p_b = mass(lambda a: a & 2)
        p_ab = mass(lambda a: a & 1 and a & 2)
        got = adams.disjunction_identity(
            mass(lambda a: a & 1 and a & 4) / p_a,
            p_ab / p_a,
            mass(lambda a: a & 2 and a & 4) / p_b,
            p_ab / p_b,
            mass(lambda a: a & 1 and a & 2 and a & 4) / p_ab,
        )
        true = mass(lambda a: (a & 3) and a & 4) / mass(lambda a: a & 3)
        if abs(got - true) > 1e-12:
            failures.append(f"identity off by {abs(got - true):.2e}")
            break
    notes = ", ".join(f"{k} gap {v:.3f}" for k, v in gaps.items())
    verdict(10, "quantified rule bounds at alpha = 0.3", failures, notes)


def test_c11_gbt_negative_results():
    failures = []
    import itertools

    p = scale5(0.3)
    interior = [p.range_of(n) for n in ("few", "half", "most")]
    allowed = {
        p.range_of("few"),
        p.range_of("few", "most"),
        p.range_of("few", "half"),
        p.range_of("half", "most"),
    }
    for a, b in itertools.product(interior, repeat=2):
        got = p.qmul(a, b)
        if got not in allowed:
            failures.append(f"{p.name_of(a)}*{p.name_of(b)} = {p.name_of(got)}")
    floor = p.specificity_level(p.range_of("few", "all"))
    pair_products = {p.qmul(a, b) for a, b in itertools.product(interior, repeat=2)}
    triple_products = {
        p.qmul(p.qmul(a, b), c) for a, b, c in itertools.product(interior, repeat=3)
    }
    for num in triple_products:
        for den in pair_products:
            ratio = p.qdiv(num, den)
            if p.specificity_level(ratio) < floor:
                failures.append(
                    f"cycle ratio {p.name_of(num)}/{p.name_of(den)} = {p.name_of(ratio)}"
                    " sharper than [few, all]"
                )
    kb = parse_kb(STUDENTS_KB7, mode="qualitative")
    sat, trace = saturate(kb)
    if any(step.phase == "gbt" for step in trace):
        failures.append("cycle phase changed the student knowledge base")
    domain = network._domain(sat)
    for cycle in simple_cycles(range(domain.n), 4):
        for seq in cycle_rotations(cycle):
            if domain.narrow(*rotation_candidate(domain, seq)) is not network._SAME:
                names = [domain.names[x] for x in seq]
                failures.append(f"cycle {names} would still refine after saturation")
    verdict(11, "qualitative cycle-rule limits", failures)


def test_c12_invariant_battery():
    failures = []
    p7 = scale7()
    p5 = scale5(0.3)

    for q in all_ranges(p7):
        if p7.antonym(p7.antonym(q)) != q:
            failures.append(f"antonym involution breaks at {q}")
        lo, lo_att, hi, hi_att = p7.flagged_semantics(q)
        if p7._approximate(lo, lo_att, hi, hi_att) != q:
            failures.append(f"value-set roundtrip breaks at {q}")
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b = sorted(rng.uniform(0, 1, 2))
        i = I(float(a), float(b))
        if not contains_interval(p7.semantics(p7.approximate(i)), i):
            failures.append(f"approximation not sound for {i}")
    ranges = list(all_ranges(p5))
    for q1 in ranges:
        for q2 in ranges:
            if qualalg.hull(q1, q2) != qualalg.hull(q2, q1):
                failures.append("hull not commutative")
            if p5.qmul(q1, q2) != p5.qmul(q2, q1):
                failures.append("product not commutative")
    # monotonicity of the numeric bounds
    for _ in range(100):
        inner = [random_subinterval(rng) for _ in range(4)]
        outer = [I(iv.lo * 0.5, iv.hi + (1 - iv.hi) * 0.5) for iv in inner]
        ca_in, _ = syllogism(SyllogismInput(*inner))
        ca_out, _ = syllogism(SyllogismInput(*outer))
        if ca_out.lo > ca_in.lo + 1e-12 or ca_in.hi > ca_out.hi + 1e-12:
            failures.append("bounds not monotone under widening")
            break
    # idempotent, deterministic saturation
    kb = parse_kb(STUDENTS_NUMERIC, mode="numeric")
    sat, _ = saturate(kb)
    again, trace = saturate(sat)
    if trace:
        failures.append("saturation not idempotent")
    kb2 = parse_kb(STUDENTS_NUMERIC, mode="numeric")
    sat2, _ = saturate(kb2)
    if network.matrix_csv(sat) != network.matrix_csv(sat2):
        failures.append("saturation not deterministic")
    t5a = tables.gen_table(p5)
    t5b = tables.gen_table(p5)
    if t5a != t5b:
        failures.append("table generation not reproducible")
    verdict(12, "invariant battery", failures)
