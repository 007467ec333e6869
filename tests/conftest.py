import random

import numpy as np
import pytest
from scipy.optimize import linprog

from linquant.bounds import SyllogismInput, bayes_cycle
from linquant.network import KnowledgeBase, gbt_qualitative, ingest
from linquant.qualalg import TOL, ProbInterval, QRange, scale5, scale7, scale9

SCALE7 = "@partition 0.2 0.4 0.6 0.8\n@labels none al-none few half most al-all all\n"

STUDENTS_QUAL = """\
@partition {thresholds}
@labels {labels}
q student sport most al-all
q student young al-all
q sport student half
q sport single al-all
q sport young al-all all
q single sport most all
q single young most
q single children al-none
q young student few
q young sport al-all
q young children none al-none
q children single none al-none
q children young none al-none
"""

STUDENTS_KB7 = STUDENTS_QUAL.format(
    thresholds="0.2 0.4 0.6 0.8",
    labels="none al-none few half most al-all all",
)

STUDENTS_KB9 = STUDENTS_QUAL.format(
    thresholds="0.1 0.2 0.4 0.6 0.8 0.9",
    labels="none al-none v-few few half most v-many al-all all",
)

STUDENTS_NUMERIC = """\
@partition 0.2 0.4 0.6 0.8
@labels none al-none few half most al-all all
n student sport 0.7 0.9
n student young 0.85 0.95
n sport student 0.4 0.6
n sport single 0.8 0.85
n sport young 0.9 1
n single sport 0.7 0.9
n single young 0.6 0.8
n single children 0.05 0.8
n young student 0.25 0.35
n young sport 0.8 0.9
n young single 0.9 1
n young children 0 0.05
n children single 0 0.05
n children young 0 0.05
"""

# printed fixpoint of the numeric student example, P(col | row)
STUDENTS_SATURATED = {
    ("student", "sport"): (0.900, 0.900),
    ("student", "single"): (0.607, 1.000),
    ("student", "young"): (0.850, 0.850),
    ("student", "children"): (0.000, 0.271),
    ("sport", "student"): (0.400, 0.400),
    ("sport", "single"): (0.850, 0.850),
    ("sport", "young"): (0.900, 0.958),
    ("sport", "children"): (0.000, 0.154),
    ("single", "student"): (0.222, 0.366),
    ("single", "sport"): (0.700, 0.700),
    ("single", "young"): (0.800, 0.800),
    ("single", "children"): (0.050, 0.100),
    ("young", "student"): (0.350, 0.350),
    ("young", "sport"): (0.834, 0.888),
    ("young", "single"): (0.900, 0.900),
    ("young", "children"): (0.000, 0.050),
    ("children", "student"): (0.000, 0.099),
    ("children", "sport"): (0.000, 0.127),
    ("children", "single"): (0.000, 0.050),
    ("children", "young"): (0.000, 0.044),
}


@pytest.fixture(scope="session")
def p5():
    return scale5(0.3)


@pytest.fixture(scope="session")
def p7():
    return scale7()


@pytest.fixture(scope="session")
def p9():
    return scale9()


def all_ranges(p):
    """Every label range of the scale p, by low label, then high."""
    for lo in range(p.n_labels):
        for hi in range(lo, p.n_labels):
            yield QRange(lo, hi)


def midpoint(p, label: int) -> float:
    """The midpoint of one label's hull."""
    hull = p.semantics(QRange(label, label))
    return 0.5 * (hull.lo + hull.hi)


def certainty_leq(q1, q2) -> bool:
    """Componentwise certainty order: q1 <= q2 iff both bounds are lower."""
    return q1.low <= q2.low and q1.high <= q2.high


def contains_interval(outer: ProbInterval, inner: ProbInterval, tol: float = TOL) -> bool:
    return outer.lo - tol <= inner.lo and inner.hi <= outer.hi + tol


def contains(i: ProbInterval, x: float, tol: float = TOL) -> bool:
    """True iff x lies in the closed interval i, widened by tol at each end."""
    return i.lo - tol <= x <= i.hi + tol


def covers(p, q, i: ProbInterval) -> bool:
    """True iff the exact value set of the label range q contains the closed interval i."""
    lo, lo_att, hi, hi_att = p.flagged_semantics(q)
    if i.lo < lo - TOL or i.hi > hi + TOL:
        return False
    if not lo_att and i.lo <= lo + TOL:
        return False
    if not hi_att and i.hi >= hi - TOL:
        return False
    return True


def value_set(p, q) -> tuple[float, bool, float, bool]:
    """The exact value set of a label range: (lo, lo closed, hi, hi closed).

    Built from the thresholds alone, never from `Partition`'s own tables:
    the labels are {0}, (0, t1], [t1, t2], ..., [tn, 1), {1}, and a run of
    them is the union of its adjacent labels.
    """
    ends = (0.0, *p.thresholds, 1.0)
    inner = [(lo, lo > 0.0, hi, hi < 1.0) for lo, hi in zip(ends, ends[1:])]
    sets = [(0.0, True, 0.0, True), *inner, (1.0, True, 1.0, True)]
    return sets[q.low][:2] + sets[q.high][2:]


def holds(s, x: float) -> bool:
    lo, lo_closed, hi, hi_closed = s
    return lo < x < hi or x == lo and lo_closed or x == hi and hi_closed


def points_of(s, rng: random.Random, inner: int = 3) -> list[float]:
    """Points of a value set: its attained ends, points just inside its ends, and random ones."""
    lo, lo_closed, hi, hi_closed = s
    ends = [end for end, closed in ((lo, lo_closed), (hi, hi_closed)) if closed]
    near = [lo + (hi - lo) * 1e-6, hi - (hi - lo) * 1e-6]
    points = ends + near + [rng.uniform(lo, hi) for _ in range(inner)]
    return sorted({x for x in points if holds(s, x)})


def syllogism(inp: SyllogismInput) -> tuple[ProbInterval, ProbInterval]:
    """Bounds on P(C|A), and on P(A|C) from the input reversed, which swaps the roles of A and C."""
    swapped = SyllogismInput(*inp[::-1])
    return ProbInterval(inp.lower(), inp.upper()), ProbInterval(swapped.lower(), swapped.upper())


def random_subinterval(rng: np.random.Generator) -> ProbInterval:
    a, b = sorted(rng.uniform(0.0, 1.0, size=2))
    return ProbInterval(float(a), float(b))


def conditionals_of(masses: np.ndarray, class_count: int):
    """All pairwise P(to|from) of an explicit atom distribution."""

    def pcond(to: int, frm: int) -> float:
        num = sum(masses[a] for a in range(2**class_count) if a >> to & 1 and a >> frm & 1)
        den = sum(masses[a] for a in range(2**class_count) if a >> frm & 1)
        return num / den

    return pcond


def cycle_rotations(cycle: tuple[str, ...]):
    """The rotations A1..Ak of a cycle in both directions, each a context of the cycle rule."""
    for seq in (cycle, cycle[:1] + cycle[:0:-1]):
        for r in range(len(seq)):
            yield seq[r:] + seq[:r]


def rotation_candidate(domain, seq: tuple[int, ...]):
    """The cycle rule on one rotation A1..Ak of class numbers, any k >= 2: its target and candidate.

    The target is P(A1|Ak).  The forward premises are P(Ai|Ai+1) for i < k,
    then P(Ak|A1), and the backward ones P(Ai+1|Ai) for i < k.  Numeric mode
    takes `bayes_cycle` on their ends and qualitative mode `gbt_qualitative`
    on their flagged hulls, both read from `domain`, the saturation store of
    `network._domain`.  Saturation bounds every ratio over paths of every
    length instead, so no rotation may narrow an edge at its fixpoint.
    """
    n, k = domain.n, len(seq)
    forward = [seq[i + 1] * n + seq[i] for i in range(k - 1)] + [seq[0] * n + seq[-1]]
    backward = [seq[i] * n + seq[i + 1] for i in range(k - 1)]
    target = seq[-1] * n + seq[0]
    if domain.cycle_phase == "gbt":
        def hulls(edges):
            return [(domain.lo[e], domain.lo_att[e], domain.hi[e], domain.hi_att[e]) for e in edges]

        return target, gbt_qualitative(hulls(forward), hulls(backward))
    lo, hi = domain.lo, domain.hi
    ends = [[bound[e] for e in edges] for edges in (forward, backward) for bound in (lo, hi)]
    c_lo, c_hi = bayes_cycle(*ends)
    return target, (c_lo, True, c_hi, True)


def chain_kb(n: int) -> str:
    """An n-class chain whose neighbours overlap, and whose middle class barely meets c0."""
    lines = [f"n c{i} c{i + 1} 0.6 0.8\nn c{i + 1} c{i} 0.55 0.85\n" for i in range(n - 1)]
    return SCALE7 + "".join(lines) + f"n c0 c{n // 2} 0 0.1\nn c{n // 2} c0 0 0.1\n"


def random_numeric_kbs(count: int):
    """Seeded 5- and 6-class numeric KBs: 2k widened conditionals of one random distribution."""
    rng = np.random.default_rng(31)
    p = scale7()
    for trial in range(count):
        k = 5 + trial % 2
        pcond = conditionals_of(rng.dirichlet(np.full(2**k, 0.5)), k)
        kb = KnowledgeBase(p, "numeric")
        pairs = [(f, t) for f in range(k) for t in range(k) if f != t]
        for i in rng.permutation(len(pairs))[: 2 * k]:
            f, t = pairs[i]
            v = float(pcond(t, f))
            w1, w2 = (float(w) for w in rng.uniform(0.0, 0.15, 2))
            ingest(kb, f"n c{f} c{t} {max(0.0, v - w1)!r} {min(1.0, v + w2)!r}")
        yield kb


def random_qualitative_kbs(count: int):
    """Seeded 5- and 6-class qualitative KBs on the 5-, 7- and 9-label scales in turn.

    Each states 3k conditionals of one random distribution: the first as a
    numeric interval 0.05 either side, the others as the approximation of
    the exact value, so every KB is consistent.
    """
    rng = np.random.default_rng(37)
    scales = (scale5(0.3), scale7(), scale9())
    for trial in range(count):
        k, p = 5 + trial % 2, scales[trial % 3]
        pcond = conditionals_of(rng.dirichlet(np.full(2**k, 0.3)), k)
        kb = KnowledgeBase(p, "qualitative")
        pairs = [(f, t) for f in range(k) for t in range(k) if f != t]
        for j, i in enumerate(rng.permutation(len(pairs))[: 3 * k]):
            f, t = pairs[i]
            v = float(pcond(t, f))
            if j == 0:
                ingest(kb, f"n c{f} c{t} {max(0.0, v - 0.05)!r} {min(1.0, v + 0.05)!r}")
                continue
            q = p.approximate(ProbInterval(v, v))
            ingest(kb, f"q c{f} c{t} {p.labels[q.low]} {p.labels[q.high]}")
        yield kb


def class_masks(class_count: int) -> list[np.ndarray]:
    """Membership of each atom in each class: atom a lies in class i iff bit i is set."""
    atoms = np.arange(2**class_count)
    return [(atoms >> i & 1).astype(bool) for i in range(class_count)]


def certified_range(constraints, target) -> tuple[float, float]:
    """Min and max of P(u|v), each proved optimal by a primal-dual certificate.

    `constraints` holds (u, v, interval) for P(u|v) in the interval and
    `target` is (u, v), all events as boolean masks over the atoms.  The LP
    is written here, apart from the oracle: over atom masses x >= 0 scaled
    so that x.v = 1 for the target's v, each constraint becomes the rows
    l.x.v - x.(u^v) <= 0 and x.(u^v) - h.x.v <= 0.  For each bound, HiGHS
    returns x and the marginals y of the rows and y_eq of the scaling.  The
    checks, all to 1e-9, are primal feasibility, dual feasibility (y <= 0,
    reduced costs c - A'y - v.y_eq >= 0) and a zero duality gap c.x = y_eq;
    by weak duality they prove x optimal, whatever the solver reports.
    """
    t_u, t_v = (np.asarray(m, dtype=float) for m in target)
    rows = []
    for u, v, ival in constraints:
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        rows += [ival.lo * v - u * v, u * v - ival.hi * v]
    a_ub = np.array(rows).reshape(-1, t_v.size)
    out = []
    for sign in (1.0, -1.0):
        c = sign * t_u * t_v
        res = linprog(c, A_ub=a_ub, b_ub=np.zeros(len(a_ub)), A_eq=t_v[None, :],
                      b_eq=[1.0], bounds=(0.0, None), method="highs")
        assert res.status == 0, res.message
        x, y, y_eq = res.x, res.ineqlin.marginals, res.eqlin.marginals[0]
        assert (a_ub @ x <= 1e-9).all() and abs(t_v @ x - 1.0) <= 1e-9 and (x >= 0).all()
        assert (y <= 1e-9).all()
        assert (c - a_ub.T @ y - t_v * y_eq >= -1e-9).all()
        assert abs(c @ x - y_eq) <= 1e-9
        out.append(sign * (c @ x))
    return out[0], out[1]
