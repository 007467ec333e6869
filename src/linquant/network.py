"""Knowledge base of quantified statements and the saturation engine.

Statements constrain P(to|from) for ordered node pairs, either numerically
or with a qualitative range over the KB's scale.  Saturation repeatedly
applies the syllogism pattern over all ordered node triples, then the cycle
form of Bayes' theorem over simple cycles of up to four nodes, alternating
until nothing improves.  One engine serves both modes: each rule proposes a
candidate for its target edge, and one narrowing step meets it into the
edge.  The mode only picks the domain.  Numeric mode runs the closed forms
on intervals, and a move of at most 1e-9 is no change, so floating point
terminates; a stated label range narrows with its edge's interval.
Qualitative mode evaluates the same closed forms on the hulls of label
ranges and approximates once (`tables.eval_extended`), and runs the cycle
rule in the label algebra; the lattice of ranges is finite, so it
terminates exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import qualalg, tables
from .bounds import SyllogismInput, bayes_cycle, syllogism_lower, syllogism_upper
from .qualalg import FULL, TOL, Partition, ProbInterval, QRange, strip_comment
from .tables import SyllogismTable, eval_extended


class ContradictionError(ValueError):
    def __init__(self, message: str, chain: list["TraceStep"] | None = None):
        super().__init__(message)
        self.chain = chain or []


class UnknownNode(KeyError):
    def __str__(self) -> str:
        return f"unknown node {self.args[0]!r}"


@dataclass(frozen=True)
class Edge:
    interval: ProbInterval
    qual: QRange | None = None


@dataclass(frozen=True)
class TraceStep:
    phase: str  # "syllogism" | "bayes" | "gbt"
    context: tuple
    edge: tuple[str, str]
    before: str
    after: str


@dataclass
class KnowledgeBase:
    partition: Partition
    mode: str = "numeric"  # or "qualitative"
    nodes: list[str] = field(default_factory=list)
    edges: dict[tuple[str, str], Edge] = field(default_factory=dict)
    queries: list[tuple[str, str]] = field(default_factory=list)

    def add_node(self, name: str) -> None:
        if name not in self.nodes:
            self.nodes.append(name)

    def interval(self, frm: str, to: str) -> ProbInterval:
        if frm == to:
            return ProbInterval(1.0, 1.0)
        edge = self.edges.get((frm, to))
        return edge.interval if edge else FULL

    def qual(self, frm: str, to: str) -> QRange:
        p = self.partition
        if frm == to:
            return QRange(p.top, p.top)
        edge = self.edges.get((frm, to))
        if edge is None:
            return p.full_range()
        if edge.qual is not None:
            return edge.qual
        return p.approximate(edge.interval)

    def copy(self) -> "KnowledgeBase":
        return KnowledgeBase(
            self.partition, self.mode, list(self.nodes), dict(self.edges),
            list(self.queries),
        )

    def informative_edges(self) -> dict[tuple[str, str], Edge]:
        out = {}
        for pair, edge in sorted(self.edges.items()):
            if self.mode == "qualitative":
                if self.qual(*pair) != self.partition.full_range():
                    out[pair] = edge
            elif edge.interval != FULL:
                out[pair] = edge
        return out


# -- statement ingestion ---------------------------------------------------


def ingest(kb: KnowledgeBase, line: str) -> None:
    """Apply one statement line: `q from to low [high]` or `n from to lo hi`.

    Re-ingesting a pair intersects with the existing constraint; an empty
    intersection is a contradiction.
    """
    fields = strip_comment(line).split()
    if not fields:
        return
    kind = fields[0]
    if kind == "q":
        if len(fields) not in (4, 5):
            raise ValueError(f"bad qualitative statement: {line!r}")
        frm, to = fields[1], fields[2]
        qual = kb.partition.range_of(fields[3], fields[4] if len(fields) == 5 else None)
        _constrain(kb, frm, to, kb.partition.semantics(qual), qual)
    elif kind == "n":
        if len(fields) != 5:
            raise ValueError(f"bad numeric statement: {line!r}")
        frm, to = fields[1], fields[2]
        _constrain(kb, frm, to, ProbInterval(float(fields[3]), float(fields[4])), None)
    elif kind == "?":
        if len(fields) != 3:
            raise ValueError(f"bad query: {line!r}")
        kb.queries.append((fields[1], fields[2]))
        kb.add_node(fields[1])
        kb.add_node(fields[2])
    else:
        raise ValueError(f"unknown statement kind {kind!r} in {line!r}")


def _constrain(
    kb: KnowledgeBase, frm: str, to: str, interval: ProbInterval, qual: QRange | None
) -> None:
    kb.add_node(frm)
    kb.add_node(to)
    if frm == to:
        if not interval.contains(1.0):
            raise ContradictionError(f"self edge {frm} must be certain")
        return
    old = kb.edges.get((frm, to))
    if old is not None:
        interval_new = old.interval.intersect(interval)
        if interval_new is None:
            raise ContradictionError(
                f"contradiction on edge {frm} -> {to}: "
                f"{old.interval} vs {interval}"
            )
        interval = interval_new
        if old.qual is not None and qual is not None:
            met = qualalg.meet(qual, old.qual)
            if met is None:  # ranges with no common label touch at one point, which both must hold
                below, met = sorted((qual, old.qual), key=lambda q: q.low)
                _stated(kb, (frm, to), below, interval)
            qual = met
        elif qual is None:
            qual = old.qual
    if qual is not None:
        qual = _stated(kb, (frm, to), qual, interval)
    kb.edges[(frm, to)] = Edge(interval, qual)


def _stated(kb: KnowledgeBase, pair: tuple[str, str], qual: QRange, interval: ProbInterval) -> QRange:
    """A stated label range narrowed to the labels of the edge's interval.

    The interval lies in the range's hull, so an empty meet with
    `approximate` leaves one consistent case: a point on the threshold just
    below the range, which `approximate` puts in the label below, although
    the range's lowest label contains it too.
    """
    p = kb.partition
    new = qualalg.meet(qual, p.approximate(interval))
    if new is None:
        new = QRange(qual.low, qual.low)
        if not p.covers(new, interval):
            raise ContradictionError(
                f"contradiction on edge {pair[0]} -> {pair[1]}: {p.name_of(qual)} vs {interval}"
            )
    return new


def parse_kb(text: str, mode: str = "numeric") -> KnowledgeBase:
    partition = qualalg.parse_partition_config(text)
    kb = KnowledgeBase(partition, mode)
    for no, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if not line or line.startswith("@"):
            continue
        try:
            ingest(kb, line)
        except ContradictionError as exc:
            raise ContradictionError(f"line {no}: {exc}") from exc
        except (ValueError, KeyError) as exc:
            raise qualalg.ConfigError(str(exc), no) from exc
    return kb


# -- cycle enumeration -------------------------------------------------------


def simple_cycles(nodes: list[str], max_len: int) -> list[tuple[str, ...]]:
    """Canonical simple cycles, shortest first, rotation/reflection minimal."""
    out: list[tuple[str, ...]] = []
    ordered = sorted(nodes)
    for m in range(3, max_len + 1):
        for combo in itertools.combinations(ordered, m):
            first, rest = combo[0], combo[1:]
            for perm in itertools.permutations(rest):
                if perm[0] < perm[-1]:  # kill reflections
                    out.append((first,) + perm)
    return out


def _cycle_rotations(cycle: tuple[str, ...]):
    m = len(cycle)
    for direction in (1, -1):
        seq = cycle if direction == 1 else (cycle[0],) + tuple(reversed(cycle[1:]))
        for r in range(m):
            yield tuple(seq[(r + i) % m] for i in range(m))


# -- saturation ---------------------------------------------------------------


_MAX_CYCLE = 4  # nodes in the longest cycle the Bayes rule runs on
_EPS = 1e-9  # numeric mode: a move of at most this is no change


class _Intervals:
    """Numeric mode: edges hold intervals, and a move of at most `_EPS` is no change.

    A candidate is a (lo, hi) pair; the syllogism may return it inverted.
    """

    cycle_phase = "bayes"
    show = str
    show_candidate = "[{0[0]:.6f}, {0[1]:.6f}]".format

    def __init__(self, kb: KnowledgeBase):
        self.read = kb.interval

    @staticmethod
    def narrow(old: ProbInterval, candidate) -> ProbInterval | None:
        lo, hi = max(old.lo, candidate[0]), min(old.hi, candidate[1])
        if lo > hi + TOL:
            return None
        hi = max(lo, hi)
        if lo - old.lo <= _EPS and old.hi - hi <= _EPS:
            return old
        return ProbInterval(lo, hi)

    @staticmethod
    def write(kb, pair, interval: ProbInterval) -> None:
        old = kb.edges.get(pair)
        qual = old.qual if old else None
        if qual is not None:
            qual = _stated(kb, pair, qual, interval)
        kb.edges[pair] = Edge(interval, qual)

    @staticmethod
    def syllogism(kb, abc):
        a, b, c = abc
        inp = SyllogismInput(
            kb.interval(a, b), kb.interval(b, a), kb.interval(b, c), kb.interval(c, b)
        )
        return (a, c), (syllogism_lower(inp), syllogism_upper(inp))

    @staticmethod
    def cycle(kb, seq):
        fwd_pairs, bwd_pairs = _cycle_edges(seq)
        new = bayes_cycle(
            [kb.interval(*pair) for pair in fwd_pairs],
            [kb.interval(*pair) for pair in bwd_pairs],
            FULL,
        )
        return bwd_pairs[-1], (new.lo, new.hi)


class _Labels:
    """Qualitative mode: edges hold label ranges; their lattice is finite, so equality ends it."""

    cycle_phase = "gbt"

    def __init__(self, kb: KnowledgeBase):
        self.read = kb.qual
        self.show = self.show_candidate = kb.partition.name_of

    @staticmethod
    def narrow(old: QRange, candidate: QRange) -> QRange | None:
        new = qualalg.meet(old, candidate)
        return old if new == old else new

    @staticmethod
    def write(kb, pair, qual: QRange) -> None:
        interval = kb.partition.semantics(qual)
        old = kb.edges.get(pair)
        if old is not None:
            interval = old.interval.intersect(interval) or interval
        kb.edges[pair] = Edge(interval, qual)

    @staticmethod
    def syllogism(kb, abc):
        a, b, c = abc
        q5 = eval_extended(
            kb.partition, kb.qual(a, b), kb.qual(b, a), kb.qual(c, b), kb.qual(b, c)
        )
        return (a, c), q5

    @staticmethod
    def cycle(kb, seq):
        return (seq[-1], seq[0]), gbt_qualitative(kb, seq)


def saturate(kb: KnowledgeBase) -> tuple[KnowledgeBase, list[TraceStep]]:
    """Run syllogism sweeps then cycle sweeps to a fixpoint; returns a copy.

    Each phase sweeps its rule over every context (ordered node triples,
    then the rotations of the simple cycles) until a sweep changes nothing;
    the two phases alternate until neither does.
    """
    out = kb.copy()
    trace: list[TraceStep] = []
    domain = _Labels(out) if kb.mode == "qualitative" else _Intervals(out)
    nodes = sorted(out.nodes)
    cycles = simple_cycles(out.nodes, _MAX_CYCLE)
    phases = (
        ("syllogism", domain.syllogism, lambda: itertools.permutations(nodes, 3)),
        (domain.cycle_phase, domain.cycle,
         lambda: itertools.chain.from_iterable(map(_cycle_rotations, cycles))),
    )

    def sweep(phase, rule, contexts) -> bool:
        """The narrowing step: meet each rule candidate into its target edge."""
        changed = False
        for context in contexts():
            target, candidate = rule(out, context)
            old = domain.read(*target)
            new = domain.narrow(old, candidate)
            if new is None:
                raise ContradictionError(
                    f"{phase} ({', '.join(context)}) empties edge {target[0]} -> {target[1]}: "
                    f"{domain.show(old)} meets {domain.show_candidate(candidate)}",
                    trace[-20:],
                )
            if new is not old:
                try:
                    domain.write(out, target, new)
                except ContradictionError as exc:  # the interval left no label of a stated range
                    raise ContradictionError(
                        f"{phase} ({', '.join(context)}): {exc}", trace[-20:]
                    ) from None
                trace.append(TraceStep(phase, context, target, domain.show(old), domain.show(new)))
                changed = True
        return changed

    # a list, not a generator, so that every round runs both phases
    _until_stable(lambda: any([_until_stable(lambda: sweep(*phase)) for phase in phases]))
    return out, trace


def _until_stable(step) -> bool:
    """Repeat `step` until it reports no change; True if any call changed something."""
    for rounds in range(10_000):
        if not step():
            return rounds > 0
    raise RuntimeError("saturation failed to converge")


_table_cache: dict[tuple, SyllogismTable] = {}


def gen_table_cached(p: Partition) -> SyllogismTable:
    """`tables.gen_table` memoised per scale (saturation itself reads no table)."""
    key = (p.thresholds, p.labels)
    if key not in _table_cache:
        _table_cache[key] = tables.gen_table(p)
    return _table_cache[key]


def _cycle_edges(seq: tuple[str, ...]):
    """Edge pairs for a cycle A1..Ak: forward P(Ai|Ai+1), backward P(Ai+1|Ai).

    Wraparound included: the last forward edge is P(Ak|A1) and the last
    backward edge is the target P(A1|Ak) itself.
    """
    k = len(seq)
    forward = [(seq[(i + 1) % k], seq[i]) for i in range(k)]
    backward = [(seq[i], seq[(i + 1) % k]) for i in range(k)]
    return forward, backward


def gbt_qualitative(kb: KnowledgeBase, cycle: tuple[str, ...]) -> QRange:
    """Qualitative cycle update: products first, one truncated quotient.

    For the cycle A1..Ak this bounds P(A1|Ak) by
    qdiv(qmul(P(Ak|A1), P(A1|A2), .., P(Ak-1|Ak)), qmul(P(A2|A1), .., P(Ak|Ak-1)))
    and merges with the current range via the certainty order.  A
    denominator that is identically `none` refines nothing.
    """
    p = kb.partition
    fwd_pairs, bwd_pairs = _cycle_edges(cycle)
    num = kb.qual(*fwd_pairs[-1])  # reverse edge P(Ak|A1)
    for pair in fwd_pairs[:-1]:
        num = p.qmul(num, kb.qual(*pair))
    den: QRange | None = None
    for pair in bwd_pairs[:-1]:
        q = kb.qual(*pair)
        den = q if den is None else p.qmul(den, q)
    assert den is not None
    old = kb.qual(*bwd_pairs[-1])
    if den.high == 0:  # a zero denominator drops the refinement, as in bayes_cycle
        return old
    ratio = p.qdiv(num, den)
    lo = max(old.low, ratio.low)
    hi = min(old.high, ratio.high)
    if lo > hi:  # vacuous refinement; keep the old range
        return old
    return QRange(lo, hi)


# -- querying and export -------------------------------------------------------


def query(kb: KnowledgeBase, frm: str, to: str) -> tuple[ProbInterval, QRange]:
    for name in (frm, to):
        if name not in kb.nodes:
            raise UnknownNode(name)
    return kb.interval(frm, to), kb.qual(frm, to)


def statements(kb: KnowledgeBase) -> list[str]:
    """Readable rendering of every informative edge."""
    out = []
    for (frm, to) in sorted(kb.informative_edges()):
        if kb.mode == "qualitative":
            out.append(f"{frm} -> {to} : {kb.partition.name_of(kb.qual(frm, to))}")
        else:
            out.append(f"{frm} -> {to} : {kb.interval(frm, to)}")
    return out


def derived_statements(
    kb_before: KnowledgeBase, kb_after: KnowledgeBase
) -> dict[tuple[str, str], QRange]:
    """Edges that were vacuous at ingestion and are informative after."""
    full = kb_after.partition.full_range()
    out = {}
    for pair in sorted(kb_after.informative_edges()):
        if kb_before.qual(*pair) == kb_before.partition.full_range():
            q = kb_after.qual(*pair)
            if q != full:
                out[pair] = q
    return out


def matrix_csv(kb: KnowledgeBase) -> str:
    """Incidence matrix, rows = from, columns = to, cells "lo,hi" at three decimals."""
    import csv as _csv
    import io as _io

    buf = _io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + kb.nodes)
    for frm in kb.nodes:
        row = [frm]
        for to in kb.nodes:
            ival = kb.interval(frm, to)
            row.append(f"{ival.lo:.3f},{ival.hi:.3f}")
        writer.writerow(row)
    return buf.getvalue()

