"""Knowledge base of quantified statements and the saturation engine.

Statements constrain P(to|from) for ordered node pairs, either numerically
or with a qualitative range over the KB's scale.  Saturation applies the
syllogism pattern to node triples and the cycle form of Bayes' theorem to
the rotations of simple cycles of up to four nodes until no edge narrows.
One engine serves both modes, and `_domain` picks the mode's domain in one
place.  The rules only propose: each reads the edges of its context, never
its target, and returns a candidate for the target.  The domain's `narrow`
alone meets the candidate into the edge, and an empty meet raises
`ContradictionError` in both modes.  `_constrain` alone writes an edge: a
narrowed value reaches it as a statement (`statement`), met in as a stated
line is.  Numeric mode runs the closed forms on intervals, and a move of at
most 1e-9 is no change, so floating point terminates; a stated label range
narrows with its edge's interval.  Qualitative mode evaluates the same
closed forms on the hulls of label ranges and approximates once
(`tables.eval_extended`), and runs the cycle rule in the label algebra; the
lattice of ranges is finite, so it terminates exactly.  What a label means
is the scale's business: two label ranges with no common label are no clash
when `Partition.touch` finds a value they share, so a statement keeps the
upper range and `narrow` keeps the current one, and `Partition.restrict`
narrows a stated range to an edge's interval.  A self edge stores nothing:
P(a|a) = 1, so a statement on one is a clash when it excludes 1, as
`al-all` does.

The engine is a worklist (AC-3, Mackworth 1977): it applies a rule only to
contexts that can narrow, and after an edge narrows it queues again only
the contexts that read that edge.  Two rules say which contexts can narrow:

- a syllogism (a, b, c) needs an informative edge between b and a and one
  between b and c, in either direction, because with either pair vacuous
  the closed forms give the vacuous candidate;
- a cycle rotation A1..Ak needs a positive lower bound on every edge of the
  path A1 -> .. -> Ak (its upper side) or of Ak -> .. -> A1 (its lower
  side), because each side divides by or multiplies those lower bounds and
  drops a zero.

Both rules are monotone narrowing operators, so the fixpoint does not
depend on the order in which contexts are applied (Cousot & Cousot 1977),
up to the 1e-9 stop of numeric mode.  The queues keep the order in which
`_Graph` lists contexts, which its dicts take from the sorted nodes and
edges, so a run does not depend on the string hash seed either.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import NamedTuple

from . import qualalg, tables
from .bounds import SyllogismInput, bayes_cycle, syllogism_lower, syllogism_upper
from .qualalg import (
    FULL, TOL, ContradictionError, Partition, ProbInterval, QRange, UnknownNode, Value, strip_comment,
)
from .tables import SyllogismTable, eval_extended


class Edge(NamedTuple):
    interval: ProbInterval
    qual: QRange | None = None


_VACUOUS = Edge(FULL)  # what an unstated edge holds
_CERTAIN = ProbInterval(1.0, 1.0)  # P(a|a), which no edge stores


class TraceStep(NamedTuple):
    phase: str  # "syllogism" | "bayes" | "gbt"
    context: tuple
    edge: tuple[str, str]
    before: str
    after: str


class KnowledgeBase(Value):
    """Nodes, the edges between them, and the queries; the containers are the KB's own."""

    __slots__ = ("partition", "mode", "nodes", "edges", "queries")
    __hash__ = None  # its containers change

    def __init__(
        self, partition: Partition, mode: str = "numeric", nodes=(), edges=(), queries=()
    ) -> None:
        self.partition = partition
        self.mode = mode  # or "qualitative"
        self.nodes: list[str] = list(nodes)
        self.edges: dict[tuple[str, str], Edge] = dict(edges)
        self.queries: list[tuple[str, str]] = list(queries)

    def add_node(self, name: str) -> None:
        if name not in self.nodes:
            self.nodes.append(name)

    def interval(self, frm: str, to: str) -> ProbInterval:
        if frm == to:
            return _CERTAIN
        return self.edges.get((frm, to), _VACUOUS).interval

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
        return KnowledgeBase(self.partition, self.mode, self.nodes, self.edges, self.queries)

    def informative_edges(self) -> list[tuple[str, str]]:
        """The sorted pairs whose edge says more than the vacuous range of the KB's mode."""
        domain = _domain(self)
        return [pair for pair in sorted(self.edges) if domain.informative(domain.read(*pair))]


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
        qual = kb.partition.range_of(fields[3], fields[4] if len(fields) == 5 else None)
        statement = kb.partition.semantics(qual), qual
    elif kind == "n":
        if len(fields) != 5:
            raise ValueError(f"bad numeric statement: {line!r}")
        statement = ProbInterval(float(fields[3]), float(fields[4])), None
    elif kind == "?":
        if len(fields) != 3:
            raise ValueError(f"bad query: {line!r}")
        kb.queries.append((fields[1], fields[2]))
    else:
        raise ValueError(f"unknown statement kind {kind!r} in {line!r}")
    kb.add_node(fields[1])
    kb.add_node(fields[2])
    if kind != "?":
        _constrain(kb, fields[1], fields[2], *statement)


def _constrain(
    kb: KnowledgeBase, frm: str, to: str, interval: ProbInterval, qual: QRange | None
) -> None:
    """Meet a statement into the edge frm -> to: the one code that writes an edge.

    A stated range keeps the labels of the edge's interval (`Partition.restrict`);
    of two that touch at a threshold, the upper one stays.  A self edge must allow 1.
    """
    p = kb.partition

    def clash(was, new) -> ContradictionError:
        return ContradictionError(f"contradiction on edge {frm} -> {to}: {was} vs {new}")

    if frm == to:
        if not interval.contains(1.0) or qual is not None and p.restrict(qual, _CERTAIN) is None:
            raise ContradictionError(f"self edge {frm} must be certain")
        return
    old = kb.edges.get((frm, to))
    if old is not None:
        common = old.interval.intersect(interval)
        if common is None:
            raise clash(old.interval, interval)
        interval = common
        if qual is None:
            qual = old.qual
        elif old.qual is not None:
            met = qualalg.meet(qual, old.qual)
            if met is None:
                if not p.touch(qual, old.qual):
                    raise clash(p.name_of(old.qual), p.name_of(qual))
                met = max(qual, old.qual, key=lambda q: q.low)
            qual = met
    if qual is not None:
        stated = p.restrict(qual, interval)
        if stated is None:
            raise clash(p.name_of(qual), interval)
        qual = stated
    kb.edges[(frm, to)] = Edge(interval, qual)


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
    """Canonical simple cycles, shortest first, rotation/reflection minimal.

    Saturation does not list cycles: it grows positive paths (`_Graph`).
    The tests sweep these cycles to check that it missed none that narrows.
    """
    out: list[tuple[str, ...]] = []
    ordered = sorted(nodes)
    for m in range(3, max_len + 1):
        for combo in itertools.combinations(ordered, m):
            first, rest = combo[0], combo[1:]
            for perm in itertools.permutations(rest):
                if perm[0] < perm[-1]:  # kill reflections
                    out.append((first,) + perm)
    return out


# -- saturation ---------------------------------------------------------------


_MAX_CYCLE = 4  # nodes in the longest cycle the Bayes rule runs on
_EPS = 1e-9  # numeric mode: a move of at most this is no change


class _Intervals:
    """Numeric mode: edges hold intervals, and a move of at most `_EPS` is no change.

    A candidate is a (lo, hi) pair, inverted by at most rounding (lo <= hi + 1e-12).
    """

    cycle_phase = "bayes"
    show = str
    show_candidate = "[{0[0]:.6f}, {0[1]:.6f}]".format

    def __init__(self, kb: KnowledgeBase):
        self.read = kb.interval

    @staticmethod
    def informative(value: ProbInterval) -> bool:
        return value.lo != 0.0 or value.hi != 1.0  # value != FULL, without `Value.__eq__`

    @staticmethod
    def positive(value: ProbInterval) -> bool:
        return value.lo > 0.0

    @staticmethod
    def narrow(old: ProbInterval, candidate) -> ProbInterval | None:
        lo = candidate[0] if candidate[0] > old.lo else old.lo  # the meet, without max and min
        hi = candidate[1] if candidate[1] < old.hi else old.hi
        if lo > hi + TOL:
            return None
        hi = hi if hi > lo else lo
        if lo - old.lo <= _EPS and old.hi - hi <= _EPS:
            return old
        return ProbInterval(lo, hi)

    @staticmethod
    def statement(new: ProbInterval) -> tuple[ProbInterval, None]:
        return new, None

    @staticmethod
    def syllogism(kb, abc):
        a, b, c = abc
        get = kb.edges.get  # not `kb.interval`: a context names distinct nodes, so no self edge
        inp = SyllogismInput(
            get((a, b), _VACUOUS).interval, get((b, a), _VACUOUS).interval,
            get((b, c), _VACUOUS).interval, get((c, b), _VACUOUS).interval,
        )
        return (a, c), (syllogism_lower(inp), syllogism_upper(inp))

    @staticmethod
    def cycle(kb, seq):
        get = kb.edges.get
        forward, backward = [], []  # the premises that `_cycle_edges` names
        for x, y in zip(seq, seq[1:]):
            forward.append(get((y, x), _VACUOUS).interval)
            backward.append(get((x, y), _VACUOUS).interval)
        forward.append(get((seq[0], seq[-1]), _VACUOUS).interval)
        return (seq[-1], seq[0]), bayes_cycle(forward, backward)


class _Labels:
    """Qualitative mode: edges hold label ranges; their lattice is finite, so equality ends it."""

    cycle_phase = "gbt"

    def __init__(self, kb: KnowledgeBase):
        self.read = kb.qual
        self.show = self.show_candidate = kb.partition.name_of
        self.partition = kb.partition
        self.full = kb.partition.full_range()

    def informative(self, value: QRange) -> bool:
        return value != self.full

    @staticmethod
    def positive(value: QRange) -> bool:
        return value.low > 0

    def narrow(self, old: QRange, candidate: QRange) -> QRange | None:
        new = qualalg.meet(old, candidate)
        if new is None:  # no common label: consistent only on a threshold where both touch
            return old if self.partition.touch(old, candidate) else None
        return old if new == old else new

    def statement(self, new: QRange) -> tuple[ProbInterval, QRange]:
        return self.partition.semantics(new), new

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


def _domain(kb: KnowledgeBase):
    """The mode's domain: how its edges are read, shown, narrowed and written."""
    return _Labels(kb) if kb.mode == "qualitative" else _Intervals(kb)


def saturate(kb: KnowledgeBase) -> tuple[KnowledgeBase, list[TraceStep]]:
    """Run the syllogism and the cycle rule to a fixpoint; returns a copy and its trace.

    Two first-in first-out queues hold the contexts still to apply: node
    triples for the syllogism and cycle rotations for the cycle rule.  They
    start with every context that can narrow (see the module docstring) and
    the syllogism queue drains before each rotation, so the syllogism phase
    runs first and again after every rotation that narrows an edge.  When
    an edge narrows, the contexts that read it are queued again, each at
    most once at a time, in the order `_Graph` lists them; saturation ends
    when both queues are empty.  A narrowed value reaches its edge through
    `_constrain`, so a stated range that it leaves no label of is a clash,
    as at ingestion.
    """
    out = kb.copy()
    trace: list[TraceStep] = []
    domain = _domain(out)
    graph = _Graph(out, domain)
    rules = (("syllogism", domain.syllogism), (domain.cycle_phase, domain.cycle))
    queues = (_Queue(graph.triples()), _Queue(graph.rotations()))
    while queues[0] or queues[1]:
        i = 0 if queues[0] else 1
        phase, rule = rules[i]
        context = queues[i].pop()
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
                _constrain(out, *target, *domain.statement(new))
            except ContradictionError as exc:  # the interval left no label of a stated range
                raise ContradictionError(
                    f"{phase} ({', '.join(context)}): {exc}", trace[-20:]
                ) from None
            trace.append(TraceStep(phase, context, target, domain.show(old), domain.show(new)))
            graph.add(target, new)
            queues[0].extend(graph.triples(target))
            queues[1].extend(graph.rotations(target))
    return out, trace


class _Graph:
    """The edges that decide which contexts can narrow, updated as edges narrow.

    `near[b]` holds the nodes with an informative edge to or from b, and
    `succ[x]` and `pred[y]` the edges x -> y with a positive lower bound.
    An edge only narrows, so it never leaves them.  They are dicts, so they
    iterate in insertion order whatever the string hash seed.
    """

    def __init__(self, kb: KnowledgeBase, domain):
        self.domain = domain
        nodes = sorted(kb.nodes)
        self.near: dict[str, dict] = {x: {} for x in nodes}
        self.succ: dict[str, dict] = {x: {} for x in nodes}
        self.pred: dict[str, dict] = {x: {} for x in nodes}
        for pair in sorted(kb.edges):
            self.add(pair, domain.read(*pair))

    def add(self, pair: tuple[str, str], value) -> None:
        u, v = pair
        if self.domain.informative(value):
            self.near[u][v] = self.near[v][u] = True
        if self.domain.positive(value):
            self.succ[u][v] = self.pred[v][u] = True

    def triples(self, pair: tuple[str, str] | None = None) -> list[tuple[str, str, str]]:
        """Syllogisms (a, b, c) with a and c near b; if `pair` is given, those that read it."""
        if pair is None:
            return [(a, b, c) for b, ab in self.near.items() for a in ab for c in ab if a != c]
        return [
            triple
            for b, other in (pair, pair[::-1]) for x in self.near[b] if x != other
            for triple in ((other, b, x), (x, b, other))
        ]

    def rotations(self, pair: tuple[str, str] | None = None) -> list[tuple[str, ...]]:
        """Rotations that run along a positive path forward or backward.

        If `pair` is given, only those that read it.  A rotation reads every
        edge of its cycle, so a path whose cycle has the edge (u, v) either
        steps between u and v or runs from one to the other.
        """
        sizes = range(3, _MAX_CYCLE + 1)
        if pair is None:
            paths = [path for x in self.succ for k in sizes for path in self._grow((x,), 0, k - 1)]
        else:
            paths = []
            for (x, y), k in itertools.product((pair, pair[::-1]), sizes):
                if y in self.succ[x]:
                    for left in range(k - 1):
                        paths += self._grow((x, y), left, k - 2 - left)
                paths += [
                    path + (y,) for path in self._grow((x,), 0, k - 2)
                    if y not in path and y in self.succ[path[-1]]
                ]
        # a path whose reverse is positive too is grown twice, once each way
        return list(dict.fromkeys([seq for path in paths for seq in (path, path[::-1])]))

    def _grow(self, path: tuple[str, ...], left: int, right: int) -> list[tuple[str, ...]]:
        """The positive paths that extend `path` by `left` nodes before it and `right` after it."""
        paths = [path]
        for _ in range(left):
            paths = [(w,) + p for p in paths for w in self.pred[p[0]] if w not in p]
        for _ in range(right):
            paths = [p + (w,) for p in paths for w in self.succ[p[-1]] if w not in p]
        return paths


class _Queue:
    """Contexts waiting for their rule, first in first out, each queued at most once."""

    def __init__(self, contexts: list[tuple[str, ...]]):
        self._items: deque[tuple[str, ...]] = deque()
        self._queued: set[tuple[str, ...]] = set()
        self.extend(contexts)

    def __bool__(self) -> bool:
        return bool(self._items)

    def extend(self, contexts: list[tuple[str, ...]]) -> None:
        """Queue, in the order given, the contexts not queued yet; `contexts` repeats none."""
        fresh = [context for context in contexts if context not in self._queued]
        self._queued.update(fresh)
        self._items.extend(fresh)

    def pop(self) -> tuple[str, ...]:
        context = self._items.popleft()
        self._queued.remove(context)
        return context


_table_cache: dict[tuple, SyllogismTable] = {}


def gen_table_cached(p: Partition) -> SyllogismTable:
    """`tables.gen_table` memoised per scale (saturation itself reads no table)."""
    key = (p.thresholds, p.labels)
    if key not in _table_cache:
        _table_cache[key] = tables.gen_table(p)
    return _table_cache[key]


def _cycle_edges(seq: tuple[str, ...]):
    """Premise pairs for a cycle A1..Ak whose target is P(A1|Ak).

    Forward P(Ai|Ai+1) for i < k, then P(Ak|A1); backward P(Ai+1|Ai) for
    i < k, which leaves out the target.
    """
    forward = [(y, x) for x, y in zip(seq, seq[1:])] + [(seq[0], seq[-1])]
    backward = list(zip(seq, seq[1:]))
    return forward, backward


def gbt_qualitative(kb: KnowledgeBase, cycle: tuple[str, ...]) -> QRange:
    """Qualitative cycle rule: products first, one truncated quotient.

    For the cycle A1..Ak this proposes for P(A1|Ak) the range
    qdiv(qmul(P(Ak|A1), P(A1|A2), .., P(Ak-1|Ak)), qmul(P(A2|A1), .., P(Ak|Ak-1))),
    or the full range when the denominator is identically `none`, as in
    `bayes_cycle`.  It does not read P(A1|Ak) itself.
    """
    p = kb.partition
    fwd_pairs, bwd_pairs = _cycle_edges(cycle)
    num = kb.qual(*fwd_pairs[-1])  # reverse edge P(Ak|A1)
    for pair in fwd_pairs[:-1]:
        num = p.qmul(num, kb.qual(*pair))
    den = kb.qual(*bwd_pairs[0])
    for pair in bwd_pairs[1:]:
        den = p.qmul(den, kb.qual(*pair))
    return p.full_range() if den.high == 0 else p.qdiv(num, den)


# -- querying and export -------------------------------------------------------


def query(kb: KnowledgeBase, frm: str, to: str) -> tuple[ProbInterval, QRange]:
    for name in (frm, to):
        if name not in kb.nodes:
            raise UnknownNode(name)
    return kb.interval(frm, to), kb.qual(frm, to)


def statements(kb: KnowledgeBase) -> list[str]:
    """Readable rendering of every informative edge."""
    domain = _domain(kb)
    return [
        f"{frm} -> {to} : {domain.show(domain.read(frm, to))}" for frm, to in kb.informative_edges()
    ]


def derived_statements(
    kb_before: KnowledgeBase, kb_after: KnowledgeBase
) -> dict[tuple[str, str], QRange]:
    """Edges that were vacuous at ingestion and are informative after."""
    full = kb_before.partition.full_range()
    return {
        pair: kb_after.qual(*pair)
        for pair in kb_after.informative_edges() if kb_before.qual(*pair) == full
    }


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

