"""Knowledge base of quantified statements and the saturation engine.

Statements constrain P(to|from) for ordered node pairs, either numerically
or with a qualitative range over the KB's scale.  Saturation applies the
syllogism pattern to node triples and the cycle form of Bayes' theorem to
the rotations of simple cycles of three and four nodes until no edge
narrows.  One engine serves both modes, and `_domain` picks the mode's
domain in one place.  The rules only propose: each reads the edges of its
context, never its target, and returns a candidate for the target.  The
domain's `narrow` alone meets the candidate into the edge, and an empty
meet raises `ContradictionError` in both modes.  `_constrain` alone writes
an edge of `kb.edges`: a narrowed value reaches it as a statement
(`statement`), met in as a stated line is.  Numeric mode runs the closed
forms on interval ends, and a move of at most 1e-9 is no change, so
floating point terminates; a stated label range narrows with its edge's
interval.  Qualitative mode runs the same syllogism on the hulls of label
ranges, and its cycle rule takes products and one quotient of the flagged
hulls (`gbt_qualitative`); `narrow` approximates each candidate once.  The
lattice of ranges is finite, so it terminates exactly.  What a label means
is the scale's business: two label ranges with no common label are no
clash when `Partition.touch` finds a value they share, so a statement keeps
the upper range and `narrow` keeps the current one, and `Partition.restrict`
narrows a stated range to an edge's interval.  A self edge stores nothing:
P(a|a) = 1, so a statement on one is a clash when it excludes 1, as
`al-all` does.

Saturation is index-addressed.  `saturate` numbers the KB's nodes once, in
sorted order, and the engine works on those numbers: the graph of `_Graph`,
both queues, every context and every rule.  In both modes the store keeps
each edge u -> v as a flagged hull (lo, lo attained, hi, hi attained) at
index u*n+v of four flat lists, self edges preset to 1: a numeric edge
attains both ends of its interval, and a label range carries the flags of
`Partition.flagged_semantics`, which its approximation inverts exactly.  So
a rule application reads list items, allocates no interval and, in
qualitative mode, restates no label's meaning.  An edge that narrows goes
through `_constrain`, which also restricts a stated label range, and is
loaded back from `kb.edges`, the store of record.  Names come back only where a user reads
them: in `TraceStep`s, in `ContradictionError` messages and their chains.

The engine is a worklist (AC-3, Mackworth 1977): it applies a rule only to
contexts that can narrow, and after an edge narrows it queues again only
the contexts that read that edge; a rotation whose target is that edge
does not read it.  Until the first rotation is taken every rotation that
can narrow is still queued, so until then a narrowing lists rotations only
when it has made its edge positive.  Two rules say which contexts can narrow:

- a syllogism (a, b, c) needs an informative edge between b and a and one
  between b and c, in either direction, because with either pair vacuous
  the closed forms give the vacuous candidate;
- a cycle rotation A1..Ak needs a positive lower bound on every edge of the
  path A1 -> .. -> Ak (its upper side) or of Ak -> .. -> A1 (its lower
  side), because each side divides by or multiplies those lower bounds and
  drops a zero.

Both rules are monotone narrowing operators, so the fixpoint does not
depend on the order in which contexts are applied (Cousot & Cousot 1977),
up to the 1e-9 stop of numeric mode: a bound that converges slowly stops
where one step moves it by less than 1e-9, so two orders can stop a few
1e-9 apart (2.2e-9 has been seen).  The queues keep the order in which
`_Graph` lists contexts, which follows the class numbers, so a run depends
neither on the string hash seed nor on the order in which statements name
the classes.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import reduce
from operator import itemgetter
from typing import NamedTuple

from . import qualalg, tables
from .bounds import bayes_cycle, syllogism_lower, syllogism_upper
from .qualalg import (
    _ANY, FULL, TOL, ContradictionError, Flagged, Partition, ProbInterval, QRange, UnknownNode, Value,
    strip_comment,
)
from .tables import Key, eval_extended  # noqa: F401  perfbench/tracer.py wraps it here


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
        if not interval.contains(1.0) or qual is not None and not p.covers(qual, _CERTAIN):
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


_EPS = 1e-9  # numeric mode: a move of at most this is no change
_SAME = object()  # what `narrow` returns when the edge keeps its value


class _Store:
    """The KB's classes numbered in sorted order, and its edges addressed u*n+v.

    Each edge is a flagged hull, (lo, lo attained, hi, hi attained), in four
    flat lists at its index, in both modes; self edges hold P(a|a) = 1.
    `load` copies an edge in from `kb.edges`, the store of record, through
    the mode's `flagged`, and `pair` names it again.  The syllogism reads the
    hull's ends alone.
    """

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self.names = sorted(kb.nodes)
        n = self.n = len(self.names)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.stated = sorted(self.edge(*pair) for pair in kb.edges)  # the edges in kb.edges
        self.lo, self.hi = [0.0] * (n * n), [1.0] * (n * n)
        self.lo_att, self.hi_att = [True] * (n * n), [True] * (n * n)
        self.lo[:: n + 1] = [1.0] * n  # P(a|a) = 1
        for e in self.stated:
            self.load(e)

    def edge(self, frm: str, to: str) -> int:
        return self.index[frm] * self.n + self.index[to]

    def pair(self, e: int) -> tuple[str, str]:
        u, v = divmod(e, self.n)
        return self.names[u], self.names[v]

    def load(self, e: int) -> None:
        self.lo[e], self.lo_att[e], self.hi[e], self.hi_att[e] = self.flagged(self.pair(e))

    def informative(self, e: int) -> bool:
        return self.lo[e] != 0.0 or self.hi[e] != 1.0 or not (self.lo_att[e] and self.hi_att[e])

    def positive(self, e: int) -> bool:
        return self.lo[e] > 0.0 or not self.lo_att[e]

    def premises(self, seq: tuple[int, ...]) -> tuple[int, itemgetter, itemgetter]:
        """The cycle rule's target edge on the rotation A1..Ak, and getters of its premises.

        The target is P(A1|Ak).  The getters take a flat list and return,
        left to right, the forward premises P(Ai|Ai+1) for i < k, then
        P(Ak|A1), and the backward ones P(Ai+1|Ai) for i < k, which leave
        out the target.  Spelled out for the cycle rule's two lengths, k = 3
        and k = 4.
        """
        n = self.n
        if len(seq) == 3:
            a, b, c = seq
            forward = itemgetter(b * n + a, c * n + b, a * n + c)
            return c * n + a, forward, itemgetter(a * n + b, b * n + c)
        a, b, c, d = seq
        forward = itemgetter(b * n + a, c * n + b, d * n + c, a * n + d)
        return d * n + a, forward, itemgetter(a * n + b, b * n + c, c * n + d)

    def syllogism(self, context):
        a, b, c = context
        n, lo, hi = self.n, self.lo, self.hi
        ab, ba, bc, cb = a * n + b, b * n + a, b * n + c, c * n + b  # edge x -> y holds P(y|x)
        return a * n + c, (
            syllogism_lower(lo[ab], lo[ba], lo[bc]),
            syllogism_upper(lo[ab], hi[ab], lo[ba], hi[bc], lo[cb]),
        )


class _Intervals(_Store):
    """Numeric mode: an edge attains both ends of its interval.

    A move of at most `_EPS` is no change.  A candidate is a (lo, hi) pair,
    inverted by at most rounding (lo <= hi + 1e-12).
    """

    cycle_phase = "bayes"
    show = str
    show_candidate = "[{0[0]:.6f}, {0[1]:.6f}]".format

    def flagged(self, pair: tuple[str, str]) -> Flagged:
        ival = self.kb.interval(*pair)
        return ival.lo, True, ival.hi, True

    def value(self, e: int) -> ProbInterval:
        return ProbInterval(self.lo[e], self.hi[e])

    def narrow(self, e: int, candidate):
        old_lo, old_hi = self.lo[e], self.hi[e]
        lo = candidate[0] if candidate[0] > old_lo else old_lo  # the meet, without max and min
        hi = candidate[1] if candidate[1] < old_hi else old_hi
        if lo > hi + TOL:
            return None
        hi = hi if hi > lo else lo
        if lo - old_lo <= _EPS and old_hi - hi <= _EPS:
            return _SAME
        return ProbInterval(lo, hi)

    @staticmethod
    def statement(new: ProbInterval) -> tuple[ProbInterval, None]:
        return new, None

    def cycle(self, context):
        target, forward, backward = self.premises(context)
        lo, hi = self.lo, self.hi
        return target, bayes_cycle(forward(lo), forward(hi), backward(lo), backward(hi))


class _Labels(_Store):
    """Qualitative mode: an edge holds the flagged hull of its label range.

    A candidate is a flagged hull, which `narrow` approximates once; an
    edge's label range is the approximation of its hull, which inverts
    `flagged_semantics` exactly.  The lattice of ranges is finite, so
    equality ends it.
    """

    cycle_phase = "gbt"

    def __init__(self, kb: KnowledgeBase):
        p = self.partition = kb.partition
        self.show = p.name_of
        self.approximate = p._approximate
        super().__init__(kb)

    def flagged(self, pair: tuple[str, str]) -> Flagged:
        return self.partition.flagged_semantics(self.kb.qual(*pair))

    def value(self, e: int) -> QRange:
        return self.approximate(self.lo[e], self.lo_att[e], self.hi[e], self.hi_att[e])

    def show_candidate(self, candidate: Flagged) -> str:
        return self.show(self.approximate(*candidate))

    def narrow(self, e: int, candidate: Flagged):
        old, proposed = self.value(e), self.approximate(*candidate)
        new = qualalg.meet(old, proposed)
        if new is None:  # no common label: consistent only on a threshold where both touch
            return _SAME if self.partition.touch(old, proposed) else None
        return _SAME if new == old else new

    def statement(self, new: QRange) -> tuple[ProbInterval, QRange]:
        return self.partition.semantics(new), new

    def syllogism(self, context):
        target, (lo, hi) = super().syllogism(context)
        return target, (lo, True, hi if hi > lo else lo, True)  # closed over a rounding inversion

    def cycle(self, context):
        target, *getters = self.premises(context)
        lists = self.lo, self.lo_att, self.hi, self.hi_att
        forward, backward = (list(zip(*map(getter, lists))) for getter in getters)
        return target, gbt_qualitative(forward, backward)


def _domain(kb: KnowledgeBase):
    """The mode's domain: how its edges are stored, read, shown, narrowed and written."""
    return _Labels(kb) if kb.mode == "qualitative" else _Intervals(kb)


def saturate(kb: KnowledgeBase) -> tuple[KnowledgeBase, list[TraceStep]]:
    """Run the syllogism and the cycle rule to a fixpoint; returns a copy and its trace.

    Two first-in first-out queues hold the contexts still to apply: node
    triples for the syllogism and cycle rotations for the cycle rule, both
    as tuples of class numbers.  They start with every context that can
    narrow (see the module docstring) and the syllogism queue drains before
    each rotation, so the syllogism phase runs first and again after every
    rotation that narrows an edge.  When an edge narrows, the contexts that
    read it are queued again, each at most once at a time, in the order
    `_Graph` lists them (rotations only once one has been taken or the edge
    has turned positive); saturation ends when both queues are empty.  A
    narrowed value reaches its edge through `_constrain`, so a stated range
    that it leaves no label of is a clash, as at ingestion, and the store
    loads the edge back from `kb.edges`.
    """
    out = kb.copy()
    trace: list[TraceStep] = []
    domain = _domain(out)
    graph = _Graph(domain)
    names = domain.names
    syllogisms, rotations = _Queue(graph.triples()), _Queue(graph.rotations())
    rotated = False  # until a rotation is taken, every one that can narrow is queued
    while syllogisms or rotations:
        if syllogisms:
            phase, context = "syllogism", syllogisms.take()
            target, candidate = domain.syllogism(context)
        else:
            phase, context = domain.cycle_phase, rotations.take()
            target, candidate = domain.cycle(context)
            rotated = True
        new = domain.narrow(target, candidate)
        if new is _SAME:
            continue
        shown = tuple(names[x] for x in context)
        pair = domain.pair(target)
        old = domain.show(domain.value(target))
        if new is None:
            raise ContradictionError(
                f"{phase} ({', '.join(shown)}) empties edge {pair[0]} -> {pair[1]}: "
                f"{old} meets {domain.show_candidate(candidate)}",
                trace[-20:],
            )
        try:
            _constrain(out, *pair, *domain.statement(new))
        except ContradictionError as exc:  # the interval left no label of a stated range
            raise ContradictionError(f"{phase} ({', '.join(shown)}): {exc}", trace[-20:]) from None
        domain.load(target)
        trace.append(TraceStep(phase, shown, pair, old, domain.show(new)))
        edge = divmod(target, domain.n)
        turned_positive = graph.add(*edge)
        syllogisms.extend(graph.triples(edge))
        if rotated or turned_positive:
            rotations.extend(graph.rotations(edge))
    return out, trace


class _Graph:
    """The edges that decide which contexts can narrow, updated as edges narrow.

    `near[b]` holds the classes with an informative edge to or from class b,
    and `succ[x]` and `pred[y]` the edges x -> y with a positive lower bound,
    all by class number.  An edge only narrows, so it never leaves them.
    They are dicts, so they iterate in insertion order, which follows the
    class numbers.
    """

    def __init__(self, domain: _Store):
        self.domain = domain
        n = domain.n
        self.near: list[dict] = [{} for _ in range(n)]
        self.succ: list[dict] = [{} for _ in range(n)]
        self.pred: list[dict] = [{} for _ in range(n)]
        for e in domain.stated:
            self.add(*divmod(e, n))

    def add(self, u: int, v: int) -> bool:
        """Enter the edge u -> v; returns whether it has just turned positive."""
        e = u * self.domain.n + v
        if self.domain.informative(e):
            self.near[u][v] = self.near[v][u] = True
        if v in self.succ[u] or not self.domain.positive(e):
            return False
        self.succ[u][v] = self.pred[v][u] = True
        return True

    def triples(self, pair: tuple[int, int] | None = None) -> list[tuple[int, int, int]]:
        """Syllogisms (a, b, c) with a and c near b; if `pair` is given, those that read it."""
        if pair is None:
            return [(a, b, c) for b, ab in enumerate(self.near) for a in ab for c in ab if a != c]
        return [
            triple
            for b, other in (pair, pair[::-1]) for x in self.near[b] if x != other
            for triple in ((other, b, x), (x, b, other))
        ]

    def rotations(self, pair: tuple[int, int] | None = None) -> list[tuple[int, ...]]:
        """Rotations of 3 and 4 classes that run along a positive path forward or backward.

        If `pair` is given, only those that read it.  A rotation reads both
        directions of every edge of its cycle except its target, so these
        are the ones whose cycle has the edge, less those whose target it
        is.  A path whose cycle has the edge (x, y) either steps from x to
        y, with the other classes after y, before x, or one on each side, or
        runs from x to y.  Each path is grown from its start, or from its
        step, one class at a time along `succ` and `pred`; no class is its
        own successor.
        """
        succ, pred = self.succ, self.pred
        paths = []
        if pair is None:
            for x, after in enumerate(succ):
                three = [(x, w, z) for w in after for z in succ[w] if z != x]
                paths += three
                paths += [path + (z,) for path in three for z in succ[path[2]] if z not in path]
        else:
            for x, y in (pair, pair[::-1]):
                step = y in succ[x]
                after = [(x, y, w) for w in succ[y] if w != x] if step else []
                before = [(w, x, y) for w in pred[x] if w != y] if step else []
                # 3 classes: the step with one after or before it, or x to y through one
                paths += after + before
                paths += [(x, w, y) for w in succ[x] if w != y and y in succ[w]]
                # 4 classes: two after, one on each side, two before, or x to y through two
                paths += [path + (z,) for path in after for z in succ[path[2]] if z not in path]
                paths += [path + (z,) for path in before for z in succ[y] if z not in path]
                paths += [(z,) + path for path in before for z in pred[path[0]] if z not in path]
                paths += [
                    (x, w, z, y)
                    for w in succ[x] if w != y
                    for z in succ[w] if z != x and z != y and y in succ[z]
                ]
        # each path and its reverse, in order; a path whose reverse is positive
        # too is grown twice, once each way, and kept once
        seqs = {}
        for path in paths:
            seqs[path] = seqs[path[::-1]] = None
        return [seq for seq in seqs if (seq[-1], seq[0]) != pair]


class _Queue(deque):
    """Contexts waiting for their rule, first in first out, each queued at most once."""

    def __init__(self, contexts: list[tuple[int, ...]]):
        super().__init__()
        self.queued: set[tuple[int, ...]] = set()
        self.extend(contexts)

    def extend(self, contexts: list[tuple[int, ...]]) -> None:
        """Queue, in the order given, the contexts not queued yet; `contexts` repeats none."""
        fresh = [context for context in contexts if context not in self.queued]
        self.queued.update(fresh)
        super().extend(fresh)

    def take(self) -> tuple[int, ...]:
        context = self.popleft()
        self.queued.remove(context)
        return context


_table_cache: dict[tuple, dict[Key, QRange]] = {}


def gen_table_cached(p: Partition) -> dict[Key, QRange]:
    """`tables.gen_table` memoised per scale (saturation itself reads no table)."""
    key = (p.thresholds, p.labels)
    if key not in _table_cache:
        _table_cache[key] = tables.gen_table(p)
    return _table_cache[key]


def gbt_qualitative(forward: list[Flagged], backward: list[Flagged]) -> Flagged:
    """Qualitative cycle rule: products first, then one truncated quotient, on flagged hulls.

    On the premises of `bayes_cycle`, as flagged hulls, this proposes for
    P(A1|Ak) the value set
    quotient(P(Ak|A1) . P(A1|A2) .. P(Ak-1|Ak), P(A2|A1) .. P(Ak|Ak-1))
    (`qualalg.product` and `qualalg.quotient`), or the full hull when the
    denominator is identically 0, as `bayes_cycle` does.  It does not read
    P(A1|Ak) itself, and it leaves the approximation to the caller.
    """
    num = reduce(qualalg.product, forward[-1:] + forward[:-1])  # P(Ak|A1) first
    den = reduce(qualalg.product, backward)
    return _ANY if den[2] <= TOL else qualalg.quotient(num, den)


# -- querying and export -------------------------------------------------------


def query(kb: KnowledgeBase, frm: str, to: str) -> tuple[ProbInterval, QRange]:
    for name in (frm, to):
        if name not in kb.nodes:
            raise UnknownNode(name)
    return kb.interval(frm, to), kb.qual(frm, to)


def statements(kb: KnowledgeBase) -> list[str]:
    """Readable rendering of every informative edge, in name order (the store's index order)."""
    domain = _domain(kb)
    return [
        "{} -> {} : {}".format(*domain.pair(e), domain.show(domain.value(e)))
        for e in domain.stated if domain.informative(e)
    ]


def derived_statements(
    kb_before: KnowledgeBase, kb_after: KnowledgeBase
) -> dict[tuple[str, str], QRange]:
    """Edges that were vacuous at ingestion and are informative after, in name order."""
    full = kb_before.partition.full_range()
    domain = _domain(kb_after)
    pairs = [domain.pair(e) for e in domain.stated if domain.informative(e)]
    return {pair: kb_after.qual(*pair) for pair in pairs if kb_before.qual(*pair) == full}


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

