"""Knowledge base of quantified statements and the saturation engine.

Statements constrain P(to|from) for ordered node pairs, either numerically
or with a qualitative range over the KB's scale.  Saturation applies the
syllogism pattern to node triples and the cycle form of Bayes' theorem,
over cycles of every length, to ordered node pairs until no edge narrows.
One engine serves both modes; `_domain` picks the mode's domain.  The rules
only propose: each reads the edges of its context, never its target, and
returns a candidate for the target.  The domain's `narrow` alone meets the
candidate into the edge, and an empty meet raises `ContradictionError`.
`_constrain` alone writes an edge of `kb.edges`: a narrowed value reaches it
as a statement (`statement`), met in as a stated line is.  Every meet is
`qualalg.intersection`, of the value sets of two flagged hulls, and an
empty meet is the one clash.  In `_constrain` one value set is the edge's
and one the statement's: an interval, or where a label range is stated,
the part of the interval in the range's values.  A self edge stores
nothing: it holds P(a|a) = 1, so a statement on one is a clash when it
excludes 1, as `al-all` does.  A stated label range keeps the labels that
the meet leaves (`Partition.restrict`).  Numeric mode stops where a bound
moves by at most 1e-9, so floating point terminates.  Qualitative mode
approximates a meet once, in `narrow`, when it moved the hull, and its
lattice of ranges is finite.  Two label ranges with no common label that
share a value, a threshold, are no clash: a statement keeps the upper
range, and `narrow` the current one.

Saturation is index-addressed.  `saturate` numbers the KB's nodes once, in
sorted order, and works on those numbers.  In both modes the store keeps
each edge u -> v as a flagged hull (lo, lo attained, hi, hi attained) at
index u*n+v of four flat lists: a numeric edge attains both ends of its
interval, and a label range carries the flags of
`Partition.flagged_semantics`, which its approximation inverts exactly.  So
a rule application reads list items and, in qualitative mode, restates no
label's meaning.  A narrowed edge is loaded back from `kb.edges`, the store
of record.  Names come back only in `TraceStep`s and in
`ContradictionError` messages and their chains.

The cycle rule works on bounds of class-mass ratios.  By Bayes' theorem
P(y)/P(x) = P(y|x)/P(x|y) <= hi(y|x)/lo(x|y), and ratios multiply along a
path, so the tightest bound over paths of every length is a shortest path:
the minimal network of a Simple Temporal Problem (Dechter, Meiri & Pearl,
AIJ 1991), on products.  `_Store.close` computes it (Floyd-Warshall) and
`relax` keeps it closed as edges narrow, in O(n^2) a narrowing.  A bound is
attained or open, as the bounds of difference-bound matrices are strict or
not (Bengtsson & Yi 2004), so one closure serves both modes.  The candidate
for x -> y, [lo(x|y) / ratio(y, x), hi(x|y) . ratio(x, y)] clipped to
[0, 1], is never looser than `bayes_cycle` or `gbt_qualitative` on any
rotation of any simple cycle, which the tests keep as references.  A step
narrows one end and names the cycle A1 = y, .., Ak = x of that end's path.

The engine is a worklist (AC-3, Mackworth 1977): it applies a rule only to
contexts that can narrow, and after an edge narrows it queues again only
the contexts that read that edge.  A syllogism (a, b, c) needs an
informative edge between b and a and one between b and c, in either
direction, as with either pair vacuous the closed forms give the vacuous
candidate.  The cycle rule on a pair needs a ratio bound either way; after
u -> v narrows, (v, u) reads it, and every pair whose bound moved is queued
again both ways.

Both rules are monotone narrowing operators, so the fixpoint does not
depend on the order of application (Cousot & Cousot 1977), up to the 1e-9
stop of numeric mode: a slowly converging bound stops where one step moves
it by less than 1e-9, so two orders can stop a few 1e-9 apart (2.2e-9 has
been seen).  The queues follow the class numbers, so a run depends neither
on the string hash seed nor on the order of the statements.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import reduce
from math import inf
from typing import NamedTuple

from . import qualalg, tables
from .bounds import bayes_cycle, syllogism_lower, syllogism_upper  # noqa: F401  traced by perfbench
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
        edge = self.edges.get((frm, to), _VACUOUS)
        return p.approximate(edge.interval) if edge.qual is None else edge.qual

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

    The edge and the statement each hold a value set: an interval, or where a
    label range is stated, the part of it in the range's values
    (`flagged_semantics`).  One `qualalg.intersection` meets the two, and an
    empty meet is a clash.  A self edge holds P(a|a) = 1 and stores nothing.
    Two ranges that share labels keep those labels, and two that share only a
    threshold the upper one; the range kept holds the labels the meet leaves
    (`Partition.restrict`).
    """
    p = kb.partition
    old = Edge(_CERTAIN) if frm == to else kb.edges.get((frm, to), _VACUOUS)
    was = old.interval.flagged()
    if old.qual is not None:  # the edge's interval lies in its range's hull
        lo, lo_att, hi, hi_att = p.flagged_semantics(old.qual)
        was = was[0], was[0] != lo or lo_att, was[2], was[2] != hi or hi_att
    common = qualalg.intersection(was, interval.flagged() if qual is None else p.flagged_semantics(qual))
    if common is None:
        if frm == to:
            raise ContradictionError(f"self edge {frm} must be certain")
        old_shown = old.interval if old.qual is None else p.name_of(old.qual)
        new_shown = interval if qual is None else p.name_of(qual)
        raise ContradictionError(f"contradiction on edge {frm} -> {to}: {old_shown} vs {new_shown}")
    if frm == to:
        return
    if common[0] != interval.lo or common[2] != interval.hi:
        interval = ProbInterval(common[0], common[2])
    if qual is None:
        qual = old.qual
    elif old.qual is not None:  # of two ranges that share only a threshold, the upper one
        qual = qualalg.meet(qual, old.qual) or (qual if qual.low > old.qual.low else old.qual)
    if qual is not None:
        qual = p.restrict(qual, common)
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

    Saturation does not list cycles: it bounds ratios over paths of every
    length (`_Store.close`).  The tests sweep these cycles to check that no
    rotation of one can still narrow an edge.
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
    """The KB's classes numbered in sorted order, its edges addressed u*n+v, and its ratio bounds.

    Each edge is a flagged hull, (lo, lo attained, hi, hi attained), in four
    flat lists at its index, in both modes; self edges hold P(a|a) = 1.
    `load` copies an edge in from `kb.edges`, the store of record, through
    the mode's `flagged`; an informative edge puts each end in the other's
    `near`, a dict of classes in the order their edges were entered.
    `close` adds, at index x*n+y, a flagged upper bound on P(y)/P(x) over
    paths of every length, and `hop`, the class after x on its path; inf is
    no bound when attained, and finite but unknown when open.  `relax` keeps
    them closed.
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
        self.near: list[dict] = [{} for _ in range(n)]
        for e in self.stated:
            self.load(e)

    def edge(self, frm: str, to: str) -> int:
        return self.index[frm] * self.n + self.index[to]

    def pair(self, e: int) -> tuple[str, str]:
        u, v = divmod(e, self.n)
        return self.names[u], self.names[v]

    def load(self, e: int) -> None:
        self.lo[e], self.lo_att[e], self.hi[e], self.hi_att[e] = self.flagged(self.pair(e))
        if self.informative(e):
            u, v = divmod(e, self.n)
            self.near[u][v] = self.near[v][u] = True

    def informative(self, e: int) -> bool:
        return self.lo[e] != 0.0 or self.hi[e] != 1.0 or not (self.lo_att[e] and self.hi_att[e])

    def triples(self, pair: tuple[int, int] | None = None) -> list[tuple[int, int, int]]:
        """Syllogisms (a, b, c) with a and c near b; if `pair` is given, those that read it."""
        if pair is None:
            return [(a, b, c) for b, ab in enumerate(self.near) for a in ab for c in ab if a != c]
        return [
            triple
            for b, other in (pair, pair[::-1]) for x in self.near[b] if x != other
            for triple in ((other, b, x), (x, b, other))
        ]

    def syllogism(self, context):
        a, b, c = context
        n, lo, hi = self.n, self.lo, self.hi
        ab, ba, bc, cb = a * n + b, b * n + a, b * n + c, c * n + b  # edge x -> y holds P(y|x)
        return a * n + c, (
            syllogism_lower(lo[ab], lo[ba], lo[bc]), True,
            syllogism_upper(lo[ab], hi[ab], lo[ba], hi[bc], lo[cb]), True,
        )

    def direct(self, x: int, y: int) -> tuple[float, bool]:
        """hi(y|x) / lo(x|y), which bounds P(y)/P(x) = P(y|x)/P(x|y) by Bayes' theorem.

        A lower end of 0 gives inf, attained (no bound) when P(x|y) may be 0,
        and open when it is positive, unless P(y|x) is 0.
        """
        n = self.n
        den, den_att = self.lo[y * n + x], self.lo_att[y * n + x]
        num, num_att = self.hi[x * n + y], self.hi_att[x * n + y]
        if den != 0.0:
            return num / den, num_att and den_att
        return (0.0, num_att) if num == 0.0 and not den_att else (inf, den_att)

    def close(self) -> list[tuple[int, int]]:
        """Bound every ratio over paths of every length; returns the pairs bounded either way.

        One Floyd-Warshall pass, over the bounded entries of each pivot's
        column and row only, so a sparse KB costs little.
        """
        n = self.n
        self.ratio, self.ratio_att = [inf] * (n * n), [True] * (n * n)
        self.hop = list(range(n)) * n  # x's path to y steps to y itself
        self.ratio[:: n + 1] = [1.0] * n
        for e in self.stated:  # the edge v -> u holds lo(u|v), the one bound direct(u, v) needs
            v, u = divmod(e, n)
            self.ratio[u * n + v], self.ratio_att[u * n + v] = self.direct(u, v)
        for k in range(n):
            self._through(self._line(k, n * n, n), self._line(k * n, k * n + n, 1))
        pairs = {(x, y) for x in range(n) for y, *_ in self._line(x * n, x * n + n, 1) if x != y}
        return sorted(pairs | {(y, x) for x, y in pairs})

    def _line(self, start: int, stop: int, step: int) -> list[tuple[int, float, bool, int]]:
        """The bounded entries of a column or row of the ratio bounds, with their other class."""
        ratio, att, hop = self.ratio, self.ratio_att, self.hop
        return [(k, ratio[e], att[e], hop[e]) for k, e in enumerate(range(start, stop, step))
                if ratio[e] != inf or not att[e]]

    def _through(self, left, right) -> list[int]:
        """Meet ratio(i, k) . ratio(k, j) into ratio(i, j), i left and j right; returns what moved.

        Only bounded entries come in, so 0 times an inf is 0, and a product
        of 0 is attained.  At an equal value the open bound is the tighter.
        """
        n, ratio, att, hop = self.n, self.ratio, self.ratio_att, self.hop
        moved = []
        for i, a, a_att, first in left:
            base = i * n
            for j, b, b_att, _ in right:
                v, e = a * b if a and b else 0.0, base + j
                tighter = v < ratio[e] or v == ratio[e] and v and att[e] and not (a_att and b_att)
                if tighter and i != j:
                    ratio[e], att[e], hop[e] = v, a_att and b_att or not v, first
                    moved.append(e)
        return moved

    def relax(self, u: int, v: int) -> list[tuple[int, int]]:
        """Keep the ratio bounds closed after the edge u -> v narrows; returns the pairs to try.

        Every pair is relaxed through each of the direct bounds of (u, v)
        and (v, u) that tightens.  The pairs are (v, u), which reads the
        edge, and every pair whose bound moved, both ways.
        """
        n, ratio, att = self.n, self.ratio, self.ratio_att
        moved = []
        for x, y in ((u, v), (v, u)):
            d, d_att = self.direct(x, y)
            e = x * n + y
            if d < ratio[e] or d == ratio[e] and att[e] and not d_att:
                left = [(i, r * d if r and d else 0.0, r_att and d_att, h if i != x else y)
                        for i, r, r_att, h in self._line(x, n * n, n)]
                moved += self._through(left, self._line(y * n, y * n + n, 1))
        pairs = [(v, u)]
        for x, y in map(divmod, moved, itertools.repeat(n)):
            pairs += [(x, y), (y, x)]
        return list(dict.fromkeys(pairs))

    def bayes(self, pair: tuple[int, int]) -> tuple[int, Flagged]:
        """The cycle rule's candidate for the edge x -> y, from the ratio bounds either way.

        P(y|x) = P(x|y) . P(y)/P(x), so it lies in [lo(x|y) / ratio(y, x),
        hi(x|y) . ratio(x, y)], clipped to [0, 1] with the flags of
        `qualalg.quotient` and `qualalg.product`.  No bound, or a bound of 0
        below, leaves that end vacuous; an open inf below leaves an open 0
        when P(x|y) is positive.
        """
        x, y = pair
        xy, yx = x * self.n + y, y * self.n + x
        a, a_att, r, r_att = self.lo[yx], self.lo_att[yx], self.ratio[yx], self.ratio_att[yx]
        lo, lo_att = (a / r, a_att and (r_att or not a)) if r and (r < inf or not r_att) else (0.0, True)
        b, b_att, r, r_att = self.hi[yx], self.hi_att[yx], self.ratio[xy], self.ratio_att[xy]
        hi, hi_att = (b * r, r_att and (b_att or not r)) if b else (0.0, b_att)  # 0 . inf is 0
        if r == inf and r_att:
            hi, hi_att = 1.0, True
        return xy, (min(lo, 1.0), lo_att or lo >= 1.0, min(hi, 1.0), hi_att or hi > 1.0)

    def path(self, x: int, y: int) -> list[int]:
        """The classes of the path from x to y that the ratio bound of (x, y) reads."""
        path = [x]
        while path[-1] != y and len(path) <= self.n:  # in a KB that clashes it can loop
            path.append(self.hop[path[-1] * self.n + y])
        return path

    @staticmethod
    def show_candidate(candidate: Flagged) -> str:
        """A candidate's hull at 6 decimals, an open end in a round bracket."""
        lo, lo_att, hi, hi_att = candidate
        return f"{'[' if lo_att else '('}{lo:.6f}, {hi:.6f}{']' if hi_att else ')'}"


class _Intervals(_Store):
    """Numeric mode: an edge attains both ends of its interval.

    A move of at most `_EPS` is no change.  A candidate is a flagged hull
    that attains both ends, inverted by at most rounding (lo <= hi + 1e-12).
    """

    cycle_phase = "bayes"
    show = str

    def flagged(self, pair: tuple[str, str]) -> Flagged:
        return self.kb.interval(*pair).flagged()

    def value(self, e: int) -> ProbInterval:
        return ProbInterval(self.lo[e], self.hi[e])

    def narrow(self, e: int, candidate: Flagged):
        if candidate[0] - self.lo[e] <= _EPS and self.hi[e] - candidate[2] <= _EPS:
            return _SAME
        new = qualalg.intersection((self.lo[e], True, self.hi[e], True), candidate)
        return new and ProbInterval(new[0], new[2])

    @staticmethod
    def statement(new: ProbInterval) -> tuple[ProbInterval, None]:
        return new, None


class _Labels(_Store):
    """Qualitative mode: an edge holds the flagged hull of its label range.

    `narrow` meets a candidate with the edge's hull and approximates the
    meet once, when the hull moved; an edge's label range is the
    approximation of its hull, which inverts `flagged_semantics` exactly.
    The lattice of ranges is finite, so equality ends it.
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
        return f"{self.show(self.approximate(*candidate))} {_Store.show_candidate(candidate)}"

    def narrow(self, e: int, candidate: Flagged):
        hull = self.lo[e], self.lo_att[e], self.hi[e], self.hi_att[e]
        common = qualalg.intersection(hull, candidate)
        if common is None or common == hull:  # a clash, or the hull did not move
            return common and _SAME
        old = self.value(e)
        new = qualalg.meet(old, self.approximate(*common))
        return _SAME if new in (None, old) else new  # None: `common` is a threshold point old holds

    def statement(self, new: QRange) -> tuple[ProbInterval, QRange]:
        return self.partition.semantics(new), new


def _domain(kb: KnowledgeBase):
    """The mode's domain: how its edges are stored, read, shown, narrowed and written."""
    return _Labels(kb) if kb.mode == "qualitative" else _Intervals(kb)


def saturate(kb: KnowledgeBase) -> tuple[KnowledgeBase, list[TraceStep]]:
    """Run the syllogism and the cycle rule to a fixpoint; returns a copy and its trace.

    Two first-in first-out queues hold the contexts still to apply: node
    triples for the syllogism and ordered pairs for the cycle rule.  They
    start with every context that can narrow, and the syllogism queue drains
    before each pair.  A narrowed value reaches its edge through
    `_constrain`, so a stated range that it leaves no label of is a clash,
    as at ingestion; the ratio bounds are relaxed through the edge, and the
    contexts that read it are queued again, each at most once at a time.
    """
    out = kb.copy()
    trace: list[TraceStep] = []
    domain = _domain(out)
    names = domain.names
    syllogisms, pairs = _Queue(domain.triples()), _Queue(domain.close())
    while syllogisms or pairs:
        if syllogisms:
            phase, context = "syllogism", syllogisms.take()
            target, candidate = domain.syllogism(context)
        else:
            phase, context = domain.cycle_phase, pairs.take()
            target, candidate = domain.bayes(context)
        new = domain.narrow(target, candidate)
        if new is _SAME:
            continue
        if phase != "syllogism":  # one end at a time, so that one cycle explains each step
            x, y = context
            lower = candidate[:2] + (1.0, True)
            narrowed = domain.narrow(target, lower)
            if narrowed is _SAME:  # the upper end, from the path x -> .. -> y
                context = domain.path(x, y)[::-1]
            else:  # the lower end, from the path y -> .. -> x; the upper one waits its turn
                pairs.extend([context])
                context, candidate, new = domain.path(y, x), lower, narrowed
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
        syllogisms.extend(domain.triples(edge))
        pairs.extend(domain.relax(*edge))
    return out, trace


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
    denominator is identically 0, as `bayes_cycle` does.  It reads no
    P(A1|Ak) and does not approximate; the tests hold `_Store.bayes` to it.
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

