"""Knowledge base of quantified statements and the saturation engine.

Statements constrain P(to|from) for ordered node pairs, either numerically
or with a qualitative range over the KB's scale.  Saturation applies the
syllogism pattern to node triples and the cycle form of Bayes' theorem,
over cycles of every length, to ordered node pairs until no edge narrows.
One engine serves both modes; `_domain` picks the mode's domain.  The rules
only propose: each reads the edges of its context, never its target, and
returns a candidate for the target.  The domain's `narrow` alone meets the
candidate into the edge, and an empty meet raises `ContradictionError`.
`_constrain` alone writes an edge of `kb.edges`: a narrowed value, an
interval or a label range, reaches it as the value of a stated line does,
and is met in the same way.  Every meet is `qualalg.intersection`, of the
value sets of two flagged hulls, and an empty meet is the one clash.  In
`_constrain` one value set is the edge's, the flagged hull that its last
meet left, which the `Edge` keeps; the other is the statement's, an
interval or a label range's values.  A self edge stores nothing: it holds
P(a|a) = 1, so a statement on one is a clash when it excludes 1, as
`al-all` does.  A label range keeps the labels that the meet leaves
(`Partition.restrict`), in a statement and in `narrow` alike.  Numeric
mode stops where a bound moves by at most 1e-9, so floating point
terminates.  Qualitative mode approximates a meet once, when it moved the
hull, and its lattice of ranges is finite.  Two label ranges with no common
label that share a value, a threshold, are no clash: a statement keeps the
upper range, and `narrow` the current range's label at that threshold.

Saturation is index-addressed.  `saturate` numbers the KB's nodes once, in
sorted order, and works on those numbers.  In both modes the store keeps
each edge u -> v as a flagged hull (lo, lo attained, hi, hi attained) at
index u*n+v of four flat lists: a numeric edge attains both ends of its
interval, and a label range carries the flags of
`Partition.flagged_semantics`, which its approximation inverts exactly.  So
a rule application reads list items and, in qualitative mode, restates no
label's meaning.  The store reads `kb.edges`, the store of record, once;
then it writes the hull that `narrow` returns.  Names come back only in
`TraceStep`s and in `ContradictionError` messages and their chains.

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
rotation of any simple cycle, which the tests keep as references.  Bounds
round a cycle that multiply to less than P(x)/P(x) = 1, or to 1 through an
open end, are a clash, which `_through` names before the closure stores it.
So every path is simple: a step narrows one end and names the cycle
A1 = y, .., Ak = x of that end's path.

The engine is a worklist (AC-3, Mackworth 1977): it queues a context only
when the premise ends that its rule reads can make the candidate
informative, and after an edge narrows it lists again only the contexts that
read what moved.  The closed forms of the syllogism (a, b, c) give a lower
end above 0 only if lo(b|a) > 0 and lo(c|b) > 0, and an upper end below 1
only if lo(a|b) > 0 and either hi(c|b) < 1 or lo(b|c) > 0.  The cycle
candidate for x -> y has an informative lower end only if lo(x|y) is
positive or open and ratio(y, x) is a nonzero bound, and an informative
upper end only if ratio(x, y) is a bound and hi(x|y) = 0 or
hi(x|y) . ratio(x, y) <= 1, where an end at 1 can still be open.  Each
filter reads only what its rule reads, and the engine lists a context again
whenever one of those moves: after u -> v narrows, the syllogisms that read
that edge, and the pair (v, u) and every pair whose ratio bound moved, both
ways.  So a context that a filter drops would propose [0, 1], and it comes
back when it can narrow, as a watched literal does (Moskewicz et al.,
"Chaff", DAC 2001).  Each worklist is an `OrderedDict` used as an ordered
set: a context is taken from the front in O(1), and one listed again while
it waits keeps its place.

Both rules are monotone narrowing operators, so the fixpoint does not
depend on the order of application (Cousot & Cousot 1977), up to the 1e-9
stop of numeric mode: a slowly converging bound stops where one step moves
it by less than 1e-9, so two orders can stop a few 1e-9 apart (2.2e-9 has
been seen).  The worklists follow the class numbers, so a run depends
neither on the string hash seed nor on the order of the statements.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
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
    hull: Flagged  # the value set `_constrain` met: (lo, lo attained, hi, hi attained)
    qual: QRange | None = None

    @property
    def interval(self) -> ProbInterval:
        return ProbInterval(self.hull[0], self.hull[2])


_VACUOUS = Edge(_ANY)  # what an unstated edge holds
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
        if mode not in ("numeric", "qualitative"):
            raise ValueError(f"unknown mode {mode!r}: numeric or qualitative")
        self.partition = partition
        self.mode = mode
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
        value = kb.partition.range_of(fields[3], fields[4] if len(fields) == 5 else None)
    elif kind == "n":
        if len(fields) != 5:
            raise ValueError(f"bad numeric statement: {line!r}")
        value = ProbInterval(float(fields[3]), float(fields[4]))
    elif kind == "?":
        if len(fields) != 3:
            raise ValueError(f"bad query: {line!r}")
        kb.queries.append((fields[1], fields[2]))
    else:
        raise ValueError(f"unknown statement kind {kind!r} in {line!r}")
    kb.add_node(fields[1])
    kb.add_node(fields[2])
    if kind != "?":
        _constrain(kb, fields[1], fields[2], value)


def _constrain(kb: KnowledgeBase, frm: str, to: str, value: ProbInterval | QRange) -> None:
    """Meet a stated interval or label range into the edge frm -> to: the one writer of an edge.

    The edge holds the value set its last meet left, `Edge.hull`, and the
    statement its own: an interval, or a label range's values
    (`flagged_semantics`).  One `qualalg.intersection` meets the two, an
    empty meet is a clash, and the edge keeps the rest.  A self edge holds
    P(a|a) = 1 and stores nothing.  Two ranges that share labels keep those
    labels, and two that share only a threshold the upper one; the range
    kept holds the labels the meet leaves (`Partition.restrict`), so an open
    end of the hull lies on an open end of the range's values.
    """
    p = kb.partition
    old = Edge(_CERTAIN.flagged()) if frm == to else kb.edges.get((frm, to), _VACUOUS)
    qual = value if isinstance(value, QRange) else None
    common = qualalg.intersection(old.hull, value.flagged() if qual is None else p.flagged_semantics(qual))
    if common is None:
        if frm == to:
            raise ContradictionError(f"self edge {frm} must be certain")
        old_shown = old.interval if old.qual is None else p.name_of(old.qual)
        new_shown = value if qual is None else p.name_of(qual)
        raise ContradictionError(f"contradiction on edge {frm} -> {to}: {old_shown} vs {new_shown}")
    if frm == to:
        return
    if qual is None:
        qual = old.qual
    elif old.qual is not None:  # of two ranges that share only a threshold, the upper one
        qual = qualalg.meet(qual, old.qual) or (qual if qual.low > old.qual.low else old.qual)
    if qual is not None:
        qual = p.restrict(qual, common)
    kb.edges[(frm, to)] = Edge(common, qual)


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
        except ValueError as exc:
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
_ROUNDING = 1.0 - 1e-12  # a ratio bound that falls by a smaller share has its path kept


class _Store:
    """The KB's classes numbered in sorted order, its edges addressed u*n+v, and its ratio bounds.

    Each edge is a flagged hull, (lo, lo attained, hi, hi attained), in four
    flat lists at its index, in both modes; self edges hold P(a|a) = 1.
    `write` puts a hull there, a stated one read once through the mode's
    `flagged` or a narrowed one; an informative edge puts each end in the
    other's `near`, a dict of classes in the order their edges were entered.
    `close` adds, at index x*n+y, a flagged upper bound on P(y)/P(x) over
    paths of every length, and `hop`, the class after x on its path; inf is
    no bound when attained, and finite but unknown when open.  `relax` keeps
    them closed, through the pivot loop `_through` that `close` runs.  The
    contexts they list pass the engine's filters: `triples` lists, from
    `near`, the syllogisms whose premise ends can narrow, and `cycle_pairs`
    keeps the pairs whose cycle candidate can.
    """

    def __init__(self, kb: KnowledgeBase):
        self.names = sorted(kb.nodes)
        n = self.n = len(self.names)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.stated = sorted(self.edge(*pair) for pair in kb.edges)  # the edges in kb.edges
        self.lo, self.hi = [0.0] * (n * n), [1.0] * (n * n)
        self.lo_att, self.hi_att = [True] * (n * n), [True] * (n * n)
        self.lo[:: n + 1] = [1.0] * n  # P(a|a) = 1
        self.near: list[dict] = [{} for _ in range(n)]
        for e in self.stated:
            self.write(e, self.flagged(kb, self.pair(e)))

    def edge(self, frm: str, to: str) -> int:
        return self.index[frm] * self.n + self.index[to]

    def pair(self, e: int) -> tuple[str, str]:
        u, v = divmod(e, self.n)
        return self.names[u], self.names[v]

    def write(self, e: int, hull: Flagged) -> None:
        self.lo[e], self.lo_att[e], self.hi[e], self.hi_att[e] = hull
        if hull != _ANY:  # an informative edge
            u, v = divmod(e, self.n)
            self.near[u][v] = self.near[v][u] = True

    def triples(self, pair: tuple[int, int] | None = None) -> list[tuple[int, int, int]]:
        """The syllogisms (a, b, c) whose premise ends can narrow; if `pair` is given, those that read it.

        The candidate's lower end can be positive only if lo(b|a) > 0 and
        lo(c|b) > 0, and its upper end below 1 only if lo(a|b) > 0 and either
        hi(c|b) < 1 or lo(b|c) > 0 (`TestStructuralVacuity`); so a and c are
        near b, and the others would propose [0, 1].
        """
        n, lo, hi = self.n, self.lo, self.hi
        if pair is None:
            around = ((a, b, c) for b, ab in enumerate(self.near) for a in ab for c in ab if a != c)
        else:
            around = ((a, b, c) for b, other in (pair, pair[::-1]) for x in self.near[b] if x != other
                      for a, c in ((other, x), (x, other)))
        return [(a, b, c) for a, b, c in around
                if lo[a * n + b] > 0.0 and lo[b * n + c] > 0.0
                or lo[b * n + a] > 0.0 and (hi[b * n + c] < 1.0 or lo[c * n + b] > 0.0)]

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
        """Bound every ratio over paths of every length; returns the pairs whose cycle candidate can narrow.

        One Floyd-Warshall pass, each pivot over the bounded entries of its
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
            self._through(k, k)
        return self.cycle_pairs((x, y) for x in range(n) for y in range(n) if x != y)

    def _through(self, x: int, y: int, d: float = 1.0, d_att: bool = True) -> list[int]:
        """Meet ratio(i, x) . d . ratio(y, j) into ratio(i, j) over the bounded entries; returns what moved.

        `close` pivots on k as x = y = k, d = 1, and skips k's own row and
        column, which that cannot move.  Only bounded entries come in, so 0
        times an inf is 0, and a product of 0 is attained.  At an equal value
        the open bound is the tighter.  Before any write, the cycle
        i -> .. -> x -> y -> .. -> i of each i is a clash if its product is
        below 1 by more than rounding, or at most 1 + TOL and open, as an open
        end is met.  A bound that falls only by rounding keeps its `hop`, so
        no path takes a cycle whose ratios multiply to 1, as c0 -> c2 -> c0
        does where P(c2|c0) = 0.7 and P(c0|c2) = 0.5 are stated, and `path`
        never loops.  What moved is in index order.
        """
        n, ratio, att, hop = self.n, self.ratio, self.ratio_att, self.hop
        pivot = x if x == y else -1
        row = [(j, ratio[e], att[e]) for j, e in enumerate(range(y * n, y * n + n))
               if (ratio[e] != inf or not att[e]) and j != pivot]
        for i, b, b_att in row:  # the cycle i -> .. -> x -> y -> .. -> i bounds P(i)/P(i) = 1
            a, a_att = ratio[i * n + x], att[i * n + x]
            v = a * d * b if a and d and b else 0.0
            if (a != inf or not a_att) and (v < _ROUNDING or v <= 1.0 + TOL and not (a_att and d_att and b_att)):
                raise self.clash(self.path(y, i) + self.path(i, x)[1:] + [y] * (x != y))
        moved = []
        for i, e in enumerate(range(x, n * n, n)) if row else ():
            a, a_att = ratio[e], att[e]
            if a == inf and a_att or i == pivot:
                continue
            first = hop[e] if i != x else y
            a, a_att, base = a * d if a and d else 0.0, a_att and d_att, i * n
            for j, b, b_att in row:
                v, e = a * b if a and b else 0.0, base + j
                if (v < ratio[e] or v == ratio[e] and v and att[e] and not (a_att and b_att)) and i != j:
                    v_att = a_att and b_att or not v
                    if v < ratio[e] * _ROUNDING or v_att != att[e]:  # else the old path is as tight
                        hop[e] = first
                    ratio[e], att[e] = v, v_att
                    moved.append(e)
        return moved

    def relax(self, u: int, v: int) -> list[tuple[int, int]]:
        """Keep the ratio bounds closed after the edge u -> v narrows; returns the pairs to try.

        Every pair is relaxed through each of the direct bounds of (u, v)
        and (v, u) that tightens.  The pairs are (v, u), which reads the
        edge, and every pair whose bound moved, both ways, each kept if its
        cycle candidate can narrow.
        """
        n, ratio, att = self.n, self.ratio, self.ratio_att
        moved = []
        for x, y in ((u, v), (v, u)):
            d, d_att = self.direct(x, y)
            e = x * n + y
            if d < ratio[e] or d == ratio[e] and att[e] and not d_att:
                moved += self._through(x, y, d, d_att)
        pairs = [(v, u)]
        for x, y in map(divmod, moved, itertools.repeat(n)):
            pairs += [(x, y), (y, x)]
        return self.cycle_pairs(dict.fromkeys(pairs))

    def cycle_pairs(self, pairs) -> list[tuple[int, int]]:
        """The pairs (x, y) of `pairs` whose cycle candidate for x -> y can narrow, in their order.

        Its lower end, lo(x|y) / ratio(y, x), is informative only if lo(x|y)
        is positive or open and ratio(y, x) is a nonzero bound.  Its upper
        end, hi(x|y) . ratio(x, y), is informative only if ratio(x, y) is a
        bound and hi(x|y) = 0 or that product is at most 1: at 1 the end can
        still be open.  Otherwise `bayes` proposes [0, 1].
        """
        n, lo, lo_att, hi, ratio, att = self.n, self.lo, self.lo_att, self.hi, self.ratio, self.ratio_att
        out = []
        for x, y in pairs:
            xy, yx = x * n + y, y * n + x
            r, s = ratio[yx], ratio[xy]
            if ((lo[yx] > 0.0 or not lo_att[yx]) and r != 0.0 and (r < inf or not att[yx])
                    or (s < inf or not att[xy]) and (hi[yx] == 0.0 or hi[yx] * s <= 1.0)):
                out.append((x, y))
        return out

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
        """The classes of the path from x to y that the ratio bound of (x, y) reads, a simple path."""
        path = [x]
        while path[-1] != y:
            path.append(self.hop[path[-1] * self.n + y])
        return path

    def clash(self, cycle: list[int]) -> ContradictionError:
        """The clash of a ratio cycle that proves P(x)/P(x) < 1: its classes, each hop's edge ends, their product."""
        n, names, hops, product = self.n, self.names, [], 1.0
        for u, w in zip(cycle, cycle[1:]):  # P(w)/P(u) <= hi(w|u) / lo(u|w)
            r, hi, lo = self.direct(u, w)[0], u * n + w, w * n + u
            product = product * r if product and r else 0.0
            hops.append(f"P({names[w]}|{names[u]}) {'<=' if self.hi_att[hi] else '<'} {self.hi[hi]!r} / "
                        f"P({names[u]}|{names[w]}) {'>=' if self.lo_att[lo] else '>'} {self.lo[lo]!r}")
        digits = next((k for k in range(6, 13) if round(product, k) < 1.0), 6)  # enough to show it below 1
        bound = f"{product:.{digits}f} < 1" if product < _ROUNDING else f"{product:.6f} through an open end"
        return ContradictionError(f"ratio cycle ({', '.join(names[c] for c in cycle)}) multiplies to {bound}: "
                                  + ", ".join(hops))

    @staticmethod
    def show_candidate(candidate: Flagged) -> str:
        """A candidate's hull at 6 decimals, an open end in a round bracket."""
        lo, lo_att, hi, hi_att = candidate
        return f"{'[' if lo_att else '('}{lo:.6f}, {hi:.6f}{']' if hi_att else ')'}"


class _Intervals(_Store):
    """Numeric mode: an edge attains both ends of its interval.

    A move of at most `_EPS` is no change.  A candidate is a flagged hull,
    inverted by at most rounding (lo <= hi + 1e-12); the meet attains its ends.
    """

    cycle_phase = "bayes"
    show = str

    def flagged(self, kb: KnowledgeBase, pair: tuple[str, str]) -> Flagged:
        lo, _, hi, _ = kb.edges[pair].hull  # the closed interval: a numeric edge attains both ends
        return lo, True, hi, True

    def value(self, e: int) -> ProbInterval:
        return ProbInterval(self.lo[e], self.hi[e])

    def narrow(self, e: int, candidate: Flagged):
        if candidate[0] - self.lo[e] <= _EPS and self.hi[e] - candidate[2] <= _EPS:
            return _SAME
        new = qualalg.intersection((self.lo[e], True, self.hi[e], True), candidate)
        return new and (new[0], True, new[2], True)


class _Labels(_Store):
    """Qualitative mode: an edge holds the flagged hull of its label range.

    `narrow` meets a candidate with the edge's hull and, if the hull moved,
    keeps the range's labels that the meet leaves (`Partition.restrict`).  A
    range is the approximation of its hull, which inverts `flagged_semantics`
    exactly.  The lattice of ranges is finite, so equality ends it.
    """

    cycle_phase = "gbt"

    def __init__(self, kb: KnowledgeBase):
        p = self.partition = kb.partition
        self.show = p.name_of
        self.approximate = p._approximate
        super().__init__(kb)

    def flagged(self, kb: KnowledgeBase, pair: tuple[str, str]) -> Flagged:
        return self.partition.flagged_semantics(kb.qual(*pair))

    def value(self, e: int) -> QRange:
        return self.approximate(self.lo[e], self.lo_att[e], self.hi[e], self.hi_att[e])

    def show_candidate(self, candidate: Flagged) -> str:
        return f"{self.show(self.approximate(*candidate))} {_Store.show_candidate(candidate)}"

    def narrow(self, e: int, candidate: Flagged):
        hull = self.lo[e], self.lo_att[e], self.hi[e], self.hi_att[e]
        common = qualalg.intersection(hull, candidate)
        if common is None or common == hull:  # a clash, or the hull did not move
            return common and _SAME
        new = self.partition.flagged_semantics(self.partition.restrict(self.value(e), common))
        return _SAME if new == hull else new


def _domain(kb: KnowledgeBase):
    """The mode's domain: how its edges are stored, read, shown, narrowed and written."""
    return _Labels(kb) if kb.mode == "qualitative" else _Intervals(kb)


def saturate(kb: KnowledgeBase) -> tuple[KnowledgeBase, list[TraceStep]]:
    """Run the syllogism and the cycle rule to a fixpoint; returns a copy and its trace.

    Two worklists, `OrderedDict`s used as ordered sets and taken from the
    front, hold the contexts still to apply: node triples for the syllogism
    and ordered pairs for the cycle rule.  They start with every context
    whose premise ends can narrow, and the syllogism worklist drains before
    each pair.  The store writes a narrowed hull and `_constrain` meets it
    into `kb.edges`, so a stated range that it leaves no label of is a
    clash, as at ingestion; the ratio bounds are relaxed through the edge,
    and the contexts that read what moved and can narrow are queued again,
    each at most once at a time.
    """
    out = kb.copy()
    trace: list[TraceStep] = []
    domain = _domain(out)
    names = domain.names
    syllogisms, pairs = OrderedDict.fromkeys(domain.triples()), OrderedDict.fromkeys(domain.close())
    while syllogisms or pairs:
        if syllogisms:
            phase, context = "syllogism", syllogisms.popitem(last=False)[0]
            target, candidate = domain.syllogism(context)
        else:
            phase, context = domain.cycle_phase, pairs.popitem(last=False)[0]
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
                pairs[context] = None
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
        domain.write(target, new)
        value = domain.value(target)
        edge = divmod(target, domain.n)
        try:
            _constrain(out, *pair, value)
            pairs.update(dict.fromkeys(domain.relax(*edge)))
        except ContradictionError as exc:  # no label of a stated range is left, or a ratio cycle clashes
            raise ContradictionError(f"{phase} ({', '.join(shown)}): {exc}", trace[-20:]) from None
        trace.append(TraceStep(phase, shown, pair, old, domain.show(value)))
        syllogisms.update(dict.fromkeys(domain.triples(edge)))
    return out, trace


def gen_table_cached(p: Partition) -> dict[Key, QRange]:
    """`tables.gen_table(p)`, looked up when called so a wrapper set after import sees it; no memo."""
    return tables.gen_table(p)


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
    """Each informative edge in name order, shown by its label range or interval as the KB's mode reads it."""
    p = kb.partition
    read, show, vacuous = ((kb.qual, p.name_of, p.full_range()) if kb.mode == "qualitative"
                           else (kb.interval, str, FULL))
    values = {pair: read(*pair) for pair in sorted(kb.edges)}
    return [f"{frm} -> {to} : {show(value)}" for (frm, to), value in values.items() if value != vacuous]


def derived_statements(
    kb_before: KnowledgeBase, kb_after: KnowledgeBase
) -> dict[tuple[str, str], QRange]:
    """Edges that were vacuous at ingestion and are informative after, in name order.

    In both modes the label range decides: "vacuous" before is the full
    range, and "informative" after is any narrower one.
    """
    full = kb_before.partition.full_range()
    ranges = {pair: kb_after.qual(*pair) for pair in sorted(kb_after.edges)}
    return {pair: q for pair, q in ranges.items() if q != full and kb_before.qual(*pair) == full}


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

