"""Qualitative algebra over a linguistic scale of proportion quantifiers.

A scale partitions [0, 1] into labelled intervals: {0} carries the first
label, (0, t1] the second, then [t1, t2], ..., [tn, 1) and finally {1}.
The two extreme labels are the only ones whose meaning is a single point.
Qualitative values are contiguous runs of labels (a QRange); their numeric
meaning is the convex hull of the member intervals.

Arithmetic on qualitative values (product, bounded quotient) is computed
numerically on the hulls and re-approximated into the coarsest-grained
covering run.  Endpoint attainability matters here: the hull of (0, t1]
starts at 0, but 0 itself is not a value of that label, so a product such
as few * few must come out as few, not [none, few].  `product` and
`quotient` track exactly this, on flagged hulls (lo, lo attained, hi, hi
attained), and `intersection` meets two of them; `qmul` and `qdiv`
approximate what they return, and a chain of them can be approximated once
at its end.  `Partition` is the one table of these meanings: the rest of
the package asks it, and does no threshold arithmetic of its own.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from typing import Iterator, Sequence

TOL = 1e-9


class PartitionError(ValueError):
    """Base class for scale construction failures."""


class NonIncreasingThresholds(PartitionError):
    pass


class ThresholdOutOfRange(PartitionError):
    pass


class AsymmetricThresholds(PartitionError):
    pass


class DuplicateLabels(PartitionError):
    pass


class WrongLabelCount(PartitionError):
    pass


class ContradictionError(ValueError):
    """Statements or derived bounds that no distribution satisfies.

    `chain` holds the last trace steps of the saturation that found it.
    """

    def __init__(self, message: str, chain: list | None = None):
        super().__init__(message)
        self.chain = chain or []


class UnknownNode(KeyError):
    def __str__(self) -> str:
        return f"unknown node {self.args[0]!r}"


class Value:
    """Base of the value types, whose `__slots__` name their fields.

    Two values are equal, and hash alike, when their types and fields are;
    they show as `Name(field=value, ...)`.  Nothing assigns a field after
    `__init__`.  Plain classes, not dataclasses: importing `dataclasses`
    takes 10-14 ms and building a frozen dataclass about 1 ms more, in
    every process (2-vCPU host).
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = operator.attrgetter(*cls.__slots__)  # _key(value): its fields, in order

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({shown})"


class ProbInterval(Value):
    """Closed subinterval of [0, 1]."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        if not (-TOL <= lo <= hi + TOL and hi <= 1 + TOL):
            raise ValueError(f"invalid probability interval [{lo}, {hi}]")
        lo = min(max(0.0, lo), 1.0)  # max returns its first argument on a tie: 0.0, not -0.0
        self.lo = lo
        self.hi = min(max(lo, hi), 1.0)

    def flagged(self) -> Flagged:
        return self.lo, True, self.hi, True

    def __str__(self) -> str:
        return f"[{self.lo:.3f}, {self.hi:.3f}]"


FULL = ProbInterval(0.0, 1.0)


class QRange(Value):
    """Contiguous run of elementary labels, low..high inclusive (indices)."""

    __slots__ = ("low", "high")

    def __init__(self, low: int, high: int) -> None:
        if low > high:
            raise ValueError(f"QRange low {low} above high {high}")
        self.low = low
        self.high = high

    @property
    def is_elementary(self) -> bool:
        return self.low == self.high

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.low, self.high + 1))


class Partition:
    """Symmetric linguistic scale over [0, 1].

    thresholds: strictly increasing reals in (0, 1), closed under t -> 1 - t.
    labels: one name per elementary interval, count = len(thresholds) + 3.
    """

    def __init__(self, thresholds: Sequence[float], labels: Sequence[str]):
        thresholds = tuple(float(t) for t in thresholds)
        labels = tuple(labels)
        for t in thresholds:
            if not (TOL < t < 1 - TOL):
                raise ThresholdOutOfRange(f"threshold {t} outside open (0, 1)")
        for a, b in zip(thresholds, thresholds[1:]):
            if b <= a + TOL:
                raise NonIncreasingThresholds(f"thresholds not increasing at {a}, {b}")
        for t in thresholds:
            if not any(abs((1.0 - t) - s) <= 1e-6 for s in thresholds):
                raise AsymmetricThresholds(f"threshold {t} has no mirror 1-{t}")
        if len(set(labels)) != len(labels):
            raise DuplicateLabels(f"labels not unique: {labels}")
        if len(labels) != len(thresholds) + 3:
            raise WrongLabelCount(
                f"need {len(thresholds) + 3} labels for {len(thresholds)} thresholds, got {len(labels)}"
            )
        self.thresholds = thresholds
        self.labels = labels
        self.n_labels = len(labels)
        self.first_interior = 1
        self.last_interior = self.n_labels - 2
        self.top = self.n_labels - 1  # index of the {1} label
        # _lo[i], _hi[i]: the ends of label i's hull, points for the two extreme labels
        ends = (0.0,) + thresholds + (1.0,)
        self._lo = (0.0,) + ends[:-1] + (1.0,)
        self._hi = (0.0,) + ends[1:] + (1.0,)
        self._index = {name: i for i, name in enumerate(labels)}

    # -- label bookkeeping ------------------------------------------------

    def label_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown label {name!r}: the scale has {', '.join(self.labels)}") from None

    def range_of(self, low_name: str, high_name: str | None = None) -> QRange:
        lo = self.label_index(low_name)
        hi = lo if high_name is None else self.label_index(high_name)
        if lo > hi:
            raise ValueError(f"label range [{low_name}, {high_name}]: {low_name} lies above {high_name}")
        return QRange(lo, hi)

    def name_of(self, q: QRange) -> str:
        if q.is_elementary:
            return self.labels[q.low]
        return f"[{self.labels[q.low]}, {self.labels[q.high]}]"

    def full_range(self) -> QRange:
        return QRange(0, self.top)

    def validate(self, q: QRange) -> None:
        if not (0 <= q.low <= q.high <= self.top):
            raise ValueError(f"QRange {q} outside scale with {self.n_labels} labels")

    # -- numeric semantics -------------------------------------------------

    def semantics(self, q: QRange) -> ProbInterval:
        """Convex hull of the member labels' intervals, closed at both ends."""
        self.validate(q)
        return ProbInterval(self._lo[q.low], self._hi[q.high])

    def flagged_semantics(self, q: QRange) -> Flagged:
        """(lo, lo_attained, hi, hi_attained) of the exact value set of q.

        Only the first and last interior labels leak: their hulls are closed
        at 0 resp. 1 although those points belong to the extreme labels.
        """
        self.validate(q)
        lo_att = q.low != self.first_interior
        hi_att = q.high != self.last_interior
        return self._lo[q.low], lo_att, self._hi[q.high], hi_att

    # -- approximation -----------------------------------------------------

    def approximate(self, i: ProbInterval) -> QRange:
        """Most specific QRange whose value set contains the closed interval i.

        A bound of exactly 0 (resp. 1) is attainable, so it pulls in the
        {0} (resp. {1}) label.  A bound sitting on a shared threshold is
        assigned inward, which yields the tighter hull.
        """
        return self._approximate(i.lo, True, i.hi, True)

    def _approximate(self, lo: float, lo_att: bool, hi: float, hi_att: bool) -> QRange:
        if lo <= TOL:
            low = 0 if lo_att else self.first_interior
        elif lo >= 1 - TOL:
            low = self.top if lo_att else self.last_interior
        else:
            low = 1 + bisect_right(self.thresholds, lo + TOL)
        if hi >= 1 - TOL:
            high = self.top if hi_att else self.last_interior
        elif hi <= TOL:
            high = 0 if hi_att else self.first_interior
        else:
            high = 1 + bisect_left(self.thresholds, hi - TOL)
        if low > high:
            # point on a shared threshold: both adjacent labels contain it
            low = high
        return QRange(low, high)

    def restrict(self, q: QRange, f: Flagged) -> QRange:
        """The labels of q that the value set f meets; f lies in q's value set.

        `_approximate` puts a point on the threshold just below q in the label
        below, although q's lowest label holds it too; then that label is the
        answer.
        """
        return meet(q, self._approximate(*f)) or QRange(q.low, q.low)

    # -- orderings and lattice ops ------------------------------------------

    def antonym(self, q: QRange) -> QRange:
        """Mirror of q under x -> 1 - x; well defined by threshold symmetry."""
        self.validate(q)
        return QRange(self.top - q.high, self.top - q.low)

    def specificity_level(self, q: QRange) -> int:
        self.validate(q)
        return q.high - q.low + 1

    # -- qualitative arithmetic ---------------------------------------------

    def qmul(self, q1: QRange, q2: QRange) -> QRange:
        """Product of qualitative proportions, re-approximated into the scale."""
        return self._approximate(*product(self.flagged_semantics(q1), self.flagged_semantics(q2)))

    def qdiv(self, q1: QRange, q2: QRange) -> QRange:
        """Quotient truncated to 1, re-approximated into the scale."""
        return self._approximate(*quotient(self.flagged_semantics(q1), self.flagged_semantics(q2)))


# -- arithmetic on flagged hulls (lo, lo attained, hi, hi attained) ----------

Flagged = tuple[float, bool, float, bool]
_ANY: Flagged = (0.0, True, 1.0, True)


def product(f1: Flagged, f2: Flagged) -> Flagged:
    """Value set of x * y; an end is attained when both factors attain theirs, or one attains 0."""
    a1, a1_att, b1, b1_att = f1
    a2, a2_att, b2, b2_att = f2
    lo_att = (a1_att and a2_att) or (a1_att and a1 <= TOL) or (a2_att and a2 <= TOL)
    hi_att = (b1_att and b2_att) or (b1_att and b1 <= TOL) or (b2_att and b2 <= TOL)
    return a1 * a2, lo_att, b1 * b2, hi_att


def quotient(f1: Flagged, f2: Flagged) -> Flagged:
    """Value set of min(1, x / y).

    Division by a value set touching 0 is unbounded above and saturates
    at 1; 0/0 carries no information at all.
    """
    a1, a1_att, b1, b1_att = f1
    a2, a2_att, b2, b2_att = f2
    if b2 <= TOL:  # denominator is identically zero
        return _ANY if b1 <= TOL and a1_att else (1.0, True, 1.0, True)
    if b1 <= TOL:  # numerator identically zero
        return _ANY if a2 <= TOL and a2_att else (0.0, True, 0.0, True)  # 0/0 reachable, or 0
    # lower end: smallest numerator over largest denominator
    lo = a1 / b2
    lo_att = (a1_att and b2_att) or (a1_att and a1 <= TOL)
    if lo >= 1.0:
        lo, lo_att = 1.0, True  # every ratio is at least 1 and truncates onto 1
    # upper end
    if a2 <= TOL:
        hi, hi_att = 1.0, True  # ratios blow up, truncated
    else:
        hi, hi_att = b1 / a2, b1_att and a2_att
        if hi > 1 + TOL:
            hi, hi_att = 1.0, True  # values beyond 1 exist and truncate onto 1
    return lo, lo_att, min(hi, 1.0), hi_att


def intersection(f1: Flagged, f2: Flagged) -> Flagged | None:
    """The value set shared by two flagged hulls; None when they share none.

    An end both share is attained only if both attain it.  Ends that cross
    by at most TOL leave the point lo, and a set left within TOL of an open
    end is empty.
    """
    (a1, a1_att, b1, b1_att), (a2, a2_att, b2, b2_att) = f1, f2
    lo, lo_att = (a1, a1_att and (a1 != a2 or a2_att)) if a1 >= a2 else (a2, a2_att)
    hi, hi_att = (b1, b1_att and (b1 != b2 or b2_att)) if b1 <= b2 else (b2, b2_att)
    if lo > hi + TOL or not lo_att and hi <= lo + TOL or not hi_att and lo >= hi - TOL:
        return None
    return lo, lo_att, max(lo, hi), hi_att


# -- partition-independent QRange ops ---------------------------------------


def hull(q1: QRange, q2: QRange) -> QRange:
    return QRange(min(q1.low, q2.low), max(q1.high, q2.high))


def meet(q1: QRange, q2: QRange) -> QRange | None:
    """Intersection of runs; None marks the distinguished empty outcome."""
    lo = max(q1.low, q2.low)
    hi = min(q1.high, q2.high)
    if lo > hi:
        return None
    return QRange(lo, hi)


# -- stock scales ------------------------------------------------------------

SCALE5_LABELS = ("none", "few", "half", "most", "all")
SCALE7_LABELS = ("none", "al-none", "few", "half", "most", "al-all", "all")
SCALE9_LABELS = (
    "none", "al-none", "v-few", "few", "half", "most", "v-many", "al-all", "all",
)


def scale5(alpha: float) -> Partition:
    """none / few / about-half / most / all with few = (0, alpha]."""
    if not (0 < alpha < 0.5):
        raise ThresholdOutOfRange(f"alpha {alpha} outside (0, 0.5)")
    return Partition((alpha, 1.0 - alpha), SCALE5_LABELS)


def scale7() -> Partition:
    return Partition((0.2, 0.4, 0.6, 0.8), SCALE7_LABELS)


def scale9() -> Partition:
    return Partition((0.1, 0.2, 0.4, 0.6, 0.8, 0.9), SCALE9_LABELS)


# -- config parsing -----------------------------------------------------------


class ConfigError(ValueError):
    """A malformed input line; `line_no` is None when the fault is a missing line."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


def strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def parse_partition_config(text: str) -> Partition:
    """Parse `@partition t1 .. tn` / `@labels name0 .. nameN` lines.

    Each directive appears once, and no other line starts with `@`.  A scale
    the lines do not make is a ConfigError naming the line at fault: the
    `@labels` line for its names and their count, else `@partition`.
    """
    thresholds: list[float] | None = None
    labels: list[str] | None = None
    line_of: dict[str, int] = {}  # directive -> its line number
    for no, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if not line.startswith("@"):
            continue
        directive, *fields = line.split()
        if directive not in ("@partition", "@labels"):
            raise ConfigError(f"unknown directive {directive!r}", no)
        if directive in line_of:
            raise ConfigError(f"second {directive} line", no)
        line_of[directive] = no
        if directive == "@labels":
            labels = fields
            continue
        try:
            thresholds = [float(f) for f in fields]
        except ValueError as exc:
            raise ConfigError(f"bad threshold: {exc}", no) from None
    if thresholds is None:
        raise ConfigError("missing @partition line")
    if labels is None:
        raise ConfigError("missing @labels line")
    try:
        return Partition(thresholds, labels)
    except (DuplicateLabels, WrongLabelCount) as exc:
        raise ConfigError(f"invalid partition: {exc}", line_of["@labels"]) from exc
    except PartitionError as exc:
        raise ConfigError(f"invalid partition: {exc}", line_of["@partition"]) from exc
