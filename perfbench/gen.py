"""Seeded generator of consistent knowledge bases.

Each KB comes from a finite population whose class memberships are
correlated through a latent position on a line: class i holds the
individuals near its own centre, plus a little noise, so neighbouring
classes overlap and distant ones barely do.  Every class is non-empty.
Each statement's interval (numeric mode) or label range (qualitative
mode) contains the population's true conditional, so the KB is
consistent and the population is a witness of it.  The program under
test receives only the KB text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SCALES = {
    5: ((0.3, 0.7), ("none", "few", "half", "most", "all")),
    7: ((0.2, 0.4, 0.6, 0.8),
        ("none", "al-none", "few", "half", "most", "al-all", "all")),
    9: ((0.1, 0.2, 0.4, 0.6, 0.8, 0.9),
        ("none", "al-none", "v-few", "few", "half", "most", "v-many", "al-all", "all")),
}


@dataclass(frozen=True)
class Case:
    """One KB: its text, and what the checks know about it."""

    text: str
    mode: str
    names: tuple[str, ...]
    truth: dict  # (frm, to) -> population value of P(to|frm)
    statements: tuple  # (frm, to, lo, hi) by class index: each statement's numeric hull


def label_hull(thresholds, low: int, high: int) -> tuple[float, float]:
    """Closed hull of the label run low..high: {0}, (0, t1], [t1, t2], .., [tn, 1), {1}."""
    bounds = (0.0, *thresholds, 1.0)
    top = len(thresholds) + 2
    lo = 0.0 if low == 0 else 1.0 if low == top else bounds[low - 1]
    hi = 0.0 if high == 0 else 1.0 if high == top else bounds[high]
    return lo, hi


def label_range(thresholds, lo: float, hi: float) -> tuple[int, int]:
    """Narrowest label run whose value set contains [lo, hi], 0 <= lo <= hi <= 1."""
    top = len(thresholds) + 2
    if lo in (0.0, 1.0):
        low = 0 if lo == 0.0 else top
    else:
        low = max(i for i in range(1, top) if label_hull(thresholds, i, i)[0] <= lo)
    if hi in (0.0, 1.0):
        high = 0 if hi == 0.0 else top
    else:
        high = min(i for i in range(1, top) if label_hull(thresholds, i, i)[1] >= hi)
    return low, high


def population(rng: random.Random, n: int, size: int, noise: float) -> list[int]:
    """Class memberships as bit masks over `size` individuals."""
    pos = [rng.random() for _ in range(size)]
    masks = []
    for i in range(n):
        centre = (i + 0.5) / n
        half_width = rng.uniform(0.8, 1.6) / n
        bits = 0
        for x, u in enumerate(pos):
            if (abs(u - centre) < half_width) != (rng.random() < noise):
                bits |= 1 << x
        masks.append(bits or 1 << rng.randrange(size))
    return masks


def make_case(
    rng: random.Random, n: int, pairs, mode: str, scale: int,
    size: int = 400, noise: float = 0.03,
) -> Case:
    """KB over n classes constraining P(b|a) for each index pair (a, b) in `pairs`."""
    names = tuple(f"c{i:02d}" for i in range(n))
    masks = population(rng, n, size, noise)
    truth = {
        (names[a], names[b]): (masks[a] & masks[b]).bit_count() / masks[a].bit_count()
        for a in range(n) for b in range(n) if a != b
    }
    thresholds, labels = SCALES[scale]
    lines = [f"@partition {' '.join(map(repr, thresholds))}", f"@labels {' '.join(labels)}"]
    statements = []
    for a, b in pairs:
        p = truth[(names[a], names[b])]
        lo = max(0.0, p - rng.uniform(0.01, 0.12))
        hi = min(1.0, p + rng.uniform(0.01, 0.12))
        if mode == "numeric":
            lines.append(f"n {names[a]} {names[b]} {lo!r} {hi!r}")
        else:
            low, high = label_range(thresholds, lo, hi)
            lines.append(f"q {names[a]} {names[b]} {labels[low]} {labels[high]}")
            lo, hi = label_hull(thresholds, low, high)
        statements.append((a, b, lo, hi))
    return Case("\n".join(lines) + "\n", mode, names, truth, tuple(statements))


def chords(n: int) -> list[tuple[int, int]]:
    """Every chord (a, b), a + 2 <= b, of the chain c0..c(n-1)."""
    return [(a, b) for a in range(n - 2) for b in range(a + 2, n)]


def chain_pairs(n: int, chord: tuple[int, int]) -> list[tuple[int, int]]:
    """Both directions along the chain c0..c(n-1), plus the chord each way: 2n pairs."""
    a, b = chord
    pairs = [(i, i + 1) for i in range(n - 1)] + [(i + 1, i) for i in range(n - 1)]
    return pairs + [(a, b), (b, a)]


def random_pairs(rng: random.Random, n: int, count: int) -> list[tuple[int, int]]:
    """`count` distinct ordered pairs that together touch every class."""
    every = [(a, b) for a in range(n) for b in range(n) if a != b]
    while True:
        pairs = rng.sample(every, count)
        if len({c for pair in pairs for c in pair}) == n:
            return pairs
