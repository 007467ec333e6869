"""Exact range of a conditional probability, solved apart from the program.

Atoms are the 2**k membership patterns of k classes (bit i set: inside
class i).  A statement lo <= P(to|frm) <= hi is linear once multiplied by
P(frm).  Scaling the distribution so that P(target frm) = 1 turns the
range of P(target to | target frm) into two linear programs.  This code
shares nothing with `linquant.oracle` but scipy's HiGHS solver.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog


def lp_range(k: int, statements, frm: int, to: int) -> tuple[float, float] | None:
    """Min and max of P(to|frm) over all distributions meeting `statements`.

    `statements` holds (frm, to, lo, hi) with class indices.  Returns None
    when no distribution gives `frm` positive mass.
    """
    member = (np.arange(2**k)[None, :] >> np.arange(k)[:, None]) & 1
    rows = []
    for a, b, lo, hi in statements:
        cond = member[a].astype(float)
        both = (member[a] & member[b]).astype(float)
        rows.append(lo * cond - both)  # lo P(a) - P(a & b) <= 0
        rows.append(both - hi * cond)  # P(a & b) - hi P(a) <= 0
    a_ub = np.array(rows) if rows else None
    b_ub = np.zeros(len(rows)) if rows else None
    norm = member[frm].astype(float)[None, :]
    obj = (member[frm] & member[to]).astype(float)
    ends = []
    for sign in (1.0, -1.0):
        res = linprog(sign * obj, A_ub=a_ub, b_ub=b_ub, A_eq=norm, b_eq=[1.0],
                      bounds=(0.0, None), method="highs")
        if res.status != 0:
            return None
        ends.append(sign * res.fun)
    return min(ends), max(ends)
