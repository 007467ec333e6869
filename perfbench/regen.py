"""Find again the seed-independent KBs of certify-small.

    python3 perfbench/regen.py

For each (scale, classes) of `workloads.FIXED`, walks the stream
`fixed_case(scale, classes, index)`, index = 0, 1, ..., and prints the first index whose
certify operation fails its checks (when the entry wants the corner-hull
fault) or passes them (when it does not), with the problems found.  The
printed tuple is what `FIXED` holds.
"""

from __future__ import annotations

import itertools
import sys

from run import load_program, verdict
from workloads import FIXED, CertifyOp, fixed_case


def main() -> int:
    load_program()
    from linquant import network, oracle

    found = []
    for scale, k, _, fault in FIXED:
        for index in itertools.count():
            op = CertifyOp(network, oracle, fixed_case(scale, k, index), fault)
            problems = verdict(op, op.run())
            if bool(problems) == fault:
                break
        for line in problems:
            print(f"  scale {scale}, {k} classes, index {index}: {line}")
        found.append((scale, k, index, fault))
    print("FIXED = (")
    for entry in found:
        print(f"    {entry},")
    print(")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
