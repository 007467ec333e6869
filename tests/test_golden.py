"""Byte-for-byte outputs of `propagate`, `tables`, `check` and `robustness`.

`tests/golden/propagate/<kb>-<mode>/` holds what `propagate` prints
(`stdout.txt`) and the files it writes on a sample KB;
`tests/golden/tables/<scale>/` holds the `table.md` that `tables` writes on
a sample scale; `tests/golden/check/<run>/` and
`tests/golden/robustness/<run>/` hold the one JSON report, `report.json`,
that each of those writes.  `tests/golden/saturate/<kb>.txt` holds numeric
saturation at full precision: the trace length, then `float.hex` of both
bounds of every ordered pair of classes.  `tests/golden/saturate/<kb>-qualitative.txt`
holds qualitative saturation: the trace length, every trace step, then the
label range of every ordered pair.  A change meant to keep every output
keeps these files as they are; a change to the order of arithmetic that
alters a bound there explains its diff.  A change meant to alter an output
regenerates them, from the repository root, with

    PYTHONPATH=src python tests/test_golden.py

and explains each difference.
"""

import contextlib
import functools
import io
import itertools
import shutil
import tempfile
from pathlib import Path

import pytest

from linquant.cli import main
from linquant.network import parse_kb, saturate

from conftest import chain_kb, random_numeric_kbs, random_qualitative_kbs

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SAMPLES = ROOT / "samples"
RUNS = {
    f"propagate/{kb}-{mode}": ["propagate", str(SAMPLES / f"{kb}.kb"), "--mode", mode]
    for kb in ("students7", "students9", "students_numeric")
    for mode in ("numeric", "qualitative")
}
RUNS.update({f"tables/{cfg}": ["tables", str(SAMPLES / f"{cfg}.cfg")] for cfg in ("scale5", "scale7")})
RUNS.update({f"check/n200-seed{seed}": ["check", "--n", "200", "--seed", str(seed)] for seed in (0, 1)})
RUNS["robustness/default"] = ["robustness"]
RUNS["robustness/alpha-0.36-0.40"] = ["robustness", "--alpha", "0.36:0.40:0.01"]
REPORT = "report.json"  # `check` and `robustness` take `--out` as this file
SATURATED = [*(f"students{kb}" for kb in ("7", "9", "_numeric")), "chain64", *(f"random{i}" for i in range(10))]
SATURATED_QUALITATIVE = ["students7", "students9", *(f"labelled{i}" for i in range(10))]


@functools.cache
def _saturate_cases() -> dict:
    """The numeric KBs of `SATURATED`, by name."""
    cases = {
        name: parse_kb((SAMPLES / f"{name}.kb").read_text(encoding="utf-8"), "numeric")
        for name in SATURATED[:3]
    }
    cases["chain64"] = parse_kb(chain_kb(64), "numeric")
    cases.update((f"random{i}", kb) for i, kb in enumerate(random_numeric_kbs(10)))
    return cases


def _saturated(name: str) -> str:
    """The trace length and the hex bounds of every pair after numeric saturation."""
    sat, trace = saturate(_saturate_cases()[name])
    lines = [f"trace {len(trace)}"]
    for frm, to in itertools.permutations(sorted(sat.nodes), 2):
        ival = sat.interval(frm, to)
        lines.append(f"{frm} {to} {ival.lo.hex()} {ival.hi.hex()}")
    return "\n".join(lines) + "\n"


@functools.cache
def _qualitative_cases() -> dict:
    """The qualitative KBs of `SATURATED_QUALITATIVE`, by name."""
    cases = {
        name: parse_kb((SAMPLES / f"{name}.kb").read_text(encoding="utf-8"), "qualitative")
        for name in SATURATED_QUALITATIVE[:2]
    }
    cases.update((f"labelled{i}", kb) for i, kb in enumerate(random_qualitative_kbs(10)))
    return cases


def _saturated_qualitative(name: str) -> str:
    """The trace length, each trace step and the label range of every pair after qualitative saturation."""
    sat, trace = saturate(_qualitative_cases()[name])
    lines = [f"trace {len(trace)}"]
    lines += [f"{s.phase} ({', '.join(s.context)}) {s.edge[0]} -> {s.edge[1]}: {s.before} to {s.after}"
              for s in trace]
    for frm, to in itertools.permutations(sorted(sat.nodes), 2):
        lines.append(f"{frm} {to} {sat.partition.name_of(sat.qual(frm, to))}")
    return "\n".join(lines) + "\n"


def _outputs(argv: list[str], out: Path) -> dict[str, str]:
    """The files one run writes, and for `propagate` what it prints, as `stdout.txt`."""
    stdout = io.StringIO()
    dest = out / REPORT if argv[0] in ("check", "robustness") else out
    with contextlib.redirect_stdout(stdout):
        assert main([*argv, "--out", str(dest)]) == 0
    if argv[0] == "tables":  # its table.csv is the same table in full, and it prints the path
        return {"table.md": (out / "table.md").read_text(encoding="utf-8")}
    files = {path.name: path.read_text(encoding="utf-8") for path in out.iterdir()}
    if argv[0] == "propagate":
        files["stdout.txt"] = stdout.getvalue()
    return files


@pytest.mark.parametrize("run", RUNS)
def test_outputs_match_golden(tmp_path, run):
    want = {path.name: path.read_text(encoding="utf-8") for path in (GOLDEN / run).iterdir()}
    got = _outputs(RUNS[run], tmp_path)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


@pytest.mark.parametrize("name", SATURATED)
def test_saturation_matches_golden(name):
    want = (GOLDEN / "saturate" / f"{name}.txt").read_text(encoding="utf-8")
    assert _saturated(name) == want


@pytest.mark.parametrize("name", SATURATED_QUALITATIVE)
def test_qualitative_saturation_matches_golden(name):
    want = (GOLDEN / "saturate" / f"{name}-qualitative.txt").read_text(encoding="utf-8")
    assert _saturated_qualitative(name) == want


def test_every_golden_is_compared():
    # a renamed run must not leave behind a golden that no test reads
    runs = {f"{kind}/{run.name}" for kind in ("propagate", "tables", "check", "robustness")
            for run in (GOLDEN / kind).iterdir()}
    assert sorted(runs - set(RUNS)) == []
    saturated = {path.name for path in (GOLDEN / "saturate").iterdir()}
    compared = {f"{name}.txt" for name in SATURATED} | {f"{name}-qualitative.txt" for name in SATURATED_QUALITATIVE}
    assert sorted(saturated - compared) == []


if __name__ == "__main__":
    for run, argv in RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            files = _outputs(argv, Path(tmp))
        shutil.rmtree(GOLDEN / run, ignore_errors=True)
        (GOLDEN / run).mkdir(parents=True)
        for name, text in files.items():
            (GOLDEN / run / name).write_text(text, encoding="utf-8")
    (GOLDEN / "saturate").mkdir(exist_ok=True)
    for name in SATURATED:
        (GOLDEN / "saturate" / f"{name}.txt").write_text(_saturated(name), encoding="utf-8")
    for name in SATURATED_QUALITATIVE:
        text = _saturated_qualitative(name)
        (GOLDEN / "saturate" / f"{name}-qualitative.txt").write_text(text, encoding="utf-8")
