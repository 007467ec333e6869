"""Command-line front end."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import linquant
from linquant import adams, network, qualalg
from linquant.cli import main

from conftest import STUDENTS_KB7, STUDENTS_NUMERIC

SCALE5 = "@partition 0.3 0.7\n@labels none few half most all\n"
SCALE7 = "@partition 0.2 0.4 0.6 0.8\n@labels none al-none few half most al-all all\n"


def test_tables_five_labels(tmp_path, capsys):
    cfg = tmp_path / "scale.cfg"
    cfg.write_text(SCALE5)
    assert main(["tables", str(cfg), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "table.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 625
    assert (tmp_path / "out" / "table.md").exists()


def test_tables_seven_labels(tmp_path):
    cfg = tmp_path / "scale.cfg"
    cfg.write_text(SCALE7)
    assert main(["tables", str(cfg), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "table.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2401


def test_tables_missing_labels(tmp_path, capsys):
    cfg = tmp_path / "scale.cfg"
    cfg.write_text("@partition 0.3 0.7\n")
    assert main(["tables", str(cfg)]) == 1
    assert "labels" in capsys.readouterr().err


def test_propagate_qualitative(tmp_path, capsys):
    kb = tmp_path / "students.kb"
    kb.write_text(STUDENTS_KB7)
    out = tmp_path / "run"
    assert main(["propagate", str(kb), "--mode", "qualitative", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "student -> single : [few, all]" in text
    assert "sport -> children : [none, few]" in text
    assert (out / "saturated.csv").exists()


def test_propagate_numeric_answers_queries(tmp_path, capsys):
    kb = tmp_path / "students.kb"
    kb.write_text(STUDENTS_NUMERIC + "? children student\n")
    out = tmp_path / "run"
    assert main(["propagate", str(kb), "--out", str(out)]) == 0
    answers = json.loads((out / "answers.json").read_text())
    entry = answers["P(student|children)"]
    assert entry["lo"] == pytest.approx(0.0, abs=0.01)
    assert entry["hi"] == pytest.approx(0.099, abs=0.01)


def test_propagate_negative_zero(tmp_path, capsys):
    # "-0" parses as -0.0; no output shows the sign
    kb = tmp_path / "zero.kb"
    kb.write_text(SCALE7 + "n a b -0 0.5\n? a b\n")
    out = tmp_path / "run"
    assert main(["propagate", str(kb), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("a -> b : [0.000, 0.500]\n")
    assert (out / "saturated.csv").read_text().splitlines()[1] == 'a,"1.000,1.000","0.000,0.500"'
    assert '"lo": 0.0,' in (out / "answers.json").read_text()


def test_propagate_empty_kb(tmp_path):
    kb = tmp_path / "empty.kb"
    kb.write_text(SCALE7)
    assert main(["propagate", str(kb), "--out", str(tmp_path / "run")]) == 0


def test_propagate_contradiction_exit_code(tmp_path, capsys):
    kb = tmp_path / "bad.kb"
    kb.write_text(
        SCALE7
        + "n a b 1 1\nn b a 1 1\nn b c 1 1\nn c b 1 1\nn a c 0 0.2\n"
    )
    assert main(["propagate", str(kb)]) == 1
    assert "contradiction" in capsys.readouterr().err


def test_propagate_contradictory_statements(tmp_path, capsys):
    kb = tmp_path / "bad.kb"
    kb.write_text(SCALE7 + "n a b 0 0.2\nn a b 0.5 1\n")
    assert main(["propagate", str(kb), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("contradiction: line 4: ") and len(err.splitlines()) == 1


# around the cycle c0, c3, c2, c1 the bounds on the class-mass ratios
# multiply to 0.14 < 1, so the cycle rule empties an edge of it
CYCLE_CLASH = SCALE7 + """\
n c0 c1 0.732 0.753
n c1 c0 0.283 0.309
n c1 c2 0.414 0.454
n c2 c1 0.323 0.347
n c2 c3 0.575 0.620
n c3 c2 0.504 0.518
n c3 c0 0.730 0.761
n c0 c3 0.275 0.321
"""


def test_propagate_cycle_contradiction(tmp_path, capsys):
    # the whole message, so that the chain shows each context by class names
    kb = tmp_path / "cycle.kb"
    kb.write_text(CYCLE_CLASH)
    assert main(["propagate", str(kb), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == (
        "contradiction: bayes (c1, c0) empties edge c0 -> c1: [0.732, 0.753] meets [1.000000, 1.000000]\n"
        "  syllogism ('c1', 'c0', 'c3'): ('c1', 'c3') [0.000, 1.000] -> [0.003, 0.186]\n"
        "  syllogism ('c3', 'c0', 'c1'): ('c3', 'c1') [0.000, 1.000] -> [0.019, 1.000]\n"
        "  syllogism ('c2', 'c1', 'c0'): ('c2', 'c0') [0.000, 1.000] -> [0.000, 0.354]\n"
        "  syllogism ('c3', 'c2', 'c1'): ('c3', 'c1') [0.019, 1.000] -> [0.019, 0.755]\n"
        "  syllogism ('c0', 'c3', 'c2'): ('c0', 'c2') [0.000, 1.000] -> [0.088, 0.396]\n"
        "  syllogism ('c2', 'c3', 'c0'): ('c2', 'c0') [0.000, 0.354] -> [0.267, 0.354]\n"
    )


def test_query_cycle_contradiction(tmp_path, capsys):
    kb = tmp_path / "cycle.kb"
    kb.write_text(CYCLE_CLASH)
    assert main(["query", str(kb), "c0", "c2"]) == 1
    first, *chain = capsys.readouterr().err.splitlines()
    assert first.startswith("contradiction: bayes ")
    assert chain and all(line.startswith("  ") for line in chain)


TINY_LOWER_BOUNDS = SCALE7 + """\
n a b 0.5 0.6
n b a 1e-200 0.5
n b c 0.5 0.6
n c b 1e-200 0.5
"""


@pytest.mark.parametrize("mode", ["numeric", "qualitative"])
def test_propagate_tiny_lower_bounds(tmp_path, capsys, mode):
    # lo(a|b) . lo(b|c) = 1e-400 underflows to 0 in the syllogism's upper bound
    kb = tmp_path / "tiny.kb"
    kb.write_text(TINY_LOWER_BOUNDS)
    assert main(["propagate", str(kb), "--mode", mode, "--out", str(tmp_path / "out")]) == 0
    assert "a -> b" in capsys.readouterr().out


# P(c1|c2) is positive, and P(c3|c1) >= 0.2 and P(c2|c3) >= 0.6 bound
# P(c1)/P(c2) through c3, so P(c2|c1) = P(c1|c2) . P(c2)/P(c1) is positive,
# which the stated none excludes; numeric mode finds a clash by a syllogism
CYCLE_CLASH_QUALITATIVE = SCALE7 + """\
n c2 c1 0.1 0.9
q c1 c3 few most
q c1 c2 none
q c3 c2 most all
"""


CYCLE_CLASH_MESSAGES = {
    "numeric": "syllogism (c3, c1, c2) empties edge c3 -> c2: [0.600, 1.000] meets [0.000000, 0.000000]",
    "qualitative": "gbt (c2, c3, c1) empties edge c1 -> c2: none meets [al-none, all] (0.000000, 1.000000]",
}


@pytest.mark.parametrize("mode", ["numeric", "qualitative"])
def test_propagate_cycle_contradiction_in_both_modes(tmp_path, capsys, mode):
    kb = tmp_path / "cycle.kb"
    kb.write_text(CYCLE_CLASH_QUALITATIVE)
    assert main(["propagate", str(kb), "--mode", mode, "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"contradiction: {CYCLE_CLASH_MESSAGES[mode]}\n"


def test_query_subcommand(tmp_path, capsys):
    kb = tmp_path / "students.kb"
    kb.write_text(STUDENTS_NUMERIC)
    assert main(["query", str(kb), "single", "student"]) == 0
    payload = json.loads(capsys.readouterr().out)
    entry = payload["P(student|single)"]
    assert entry["lo"] == pytest.approx(0.222, abs=0.01)
    assert entry["hi"] == pytest.approx(0.366, abs=0.01)


def test_robustness_report(tmp_path):
    out = tmp_path / "rob.json"
    assert main(["robustness", "--alpha", "0.30:0.30:0.01", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["distinct_changed_tuples"] == 0


def test_robustness_keys_every_swept_alpha(tmp_path):
    # 51 alphas 1e-5 apart, which 4 decimals would fold into 6 keys
    out = tmp_path / "rob.json"
    assert main(["robustness", "--alpha", "0.3:0.3005:0.00001", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["alpha_values"]) == 51
    assert list(payload["changes_per_alpha"]) == [f"{a:.5f}" for a in payload["alpha_values"]]


def test_robustness_flags_product_flip(tmp_path):
    out = tmp_path / "rob.json"
    assert main(["robustness", "--alpha", "0.36:0.40:0.01", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert any(a >= 0.382 for a in payload["half_product_flip_alphas"])


def test_robustness_bad_range(capsys):
    assert main(["robustness", "--alpha", "0.4:0.1:0.01"]) == 1
    assert capsys.readouterr().err == "error: alpha range must satisfy 0 < from <= to < 0.5\n"


@pytest.mark.parametrize("step", ["0", "-0.01", "nan"])
def test_robustness_bad_step(capsys, step):
    assert main(["robustness", "--alpha", f"0.25:0.35:{step}"]) == 1
    assert capsys.readouterr().err == "error: alpha step must be positive\n"


@pytest.mark.parametrize("step", ["0.0001", "0.00001", "1e-300"])
def test_robustness_too_many_alphas(capsys, step):
    # 1,001 alphas and more: refused before any table is built
    assert main(["robustness", "--alpha", f"0.25:0.35:{step}"]) == 1
    assert capsys.readouterr().err == "error: alpha step too small: more than 1000 alphas\n"


@pytest.mark.parametrize("reference, message", [
    ("0.7", "thresholds not increasing at 0.7, 0.30000000000000004"),
    ("0.5", "thresholds not increasing at 0.5, 0.5"),
    ("0", "threshold 0.0 outside open (0, 1)"),
    ("-0.1", "threshold -0.1 outside open (0, 1)"),
    ("nan", "threshold nan outside open (0, 1)"),
])
def test_robustness_reference_outside_the_open_half(capsys, reference, message):
    # the reference scale is built first, so it fails before any swept table
    assert main(["robustness", f"--reference={reference}"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("alpha", ["0.25:0.35", "0.25:x:0.01", ""])
def test_robustness_malformed_alpha_is_a_usage_error(capsys, alpha):
    with pytest.raises(SystemExit) as exc:
        main(["robustness", "--alpha", alpha])
    assert exc.value.code == 2
    assert "argument --alpha: expected from:to:step" in capsys.readouterr().err


def test_check_empty(tmp_path):
    out = tmp_path / "check.json"
    assert main(["check", "--n", "0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 0


def test_check_negative_n_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--n", "-1"])
    assert exc.value.code == 2
    assert "argument --n: expected a count >= 0" in capsys.readouterr().err


def test_check_adams_violation_exit_code(tmp_path, capsys, monkeypatch):
    # a Bayes-rule bound above its LP minimum, 0.49 at alpha 0.3, is unsound
    monkeypatch.setattr(adams, "bayes_rule_bound", lambda alpha: 0.9)
    out = tmp_path / "check.json"
    assert main(["check", "--n", "5", "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["max_soundness_violation"] == 0.0
    assert not payload["adams"]["bayes_rule"]["sound"]
    assert capsys.readouterr().err == "soundness violation detected\n"


def test_check_seeded_deterministic(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["check", "--n", "10", "--seed", "7", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_check_reports_soundness(tmp_path):
    out = tmp_path / "check.json"
    assert main(["check", "--n", "15", "--seed", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["max_soundness_violation"] == 0.0
    assert payload["max_tight_gap"] <= 0.02
    assert payload["adams"]["triangularity"]["sound"]


def test_shipped_samples(tmp_path, capsys):
    from pathlib import Path

    samples = Path(__file__).resolve().parent.parent / "samples"
    assert main(["tables", str(samples / "scale7.cfg"), "--out", str(tmp_path)]) == 0
    assert main(
        ["propagate", str(samples / "students7.kb"), "--mode", "qualitative",
         "--out", str(tmp_path)]
    ) == 0
    answers = json.loads((tmp_path / "answers.json").read_text())
    assert "P(student|single)" in answers
    assert main(
        ["propagate", str(samples / "students_numeric.kb"), "--out", str(tmp_path)]
    ) == 0
    answers = json.loads((tmp_path / "answers.json").read_text())
    assert answers["P(student|children)"]["hi"] == pytest.approx(0.099, abs=0.01)


# (command, file contents or None for no file, line the message names or None)
INPUT_ERRORS = {
    "propagate-missing": ("propagate", None, None),
    "query-missing": ("query", None, None),
    "tables-missing": ("tables", None, None),
    "propagate-directory": ("propagate", "dir", None),
    "propagate-not-utf8": ("propagate", b"@partition 0.3 0.7\n\xff\xfe\n", None),
    "propagate-decreasing": ("propagate", "@partition 0.5 0.3\n@labels none few half most all\n", 1),
    "query-decreasing": ("query", "@partition 0.5 0.3\n@labels none few half most all\n", 1),
    "propagate-empty-partition": ("propagate", "@partition\n@labels none few half most all\n", 2),
    "propagate-q-field-count": ("propagate", SCALE5 + "q a b few half most\n", 3),
    "propagate-unknown-kind": ("propagate", SCALE5 + "p a b 0.1 0.2\n", 3),
    "tables-threshold-outside": ("tables", "@labels none few half most all\n@partition -0.5 1.5\n", 2),
    "propagate-unknown-directive": ("propagate", SCALE5 + "@lables x\n", 3),
    "tables-second-partition": ("tables", SCALE5 + "@partition 0.2 0.8\n", 3),
    "propagate-n-field-count": ("propagate", SCALE5 + "n a b 0.3\n", 3),
    "propagate-query-field-count": ("propagate", SCALE5 + "? a\n", 3),
    "propagate-threshold-not-a-number": ("propagate", "@partition 0.2 x\n@labels none few half most all\n", 1),
}


@pytest.mark.parametrize("mode", ["numeric", "qualitative"])
@pytest.mark.parametrize("line, certain", [
    ("q a a al-all", False),
    ("q a a most al-all", False),
    ("q a a few", False),
    ("q a a all", True),
    ("q a a most all", True),
    ("n a a 0.5 1", True),
])
def test_self_edge_must_allow_certainty(tmp_path, capsys, mode, line, certain):
    # P(a|a) = 1, and al-all excludes 1 although its hull reaches it
    kb = tmp_path / "self.kb"
    kb.write_text(SCALE7 + line + "\n")
    status = main(["propagate", str(kb), "--mode", mode, "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    if certain:
        assert (status, err) == (0, "")
    else:
        assert (status, err) == (1, "contradiction: line 3: self edge a must be certain\n")


@pytest.mark.parametrize("case", INPUT_ERRORS)
def test_input_error_is_one_line(tmp_path, capsys, case):
    command, content, line = INPUT_ERRORS[case]
    path = tmp_path / "input"
    if content == "dir":
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    nodes = ["a", "b"] if command == "query" else []
    assert main([command, str(path), *nodes, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert "line 0" not in captured.err
    if line is not None:
        assert captured.err.startswith(f"error: line {line}: ")


NAMES = [f"c{i}" for i in range(6)]
SCALE7_LABELS = qualalg.SCALE7_LABELS
GRID = [0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0]


@st.composite
def kb_lines(draw):
    """One KB line over at most 6 classes: a valid statement, or one time in ten a broken line."""
    frm, to = draw(st.sampled_from(NAMES)), draw(st.sampled_from(NAMES))
    lo, hi = sorted(draw(st.sampled_from(GRID)) for _ in range(2))
    low, high = sorted(draw(st.integers(0, len(SCALE7_LABELS) - 1)) for _ in range(2))
    valid = [
        f"n {frm} {to} {lo} {hi}",
        f"q {frm} {to} {SCALE7_LABELS[low]} {SCALE7_LABELS[high]}",
        f"q {frm} {to} {SCALE7_LABELS[low]}",
        f"? {frm} {to}",
    ]
    broken = [
        f"n {frm} {to} {hi} {lo + 0.05}",
        f"n {frm} {to} {lo}",
        f"n {frm} {to} nan {hi}",
        f"n {frm} {to} {lo} {hi + 1}",
        f"q {frm} {to} nosuch",
        f"q {frm} {to} {SCALE7_LABELS[high]} {SCALE7_LABELS[low - 1]}",
        f"? {frm}",
        "@partition 0.6 0.4",
        "@partition",
        "@partition 0.2 x",
        "@labels none few half",
        "@labels none none few half most al-all all",
        draw(st.text(max_size=20)),
    ]
    return draw(st.sampled_from(broken if draw(st.integers(0, 9)) == 0 else valid))


@settings(max_examples=200, deadline=2000, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    lines=st.lists(kb_lines(), max_size=12),
    header=st.integers(0, 9),
    mode=st.sampled_from(["numeric", "qualitative"]),
    query=st.booleans(),
)
def test_any_kb_ends_in_a_status(lines, header, mode, query):
    """Parse and run a KB that mixes valid and broken lines; the header is missing one time in ten."""
    head = [SCALE7.rstrip()] if header else []
    text = "\n".join(head + lines) + "\n"
    try:
        network.parse_kb(text, mode)
    except (qualalg.ConfigError, network.ContradictionError):
        pass
    with tempfile.TemporaryDirectory() as tmp:
        kb = Path(tmp) / "random.kb"
        kb.write_text(text, encoding="utf-8", errors="surrogateescape")
        args = ["query", str(kb), "c0", "c1"] if query else ["propagate", str(kb)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                status = main([*args, "--mode", mode, "--out", str(Path(tmp) / "out")])
            except SystemExit as exc:
                status = exc.code
    assert status in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if status == 1:
        assert err.getvalue().startswith(("error: ", "contradiction: "))


def test_cli_import_loads_no_scipy(tmp_path):
    # Nor dataclasses, and each subcommand loads only the modules it runs:
    # `check` solves its LPs in plain Python, and only `propagate` and
    # `query` saturate a KB.
    src = str(Path(linquant.__file__).resolve().parent.parent)
    cfg = tmp_path / "scale.cfg"
    cfg.write_text(SCALE5)
    out = tmp_path / "check.json"
    never = {"scipy", "numpy", "dataclasses", "inspect"}
    runs = [
        (None, never),
        (["tables", str(cfg), "--out", str(tmp_path / "tables")], never | {"linquant.network"}),
        (["robustness", "--out", str(tmp_path / "robustness.json")], never | {"linquant.network"}),
        (["check", "--n", "2", "--out", str(out)], never | {"linquant.network", "linquant.tables"}),
    ]
    for argv, absent in runs:
        run = "" if argv is None else f"assert linquant.cli.main({argv!r}) == 0; "
        probe = f"import sys, linquant.cli; {run}print(sorted({absent!r} & set(sys.modules)))"
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.stdout.splitlines()[-1] == "[]", argv
    assert json.loads(out.read_text())["max_soundness_violation"] == 0.0
