"""Command-line front end."""

import json

import pytest

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


@pytest.mark.parametrize("command", ["propagate", "query"])
@pytest.mark.parametrize("eps", ["-1", "nan", "inf", "x"])
def test_bad_eps_is_a_usage_error(tmp_path, capsys, command, eps):
    kb = tmp_path / "students.kb"
    kb.write_text(STUDENTS_NUMERIC)
    nodes = ["single", "student"] if command == "query" else []
    with pytest.raises(SystemExit) as exc:
        main([command, str(kb), *nodes, "--eps", eps])
    assert exc.value.code == 2
    assert "argument --eps: must be a finite non-negative number" in capsys.readouterr().err


# the Bayes cycle c0 -> c1 -> c2 closes on an empty refinement of P(c0|c2)
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
    kb = tmp_path / "cycle.kb"
    kb.write_text(CYCLE_CLASH)
    assert main(["propagate", str(kb), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.startswith("contradiction: bayes ")


def test_query_cycle_contradiction(tmp_path, capsys):
    kb = tmp_path / "cycle.kb"
    kb.write_text(CYCLE_CLASH)
    assert main(["query", str(kb), "c0", "c2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bayes ") and len(err.splitlines()) == 1


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


def test_robustness_flags_product_flip(tmp_path):
    out = tmp_path / "rob.json"
    assert main(["robustness", "--alpha", "0.36:0.40:0.01", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert any(a >= 0.382 for a in payload["half_product_flip_alphas"])


def test_robustness_bad_range(tmp_path, capsys):
    assert main(["robustness", "--alpha", "0.4:0.1:0.01"]) == 1


def test_check_empty(tmp_path):
    out = tmp_path / "check.json"
    assert main(["check", "--n", "0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 0


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
