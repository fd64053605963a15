"""The CLI reproduces the golden runs of tests/golden_cli.json byte for byte."""

import json

import golden_cli


def test_cli_output_matches_golden_runs():
    assert golden_cli.main([]) == 0  # prints each run that differs


def test_summary_line_names_a_choice_list_mismatch(monkeypatch, tmp_path, capsys):
    """A choice list that changed fails the comparison, and the last line
    says so even when every run matches."""
    choices = golden_cli.choice_lists()
    runs = [{"argv": ["formula", "c-of-d", "--d", "1"], "code": 0, "stdout": "1\n"}]
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"choices": choices, "runs": runs}), encoding="utf-8")
    now = dict(choices, **{"oracle preset": choices["oracle preset"][1:]})
    monkeypatch.setattr(golden_cli, "GOLDEN", golden)
    monkeypatch.setattr(golden_cli, "record_all", lambda: {"choices": now, "runs": runs})
    assert golden_cli.main([]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "1 golden runs, 1 now, 0 differ; choice lists differ"
