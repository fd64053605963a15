"""The CLI reproduces the golden runs of tests/golden_cli.json byte for byte."""

import golden_cli


def test_cli_output_matches_golden_runs():
    assert golden_cli.main([]) == 0  # prints each run that differs
