"""Smoke test: every script under ``examples/`` runs and exits cleanly.

Each script runs in its own interpreter, the way a user would start it
(the scripts put ``src/`` on ``sys.path`` themselves).
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

CAMPAIGN = ("iscas89_campaign.py", "--circuits", "s27,s208", "--max-faults", "10")


def _run(script: str, *args: str) -> str:
    """Run one example script; assert exit 0 and return its stdout."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize(
    "script",
    ["algebra_tables.py", "custom_circuit_atpg.py", "packed_grading.py", "quickstart.py"],
)
def test_example_runs(script):
    assert _run(script).strip()


def _rows(output: str):
    """The per-circuit progress lines, wall time dropped."""
    return [
        re.sub(r" time=\S+", "", line)
        for line in output.splitlines()
        if re.match(r"\[s\d+\] tested=", line)
    ]


def test_iscas89_campaign_rows_match_across_jobs():
    serial = _rows(_run(*CAMPAIGN, "--jobs", "1"))
    sharded = _rows(_run(*CAMPAIGN, "--jobs", "2"))
    assert len(serial) == 2
    assert sharded == serial
