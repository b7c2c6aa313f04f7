"""The README's quick-start scripts run end to end as a user would run them."""

import os
import subprocess
import sys
from pathlib import Path

from vsslab.protocol import SCENARIO_NAMES

ROOT = Path(__file__).resolve().parent.parent

# scripts/transcript_digest.py over the five scenarios x seeds 0-19 at
# default params, transcript schema "4". A change that is meant to keep
# transcripts byte-identical must leave it alone; one that changes them
# on purpose records the new value here.
TRANSCRIPT_DIGEST = "b7c84613defcab2d2aba18bf9c3954703a4038de9c8b2ba6c6cf1d213ec40387"


def run_script(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name)], env=env,
                          capture_output=True, text=True, timeout=60)


def test_worked_example_runs():
    result = run_script("worked_example.py")
    assert result.returncode == 0, result.stderr
    assert "verification: True  <- passes" in result.stdout
    assert "<- corrupted" in result.stdout
    # the numbers the README walks through
    lines = result.stdout.splitlines()
    assert "forged share for party 2: P(2) + (p-1) = 21" in lines
    assert "  but 21 mod p = 10, while the honest value is 0" in lines
    assert "reconstruction from {(1, 7), (2, 10)}: 4" in lines


def test_run_all_scenarios_tabulates_every_scenario_with_a_clean_matrix():
    result = run_script("run_all_scenarios.py")
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == list(SCENARIO_NAMES)
    assert all(row[3] == "all-true" for row in rows)


def test_transcript_digest_is_pinned():
    result = run_script("transcript_digest.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout == TRANSCRIPT_DIGEST + "\n"
