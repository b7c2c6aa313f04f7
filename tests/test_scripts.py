"""The README's quick-start scripts run end to end as a user would run them."""

import os
import subprocess
import sys
from pathlib import Path

from vsslab.protocol import SCENARIO_NAMES

ROOT = Path(__file__).resolve().parent.parent

# scripts/transcript_digest.py over the five scenarios x seeds 0-19 at
# default params, transcript schema "5". A change that is meant to keep
# transcripts byte-identical must leave it alone; one that changes them
# on purpose records the new value here. Schema "4" printed
# test_transcript.py's SCHEMA_4_TRANSCRIPT_DIGEST.
TRANSCRIPT_DIGEST = "15b9296f3f9e38adb54befca15fc4ad6b919d7034d778e28d3a44494cceae50b"


def run_script(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name)], env=env,
                          capture_output=True, text=True, timeout=60)


# every line scripts/worked_example.py prints, the numbers the README
# walks through among them
WORKED_EXAMPLE = """\
group: p=11 g=2 ord(g)=10
dealer polynomial: P(x) = 3 + 4x, secret a0 = 3
public commitments g^a_j: (8, 5)

honest share for party 2: P(2) = 11
  verification: True

forged share for party 2: P(2) + (p-1) = 21
  verification: True  <- passes, same exponent class
  but 21 mod p = 10, while the honest value is 0

reconstruction from {(1, 7), (2, 10)}: 4
  true secret: 3, recovered: 4  <- corrupted

commitment check: g^4 = 5 vs c_0 = 8
  check failed; the group notices, but only after the dealer withheld

row check: basis rows ((2, 10), (10, 1)) give coefficients b = (4, 3)
  g^b_j = (5, 8) vs commitments (8, 5)
  no match, so each share is checked alone, and each passes
"""


def test_worked_example_runs():
    result = run_script("worked_example.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout == WORKED_EXAMPLE


def test_run_all_scenarios_tabulates_every_scenario_with_a_clean_matrix():
    result = run_script("run_all_scenarios.py")
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == list(SCENARIO_NAMES)
    assert all(row[3] == "all-true" for row in rows)
    # the targeted shares: four for each scenario whose party 1 forges
    assert [row[4] for row in rows] == ["0", "4", "4", "0", "4"]


def test_transcript_digest_is_pinned():
    result = run_script("transcript_digest.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout == TRANSCRIPT_DIGEST + "\n"
