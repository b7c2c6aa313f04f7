#!/usr/bin/env python3
"""Print one SHA-256 over the transcripts of the built-in scenarios.

Usage:
    python scripts/transcript_digest.py

Runs each of the five scenarios at seeds 0-19 with default parameters,
renders every report with render_report, and hashes the transcripts in
(scenario, seed) order. Equal digests mean byte-identical transcripts,
so a change that must not alter the output can be checked against the
value printed before it.
"""

import hashlib

from vsslab.protocol import SCENARIO_NAMES, build_scenario, run_scenario
from vsslab.transcript import render_report

SEEDS = range(20)


def transcript_digest() -> str:
    digest = hashlib.sha256()
    for name in SCENARIO_NAMES:
        for seed in SEEDS:
            digest.update(render_report(run_scenario(build_scenario(name, seed=seed))).encode())
    return digest.hexdigest()


if __name__ == "__main__":
    print(transcript_digest())
