"""Record the correctness oracle: verdict and group key per ceremony seed.

    PYTHONPATH=src python3 perfbench/make_reference.py [WORKLOAD ...]

Writes perfbench/reference.json. The table is recorded once, from the
commit that introduced the benchmark, and is then kept fixed: the
benchmark compares every later commit against it, so re-recording it
from code under test would make the oracle vacuous. Rewriting only the
named workloads keeps the others' entries.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from ops import build_config
from workloads import REFERENCE_SIZE, WORKLOADS, ceremony_seed

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def record(workload: str) -> dict:
    from vsslab import run_scenario

    table = {}
    for kind in WORKLOADS[workload]:
        rows = []
        for index in range(REFERENCE_SIZE[workload]):
            seed = ceremony_seed(workload, kind.name, index)
            report = run_scenario(build_config(workload, kind.name, seed))
            key = None if report.group_key is None else str(report.group_key)
            rows.append([str(seed), report.verdict.value, key])
        table[kind.name] = rows
        print(f"{workload}/{kind.name}: {len(rows)} ceremonies", file=sys.stderr)
    return table


def main(names: list[str]) -> None:
    reference = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    for workload in names or list(WORKLOADS):
        reference[workload] = record(workload)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
