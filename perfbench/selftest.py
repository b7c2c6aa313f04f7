"""Self-test of the benchmark on its smallest point.

    python3 perfbench/selftest.py

Uses the `selftest` workload: every built-in scenario at n=5, t=3 on its
default registry set (small11, p23order11, p23q11), one cycle each. It
checks, from the repository root, that

  * both modes print every metric BENCHMARK.json names, with its unit,
    in the table and in the final JSON line, and no ceremony fails;
  * a deliberately wrong reference verdict is counted as a failure, so
    the oracle cannot pass vacuously.

Exits 0 when every check holds and 1, naming the first miss, otherwise.
Takes a few seconds.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import run

WORKLOAD = "selftest"


def check(ok: bool, message: str) -> None:
    if not ok:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def check_printed_metrics(root: Path, spec: dict, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", WORKLOAD, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    check(proc.returncode == 0, f"run.py --trace {trace} exited {proc.returncode}: "
                                f"{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 5,
          f"--trace {trace}: {result['failed']} of {result['attempted']} ceremonies failed")
    wanted = spec["per_layer" if trace else "end_to_end"]
    check(sorted(result["metrics"]) == sorted(m["name"] for m in wanted),
          f"--trace {trace} reports {sorted(result['metrics'])}")
    table = {line.split()[0]: line.split()[1] for line in lines[:-1] if line.strip()}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        check(result["metrics"][name]["unit"] == unit, f"{name} unit in the JSON line")
        check(isinstance(result["metrics"][name]["value"], (int, float)), f"{name} value")
        check(table.get(name) == unit, f"{name} not printed with unit {unit}")


def check_planted_verdict(root: Path) -> None:
    reference = json.loads(run.REFERENCE_PATH.read_text())
    planted = copy.deepcopy(reference)
    kind = run.WORKLOADS[WORKLOAD][0].name
    for row in planted[WORKLOAD][kind]:
        row[1] = "key_blocked" if row[1] == "key_assembled" else "key_assembled"
    result = run.run_workload(root, WORKLOAD, 1, 0.5, False, planted)
    failed = [rec for rec in result["records"] if rec["problems"]]
    check(len(failed) == 1 and failed[0]["kind"] == kind,
          f"a wrong reference verdict for {kind} gave {len(failed)} failures")
    check(any("reference" in p for p in failed[0]["problems"]),
          f"the failure does not name the reference: {failed[0]['problems']}")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for trace in (0, 1):
        check_printed_metrics(root, spec, trace)
    check_planted_verdict(root)
    print("selftest passed: every metric printed with its unit; a planted wrong "
          "verdict counted as a failure")
    return 0


if __name__ == "__main__":
    sys.exit(main())
