#!/usr/bin/env python3
"""Run every built-in scenario at one seed and tabulate the verdicts.

Usage:
    python scripts/run_all_scenarios.py [--seed N] [--out-dir DIR]

With --out-dir, one canonical transcript per scenario is written there.
Try a few seeds on order-shift: whether the key assembles depends on
where the shifted reconstruction lands relative to p.
"""

import argparse
import pathlib

from vsslab.protocol import SCENARIO_NAMES, build_scenario, run_scenario
from vsslab.transcript import render_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out-dir", type=pathlib.Path, default=None)
    args = parser.parse_args()

    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)

    print(f"{'scenario':<17} {'params':<12} {'verdict':<22} {'matrix':<9} forgeries")
    for name in SCENARIO_NAMES:
        report = run_scenario(build_scenario(name, seed=args.seed))
        matrix_clean = all(all(row) for row in report.verification_matrix)
        # the shares a forger targeted, whether or not forging was possible
        forgeries = sum(len(report.config.behaviors[a.dealer].targets)
                        for a in report.forgery_attempts)
        print(
            f"{name:<17} {report.config.params_ref:<12} {report.verdict.value:<22} "
            f"{'all-true' if matrix_clean else 'flagged':<9} {forgeries}"
        )
        if args.out_dir is not None:
            path = args.out_dir / f"{name}-seed{args.seed}.json"
            path.write_text(render_report(report))
            print(f"{'':<17} -> {path}")


if __name__ == "__main__":
    main()
