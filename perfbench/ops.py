"""Child-process operations of the benchmark, one fresh interpreter per call.

    python3 perfbench/ops.py run   WORKLOAD KIND SEED OUT
    python3 perfbench/ops.py trace WORKLOAD KIND SEED OUT

`run` makes the calls `vsslab run` makes (run_scenario, render_report,
write the transcript) and exits 0 for an assembled key, 2 otherwise.
`trace` composes the same public calls one round at a time with spans
around them, writes the transcript it rendered, audits it as
`vsslab verify` would, and prints one JSON line with the spans and the
exact counts read from the round return values. vsslab must be
importable (PYTHONPATH=src from the repository root).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # the traced root span starts as early as the script can see

import json  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import PARTIAL_FORGERY_TARGETS, WORKLOADS  # noqa: E402


def build_config(workload: str, kind_name: str, seed: int):
    """The ScenarioConfig of one ceremony, through the public API only."""
    from vsslab import (
        Behavior,
        BehaviorKind,
        ForgeryStrategy,
        GenSpec,
        Mode,
        ScenarioConfig,
        StrategyKind,
        build_scenario,
    )

    kind = next(k for k in WORKLOADS[workload] if k.name == kind_name)
    params_ref = kind.params
    if kind.bits is not None:
        mode = Mode.HARDENED if kind.scenario == "hardened-attack" else Mode.VULNERABLE
        params_ref = GenSpec(bits=kind.bits, mode=mode)
    if kind.scenario != "partial-forgery":
        return build_scenario(kind.scenario, seed=seed, n=kind.n, t=kind.t,
                              params_ref=params_ref)
    behaviors = {pid: Behavior() for pid in range(1, kind.n + 1)}
    behaviors[1] = Behavior(
        kind=BehaviorKind.FALSE_SHARE_DEALER,
        strategy=ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, 1),
        targets=PARTIAL_FORGERY_TARGETS,
    )
    return ScenarioConfig(scenario="partial-forgery", n=kind.n, t=kind.t,
                          params_ref=params_ref, behaviors=behaviors, seed=seed)


def op_run(config, out: str) -> int:
    from vsslab import Verdict, render_report, run_scenario

    report = run_scenario(config)
    Path(out).write_text(render_report(report))
    return 0 if report.verdict is Verdict.KEY_ASSEMBLED else 2


class Tracer:
    """Spans kept in memory: name, start, end, parent index, ceremony id."""

    def __init__(self, ceremony: str):
        self.ceremony = ceremony
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str, start: float | None = None) -> None:
        self._stack.append(len(self.spans))
        self.spans.append({
            "name": name,
            "start": time.perf_counter() if start is None else start,
            "end": None,
            "parent": self._stack[-2] if len(self._stack) > 1 else None,
            "ceremony": self.ceremony,
        })

    def close(self) -> None:
        self.spans[self._stack.pop()]["end"] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()


def op_trace(config, out: str, tracer: Tracer) -> int:
    from vsslab import (
        Mode,
        ScenarioReport,
        aggregate_public_key,
        assemble_group_key,
        audit_transcript,
        load_registry,
        render_report,
        run_dealing_round,
        run_verification_round,
    )
    from vsslab.protocol import resolve_params, run_reconstruction_round

    with tracer.span("registry.load"):
        load_registry()
    with tracer.span("run"):
        with tracer.span("numtheory.resolve"):
            params = resolve_params(config)
            config.validate(params)
        with tracer.span("protocol.deal"):
            dealing = run_dealing_round(config, params)
        with tracer.span("vss.verify_round"):
            matrix = run_verification_round(dealing.shares, dealing.commitments, params)
        with tracer.span("protocol.reconstruct"):
            reconstructions = run_reconstruction_round(dealing, matrix, config, params)
        with tracer.span("protocol.assemble"):
            assembly = assemble_group_key(reconstructions, dealing.commitments, params, matrix)
            public_key = aggregate_public_key(dealing.commitments, params)
        report = ScenarioReport(
            config=config,
            params=params,
            commitments=dealing.commitments,
            shares=dealing.shares,
            forgery_attempts=dealing.forgery_attempts,
            verification_matrix=matrix,
            aggregate_public_key=public_key,
            reconstructions=reconstructions,
            group_key=assembly.group_key,
            group_key_confirmed=assembly.confirmed,
            verdict=assembly.verdict,
        )
        with tracer.span("transcript.render"):
            text = render_report(report)
        with tracer.span("transcript.write"):
            Path(out).write_text(text)
    with tracer.span("transcript.audit"):
        problems = audit_transcript(Path(out).read_text())
    tracer.close()

    n, t = config.n, config.t
    interpolations = sum(len(r.attempts) for r in reconstructions)
    hardened = params.mode is Mode.HARDENED
    counts = {
        "protocol.interpolations": interpolations,
        "protocol.recovered": sum(r.recovered is not None for r in reconstructions),
        "vss.share_checks": sum(len(row) for row in matrix),
        "vss.rejected": sum(not entry for row in matrix for entry in row),
        "attack.forged": sum(a.outcome == "forged" for a in dealing.forgery_attempts),
        "attack.forgery_impossible": sum(
            a.outcome == "forgery_impossible" for a in dealing.forgery_attempts),
        # computed, not counted: (t + 1) modexps per share check, plus
        # one membership modexp per commitment in hardened mode
        "vss.modexps": n * n * (t + 1) + (n * t if hardened else 0),
    }
    print(json.dumps({"spans": tracer.spans, "counts": counts, "problems": problems}))
    return 0 if not problems else 1


def main(argv: list[str]) -> int:
    op, workload, kind, seed, out = argv
    if op == "run":
        return op_run(build_config(workload, kind, int(seed)), out)
    if op == "trace":
        tracer = Tracer(f"{workload}/{kind}/{seed}")
        tracer.open("ceremony", start=_T0)
        with tracer.span("vsslab.import"):
            import vsslab  # noqa: F401
        return op_trace(build_config(workload, kind, int(seed)), out, tracer)
    raise SystemExit(f"unknown op {op!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
