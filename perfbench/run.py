"""vsslab benchmark: run one workload, check every output, print its metrics.

    python3 perfbench/run.py --workload recon-enum --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is used from ./src, with no
install step. Each ceremony is timed the way a user pays for it: one
fresh interpreter per operation, started one at a time, so nothing
cached inside a process carries over between ceremonies. Children run
with -S and may write bytecode caches: site-packages hooks belong to the
machine, not to the stdlib-only library, and an installed package ships
compiled bytecode.

  run op     perfbench/ops.py run: the calls `vsslab run` makes
  verify op  python -m vsslab.cli verify on the transcript just written
  traced op  (--trace 1 only) perfbench/ops.py trace: the same calls
             composed round by round with spans, plus the audit

The workload's ceremony kinds run in whole cycles until --seconds is
used up. Every timed metric is *kind-balanced*: the median over each
kind's ceremonies, averaged over the kinds, so the mix of kinds is the
same in every run. Times are in reference seconds: each wall time is
scaled by how long the fixed calibration task (calibrate.py) took just
before and after it, relative to CALIBRATION_REF_S, so that a machine
whose speed drifts gives the same figures.

Every ceremony is checked against the recorded reference (verdict and
group key), against g**key == aggregate public key with builtin pow,
and for exit codes; a traced ceremony must also render bytes identical
to the run op. The last stdout line is one JSON
object: correct, attempted, failed, metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1). The lines before it print
every metric with unit, sample count and per-kind values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, window_offset

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
OPS = str(HERE / "ops.py")
PYTHON = [sys.executable, "-S"]
SETUP_CODE = "import vsslab; vsslab.load_registry()"
CALIBRATE = str(HERE / "calibrate.py")
# times are reported in reference seconds, the unit in which the
# calibration task takes CALIBRATION_REF_S; each op is scaled by the
# median of the CALIBRATION_NEAREST calibration timings nearest in time
CALIBRATION_REF_S = 0.1
CALIBRATION_NEAREST = 2
CALIBRATE_EVERY_S = 1.0
SETUP_EVERY_S = 3.0
SAMPLES_FIRST = 3
OP_TIMEOUT_S = 120.0
HARD_LIMIT_S = 165.0  # a run must end well inside the 180 s allowed

END_TO_END = {
    "run_s": "s",
    "verify_s": "s",
    "setup_s": "s",
    "transcript_bytes": "bytes",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
}
# span name -> per-layer time metric; these six spans are the "rounds"
ROUND_SPANS = {
    "numtheory.resolve": "numtheory.resolve_s",
    "protocol.deal": "protocol.deal_s",
    "vss.verify_round": "vss.verify_round_s",
    "protocol.reconstruct": "protocol.reconstruct_s",
    "protocol.assemble": "protocol.assemble_s",
    "transcript.render": "transcript.render_s",
}
COUNTS = ("protocol.interpolations", "vss.share_checks", "vss.rejected",
          "attack.forged", "attack.forgery_impossible", "vss.modexps")
PER_LAYER = {
    "registry.load_s": "s",
    **{metric: "s" for metric in ROUND_SPANS.values()},
    "transcript.audit_s": "s",
    "transcript.audit_ratio": "ratio",
    "trace.overhead_s": "s",
    **{name: "count" for name in COUNTS},
    "protocol.recover_ratio": "ratio",
}


class SetupFailed(Exception):
    """The library cannot be imported, or the calibration task fails."""


@dataclass
class Outcome:
    """What the launcher reports for one child process."""

    wall_s: float
    code: int
    rss_kb: int
    timed_out: bool


class Launcher:
    """The spawn.py helper: one child at a time, wall time and wait4 rusage."""

    def __init__(self, root: Path, env: dict):
        self.proc = subprocess.Popen(
            [*PYTHON, str(HERE / "spawn.py")], cwd=root, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )

    def run(self, argv: list[str], out: Path, timeout: float) -> Outcome:
        self.proc.stdin.write("\t".join([repr(timeout), str(out), *argv]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process died")
        wall, code, rss, timed_out = line.split("\t")
        return Outcome(float(wall), int(code), int(rss), timed_out.strip() == "1")

    def close(self) -> None:
        """Stop the launcher; if a child is still running, kill its process group."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "platform": platform.platform()}


def _stderr_tail(out: Path) -> str:
    try:
        lines = Path(str(out) + ".err").read_text().strip().splitlines()
    except OSError:
        return ""
    return lines[-1] if lines else ""


def check_transcript(path: Path, run: Outcome, verdict: str, key: str | None) -> list[str]:
    """Oracle checks on one written transcript; each string is one miss."""
    try:
        doc = json.loads(path.read_text())
        got_verdict, got_key = doc["verdict"], doc["group_key"]
        p, g = int(doc["params"]["p"]), int(doc["params"]["g"])
        public_key = int(doc["aggregate_public_key"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"transcript unreadable: {exc!r}"]
    problems = []
    want_code = 0 if got_verdict == "key_assembled" else 2
    if run.code != want_code:
        problems.append(f"run exit code {run.code} for verdict {got_verdict}")
    if got_verdict != verdict:
        problems.append(f"verdict {got_verdict}, reference {verdict}")
    if got_key != key:
        problems.append(f"group key {got_key}, reference {key}")
    if got_key is not None and pow(g, int(got_key), p) != public_key:
        problems.append("g**key != aggregate public key")
    return problems


class Clock:
    """Starts every child and keeps the timings that scale them.

    Before each op it times the calibration task if CALIBRATE_EVERY_S
    have passed since the last timing, and set-up if SETUP_EVERY_S have,
    so both are sampled across the whole run.
    """

    def __init__(self, launcher: Launcher, work: Path):
        self.launcher, self.work = launcher, work
        self.calibration: list[tuple[float, float]] = []  # (midpoint, wall)
        self.setup: list[tuple[float, float]] = []

    def measure(self, argv: list[str], samples: list) -> None:
        """Time one fresh process that must succeed; append (midpoint, wall)."""
        start = time.perf_counter()
        outcome = self.launcher.run([*PYTHON, *argv], self.work / "sample.out", OP_TIMEOUT_S)
        if outcome.code != 0:
            raise SetupFailed(f"{argv[-1]} failed: {_stderr_tail(self.work / 'sample.out')}")
        samples.append((start + outcome.wall_s / 2, outcome.wall_s))

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or now - self.setup[-1][0] >= SETUP_EVERY_S:
            self.measure(["-c", SETUP_CODE], self.setup)
        if force or now - self.calibration[-1][0] >= CALIBRATE_EVERY_S:
            self.measure([CALIBRATE], self.calibration)

    def op(self, argv: list[str], name: str, timeout: float) -> tuple[Outcome, float]:
        """Run one ceremony op; returns its outcome and its midpoint."""
        self.sample()
        start = time.perf_counter()
        outcome = self.launcher.run([*PYTHON, *argv], self.work / name, timeout)
        return outcome, start + outcome.wall_s / 2

    def scale(self, midpoint: float) -> float:
        """Factor from wall seconds to reference seconds at this moment."""
        nearest = sorted(self.calibration, key=lambda c: abs(c[0] - midpoint))
        walls = [wall for _, wall in nearest[:CALIBRATION_NEAREST]]
        return CALIBRATION_REF_S / statistics.median(walls)


def run_ceremony(clock: Clock, workload: str, kind: str, row: list, trace: bool,
                 deadline: float) -> dict:
    """Run, verify and (traced) trace one ceremony; check every output.

    The record keeps each op's wall time under "<op>_s" and its midpoint
    under "mid"; run_workload turns the midpoints into scale factors.
    """
    seed, verdict, key = row
    work = clock.work
    rec = {"kind": kind, "seed": seed, "problems": [], "rss_kb": [], "mid": {}}

    def launch(op: str, argv: list[str]) -> Outcome:
        timeout = max(1.0, min(OP_TIMEOUT_S, deadline - time.perf_counter()))
        outcome, rec["mid"][op] = clock.op(argv, f"{op}.out", timeout)
        rec[f"{op}_s"] = outcome.wall_s
        rec["rss_kb"].append(outcome.rss_kb)
        if outcome.timed_out:
            rec["problems"].append(f"{op} timed out after {timeout:.0f} s")
        return outcome

    transcript, traced_path = work / "run.json", work / "traced.json"
    transcript.unlink(missing_ok=True)
    traced_path.unlink(missing_ok=True)
    run = launch("run", [OPS, "run", workload, kind, seed, str(transcript)])
    if run.code not in (0, 2) or not transcript.exists():
        rec["problems"].append(f"run exit code {run.code}: {_stderr_tail(work / 'run.out')}")
        return rec
    rec["problems"] += check_transcript(transcript, run, verdict, key)
    rec["bytes"] = transcript.stat().st_size

    verify = launch("verify", ["-m", "vsslab.cli", "verify", str(transcript)])
    if verify.code != 0:
        rec["problems"].append(f"verify exit code {verify.code}: "
                               f"{_stderr_tail(work / 'verify.out')}")
    if trace:
        traced = launch("traced", [OPS, "trace", workload, kind, seed, str(traced_path)])
        try:
            out = json.loads((work / "traced.out").read_text().splitlines()[-1])
            rec["spans"], rec["counts"] = out["spans"], out["counts"]
            if out["problems"] or traced.code != 0:
                rec["problems"].append(f"traced audit failed: {out['problems']}")
            if traced_path.read_bytes() != transcript.read_bytes():
                rec["problems"].append("traced transcript differs from the run op's")
        except (OSError, ValueError, KeyError, IndexError) as exc:
            rec["problems"].append(f"traced op failed ({traced.code}): {exc!r} "
                                   f"{_stderr_tail(work / 'traced.out')}")
    return rec


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 reference: dict) -> dict:
    """Run whole cycles of ceremonies for about `seconds`, collect records.

    One uncounted set-up call first writes the bytecode caches (an
    installed package ships with them); then set-up and calibration are
    timed SAMPLES_FIRST times before the first ceremony and once more
    after the last, besides the timings the Clock takes in between.
    """
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    work = root / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    launcher = Launcher(root, env)
    try:
        clock = Clock(launcher, work)
        clock.measure(["-c", SETUP_CODE], [])
        for _ in range(SAMPLES_FIRST):
            clock.sample(force=True)
        kinds = [kind.name for kind in WORKLOADS[workload]]
        offset = window_offset(workload, seed)
        records = []
        measure_start = time.perf_counter()
        cycle, cycle_s = 0, 0.0
        # whole cycles keep the kind mix fixed; stop when the next cycle
        # would end more than half a cycle past --seconds
        while cycle == 0 or (time.perf_counter() - measure_start + cycle_s / 2 < seconds
                             and time.perf_counter() + cycle_s < deadline):
            cycle_start = time.perf_counter()
            for kind in kinds:
                rows = reference[workload][kind]
                row = rows[(offset + cycle) % len(rows)]
                records.append(run_ceremony(clock, workload, kind, row, trace, deadline))
            cycle_s = time.perf_counter() - cycle_start
            cycle += 1
        measured_s = time.perf_counter() - measure_start
        clock.sample(force=True)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    for rec in records:
        rec["scale"] = {op: clock.scale(mid) for op, mid in rec["mid"].items()}
    return {
        "setup": [wall * clock.scale(mid) for mid, wall in clock.setup],
        "calibration": [wall for _, wall in clock.calibration],
        "records": records, "kinds": kinds, "measured_s": measured_s,
    }


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def per_kind(records: list[dict], value) -> dict[str, list[float]]:
    """kind -> the values value(record) gives, skipping records without one."""
    out: dict[str, list[float]] = {}
    for rec in records:
        try:
            v = value(rec)
        except KeyError:
            continue
        out.setdefault(rec["kind"], []).append(v)
    return out


def balanced(samples: dict[str, list[float]]) -> float:
    """Mean over kinds of each kind's median."""
    return statistics.fmean(statistics.median(v) for v in samples.values())


def op_s(rec: dict, op: str) -> float:
    """One op's wall time in reference seconds."""
    return rec[f"{op}_s"] * rec["scale"][op]


def span_durations(rec: dict) -> dict[str, float]:
    """Span name -> duration in reference seconds (each name occurs once)."""
    return {s["name"]: (s["end"] - s["start"]) * rec["scale"]["traced"] for s in rec["spans"]}


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover (wall seconds)."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def summarize(result: dict, trace: bool) -> tuple[dict, list[str]]:
    """(metric -> (value, unit)) for the requested mode, plus report lines."""
    records = result["records"]
    attempted = len(records)
    failed = sum(bool(rec["problems"]) for rec in records)
    rows: list[tuple[str, str, float, dict[str, list[float]]]] = []

    def add(name: str, unit: str, samples: dict[str, list[float]]) -> float:
        value = balanced(samples) if samples else float("nan")
        if samples:
            rows.append((name, unit, value, samples))
        return value

    add("run_s", "s", per_kind(records, lambda r: op_s(r, "run")))
    add("verify_s", "s", per_kind(records, lambda r: op_s(r, "verify")))
    add("setup_s", "s", {"setup": result["setup"]})
    add("transcript_bytes", "bytes", per_kind(records, lambda r: r["bytes"]))
    add("peak_rss_mb", "MiB", {
        kind: [kb / 1024 for group in groups for kb in group]
        for kind, groups in per_kind(records, lambda r: r["rss_kb"]).items()
    })
    add("success_rate", "ratio", {"all": [1 - failed / attempted]})

    lines = []
    traced = [rec for rec in records if "spans" in rec]
    if trace and traced:
        durations = {id(rec): span_durations(rec) for rec in traced}

        def span_s(span: str) -> dict[str, list[float]]:
            return per_kind(traced, lambda r: durations[id(r)][span])

        add("registry.load_s", "s", span_s("registry.load"))
        round_sum = sum(add(metric, "s", span_s(span)) for span, metric in ROUND_SPANS.items())
        audit_s = add("transcript.audit_s", "s", span_s("transcript.audit"))
        add("transcript.audit_ratio", "ratio", {"derived": [audit_s / round_sum]})
        add("trace.overhead_s", "s",
            per_kind(traced, lambda r: op_s(r, "traced") - op_s(r, "run") - op_s(r, "verify")))
        counts = {name: add(name, "count", per_kind(traced, lambda r, n=name: r["counts"][n]))
                  for name in COUNTS}
        recovered = balanced(per_kind(traced, lambda r: r["counts"]["protocol.recovered"]))
        add("protocol.recover_ratio", "ratio",
            {"derived": [recovered / max(1.0, counts["protocol.interpolations"])]})
        lines += span_report(traced, round_sum)

    metrics_for_mode = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": value, "unit": unit}
               for name, unit, value, _ in rows if name in metrics_for_mode}
    calibration = result["calibration"]
    scales = [scale for rec in records for scale in rec["scale"].values()]
    table = [
        f"# calibration task: median {statistics.median(calibration):.6g} s over "
        f"{len(calibration)} runs; wall times are scaled by a median "
        f"{statistics.median(scales):.6g} to reference seconds "
        f"(the task takes {CALIBRATION_REF_S:g} reference seconds)",
        f"{'metric':<28} {'unit':<6} {'value':>14} {'samples':>8}  per kind (median)",
    ]
    for name, unit, value, samples in rows:
        kinds = "  ".join(f"{kind}={statistics.median(v):.6g}" for kind, v in samples.items())
        count = sum(len(v) for v in samples.values())
        table.append(f"{name:<28} {unit:<6} {value:>14.6g} {count:>8}  {kinds}")
    return metrics, table + lines


def span_report(traced: list[dict], round_sum: float) -> list[str]:
    """Self time of every span and each round's share of the summed rounds."""
    names = [s["name"] for s in traced[0]["spans"]]
    own = per_kind(traced, lambda r: [t * r["scale"]["traced"] for t in self_times(r["spans"])])
    lines = ["", f"{'span (self time, s)':<28} {'balanced':>10}  per kind (median)"]
    for i, name in enumerate(names):
        samples = {kind: [vals[i] for vals in v] for kind, v in own.items()}
        kinds = "  ".join(f"{kind}={statistics.median(v):.6g}" for kind, v in samples.items())
        lines.append(f"{name:<28} {balanced(samples):>10.6g}  {kinds}")
    lines += ["", f"round shares of the summed rounds ({round_sum:.6g} s):"]
    for span in ROUND_SPANS:
        value = balanced(per_kind(traced, lambda r, s=span: span_durations(r)[s]))
        lines.append(f"  {span:<26} {value / round_sum:7.1%}")
    return lines


def write_spans(root: Path, workload: str, seed: int, env: dict, records: list[dict]) -> Path:
    """All spans of the run, written once at the end, with their self times."""
    spans = []
    for rec in records:
        for span, own in zip(rec.get("spans", []), self_times(rec.get("spans", []))):
            spans.append(dict(span, self_s=own, scale=rec["scale"]["traced"]))
    path = root / ".perfbench" / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"environment": env, "spans": spans}) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "vsslab" / "__init__.py").is_file():
        print("error: run from the repository root; src/vsslab is missing", file=sys.stderr)
        return 1
    reference = json.loads(REFERENCE_PATH.read_text())
    try:
        result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace),
                              reference)
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(root, args, result)))
    return 0


def report(root: Path, args, result: dict) -> dict:
    """Print the human-readable report; return the result object."""
    env = environment()
    records = result["records"]
    failed = [rec for rec in records if rec["problems"]]
    metrics, table = summarize(result, bool(args.trace))
    print(f"# vsslab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# environment: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}, "
          f"{env['platform']}")
    print(f"# {len(records)} ceremonies in {result['measured_s']:.1f} s, kinds "
          f"{', '.join(result['kinds'])}; failed {len(failed)}, "
          f"error_rate {len(failed) / len(records):.4f}")
    for rec in failed:
        print(f"# FAILED {rec['kind']} seed {rec['seed']}: {'; '.join(rec['problems'])}")
    for line in table:
        print(line)
    if args.trace:
        print(f"# spans written to {write_spans(root, args.workload, args.seed, env, records)}")
    return {"correct": not failed, "attempted": len(records), "failed": len(failed),
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
