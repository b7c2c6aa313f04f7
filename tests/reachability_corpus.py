"""The user-path corpus that tests/test_reachability.py traces.

    PYTHONPATH=src python -S tests/reachability_corpus.py

A sys.settrace tracer is installed before vsslab is imported, so module
bodies are traced too. Then every path below runs the way a user runs
it: the CLI through its main(), `python -m vsslab.cli`, its process
entry with a closed stdout, the README's scripts, and the library calls
the benchmark and the scenarios make.
Each step checks its exit code or result, so a step that goes wrong
fails here instead of quietly reaching less. The output is one JSON
object on stdout: "lines" maps each file of src/vsslab to the lines
that ran, and "arcs" maps each function of ARC_FUNCTIONS to the line
pairs its frames stepped through, with 0 for the return.
"""

import contextlib
import errno
import io
import json
import os
import runpy
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "vsslab") + os.sep
SCRIPTS = os.path.join(ROOT, "scripts")

# (file name, function name) of the functions whose branches are also
# checked as arcs: a loop that goes round again runs no new line
ARC_FUNCTIONS = {("protocol.py", "reconstruct_pool"), ("protocol.py", "run_dealing_round"),
                 ("transcript.py", "_differences"), ("vss.py", "verify_row")}


def tracer(lines, arcs, package=PACKAGE, functions=ARC_FUNCTIONS):
    """A sys.settrace function that adds each line of a frame under
    package to lines[file name], and each line pair of a frame of
    functions to arcs[function name].

    A generator's frame gets a call event each time it resumes, and
    keeps the local trace function it had, with its last line: so the
    arc out of a yield is the yield's line and the next one. A yield
    also reports a return event, recorded like a return."""
    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(package):
            return None
        if frame.f_trace is not None:
            return frame.f_trace  # a generator resumes
        file_name, name = path[len(package):], frame.f_code.co_name
        hit = lines.setdefault(file_name, set())
        if (file_name, name) not in functions:
            def local(frame, event, arg):
                if event == "line":
                    hit.add(frame.f_lineno)
                return local
            return local

        pairs = arcs.setdefault(name, set())
        last = 0

        def stepping(frame, event, arg):
            nonlocal last
            if event == "line":
                hit.add(frame.f_lineno)
                pairs.add((last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "return":
                pairs.add((last, 0))
            return stepping
        return stepping
    return trace


def expect(got, want, what):
    if got != want:
        raise AssertionError(f"{what}: got {got!r}, expected {want!r}")


def cli(*argv, code=0):
    """Run `vsslab ARGV` in process, with its output discarded; check its exit code."""
    from vsslab.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        expect(main(list(argv)), code, "vsslab " + " ".join(argv))


def as_main(run, argv, stdout=None):
    """The exit code of run() with sys.argv set to argv, as a script would
    see it; its output goes to stdout, discarded when None."""
    saved = sys.argv
    sys.argv = list(argv)
    try:
        with (contextlib.redirect_stdout(stdout or io.StringIO()),
              contextlib.redirect_stderr(io.StringIO())):
            run()
    except SystemExit as exc:
        return exc.code
    finally:
        sys.argv = saved
    return 0


def module_entry_point():
    # before anything imports vsslab.cli, so runpy runs its only copy
    code = as_main(lambda: runpy.run_module("vsslab.cli", run_name="__main__"),
                   ["vsslab", "run", "-h"])
    expect(code, 0, "python -m vsslab.cli run -h")
    # the process entry when the reader of stdout has gone
    from vsslab.cli import entry

    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        code = as_main(entry, ["vsslab", "--help"], stdout=ClosedPipe(devnull))
    finally:
        os.close(devnull)
    expect(code, 1, "vsslab --help with a closed stdout")


class ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its file descriptor is fd, which the process entry points at os.devnull."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def fileno(self):
        return self.fd


def scenarios():
    """The five scenarios at 5/3 and 8/4 on their default groups and at 12/6
    on v64 (h64 when hardened), seeds 0-2, each rendered and audited."""
    from vsslab.protocol import SCENARIO_NAMES, build_scenario, run_scenario
    from vsslab.transcript import audit_transcript, render_report

    for name in SCENARIO_NAMES:
        wide = "h64" if name == "hardened-attack" else "v64"
        for n, t, params in ((5, 3, None), (8, 4, None), (12, 6, wide)):
            for seed in range(3):
                report = run_scenario(build_scenario(name, seed, n, t, params))
                expect(audit_transcript(render_report(report)), [], f"audit of {name} {n}/{t}")


def custom_configs(tmp):
    """Configs no built-in scenario builds, each run through verify: party 1
    forging to only some cooperating parties at v64 12/6 (to parties 7-12
    its pool of 11 blocks the key after all 462 subsets, to parties 2-7 it
    assembles after 32), and five parties that all withhold, so every
    pool is empty."""
    from vsslab.attack import ForgeryStrategy, StrategyKind
    from vsslab.protocol import Behavior, BehaviorKind, ScenarioConfig, run_scenario
    from vsslab.transcript import render_report

    def forger(targets):
        behaviors = {pid: Behavior() for pid in range(1, 13)}
        behaviors[1] = Behavior(kind=BehaviorKind.FALSE_SHARE_DEALER,
                                strategy=ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, 1),
                                targets=targets)
        return behaviors

    withholding = {pid: Behavior(kind=BehaviorKind.WITHHOLDING_DEALER) for pid in range(1, 6)}
    for label, params, behaviors, verdict in (
            ("split-blocks", "v64", forger(range(7, 13)), "key_blocked"),
            ("split-assembles", "v64", forger(range(2, 8)), "key_assembled"),
            ("all-withhold", "small11", withholding, "key_blocked")):
        config = ScenarioConfig(scenario=label, n=len(behaviors), t=len(behaviors) // 2,
                                params_ref=params, behaviors=behaviors, seed=0)
        report = run_scenario(config)
        expect(report.verdict.value, verdict, label)
        path = os.path.join(tmp, f"{label}.json")
        with open(path, "w") as f:
            f.write(render_report(report))
        cli("verify", path)


def command_lines(tmp):
    from vsslab.protocol import SCENARIO_NAMES, build_scenario

    # exit codes at seed 7 on the default group and on 32 bits: order-shift's
    # shift stays below p on p23order11, so its key assembles there
    codes = {"false-share": (2, 2), "order-shift": (0, 2)}
    for name in SCENARIO_NAMES:
        group = build_scenario(name, 7).params_ref
        for source, code in zip((("--params", group), ("--bits", "32")), codes.get(name, (0, 0))):
            path = os.path.join(tmp, f"{name}{source[0]}.json")
            cli("run", "--scenario", name, "--seed", "7", *source, "--out", path, code=code)
            cli("verify", path)
    # is_prime's small-factor case in the search at 4-8 bits, and its
    # seeded Miller-Rabin witnesses above 2**64
    for bits in range(4, 9):
        cli("run", "--scenario", "honest", "--bits", str(bits), "--seed", "1")
    cli("run", "--scenario", "false-share", "--bits", "96", "--seed", "1",
        "--out", os.path.join(tmp, "bits96.json"), code=2)
    cli("verify", os.path.join(tmp, "bits96.json"))
    cli("run", "--scenario=honest", "--seed=1", "--params=small11")
    cli("run", "--scen", "withhold", "--seed", "3", "--n", "4", "--t", "4", code=2)
    cli("demo-integer-commitments")
    cli("demo-integer-commitments", "--bits", "4", "--out", os.path.join(tmp, "sizes.json"))
    cli("--help")
    cli("-h")
    cli("verify", "--help")
    # usage errors and refused configs: one line on stderr, exit 1
    for argv in ([], ["bogus"], ["run", "--bogus"], ["run", "--s", "1"],
                 ["run", "--seed", "1", "--seed", "2"], ["run", "--scenario"],
                 ["run", "--scenario", "--seed", "1"], ["run", "--seed", "x"],
                 ["run", "--scenario", "nope"], ["run", "stray"], ["run", "--seed", "1"],
                 ["run", "--scenario", "honest", "--seed", "1", "--params", "small11",
                  "--bits", "16"],
                 ["verify"], ["verify", "a", "b"], ["demo-integer-commitments", "--bits", "0"],
                 ["demo-integer-commitments", "--out", ""],
                 ["run", "--scenario", "honest", "--seed", "1", "--out", ""],
                 ["run", "--scenario", "honest", "--seed", "-1"],
                 ["run", "--scenario", "honest", "--seed", "1", "--params", "nosuch"],
                 ["run", "--scenario", "honest", "--seed", "1", "--n", "100"],
                 ["run", "--scenario", "honest", "--seed", "1", "--t", "9"],
                 ["run", "--scenario", "honest", "--seed", "1", "--bits", "200"],
                 ["verify", os.path.join(tmp, "missing.json")]):
        cli(*argv, code=1)


def tampered_transcripts(tmp):
    """verify on each kind of damage it names: FAIL lines and exit 1."""
    from vsslab.cli import MAX_TRANSCRIPT_CHARS
    from vsslab.transcript import canonical_json

    docs = {}
    for name in ("false-share", "honest"):
        with open(os.path.join(tmp, f"{name}--params.json")) as f:
            docs[name] = json.load(f)
    doc, config = docs["false-share"], docs["false-share"]["config"]

    def edited(**changes):
        return canonical_json({**doc, **changes})

    def without(key):
        return canonical_json({k: v for k, v in doc.items() if k != key})

    first, *rest = doc["shares"]["1"]
    bad = {
        "not-json": "{",
        "not-an-object": "[]\n",
        "old-version": edited(version="3"),
        "no-config": without("config"),
        "bad-n": edited(config={**config, "n": 1}),
        "relabelled": edited(config={**config, "scenario": "honest"}),
        "custom-label": canonical_json(
            {**docs["honest"], "config": {**docs["honest"]["config"], "scenario": ""}}),
        "share": edited(shares={**doc["shares"], "1": [first + "1", *rest]}),
        "missing-key": without("verdict"),
        "extra-key": edited(extra=True),
        # a key past 20 characters is cut where a FAIL line quotes it
        "long-key": edited(**{"x" * 200_000: True}),
        "short-rows": edited(shares={dealer: row[:-1] for dealer, row in doc["shares"].items()}),
        "number-for-string": edited(aggregate_public_key=int(doc["aggregate_public_key"])),
        "not-canonical": json.dumps(doc, sort_keys=True, indent=1) + "\n",
        # refused after one bounded read, before any parse
        "over-the-cap": " " * (MAX_TRANSCRIPT_CHARS + 1),
    }
    for name, body in bad.items():
        path = os.path.join(tmp, f"tampered-{name}.json")
        with open(path, "w") as f:
            f.write(body)
        cli("verify", path, code=1)


def library_entry_points():
    from vsslab.registry import load_registry

    # the benchmark's set-up call
    expect(len(load_registry()), 7, "load_registry()")


def scripts():
    for name in ("worked_example.py", "run_all_scenarios.py"):
        path = os.path.join(SCRIPTS, name)
        code = as_main(lambda: runpy.run_path(path, run_name="__main__"), [path])
        expect(code, 0, name)


def main() -> None:
    # as site would, so module files have the absolute names trace matches
    sys.path[:] = [os.path.abspath(entry) for entry in sys.path]
    lines, arcs = {}, {}
    sys.settrace(tracer(lines, arcs))
    try:
        module_entry_point()
        with tempfile.TemporaryDirectory() as tmp:
            scenarios()
            custom_configs(tmp)
            command_lines(tmp)
            tampered_transcripts(tmp)
        library_entry_points()
        scripts()
    finally:
        sys.settrace(None)
    json.dump({"lines": {path: sorted(hit) for path, hit in sorted(lines.items())},
               "arcs": {name: sorted(pairs) for name, pairs in sorted(arcs.items())}},
              sys.stdout)


if __name__ == "__main__":
    main()
