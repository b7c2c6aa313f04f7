"""Command-line front end.

    vsslab run --scenario NAME --seed 7 --out transcript.json
    vsslab demo-integer-commitments --bits 12
    vsslab verify transcript.json

A flag takes its value as `--flag value` or `--flag=value`, may be
shortened to any prefix that names one flag (`--scen`), and may be given
once. `-h` or `--help` prints usage to stdout and exits 0.

Exit codes: 0 when the run assembled the key (or the subcommand simply
succeeded), 2 when the key was blocked, 1 for usage, config, or
verification errors. A command whose output cannot be written because
stdout was closed exits 1 with one `error:` line.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from .errors import VsslabError
from .protocol import (
    MAX_PARTIES,
    MAX_RECONSTRUCTION_ATTEMPTS,
    SCENARIO_NAMES,
    GenSpec,
    Verdict,
    build_scenario,
    default_mode,
    run_scenario,
)
from .transcript import audit_transcript, canonical_json, render_report
from .vss import (
    INTEGER_COMMITMENT_GUARD_BITS,
    PROJECTION_EXPONENT_LOG2,
    commit_integer,
    projected_bit_length,
)

_DEMO_MAX_BITS = 20

# The longest transcript an admitted config renders, in characters. A
# reconstruction attempt writes one value below 2**96: at most 29
# digits, two quotes and a comma, ATTEMPT_CHARS = 32. A run records at
# most MAX_RECONSTRUCTION_ATTEMPTS of them, 8,000,000 characters. Each
# (dealer, recipient) pair adds under PAIR_CHARS = 250 more: its share,
# at most 145 digits below 2**96 * 64**64, with quotes and comma (148),
# at most one commitment entry (32), its id in rejected and in the
# config's targets (3 each), and its share of the keys and fixed fields;
# a forged 96-bit 64/64 run renders 152 per pair. MAX_PARTIES**2 pairs
# add 1,024,000, so the cap is 9,024,000; verify reads one character
# more, so a longer file is refused before it is parsed.
ATTEMPT_CHARS = 32
PAIR_CHARS = 250
MAX_TRANSCRIPT_CHARS = (ATTEMPT_CHARS * MAX_RECONSTRUCTION_ATTEMPTS
                        + PAIR_CHARS * MAX_PARTIES**2)


class _UsageError(Exception):
    pass


# Each command's flags: name -> (kind, default, help), where a kind is
# int, str, or the tuple of values the flag accepts. run's --scenario and
# --seed are required, and its --params and --bits exclude each other.
_FLAGS = {
    "run": {
        "--scenario": (SCENARIO_NAMES, None, "one of " + ", ".join(SCENARIO_NAMES)),
        "--seed": (int, None, "64-bit run seed"),
        "--n": (int, 5, "number of parties (default 5)"),
        "--t": (int, 3, "reconstruction threshold (default 3)"),
        "--params": (str, None, "registry parameter set name (default per scenario)"),
        "--bits": (int, None, "generate fresh parameters of this size instead of --params"),
        "--out": (str, None, "write the transcript here instead of stdout"),
    },
    "demo-integer-commitments": {
        "--bits": (int, 8, f"largest executed exponent bit size, 1..{_DEMO_MAX_BITS}"),
        "--out": (str, None, "also write the size report as JSON"),
    },
    "verify": {},
}
_USAGE = {
    "run": "vsslab run --scenario NAME --seed SEED [--n N] [--t T] "
           "[--params NAME | --bits BITS] [--out PATH]",
    "demo-integer-commitments": "vsslab demo-integer-commitments [--bits BITS] [--out PATH]",
    "verify": "vsslab verify TRANSCRIPT",
}


def _help(command) -> str:
    """Usage of one command and its flags, or of every command when None."""
    if command is None:
        return "usage: " + "\n       ".join(_USAGE.values()) + "\n\n" + __doc__
    lines = [f"usage: {_USAGE[command]}"]
    lines += [f"  {flag:<12}{text}" for flag, (_, _, text) in _FLAGS[command].items()]
    return "\n".join(lines) + "\n"


def _is_flag(arg: str) -> bool:
    # a negative number is a value, as in `--seed -1`
    return arg.startswith("-") and len(arg) > 1 and not arg[1:].isdigit()


def _parse(argv):
    """(command, args) for a command line. args holds each of the
    command's flags, without dashes, set to its value or default; verify's
    holds its transcript path. args is None when help was asked for, and
    command is None too when it was asked before any command. Raises
    _UsageError for anything malformed."""
    if not argv:
        raise _UsageError(f"a command is required: {', '.join(_FLAGS)}")
    command, rest = argv[0], iter(argv[1:])
    if command in ("-h", "--help"):
        return None, None
    if command not in _FLAGS:
        raise _UsageError(f"unknown command {command!r}; choose from {', '.join(_FLAGS)}")
    flags = _FLAGS[command]
    names = (*flags, "--help")
    given, positionals = {}, []
    for arg in rest:
        if not _is_flag(arg):
            positionals.append(arg)
            continue
        name, eq, value = arg.partition("=")
        if name == "-h":
            name = "--help"
        matches = [name] if name in names else [
            f for f in names if len(name) > 2 and f.startswith(name)]
        if not matches:
            raise _UsageError(f"unrecognized argument {arg!r}")
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option {name}: could match {', '.join(matches)}")
        flag = matches[0]
        if flag == "--help":
            return command, None
        if flag in given:
            raise _UsageError(f"argument {flag}: given twice")
        if not eq:
            value = next(rest, None)
            if value is None or _is_flag(value):
                raise _UsageError(f"argument {flag}: expected one value")
        kind = flags[flag][0]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(f"argument {flag}: invalid int value {value!r}") from None
        elif kind is not str and value not in kind:
            raise _UsageError(
                f"argument {flag}: invalid choice {value!r} (choose from {', '.join(kind)})")
        given[flag] = value
    if command == "verify":
        if len(positionals) != 1:
            raise _UsageError(f"verify takes one transcript path, got {len(positionals)}")
        return command, SimpleNamespace(transcript=positionals[0])
    if positionals:
        raise _UsageError(f"unrecognized argument {positionals[0]!r}")
    if command == "run":
        missing = [f for f in ("--scenario", "--seed") if f not in given]
        if missing:
            raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
        if "--params" in given and "--bits" in given:
            raise _UsageError("argument --bits: not allowed with argument --params")
    return command, SimpleNamespace(
        **{flag[2:]: given.get(flag, default) for flag, (_, default, _) in flags.items()})


def _write_out(path, text, noun) -> bool:
    """Write text to the --out path and say so on stderr; False, with
    the reason on stderr, when the file cannot be written."""
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        print(f"cannot write {noun}: {exc}", file=sys.stderr)
        return False
    print(f"{noun} written to {path}", file=sys.stderr)
    return True


def _cmd_run(args) -> int:
    params_ref = args.params
    if args.bits is not None:
        params_ref = GenSpec(bits=args.bits, mode=default_mode(args.scenario))
    config = build_scenario(args.scenario, seed=args.seed, n=args.n, t=args.t,
                            params_ref=params_ref)
    report = run_scenario(config)
    text = render_report(report)
    if args.out is not None:
        if not _write_out(args.out, text, "transcript"):
            return 1
    else:
        sys.stdout.write(text)
        # a closed stdout fails here, before the verdict, as an unwritable --out does
        sys.stdout.flush()
    print(f"verdict: {report.verdict.value}", file=sys.stderr)
    return 0 if report.verdict is Verdict.KEY_ASSEMBLED else 2


def _cmd_demo(args) -> int:
    if not 1 <= args.bits <= _DEMO_MAX_BITS:
        raise _UsageError(f"--bits must be in 1..{_DEMO_MAX_BITS} for executed rows")
    # exponents: 0, then the smallest value of each bit size up to the cap
    exponents = [0] + [1 << (b - 1) for b in range(1, args.bits + 1)]
    g = 2
    bit_lengths = [v.bit_length() for v in commit_integer(exponents, g)]
    # a 1024-bit field's exponents, sized by formula, never materialized
    projected = projected_bit_length(g, 1 << PROJECTION_EXPONENT_LOG2)
    infeasible = projected > INTEGER_COMMITMENT_GUARD_BITS

    print(f"unreduced commitments 2**a (guard: {INTEGER_COMMITMENT_GUARD_BITS} bits per value)")
    print(f"{'exponent a':>14}  {'bits of 2**a':>14}  note")
    for a, bits in zip(exponents, bit_lengths):
        print(f"{a:>14}  {bits:>14}  executed, bits = a + 1")
    approx = f"about 10**{(len(str(projected)) - 1)}"
    flag = "INFEASIBLE to store" if infeasible else "storable"
    print(f"{'~2**' + str(PROJECTION_EXPONENT_LOG2):>14}  {approx:>14}  projected only, {flag}")
    print()
    print("a commitment to a coefficient of a 1024-bit prime field would need")
    print(f"floor(a * log2(g)) + 1 = {str(projected)[:20]}... bits "
          f"({len(str(projected))} decimal digits just to write the bit count);")
    print("no storage holds it, so the unreduced-commitment fix stays theoretical.")

    if args.out is not None:
        doc = {
            "version": "1",
            "g": str(g),
            "entries": [
                {"exponent": str(a), "bit_length": str(bits)}
                for a, bits in zip(exponents, bit_lengths)
            ],
            "projected": {
                "exponent_log2": PROJECTION_EXPONENT_LOG2,
                "bit_length": str(projected),
                "infeasible": infeasible,
            },
        }
        return 0 if _write_out(args.out, canonical_json(doc), "size report") else 1
    return 0


def _cmd_verify(args) -> int:
    try:
        with open(args.transcript) as f:
            raw = f.read(MAX_TRANSCRIPT_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read transcript: {exc}", file=sys.stderr)
        return 1
    if len(raw) > MAX_TRANSCRIPT_CHARS:
        print(f"cannot read transcript: longer than {MAX_TRANSCRIPT_CHARS:,} characters, "
              f"the most an admitted config renders", file=sys.stderr)
        return 1
    problems = audit_transcript(raw)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print("transcript verified: regenerating its config reproduces it byte for byte",
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            sys.stdout.write(_help(command))
            return 0
        if command == "run":
            return _cmd_run(args)
        if command == "demo-integer-commitments":
            return _cmd_demo(args)
        return _cmd_verify(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except VsslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """The `vsslab` process: main() on sys.argv, then exit with its code.

    main() is the in-process API and leaves the caller's collector alone.
    Here the process is about to end, so gc.freeze() moves every tracked
    object to the permanent generation, which the collections run at
    finalization skip, and the OS takes the memory back. atexit
    handlers, stream flushes and file closes still run. A stdout whose
    reader has gone gives one error line and exit 1, as the Python docs'
    note on SIGPIPE advises."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        # the interpreter flushes stdout again at exit; that write goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
