"""Command-line front end.

    vsslab run --scenario NAME --seed 7 --out transcript.json
    vsslab demo-integer-commitments --bits 12
    vsslab verify transcript.json

Exit codes: 0 when the run assembled the key (or the subcommand simply
succeeded), 2 when the key was blocked, 1 for usage, config, or
verification errors.
"""

from __future__ import annotations

import argparse
import sys

from .errors import VsslabError
from .protocol import SCENARIO_NAMES, GenSpec, Verdict, build_scenario, default_mode, run_scenario
from .transcript import audit_transcript, canonical_json, render_report
from .vss import (
    INTEGER_COMMITMENT_GUARD_BITS,
    PROJECTION_EXPONENT_LOG2,
    commit_integer,
    projected_bit_length,
)

_DEMO_MAX_BITS = 20


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this laboratory reserves
    # 2 for blocked keys, so usage problems are rerouted to exit 1
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="vsslab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write its transcript")
    run.add_argument("--scenario", required=True, choices=SCENARIO_NAMES)
    run.add_argument("--n", type=int, default=5, help="number of parties (default 5)")
    run.add_argument("--t", type=int, default=3, help="reconstruction threshold (default 3)")
    group = run.add_mutually_exclusive_group()
    group.add_argument("--params", help="registry parameter set name (default per scenario)")
    group.add_argument("--bits", type=int,
                       help="generate fresh parameters of this size instead of --params")
    run.add_argument("--seed", required=True, type=int, help="64-bit run seed")
    run.add_argument("--out", help="write the transcript here instead of stdout")

    demo = sub.add_parser("demo-integer-commitments",
                          help="size table for unreduced integer commitments")
    demo.add_argument("--bits", type=int, default=8,
                      help=f"largest executed exponent bit size, 1..{_DEMO_MAX_BITS}")
    demo.add_argument("--out", help="also write the size report as JSON")

    verify = sub.add_parser("verify", help="audit a transcript against the library")
    verify.add_argument("transcript", help="path to a transcript JSON file")
    return parser


def _cmd_run(args) -> int:
    params_ref = args.params
    if args.bits is not None:
        params_ref = GenSpec(bits=args.bits, mode=default_mode(args.scenario))
    config = build_scenario(args.scenario, seed=args.seed, n=args.n, t=args.t,
                            params_ref=params_ref)
    report = run_scenario(config)
    text = render_report(report)
    if args.out:
        try:
            with open(args.out, "w") as f:
                f.write(text)
        except OSError as exc:
            print(f"cannot write transcript: {exc}", file=sys.stderr)
            return 1
        print(f"transcript written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
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

    if args.out:
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
        try:
            with open(args.out, "w") as f:
                f.write(canonical_json(doc))
        except OSError as exc:
            print(f"cannot write size report: {exc}", file=sys.stderr)
            return 1
        print(f"size report written to {args.out}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    try:
        with open(args.transcript) as f:
            raw = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read transcript: {exc}", file=sys.stderr)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "demo-integer-commitments":
            return _cmd_demo(args)
        return _cmd_verify(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except VsslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
