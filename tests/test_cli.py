"""Command line behaviour: exit codes, transcript files, the size demo."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from vsslab import cli
from vsslab.cli import main
from vsslab.protocol import SCENARIO_NAMES, build_scenario
from vsslab.registry import get_params
from vsslab.transcript import canonical_json


def run_cli(*argv):
    return main(list(argv))


def test_honest_run_exits_zero(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run_cli("run", "--scenario", "honest", "--seed", "7", "--out", str(out)) == 0
    assert "key_assembled" in capsys.readouterr().err
    assert out.exists()


def test_false_share_run_exits_two(tmp_path):
    out = tmp_path / "t.json"
    code = run_cli(
        "run", "--scenario", "false-share", "--params", "small11", "--seed", "7",
        "--out", str(out),
    )
    assert code == 2
    # the denial happens with a fully clean verification matrix
    doc = json.loads(out.read_text())
    assert all(all(row) for row in doc["verification_matrix"])


def test_run_without_out_still_prints_verdict(capsys):
    assert run_cli("run", "--scenario", "honest", "--seed", "7") == 0
    assert "key_assembled" in capsys.readouterr().err


def test_identical_invocations_write_identical_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("run", "--scenario", "false-share", "--seed", "42", "--out", str(a))
    run_cli("run", "--scenario", "false-share", "--seed", "42", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_verify_accepts_fresh_transcript(tmp_path, capsys):
    out = tmp_path / "t.json"
    run_cli("run", "--scenario", "order-shift", "--seed", "2", "--out", str(out))
    assert run_cli("verify", str(out)) == 0
    assert "verified" in capsys.readouterr().err


def test_verify_accepts_an_unedited_round_trip(tmp_path, capsys):
    # the control for the rewrites below: parsing and re-rendering a
    # transcript with canonical_json leaves it verifiable, so each of
    # them fails for its edit alone
    out = tmp_path / "t.json"
    run_cli("run", "--scenario", "false-share", "--seed", "7", "--out", str(out))
    text = out.read_text()
    out.write_text(canonical_json(json.loads(text)))
    assert out.read_text() == text
    capsys.readouterr()
    assert run_cli("verify", str(out)) == 0
    assert "verified" in capsys.readouterr().err


def test_verify_refuses_a_schema_2_transcript(tmp_path, capsys):
    # honest pools list the same attempts under both schemas, so this is
    # the file schema "2" wrote: the same fields, indented
    out = tmp_path / "t.json"
    run_cli("run", "--scenario", "honest", "--seed", "7", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["version"] = "2"
    out.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    capsys.readouterr()
    assert run_cli("verify", str(out)) == 1
    assert capsys.readouterr().err == "FAIL: unsupported schema version '2'\n"


def test_verify_refuses_a_schema_3_transcript(capsys):
    # the file schema "3" wrote for false-share at seed 7, an object per share
    path = Path(__file__).parent / "data" / "schema3_false_share_seed7.json"
    assert run_cli("verify", str(path)) == 1
    assert capsys.readouterr().err == "FAIL: unsupported schema version '3'\n"


def test_verify_rejects_value_tamper(tmp_path, capsys):
    out = tmp_path / "t.json"
    run_cli("run", "--scenario", "honest", "--seed", "7", "--out", str(out))
    doc = json.loads(out.read_text())
    # dealer 1's share to party 4
    doc["shares"]["1"][3] = str(int(doc["shares"]["1"][3]) + 1)
    out.write_text(canonical_json(doc))
    capsys.readouterr()
    assert run_cli("verify", str(out)) == 1
    assert capsys.readouterr().err.startswith("FAIL: shares.1[3]: transcript has")


@pytest.mark.parametrize("edit", [
    lambda doc: [],
    lambda doc: {**doc, "config": {**doc["config"], "behaviors": []}},
    lambda doc: {**doc, "config": {**doc["config"], "params_ref": {"name": 3}}},
], ids=["top-level-list", "behaviors-list", "numeric-name"])
def test_verify_malformed_transcript_fails_cleanly(tmp_path, capsys, edit):
    out = tmp_path / "t.json"
    run_cli("run", "--scenario", "honest", "--seed", "7", "--out", str(out))
    out.write_text(canonical_json(edit(json.loads(out.read_text()))))
    assert run_cli("verify", str(out)) == 1
    assert "FAIL" in capsys.readouterr().err


@pytest.mark.parametrize("scenario,label", [("false-share", "honest"), ("honest", "")])
def test_verify_rejects_a_relabelled_transcript(tmp_path, capsys, scenario, label):
    out = tmp_path / "t.json"
    run_cli("run", "--scenario", scenario, "--seed", "5", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["config"]["scenario"] = label
    out.write_text(canonical_json(doc))
    capsys.readouterr()
    assert run_cli("verify", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"FAIL: config does not re-run: scenario {label!r}")
    assert "Traceback" not in err


@pytest.mark.parametrize("key,value,message", [
    ("seed", str(1 << 64), "seed must fit in 64 bits"),
    ("targets", [2, 3, 4, 5, 6], "party 1 targets unknown parties [6]"),
    ("targets", [0, 2], "party 1 targets unknown parties [0]"),
], ids=["seed-2**64", "target-above-n", "target-zero"])
def test_verify_refuses_a_config_value_out_of_range(tmp_path, capsys, key, value, message):
    out = tmp_path / "t.json"
    run_cli("run", "--scenario", "false-share", "--seed", "7", "--out", str(out))
    doc = json.loads(out.read_text())
    node = doc["config"] if key == "seed" else doc["config"]["behaviors"]["1"]
    node[key] = value
    out.write_text(canonical_json(doc))
    capsys.readouterr()
    assert run_cli("verify", str(out)) == 1
    assert capsys.readouterr().err == f"FAIL: config does not re-run: {message}\n"


def test_verify_undecodable_file_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "t.json"
    out.write_bytes(b"\xff\xfe{}")
    assert run_cli("verify", str(out)) == 1
    assert "cannot read transcript" in capsys.readouterr().err


# a fresh process, since this one has json loaded: on Python 3.10 and 3.11
# json's C scanner raises SystemError on malformed text unless json.decoder
# is loaded, so only a process that has not loaded it can show a slip
@pytest.mark.parametrize("text", [
    '{"version": "4', '{"version": "\\q"}', '{"version" "4"}',
    '{"version": "4"} {}', '\ufeff{"version": "4"}', "",
    "[" * 100_000, '{"version": ' + "7" * 4301 + "}", '{"version": "4\t"}',
], ids=["unterminated-string", "bad-escape", "missing-colon", "extra-data", "leading-bom",
        "empty", "deep-nesting", "4301-digit-integer", "control-character"])
def test_verify_in_a_fresh_process_words_malformed_json_as_json_does(tmp_path, text):
    path = tmp_path / "t.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises((ValueError, RecursionError)) as refused:
        json.loads(text)
    result = subprocess.run(
        [sys.executable, "-S", "-m", "vsslab.cli", "verify", str(path)],
        capture_output=True, text=True, encoding="utf-8",
        env={"PYTHONPATH": str(Path(cli.__file__).parent.parent)},
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"FAIL: not valid JSON: {refused.value}\n"


def test_verify_missing_file_is_usage_error(capsys):
    assert run_cli("verify", "/nonexistent/path.json") == 1


def test_run_unwritable_out_is_clean_error(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "t.json"
    code = run_cli("run", "--scenario", "honest", "--params", "small11",
                   "--seed", "1", "--out", str(target))
    assert code == 1
    assert "cannot write transcript" in capsys.readouterr().err


def test_demo_unwritable_out_is_clean_error(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "r.json"
    code = run_cli("demo-integer-commitments", "--bits", "4", "--out", str(target))
    assert code == 1
    assert "cannot write size report" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("run", "--scenario", "honest", "--seed", "1", "--out", ""), "cannot write transcript"),
    (("run", "--scenario", "honest", "--seed", "1", "--out="), "cannot write transcript"),
    (("demo-integer-commitments", "--bits", "4", "--out", ""), "cannot write size report"),
], ids=["run", "run-equals", "demo"])
def test_an_empty_out_path_is_a_path_that_cannot_be_written(capsys, argv, message):
    # an empty string is a value too: it names no file, so the write
    # fails instead of falling back to stdout or skipping the report
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert '"version"' not in captured.out


def test_run_rejects_unknown_scenario(capsys):
    assert run_cli("run", "--scenario", "bogus", "--seed", "1") == 1


def test_run_requires_seed(capsys):
    assert run_cli("run", "--scenario", "honest") == 1


def test_run_rejects_params_and_bits_together(capsys):
    # presence counts, not truthiness: an empty name or zero bits still clash
    for params, bits in [("small11", "16"), ("", "16"), ("v64", "0")]:
        code = run_cli(
            "run", "--scenario", "honest", "--seed", "1", "--params", params, "--bits", bits
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error:")


def test_run_reports_an_unknown_params_name_unquoted(tmp_path, capsys):
    code = run_cli("run", "--scenario", "honest", "--params", "nope", "--seed", "1",
                   "--out", str(tmp_path / "x.json"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: no parameter set named 'nope'")


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_run_refuses_a_seed_outside_64_bits(capsys, seed):
    assert run_cli("run", "--scenario", "honest", "--seed", seed) == 1
    assert capsys.readouterr().err == "error: seed must fit in 64 bits\n"


def test_run_rejects_bad_threshold(capsys):
    assert run_cli("run", "--scenario", "honest", "--seed", "1", "--t", "9") == 1


def test_run_rejects_out_of_range_bits(capsys):
    assert run_cli("run", "--scenario", "honest", "--seed", "1", "--bits", "200") == 1
    assert "error:" in capsys.readouterr().err


def test_run_with_generated_params(tmp_path):
    out = tmp_path / "t.json"
    code = run_cli(
        "run", "--scenario", "honest", "--seed", "5", "--bits", "24", "--out", str(out)
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert int(doc["params"]["p"]).bit_length() == 24


def test_run_with_registry_params(tmp_path):
    out = tmp_path / "t.json"
    code = run_cli(
        "run", "--scenario", "honest", "--seed", "5", "--params", "v32", "--out", str(out)
    )
    assert code == 0


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_hardened_scenario_uses_hardened_generation(tmp_path, scenario):
    # --bits generates in the mode of the scenario's default group, which
    # is hardened for hardened-attack alone
    out = tmp_path / "t.json"
    code = run_cli(
        "run", "--scenario", scenario, "--seed", "5", "--bits", "16", "--out", str(out)
    )
    assert code == (2 if scenario in ("false-share", "order-shift") else 0)
    doc = json.loads(out.read_text())
    default = get_params(build_scenario(scenario, seed=5).params_ref)
    assert doc["params"]["mode"] == default.mode.value
    assert (doc["params"]["mode"] == "hardened") == (scenario == "hardened-attack")
    if scenario == "hardened-attack":
        assert int(doc["params"]["p"]) == 2 * int(doc["params"]["q"]) + 1


class TestSizeDemo:
    def test_table_lists_executed_rows_and_projection(self, capsys):
        assert run_cli("demo-integer-commitments", "--bits", "6") == 0
        out = capsys.readouterr().out
        assert "bits = a + 1" in out
        assert "INFEASIBLE" in out
        # exponent 32 appears with bit length 33
        assert any("32" in line and "33" in line for line in out.splitlines())

    def test_report_file(self, tmp_path):
        out = tmp_path / "sizes.json"
        assert run_cli("demo-integer-commitments", "--bits", "4", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        entries = doc["entries"]
        assert [int(e["exponent"]) for e in entries] == [0, 1, 2, 4, 8]
        assert all(int(e["bit_length"]) == int(e["exponent"]) + 1 for e in entries)
        assert doc["projected"]["infeasible"] is True
        assert int(doc["projected"]["exponent_log2"]) == 1024

    @pytest.mark.parametrize("bits, json_sha256, stdout_sha256", [
        (8, "0f52da9942716170c5273e3750a1586c55cecf90d987602eea785025803e3b29",
         "d625ae22cf807a7b521c04bbaaebf398b1fb9771be2aa28d56585f4d51ec1ecb"),
        (20, "7c30b35d1b5b03e495ac37febaf3555c91057aa9d38c1e3a72f5fc4e41510217",
         "50367dff0a2fd4118213470002957ee7449fbe430b20d8ce63ac64ecd257d7ef"),
    ], ids=["8", "20"])
    def test_output_is_byte_stable(self, tmp_path, capsys, bits, json_sha256, stdout_sha256):
        out = tmp_path / "sizes.json"
        assert run_cli("demo-integer-commitments", "--bits", str(bits), "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == json_sha256
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha256

    def test_bits_bounds_enforced(self):
        assert run_cli("demo-integer-commitments", "--bits", "0") == 1
        assert run_cli("demo-integer-commitments", "--bits", "21") == 1


def test_no_arguments_is_a_usage_error():
    assert run_cli() == 1


class TestParser:
    """The forms README and CI use, and every malformed command line."""

    def test_flag_equals_value(self, tmp_path):
        out = tmp_path / "t.json"
        assert run_cli("run", "--scenario=honest", "--seed=7", f"--out={out}") == 0
        assert out.read_text() == canonical_json(json.loads(out.read_text()))

    def test_a_unique_prefix_names_its_flag(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("run", "--scen", "false-share", "--se", "3", "--par", "v32",
                       "--o", str(a)) == 2
        assert run_cli("run", "--scenario", "false-share", "--seed", "3", "--params", "v32",
                       "--out", str(b)) == 2
        assert a.read_bytes() == b.read_bytes()

    def test_an_empty_value_and_a_negative_number_are_values(self, capsys):
        assert run_cli("run", "--scenario", "honest", "--seed", "-1") == 1
        assert capsys.readouterr().err == "error: seed must fit in 64 bits\n"
        assert run_cli("run", "--scenario", "honest", "--seed", "1", "--params=") == 1
        assert capsys.readouterr().err.startswith("error: no parameter set named ''")

    def test_defaults_apply_to_omitted_flags(self, tmp_path):
        out = tmp_path / "t.json"
        assert run_cli("run", "--scenario", "honest", "--seed", "7", "--out", str(out)) == 0
        config = json.loads(out.read_text())["config"]
        assert (config["n"], config["t"], config["params_ref"]) == (5, 3, {"name": "small11"})

    @pytest.mark.parametrize("argv,usage", [
        (["-h"], "usage: vsslab run "),
        (["--help"], "usage: vsslab run "),
        (["run", "-h"], "usage: vsslab run "),
        (["run", "--scenario", "honest", "--help"], "usage: vsslab run "),
        (["verify", "--help"], "usage: vsslab verify TRANSCRIPT\n"),
        (["demo-integer-commitments", "--he"], "usage: vsslab demo-integer-commitments "),
    ], ids=["-h", "--help", "run-h", "run-after-a-flag", "verify", "demo-prefix"])
    def test_help_prints_usage_to_stdout_and_exits_zero(self, capsys, argv, usage):
        assert run_cli(*argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(usage)
        assert captured.err == ""

    def test_help_lists_every_flag_of_its_command(self, capsys):
        assert run_cli("run", "-h") == 0
        out = capsys.readouterr().out
        for flag in ("--scenario", "--seed", "--n", "--t", "--params", "--bits", "--out"):
            assert f"\n  {flag} " in out
        assert all(name in out for name in SCENARIO_NAMES)

    @pytest.mark.parametrize("argv,message", [
        (["run", "--scenario", "honest", "--seed", "1", "--bogus", "x"],
         "unrecognized argument '--bogus'"),
        (["run", "--scenario", "honest", "--seed"], "argument --seed: expected one value"),
        (["run", "--scenario", "--seed", "1"], "argument --scenario: expected one value"),
        (["run", "--scenario", "honest", "--seed", "1", "--n", "five"],
         "argument --n: invalid int value 'five'"),
        (["run", "--scenario", "honest", "--seed", "1", "stray"],
         "unrecognized argument 'stray'"),
        (["verify"], "verify takes one transcript path, got 0"),
        (["verify", "a.json", "b.json"], "verify takes one transcript path, got 2"),
        (["run", "--s", "honest"], "ambiguous option --s: could match --scenario, --seed"),
        (["run", "--scenario", "honest", "--seed", "1", "--seed", "2"],
         "argument --seed: given twice"),
        (["run", "--scenario", "honest", "--seed", "1", "--seed=1"],
         "argument --seed: given twice"),
        (["run", "--scenario", "bogus", "--seed", "1"], "argument --scenario: invalid choice"),
        (["run", "--seed", "1"], "the following arguments are required: --scenario"),
        (["run"], "the following arguments are required: --scenario, --seed"),
        (["demo-integer-commitments", "--params", "v32"], "unrecognized argument '--params'"),
        (["bogus"], "unknown command 'bogus'"),
        ([], "a command is required"),
    ], ids=["unknown-flag", "missing-value-at-end", "missing-value-before-flag", "non-int",
            "stray-positional", "verify-no-path", "verify-two-paths", "ambiguous-prefix",
            "repeated-flag", "repeated-equals-form", "bad-choice", "missing-scenario",
            "missing-both", "flag-of-another-command", "unknown-command",
            "no-command"])
    def test_a_malformed_command_line_is_a_usage_error(self, capsys, argv, message):
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage error: {message}")
        assert captured.out == ""


def test_verify_refuses_a_file_longer_than_any_admitted_transcript(tmp_path, capsys,
                                                                   monkeypatch):
    out = tmp_path / "t.json"
    run_cli("run", "--scenario", "honest", "--seed", "7", "--out", str(out))
    size = len(out.read_text())
    monkeypatch.setattr(cli, "MAX_TRANSCRIPT_CHARS", size)
    capsys.readouterr()
    assert run_cli("verify", str(out)) == 0
    assert "verified" in capsys.readouterr().err
    monkeypatch.setattr(cli, "MAX_TRANSCRIPT_CHARS", size - 1)
    assert run_cli("verify", str(out)) == 1
    assert capsys.readouterr().err == (
        f"cannot read transcript: longer than {size - 1:,} characters, "
        "the most an admitted config renders\n")

