"""Command line behaviour: exit codes, transcript files, the size demo."""

import hashlib
import json

import pytest

from vsslab.cli import main


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


def test_verify_rejects_value_tamper(tmp_path, capsys):
    out = tmp_path / "t.json"
    run_cli("run", "--scenario", "honest", "--seed", "7", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["shares"][3]["value"] = str(int(doc["shares"][3]["value"]) + 1)
    out.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    assert run_cli("verify", str(out)) == 1
    assert "FAIL" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda doc: [],
    lambda doc: {**doc, "config": {**doc["config"], "behaviors": []}},
    lambda doc: {**doc, "config": {**doc["config"], "params_ref": {"name": 3}}},
], ids=["top-level-list", "behaviors-list", "numeric-name"])
def test_verify_malformed_transcript_fails_cleanly(tmp_path, capsys, edit):
    out = tmp_path / "t.json"
    run_cli("run", "--scenario", "honest", "--seed", "7", "--out", str(out))
    out.write_text(json.dumps(edit(json.loads(out.read_text())), sort_keys=True, indent=2))
    assert run_cli("verify", str(out)) == 1
    assert "FAIL" in capsys.readouterr().err


@pytest.mark.parametrize("scenario,label", [("false-share", "honest"), ("honest", "")])
def test_verify_rejects_a_relabelled_transcript(tmp_path, capsys, scenario, label):
    out = tmp_path / "t.json"
    run_cli("run", "--scenario", scenario, "--seed", "5", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["config"]["scenario"] = label
    out.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    capsys.readouterr()
    assert run_cli("verify", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"FAIL: config does not re-run: scenario {label!r}")
    assert "Traceback" not in err


def test_verify_undecodable_file_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "t.json"
    out.write_bytes(b"\xff\xfe{}")
    assert run_cli("verify", str(out)) == 1
    assert "cannot read transcript" in capsys.readouterr().err


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


def test_hardened_scenario_uses_hardened_generation(tmp_path):
    out = tmp_path / "t.json"
    code = run_cli(
        "run", "--scenario", "hardened-attack", "--seed", "5", "--bits", "16", "--out", str(out)
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["mode"] == "hardened"
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
        (8, "5f1454a4061f2b6c257737ff5033ab50ee35fc655d949a4b35e9839688bb3511",
         "d625ae22cf807a7b521c04bbaaebf398b1fb9771be2aa28d56585f4d51ec1ecb"),
        (20, "cccfe3aab445168bba79564c1126551fc158d669c858927d6c916b4eb48cd5fb",
         "50367dff0a2fd4118213470002957ee7449fbe430b20d8ce63ac64ecd257d7ef"),
    ])
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
