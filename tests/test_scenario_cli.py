import json

import pytest

from tendersim import audit
from tendersim.cli import main
from tendersim.errors import IncomparableScenarios, ScenarioError
from tendersim.scenario import compare_schemes, load_scenario, run_scenario

from conftest import SCENARIO_DIR
from reference_data import DEPLOY_GAS, PER_PRIOR_BID_COPY


def _read(path):
    return path.read_bytes()


# --- parsing and validation ---------------------------------------------------------


def test_parse_error_carries_line_number(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{\n  "name": "x",\n  oops\n}\n', encoding="utf-8")
    with pytest.raises(ScenarioError) as err:
        load_scenario(bad)
    assert f"{bad}:3:" in str(err.value)


def test_cli_run_exits_nonzero_on_unparseable_scenario(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"name": "x",,}\n', encoding="utf-8")
    code = main(["run", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{bad}:1:" in err  # line-anchored diagnostic


def test_validation_error_carries_json_path(tmp_path):
    doc = json.loads((SCENARIO_DIR / "full_track_10_bids.json").read_text())
    doc["bidders"][2]["submit_at_ms"] = doc["bidders"][1]["submit_at_ms"]
    p = tmp_path / "clash.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ScenarioError) as err:
        load_scenario(p)
    assert "$.bidders[2]" in str(err.value)
    assert "strictly increasing" in str(err.value)


def test_unknown_action_rejected(tmp_path):
    doc = json.loads((SCENARIO_DIR / "full_track_10_bids.json").read_text())
    doc["adversarial"] = [{"action": "BRIBE_EVERYONE", "at_ms": 5}]
    p = tmp_path / "bad_action.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ScenarioError) as err:
        load_scenario(p)
    assert "$.adversarial[0]" in str(err.value)


def test_erase_bid_invalid_for_stateless(tmp_path):
    doc = json.loads((SCENARIO_DIR / "stateless_10_bids.json").read_text())
    doc["adversarial"] = [{"action": "ERASE_BID", "index": 0}]
    p = tmp_path / "erase_stateless.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ScenarioError):
        load_scenario(p)


# --- bundled scenarios through the CLI ------------------------------------------------


def test_run_command_writes_reports_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", str(SCENARIO_DIR / "full_track_10_bids.json"),
                 "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "expected_check: PASS" in printed
    for name in ("gas.csv", "audit.json", "summary.txt", "chain.json"):
        assert (out / name).exists()
    rows = (out / "gas.csv").read_text().splitlines()
    assert rows[0] == "tx_index,kind,gas_used"
    bid_rows = [r for r in rows if ",bid_full," in r]
    gas = [int(r.split(",")[2]) for r in bid_rows]
    assert gas[0] == 299_501
    assert gas[1] == 320_282
    assert all(b - a == PER_PRIOR_BID_COPY for a, b in zip(gas, gas[1:]))


def test_stateless_gas_rows_flat(tmp_path):
    outcome = run_scenario(SCENARIO_DIR / "stateless_10_bids.json", out_dir=tmp_path)
    assert outcome.exit_code == 0
    assert outcome.bid_gas == [156_601] * 10


def test_rigged_scenario_exits_zero_because_failure_is_expected(tmp_path):
    outcome = run_scenario(SCENARIO_DIR / "rigged_winner.json", out_dir=tmp_path)
    assert outcome.exit_code == 0
    assert not outcome.report.winner_match


def test_wrong_expectation_gives_nonzero_exit(tmp_path):
    doc = json.loads((SCENARIO_DIR / "full_track_10_bids.json").read_text())
    doc["expected"]["winner_id"] = "B01"  # actually B05
    outcome = run_scenario(doc, out_dir=tmp_path)
    assert outcome.exit_code == 1
    assert any("winner" in f for f in outcome.expected_failures)


def test_every_bundled_scenario_meets_its_expectations(tmp_path):
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        outcome = run_scenario(path, out_dir=tmp_path / path.stem)
        assert outcome.exit_code == 0, (path.name, outcome.expected_failures)


# --- compare ---------------------------------------------------------------------------


def test_compare_schemes_table():
    table, rows = compare_schemes([
        SCENARIO_DIR / "full_track_10_bids.json",
        SCENARIO_DIR / "protected_10_bids.json",
        SCENARIO_DIR / "stateless_10_bids.json",
    ])
    by_scheme = {r["scheme"]: r for r in rows}
    assert by_scheme["FULL_TRACK"]["deployment_gas"] == DEPLOY_GAS["FULL_TRACK"]
    assert by_scheme["PROTECTED"]["deployment_gas"] == DEPLOY_GAS["PROTECTED"]
    assert by_scheme["STATELESS"]["deployment_gas"] == DEPLOY_GAS["STATELESS"]
    assert [by_scheme[s]["bid_gas_slope"] for s in
            ("FULL_TRACK", "PROTECTED", "STATELESS")] == \
        [PER_PRIOR_BID_COPY, PER_PRIOR_BID_COPY, 0]
    assert [by_scheme[s]["R5"] for s in ("FULL_TRACK", "PROTECTED", "STATELESS")] == \
        ["PARTIAL", "PARTIAL", "PASS"]
    assert "892160" in table and "20781" in table


def test_compare_refuses_mismatched_tenders():
    with pytest.raises(IncomparableScenarios):
        compare_schemes([
            SCENARIO_DIR / "full_track_10_bids.json",
            SCENARIO_DIR / "forged_cert.json",  # different limit
        ])
    with pytest.raises(IncomparableScenarios):
        compare_schemes([SCENARIO_DIR / "full_track_10_bids.json"])


# --- audit subcommand --------------------------------------------------------------------


def test_audit_command_on_exported_chain(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", str(SCENARIO_DIR / "protected_10_bids.json"),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["audit", str(out / "chain.json")])
    printed = capsys.readouterr().out
    assert code == 0
    assert printed.startswith("AUDIT PASS")


def test_audit_command_flags_tampered_export(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", str(SCENARIO_DIR / "erased_bid.json"),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["audit", str(out / "chain.json")])
    printed = capsys.readouterr().out
    assert code == 1
    assert printed.startswith("AUDIT FAIL")


@pytest.mark.parametrize("content", [
    b'{"blocks": [',  # truncated JSON
    b'{"contracts": {}, "config": {}, "gas_schedule": {}}',  # no blocks
    b'[]',
    b'\xff\xfe',
    b'[' * 100_000,  # nested deeper than the decoder recurses
    b'{"blocks": [], "contracts": {}, "config": {"bogus": 1}, "gas_schedule": {}}',
    b'{"blocks": [], "contracts": {}, "config": {}, "gas_schedule": {"deploy_rft_full": 0}}',
])
def test_audit_command_rejects_malformed_export(tmp_path, capsys, content):
    path = tmp_path / "chain.json"
    path.write_bytes(content)
    code = main(["audit", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error[MALFORMED_EXPORT]")


# --- determinism ---------------------------------------------------------------------------


def test_identical_scenario_runs_are_byte_identical(tmp_path):
    first = run_scenario(SCENARIO_DIR / "early_key_reveal.json",
                         out_dir=tmp_path / "a")
    second = run_scenario(SCENARIO_DIR / "early_key_reveal.json",
                          out_dir=tmp_path / "b")
    for kind in ("gas_csv", "audit_json", "summary", "chain_export"):
        assert _read(first.written[kind]) == _read(second.written[kind])
