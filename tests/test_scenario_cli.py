import contextlib
import copy
import functools
import io
import json
import math
import operator
import os
import re
from random import Random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tendersim import audit, crypto
from tendersim.chain import Chain, ChainConfig, compute_tx_hash, contract_address
from tendersim.cli import main
from tendersim.contracts import MAX_ID_BYTES
from tendersim.encoding import (
    canonical_json,
    canonical_json_bytes,
    from_hex,
    from_text,
    to_hex,
    to_text,
    write_canonical_json,
)
from tendersim.errors import IncomparableScenarios, ScenarioError
from tendersim.scenario import (
    MAX_BIDS,
    MAX_OFFSET_MS,
    compare_schemes,
    load_scenario,
    run_scenario,
    validate_scenario,
)

import chain_surgery
from conftest import BUNDLED_SCENARIOS, SCENARIO_DIR, leaf_paths
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


def _full_track_doc() -> dict:
    return json.loads((SCENARIO_DIR / "full_track_10_bids.json").read_text())


def _full_track_file_with(edit) -> bytes:
    """full_track_10_bids edited by ``edit``, as JSON that spells every
    character above U+007F, a lone surrogate too, as a \\u escape."""
    doc = _full_track_doc()
    edit(doc)
    return json.dumps(doc).encode("ascii")


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("content", [
    pytest.param(b'{"name": "caf\xe9"}', id="invalid-utf-8"),
    pytest.param(b"[" * 100_000, id="nested-deeper-than-the-decoder-recurses"),
    pytest.param(b'{"seed": ' + b"7" * 5000 + b"}", id="int-5000-digits"),
    # json.loads reads a lone surrogate escape as a str that UTF-8 cannot encode again
    pytest.param(_full_track_file_with(lambda d: d["tender"].update(title="\ud800")),
                 id="title-lone-surrogate"),
    pytest.param(_full_track_file_with(lambda d: d["tender"].update(terms="\ud800")),
                 id="terms-lone-surrogate"),
    pytest.param(_full_track_file_with(lambda d: d["bidders"][0].update(id="\ud800")),
                 id="bidder-id-lone-surrogate"),
    pytest.param(_full_track_file_with(lambda d: d["bidders"][0].update(free_text="x\udfff")),
                 id="free-text-lone-surrogate"),
])
def test_cli_refuses_a_scenario_file_json_cannot_read(tmp_path, capsys, command, content):
    bad = tmp_path / "broken.json"
    bad.write_bytes(content)
    code = main([command, str(bad), str(bad)] if command == "compare" else [command, str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error[SCENARIO_ERROR]: {bad}: ")


def _late_bid_at(at_ms):
    return lambda d: d.update(adversarial=[{"action": "LATE_BID", "bidder": "B01",
                                            "at_ms": at_ms}])


# each offset a scenario names, set to a value: the tender's length, a bid's and an action's
_OFFSETS = [
    (lambda value: lambda d: d["tender"].update(length_ms=value), "$.tender.length_ms"),
    (lambda value: lambda d: d["bidders"][9].update(submit_at_ms=value),
     "$.bidders[9].submit_at_ms"),
    (_late_bid_at, "$.adversarial[0].at_ms"),
]


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("value", [MAX_OFFSET_MS + 1, 2**64], ids=["max-plus-1", "2**64"])
@pytest.mark.parametrize("offset, where", _OFFSETS, ids=["length", "submit-at", "at"])
def test_cli_refuses_a_block_timestamp_beyond_64_bits(tmp_path, capsys, command, value, offset,
                                                     where):
    # refused at its path before the run, not by the ledger when it stamps the block
    bad = tmp_path / "far.json"
    bad.write_bytes(_full_track_file_with(offset(value)))
    exit_code = main([command, str(bad), str(bad)] if command == "compare"
                     else [command, str(bad)])
    err = capsys.readouterr().err
    assert exit_code == 2
    assert err.startswith(f"error[SCENARIO_ERROR]: {bad}: at {where}: must be an integer from 1 ")


@pytest.mark.parametrize("offset, where", _OFFSETS, ids=["length", "submit-at", "at"])
def test_a_run_completes_at_the_largest_offset(offset, where):
    doc = _full_track_doc()
    offset(MAX_OFFSET_MS)(doc)
    assert run_scenario(doc).exit_code == 0


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


def _late_bid(doc, **extra):
    doc["adversarial"] = [{"action": "LATE_BID", "bidder": "B01", "at_ms": 3_700_000,
                           **extra}]


@pytest.mark.parametrize("edit, where", [
    pytest.param(lambda d: d.update(bidders=5), "$.bidders", id="bidders-not-a-list"),
    pytest.param(lambda d: d.update(adversarial=3), "$.adversarial",
                 id="adversarial-not-a-list"),
    pytest.param(lambda d: d.update(tender=["x"]), "$.tender", id="tender-not-an-object"),
    pytest.param(lambda d: d["bidders"].__setitem__(1, "B02"), "$.bidders[1]",
                 id="bidder-not-an-object"),
    pytest.param(lambda d: d["bidders"][0].update(fields=[1]), "$.bidders[0].fields",
                 id="fields-not-an-object"),
    pytest.param(lambda d: d["bidders"][2]["fields"].update(price="cheap"),
                 "$.bidders[2].fields.price", id="field-value-a-string"),
    pytest.param(lambda d: d["bidders"][2]["fields"].update(price=True),
                 "$.bidders[2].fields.price", id="field-value-a-boolean"),
    pytest.param(lambda d: d["bidders"][2]["fields"].update(price=math.nan),
                 "$.bidders[2].fields.price", id="field-value-nan"),
    pytest.param(lambda d: d["bidders"][2]["fields"].update(price=math.inf),
                 "$.bidders[2].fields.price", id="field-value-infinity"),
    pytest.param(lambda d: d["bidders"][0].update(id=["B01"]), "$.bidders[0].id",
                 id="bidder-id-not-a-string"),
    # the ledger reads an id of at most MAX_ID_BYTES UTF-8 bytes: 33 "é" are 66
    pytest.param(lambda d: d["bidders"][0].update(id="\u00e9" * (MAX_ID_BYTES // 2 + 1)),
                 "$.bidders[0].id", id="bidder-id-over-max-id-bytes"),
    pytest.param(lambda d: d["bidders"][0].update(free_text=7), "$.bidders[0].free_text",
                 id="free-text-not-a-string"),
    pytest.param(lambda d: d.update(adversarial=[7]), "$.adversarial[0]",
                 id="action-not-an-object"),
    pytest.param(lambda d: _late_bid(d, fields={"price": None}),
                 "$.adversarial[0].fields.price", id="late-bid-field-value-null"),
    pytest.param(lambda d: _late_bid(d, fields={"price": math.nan}),
                 "$.adversarial[0].fields.price", id="late-bid-field-value-nan"),
    pytest.param(lambda d: _late_bid(d, fields={"price": -math.inf}),
                 "$.adversarial[0].fields.price", id="late-bid-field-value-infinity"),
    pytest.param(lambda d: d.update(adversarial=[{"action": "RIG_WINNER", "winner": []}]),
                 "$.adversarial[0].winner", id="winner-not-a-string"),
    # a key the scenario reader does not read: the ledger's settings are fixed
    pytest.param(lambda d: d.update(chain={"block_interval_ms": 15_000}), "$.chain",
                 id="chain-block"),
    pytest.param(lambda d: d.update(adversrial=[]), "$.adversrial",
                 id="adversarial-misspelt"),
    # nor at any level below: each object is read for the keys of its kind
    pytest.param(lambda d: d["tender"].update(deadline=5), "$.tender.deadline",
                 id="tender-key-unread"),
    # the criteria are read as the tender data reads them, so a refusal is at the
    # criteria object and names the key it read
    pytest.param(lambda d: d["tender"]["criteria"].update(
        feasability=d["tender"]["criteria"].pop("feasibility")),
                 "$.tender.criteria.feasability", id="feasibility-misspelt"),
    pytest.param(lambda d: d["bidders"][3].update(withold_key=True),
                 "$.bidders[3].withold_key", id="withhold-key-misspelt"),
    pytest.param(lambda d: d.update(adversarial=[{"action": "SPAM_INVALID_CERTS",
                                                  "at_ms": 30_000, "count": 2,
                                                  "target": "B01"}]),
                 "$.adversarial[0].target", id="spam-with-a-target"),
    pytest.param(lambda d: d.update(adversarial=[{"action": "MUTATE_TENDER", "field": "data"}]),
                 "$.adversarial[0].field", id="mutate-tender-field"),
    pytest.param(lambda d: d["tender"]["criteria"].update(feasibility=[["delivery_days", "<=",
                                                                        "nan"]]),
                 "$.tender.criteria.feasibility", id="threshold-nan"),
    # a criteria value is not coerced: true is no weight, and 7 no field name
    pytest.param(lambda d: d["tender"]["criteria"]["numeric_fields"][0].__setitem__(1, True),
                 "$.tender.criteria.numeric_fields", id="weight-true"),
    pytest.param(lambda d: d["tender"]["criteria"]["numeric_fields"][0].__setitem__(1, "1"),
                 "$.tender.criteria.numeric_fields", id="weight-a-string"),
    pytest.param(lambda d: d["tender"]["criteria"]["numeric_fields"][0].__setitem__(0, 7),
                 "$.tender.criteria.numeric_fields", id="field-name-a-number"),
    pytest.param(lambda d: d["tender"]["criteria"]["numeric_fields"][0].__setitem__(
        0, ["price"]), "$.tender.criteria.numeric_fields", id="field-name-a-list"),
    pytest.param(lambda d: d["tender"]["criteria"].pop("tie_break"), "$.tender.criteria",
                 id="tie-break-missing"),
    # the typed leaves of the top level and of expected
    pytest.param(lambda d: d.update(name=["full"]), "$.name", id="name-a-list"),
    pytest.param(lambda d: d.update(name=None), "$.name", id="name-null"),
    pytest.param(lambda d: d["expected"].update(winner_id=5), "$.expected.winner_id",
                 id="winner-id-a-number"),
    pytest.param(lambda d: d["expected"].update(recomputed_winner=["B05"]),
                 "$.expected.recomputed_winner", id="recomputed-winner-a-list"),
    pytest.param(lambda d: d["expected"].update(violation_tags_include=["R5", 5]),
                 "$.expected.violation_tags_include[1]", id="violation-tag-a-number"),
    pytest.param(lambda d: d["expected"].update(violation_tags_include="R5"),
                 "$.expected.violation_tags_include", id="violation-tags-a-string"),
    pytest.param(lambda d: d["expected"]["requirements"].update(R7="PASS"),
                 "$.expected.requirements.R7", id="requirement-r7"),
    pytest.param(lambda d: d["expected"]["requirements"].update(R1="pass"),
                 "$.expected.requirements.R1", id="requirement-verdict-lowercase"),
    pytest.param(lambda d: d["expected"]["requirements"].update(R1=None),
                 "$.expected.requirements.R1", id="requirement-verdict-null"),
    pytest.param(lambda d: d["expected"].update(requirements=[]), "$.expected.requirements",
                 id="requirements-a-list"),
    # the bid cap: honest, late, forged and spam bids together
    pytest.param(lambda d: d.update(adversarial=[{"action": "SPAM_INVALID_CERTS",
                                                  "at_ms": 30_000, "count": 2**63}]),
                 "$.adversarial[0]", id="spam-count-2**63"),
    pytest.param(lambda d: d.update(adversarial=[
        {"action": "SPAM_INVALID_CERTS", "at_ms": 30_000, "count": MAX_BIDS - 11},
        {"action": "FORGE_CERT", "at_ms": 40_000, "target": "B01"},
        {"action": "LATE_BID", "bidder": "B01", "at_ms": 3_700_000}]),
                 "$.adversarial[2]", id="late-bid-one-over-the-cap"),
    pytest.param(lambda d: d["bidders"].extend(
        {"id": f"X{i}", "submit_at_ms": 10**7 + i, "fields": {}} for i in range(MAX_BIDS)),
                 f"$.bidders[{MAX_BIDS}]", id="bidders-over-the-cap"),
    # JSON true is a Python bool, and a bool is an int to isinstance
    pytest.param(lambda d: d.update(seed=True), "$.seed", id="seed-a-boolean"),
    pytest.param(lambda d: d["tender"].update(length_ms=True), "$.tender.length_ms",
                 id="length-ms-a-boolean"),
    pytest.param(lambda d: d["tender"].update(limit=True), "$.tender.limit",
                 id="limit-a-boolean"),
    pytest.param(lambda d: d["bidders"][0].update(submit_at_ms=True),
                 "$.bidders[0].submit_at_ms", id="submit-at-ms-a-boolean"),
    pytest.param(lambda d: d.update(adversarial=[{"action": "EARLY_KEY_REVEAL",
                                                  "bidder": "B01", "at_ms": True}]),
                 "$.adversarial[0].at_ms", id="at-ms-a-boolean"),
    pytest.param(lambda d: d.update(adversarial=[{"action": "SPAM_INVALID_CERTS",
                                                  "at_ms": 30_000, "count": True}]),
                 "$.adversarial[0].count", id="count-a-boolean"),
    pytest.param(lambda d: d.update(adversarial=[{"action": "ERASE_BID", "index": True}]),
                 "$.adversarial[0].index", id="index-a-boolean"),
    pytest.param(lambda d: d.update(expected=[]), "$.expected", id="expected-not-an-object"),
    # a flag is read for its truth, so only JSON true and false are flags
    pytest.param(lambda d: d["bidders"][4].update(withhold_key="no"),
                 "$.bidders[4].withhold_key", id="withhold-key-a-string"),
    pytest.param(lambda d: d["expected"].update(winner_match="yes"), "$.expected.winner_match",
                 id="winner-match-a-string"),
    pytest.param(lambda d: d["expected"].update(violations_empty="no"),
                 "$.expected.violations_empty", id="violations-empty-a-string"),
    pytest.param(lambda d: d["expected"].update(audit_pass=1), "$.expected.audit_pass",
                 id="audit-pass-an-int"),
    # run writes all four reports: a list of them is not read
    pytest.param(lambda d: d.update(reports="summary"), "$.reports", id="reports-not-a-list"),
    # the bounds of a range, and an action kind that cannot be looked up
    pytest.param(lambda d: d["tender"].update(limit=0), "$.tender.limit", id="limit-zero"),
    pytest.param(lambda d: d.update(adversarial=[{"action": ["LATE_BID"]}]),
                 "$.adversarial[0].action", id="action-kind-a-list"),
    pytest.param(lambda d: d.update(adversarial=[{"at_ms": 5}]), "$.adversarial[0]",
                 id="action-kind-missing"),
    # an action out of step with the bids: a reveal before its bid, an erasure past the array
    pytest.param(lambda d: d.update(adversarial=[{"action": "EARLY_KEY_REVEAL", "bidder": "B01",
                                                  "at_ms": 1}]),
                 "$.adversarial[0].at_ms", id="early-reveal-before-its-bid"),
    pytest.param(lambda d: d.update(adversarial=[{"action": "EARLY_KEY_REVEAL", "bidder": "B02",
                                                  "at_ms": d["bidders"][1]["submit_at_ms"]}]),
                 "$.adversarial[0].at_ms", id="early-reveal-at-its-bid"),
    pytest.param(lambda d: d.update(adversarial=[{"action": "ERASE_BID", "index": 10}]),
                 "$.adversarial[0].index", id="erase-bid-past-the-array"),
    pytest.param(lambda d: d.update(adversarial=[{"action": "ERASE_BID", "index": -1}]),
                 "$.adversarial[0].index", id="erase-bid-index-negative"),
    pytest.param(lambda d: d.update(adversarial=[{"action": "ERASE_BID", "index": 9},
                                                 {"action": "ERASE_BID", "index": 9}]),
                 "$.adversarial[1].index", id="erase-bid-past-the-array-the-first-leaves"),
    pytest.param(lambda d: d.update(adversarial=[{"action": "EARLY_KEY_REVEAL", "bidder": "B01",
                                                  "at_ms": d["tender"]["length_ms"]}]),
                 "$.adversarial[0].at_ms", id="early-reveal-at-the-deadline"),
])
def test_validation_rejects_wrong_shapes_at_their_json_path(edit, where):
    doc = _full_track_doc()
    edit(doc)
    with pytest.raises(ScenarioError) as err:
        validate_scenario(doc)
    assert f"at {where}:" in str(err.value)


def test_a_criteria_refusal_names_the_keys_and_the_key_it_reads():
    doc = _full_track_doc()
    criteria = doc["tender"]["criteria"]
    criteria["feasability"] = criteria.pop("feasibility")
    with pytest.raises(ScenarioError, match=r"at \$\.tender\.criteria\.feasability: not read "
                                            r"here; the keys read are numeric_fields, "
                                            r"feasibility, tie_break$"):
        validate_scenario(doc)
    criteria["feasibility"] = [["delivery_days", "<=", True]]
    del criteria["feasability"]
    with pytest.raises(ScenarioError, match=r"at \$\.tender\.criteria\.feasibility: must be "
                                            r"a finite number$"):
        validate_scenario(doc)


def test_validation_accepts_null_winners_and_every_verdict():
    doc = _full_track_doc()
    doc["expected"].update(winner_id=None, recomputed_winner=None, violation_tags_include=[],
                           requirements={"R1": "PASS", "R2": "PARTIAL", "R6": "FAIL"})
    validate_scenario(doc)


def test_a_scenario_dict_nested_past_the_bound_is_refused_whole():
    # a document passed as a dict is not parsed, so no JSON reader bounded its nesting
    doc = _full_track_doc()
    name = "deep"
    for _ in range(2000):
        name = [name]
    doc["name"] = name
    with pytest.raises(ScenarioError, match="^<scenario>: at \\$: nests arrays and objects "
                                            "more than 32 levels deep$"):
        run_scenario(doc)


def test_cli_run_refuses_an_expected_key_it_does_not_read(tmp_path, capsys):
    # a misspelt check would otherwise never run, and the run exit 0
    path = tmp_path / "typo.json"
    path.write_bytes(_full_track_file_with(lambda d: d["expected"].update(audit_passs=False)))
    assert main(["run", str(path)]) == 2
    assert "at $.expected.audit_passs: not read here" in capsys.readouterr().err


def test_validation_accepts_a_late_bid_with_numeric_fields():
    doc = _full_track_doc()
    _late_bid(doc, fields={"price": 1, "delivery_days": 2.5}, free_text="late")
    validate_scenario(doc)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: _late_bid(d, at_ms=d["tender"]["length_ms"]),
                 id="late-bid-at-the-length"),
    pytest.param(lambda d: d["bidders"][0]["fields"].update(price=sys.float_info.max),
                 id="field-value-the-largest-float"),
    pytest.param(lambda d: d["bidders"][0].update(id="\u00e9" * (MAX_ID_BYTES // 2)),
                 id="bidder-id-of-max-id-bytes"),
    pytest.param(lambda d: d["bidders"][0].update(submit_at_ms=1), id="submit-at-ms-1"),
    pytest.param(lambda d: d.update(adversarial=[{"action": "ERASE_BID", "index": 0}]),
                 id="erase-bid-index-0"),
    pytest.param(lambda d: d.update(adversarial=[{"action": "ERASE_BID", "index": 9},
                                                 {"action": "ERASE_BID", "index": 8}]),
                 id="erase-bid-the-last-record-the-first-leaves"),
])
def test_validation_accepts_values_at_their_bounds(edit):
    doc = _full_track_doc()
    edit(doc)
    validate_scenario(doc)


@pytest.mark.parametrize("scheme, held", [("FULL_TRACK", 15), ("PROTECTED", 11)])
def test_erase_bid_reaches_the_last_record_the_array_holds(scheme, held):
    # 10 honest bids, 3 spam, 1 forged and 1 late: a full-track array holds every bid
    # placed, a protected one refuses the 4 whose certificate fails
    doc = _full_track_doc()
    doc["scheme"] = scheme
    doc["adversarial"] = [{"action": "SPAM_INVALID_CERTS", "at_ms": 30_000, "count": 3},
                          {"action": "FORGE_CERT", "at_ms": 40_000, "target": "B01"},
                          {"action": "LATE_BID", "bidder": "B02", "at_ms": 3_700_000},
                          {"action": "ERASE_BID", "index": held}]
    with pytest.raises(ScenarioError, match=re.escape(
            f"at $.adversarial[3].index: the bid array holds {held} records")):
        validate_scenario(doc)
    doc["adversarial"][3]["index"] = held - 1
    assert run_scenario(doc).exit_code == 1  # the erasure is found


def test_validation_accepts_a_scenario_of_max_bids():
    doc = _full_track_doc()  # 10 honest bids
    doc["adversarial"] = [{"action": "SPAM_INVALID_CERTS", "at_ms": 30_000,
                           "count": MAX_BIDS - 11},
                          {"action": "FORGE_CERT", "at_ms": 40_000, "target": "B01"}]
    validate_scenario(doc)


@pytest.mark.parametrize("command", ["run", "compare"])
def test_cli_refuses_a_bid_whose_ciphertext_the_ledger_rejects(tmp_path, capsys, command):
    # a 400-byte free text makes a ciphertext larger than MAX_DATA_BITS: the
    # run stops instead of placing a bid that points at no data
    path = tmp_path / "long_text.json"
    path.write_bytes(_full_track_file_with(lambda d: d["bidders"][0].update(free_text="x" * 400)))
    assert main([command, str(path), str(path)] if command == "compare"
                else [command, str(path)]) == 2
    assert capsys.readouterr().err == ("error[SCENARIO_ERROR]: bid ciphertext deployment "
                                       "rejected: DATA_TOO_LARGE\n")


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


@pytest.mark.parametrize("price, q", [(1e308, -1e308), (-1e308, 0)], ids=["nan", "overflow"])
def test_a_score_that_is_not_finite_is_never_published(tmp_path, price, q):
    # B01's weighted sum is NaN or overflows; the other bids lack q and are infeasible
    doc = json.loads((SCENARIO_DIR / "stateless_10_bids.json").read_text())
    doc["tender"]["criteria"]["numeric_fields"] = [["price", 10, "MINIMIZE"],
                                                   ["q", 10, "MINIMIZE"]]
    doc["bidders"][0]["fields"].update(price=price, q=q)
    doc["expected"] = {"audit_pass": True}
    outcome = run_scenario(doc, out_dir=tmp_path)
    assert outcome.exit_code == 0, outcome.expected_failures
    export = (tmp_path / "chain.json").read_bytes()
    assert b"NaN" not in export and b"Infinity" not in export


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


@pytest.mark.parametrize("edit, comparable", [
    pytest.param(lambda d: d["tender"].update(title="another"), False, id="title"),
    pytest.param(lambda d: d["tender"].update(terms="other"), False, id="terms"),
    pytest.param(lambda d: d["tender"].update(length_ms=d["tender"]["length_ms"] + 1), False,
                 id="length"),
    pytest.param(lambda d: d["tender"]["criteria"]["numeric_fields"][0].__setitem__(1, 2.0),
                 False, id="criteria-weight"),
    # the same criteria, one weight spelt as a JSON int, read as the same float
    pytest.param(lambda d: d["tender"]["criteria"]["numeric_fields"][0].__setitem__(1, 1),
                 True, id="criteria-weight-an-int"),
    pytest.param(lambda d: d.update(scheme="STATELESS", seed=8, bidders=d["bidders"][:3],
                                    expected={}), True, id="scheme-seed-bidders"),
])
def test_compare_sets_only_the_scheme_aside_from_the_tender(edit, comparable):
    other = _full_track_doc()
    edit(other)
    compare = functools.partial(compare_schemes, [_full_track_doc(), other])
    if comparable:
        assert [row["scheme"] for row in compare()[1]] == ["FULL_TRACK", other["scheme"]]
    else:
        with pytest.raises(IncomparableScenarios, match="runs a different tender"):
            compare()


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


@functools.cache
def _full_track_10_export() -> dict:
    return run_scenario(SCENARIO_DIR / "full_track_10_bids.json").export


def _first_tx(export: dict) -> dict:
    return export["blocks"][1]["transactions"][0]


def _spaced(hex_text: str) -> str:
    digits = hex_text[2:]
    return "0x" + " ".join(digits[i:i + 2] for i in range(0, len(digits), 2))


_FORMAT = b'{"format": "tendersim-chain/11", '


def _as_format_6(export: dict) -> None:
    """Re-spell the top level of a tendersim-chain/11 export as /6 wrote it: with
    its data limit."""
    export.update(format="tendersim-chain/6", max_data_bits=5000)


def _as_format_5(export: dict) -> None:
    """Re-spell a tendersim-chain/11 export as /5 wrote it: as /6 did, and with
    each block's parent hash, each transaction's gas price, bid records whole."""
    _as_format_6(export)
    export["format"] = "tendersim-chain/5"
    parent = "0x" + "00" * 32
    for block in export["blocks"]:
        block["parent_hash"], parent = parent, block["block_hash"]
        for tx in block["transactions"]:
            tx["gas_price"] = 1
    for addr, snap in export["contracts"].items():
        if "placed_by" in snap:
            export["contracts"][addr] = chain_surgery.bid_record(export, addr)


@pytest.mark.parametrize("content", [
    b'{"blocks": [',  # truncated JSON
    pytest.param(_FORMAT + b'"contracts": {}}', id='{"contracts": {}}'),  # no blocks
    b'[]',
    b'\xff\xfe',
    b'[' * 100_000,  # nested deeper than the decoder recurses
    pytest.param(_FORMAT + b'"blocks": [], "contracts": {}, "bogus": 1}',
                 id='{"blocks": [], "contracts": {}, "bogus": 1}'),
    # one field below the top level of a full_track_10_bids export, edited
    pytest.param(lambda e: e["contracts"].update({next(iter(e["contracts"])): 5}),
                 id="contract-snapshot-5"),
    pytest.param(lambda e: _first_tx(e).update(payload=[7]), id="payload-not-a-string"),
    pytest.param(lambda e: _first_tx(e).update(payload=_first_tx(e)["payload"] + "\u0100"),
                 id="payload-above-u00ff"),
    pytest.param(lambda e: e["blocks"].__setitem__(2, 7), id="block-7"),
    pytest.param(lambda e: _first_tx(e).pop("sender"), id="tx-without-sender"),
    pytest.param(lambda e: _first_tx(e).update(note="x"), id="tx-with-an-unread-key"),
    pytest.param(lambda e: e["blocks"][1].update(note="x"), id="block-with-an-unread-key"),
    pytest.param(lambda e: e["blocks"][1].update(height="x"), id="height-x"),
    pytest.param(lambda e: _first_tx(e).update(nonce=-1), id="nonce-negative"),
    pytest.param(lambda e: e["blocks"][3].update(timestamp=2 ** 64), id="timestamp-2-64"),
    pytest.param(lambda e: _first_tx(e).update(target=None), id="target-null"),
    # hex re-spelled: the same bytes, but not as to_hex writes them
    pytest.param(lambda e: _first_tx(e).update(sender=_first_tx(e)["sender"].upper()
                                               .replace("0X", "0x")), id="sender-uppercase"),
    pytest.param(lambda e: _first_tx(e).update(sender=_spaced(_first_tx(e)["sender"])),
                 id="sender-spaced"),
    pytest.param(lambda e: _first_tx(e).update(tx_hash=_first_tx(e)["tx_hash"].upper()
                                               .replace("0X", "0x")), id="tx-hash-uppercase"),
    pytest.param(lambda e: e.pop("format"), id="format-missing"),
    pytest.param(lambda e: e.update(format="tendersim-chain/1"), id="format-1"),
    pytest.param(lambda e: e.update(format="tendersim-chain/2"), id="format-2"),
    pytest.param(lambda e: e.update(format="tendersim-chain/3"), id="format-3"),
    pytest.param(lambda e: e.update(format="tendersim-chain/4"), id="format-4"),
    pytest.param(_as_format_5, id="format-5"),
    pytest.param(_as_format_6, id="format-6"),
    # /7 published tender-result/1 results, in which /9 would find no bid
    pytest.param(lambda e: e.update(format="tendersim-chain/7"), id="format-7"),
    # /8 bids carried a msg_hash, which /9 rebuilds: a malformed one would replay
    # to another receipt
    pytest.param(lambda e: e.update(format="tendersim-chain/8"), id="format-8"),
    # a field an earlier format wrote, which /9 leaves out
    pytest.param(lambda e: e["blocks"][1].update(parent_hash=e["blocks"][0]["block_hash"]),
                 id="block-carries-parent-hash"),
    pytest.param(lambda e: _first_tx(e).update(gas_price=1), id="tx-carries-gas-price"),
    pytest.param(lambda e: e.update(max_data_bits=5000), id="carries-max-data-bits"),
    # the settings a tendersim-chain/4 export carried, which no rule reads
    pytest.param(lambda e: e.update(gas_schedule={"per_prior_bid_copy": 20781}),
                 id="carries-gas-schedule"),
    pytest.param(lambda e: e.update(config={"max_data_bits": 5000}), id="carries-config"),
    # an int beyond the 4300 digits Python converts from text
    pytest.param(_FORMAT + b'"blocks": [' + b"7" * 5000 + b'], "contracts": {}}',
                 id="block-int-5000-digits"),
    pytest.param(_FORMAT + b'"blocks": [], "contracts": {"0x01": {"limit": ' + b"7" * 5000
                 + b'}}}', id="contract-int-5000-digits"),
    # a string UTF-8 cannot hold: the lone surrogate is written as its \u escape
    pytest.param(lambda e: _first_tx(e).update(error="\ud800"), id="receipt-error-lone-surrogate"),
    # the same in an indented file, named where the file holds it, not where
    # the compact re-encoding would
    pytest.param((lambda e: _first_tx(e).update(error="\ud800"), 1),
                 id="indented-receipt-error-lone-surrogate"),
    # bytes around a valid export
    pytest.param((b"\xef\xbb\xbf", b""), id="bom-before-a-valid-export"),
    pytest.param((b"", b"x"), id="x-after-a-valid-export"),
    pytest.param((b"", b"{}"), id="object-after-a-valid-export"),
])
def test_audit_command_rejects_malformed_export(tmp_path, capsys, content):
    indent = None
    if isinstance(content, tuple) and callable(content[0]):  # an edit, and the file's indent
        content, indent = content
    if isinstance(content, tuple):
        prefix, suffix = content
        content = prefix + canonical_json_bytes(_full_track_10_export()) + suffix
    elif callable(content):
        export = copy.deepcopy(_full_track_10_export())
        content(export)
        text = json.dumps(export, indent=indent, ensure_ascii=False) if indent \
            else canonical_json(export)
        content = text.encode("utf-8", "backslashreplace")
    path = tmp_path / "chain.json"
    path.write_bytes(content)
    code = main(["audit", str(path), "--out", str(tmp_path / "audit.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error[MALFORMED_EXPORT]")
    assert not (tmp_path / "audit.json").exists()
    if b"\\ud800" in content:
        text = content.decode("utf-8")
        at = text.index("\\ud800")
        line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
        assert f"line {line} column {column} (char {at})" in err, err


def test_audit_command_names_the_format_it_refuses(tmp_path, capsys):
    export = copy.deepcopy(_full_track_10_export())
    path = tmp_path / "chain.json"
    for earlier in ("tendersim-chain/7", "tendersim-chain/8", "tendersim-chain/9"):
        export["format"] = earlier
        path.write_bytes(canonical_json_bytes(export))
        assert main(["audit", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[MALFORMED_EXPORT]")
        assert f"format '{earlier}', not tendersim-chain/11" in err


def test_audit_command_replays_a_call_holding_a_lone_surrogate(tmp_path, capsys):
    # the publish transaction, re-signed and re-mined with a payload whose
    # \ud800 escape json.loads reads as a str UTF-8 cannot encode again
    export = copy.deepcopy(_full_track_10_export())
    tx = export["blocks"][-1]["transactions"][-1]
    payload = b'{"op":"publish_results","result":{"winner_id":"\\ud800"}}'
    tx_hash = compute_tx_hash(from_hex(tx["sender"]), from_hex(tx["target"]), tx["nonce"],
                              payload)
    tx.update(payload=to_text(payload), tx_hash=to_hex(tx_hash))
    chain_surgery.remine(export)
    path = tmp_path / "chain.json"
    path.write_bytes(canonical_json_bytes(export))
    assert main(["audit", str(path)]) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


def _first_published_bid(export) -> tuple[str, dict]:
    """(data address, published keys) of the lowest bid record the results list."""
    rft_hex = next(a for a, c in export["contracts"].items()
                   if c["kind"] == "request_for_tender")
    results = chain_surgery.published_results(export, rft_hex)
    record_hex, keys = min((a, e) for a, e in results["bids"].items() if "bid_key" in e)
    return chain_surgery.bid_record(export, record_hex)["data_addr"], keys


def _bid_plaintext(plaintext: bytes):
    """An export edit: the first published bid's disclosed ciphertext becomes
    ``plaintext``, encrypted under the bid key the organisation published."""
    def edit(export):
        data_hex, keys = _first_published_bid(export)
        export["contracts"][data_hex]["data"] = to_hex(
            crypto.encrypt_bid(plaintext, from_hex(keys["bid_key"]), Random(0)))
    return edit


def _tender_data(edit_spec):
    """An export edit: the tender data deployment carries ``edit_spec`` of its
    tender-spec document, with hashes, receipt and disclosed state to match; a lone
    surrogate, which the writer cannot write, as its \\u escape."""
    def edit(export):
        tx = _first_tx(export)
        spec = json.loads(from_hex(json.loads(from_text(tx["payload"]))["data"]))
        blob = canonical_json(edit_spec(spec)).encode("utf-8", "backslashreplace")
        payload = canonical_json_bytes({"op": "deploy_data", "data": to_hex(blob)})
        tx_hash = compute_tx_hash(from_hex(tx["sender"]), None, tx["nonce"], payload)
        tx.update(payload=to_text(payload), tx_hash=to_hex(tx_hash), gas_used=16 * len(blob))
        created = contract_address(from_hex(tx["sender"]), tx["nonce"])
        export["contracts"][to_hex(created)]["data"] = {"in_tx": to_hex(tx_hash)}
        chain_surgery.remine(export)
    return edit


_UNDECRYPTABLE = ("UNDECRYPTABLE_BID", "published key fails to decrypt bid")
_NO_CRITERIA = ("R1", "tender data holds no usable evaluation criteria")


@pytest.mark.parametrize("content, finding", [
    pytest.param(_bid_plaintext(b"[]"), _UNDECRYPTABLE, id="bid-document-a-list"),
    pytest.param(_bid_plaintext(b'{"bidder_id":"B01","fields":[1],"free_text":"0x"}'),
                 _UNDECRYPTABLE, id="bid-fields-a-list"),
    pytest.param(_bid_plaintext(b'{"bidder_id":"B01","fields":{"price":{}},"free_text":"0x"}'),
                 _UNDECRYPTABLE, id="bid-field-value-an-object"),
    # B06 placed the edited bid, so the NaN is the only thing wrong with it
    pytest.param(_bid_plaintext(b'{"bidder_id":"B06","fields":{"price":NaN},"free_text":"0x"}'),
                 _UNDECRYPTABLE, id="bid-field-value-nan"),
    pytest.param(_bid_plaintext(b"[" * 100_000), _UNDECRYPTABLE, id="bid-nested-too-deep"),
    # a well-formed, feasible document, but of another bidder than B06
    pytest.param(_bid_plaintext(b'{"bidder_id":"B02","fields":{"delivery_days":1.0,'
                                b'"price":1.0},"free_text":"0x"}'),
                 _UNDECRYPTABLE, id="bid-document-of-another-bidder"),
    pytest.param(lambda e: e["contracts"].pop(_first_published_bid(e)[0]), _UNDECRYPTABLE,
                 id="bid-data-contract-missing"),
    pytest.param(lambda e: e["contracts"][_first_published_bid(e)[0]].update(data="zz"),
                 _UNDECRYPTABLE, id="bid-data-not-hex"),
    pytest.param(_tender_data(lambda spec: []), _NO_CRITERIA, id="tender-data-a-list"),
    pytest.param(_tender_data(lambda spec: {**spec, "criteria": []}), _NO_CRITERIA,
                 id="criteria-a-list"),
    pytest.param(_tender_data(lambda spec: {**spec, "criteria": {"numeric_fields": 5}}),
                 _NO_CRITERIA, id="numeric-fields-5"),
    # what a coercing reader would take: each document is read by its table alone
    pytest.param(_bid_plaintext(b'{"bidder_id":"B06","fields":{"delivery_days":1.0,'
                                b'"price":"90000"},"free_text":"0x"}'),
                 _UNDECRYPTABLE, id="bid-price-a-string"),
    pytest.param(_bid_plaintext(b'{"bidder_id":"B06","fields":{"delivery_days":1.0,'
                                b'"price":true},"free_text":"0x"}'),
                 _UNDECRYPTABLE, id="bid-price-true"),
    pytest.param(_bid_plaintext(b'{"bidder_id":"B06","fields":{"delivery_days":1.0,'
                                b'"price":1.0},"free_text":"0x","note":"x"}'),
                 _UNDECRYPTABLE, id="bid-document-key-unread"),
    pytest.param(_tender_data(lambda spec: {**spec, "format": "nonsense"}), _NO_CRITERIA,
                 id="tender-data-format-nonsense"),
    pytest.param(_tender_data(lambda spec: {**spec, "title": 5}), _NO_CRITERIA,
                 id="tender-data-title-5"),
    pytest.param(_tender_data(lambda spec: {**spec, "criteria": {**spec["criteria"],
                                                                 "weights": []}}),
                 _NO_CRITERIA, id="criteria-key-unread"),
    pytest.param(_tender_data(lambda spec: {**spec, "criteria": {
        **spec["criteria"], "numeric_fields": [["price", True, "MINIMIZE"]]}}),
                 _NO_CRITERIA, id="criteria-weight-true"),
    # valid UTF-8 JSON whose \u escape spells a lone surrogate, which no writer writes
    pytest.param(_tender_data(lambda spec: {**spec, "title": "\ud800"}), _NO_CRITERIA,
                 id="tender-data-title-lone-surrogate"),
    pytest.param(_bid_plaintext(b'{"bidder_id":"B06","fields":{"delivery_days":1.0,'
                                b'"price":1.0,"\\ud800":1.0},"free_text":"0x"}'),
                 _UNDECRYPTABLE, id="bid-field-key-lone-surrogate"),
])
def test_audit_command_grades_malformed_documents(tmp_path, capsys, content, finding):
    export = copy.deepcopy(_full_track_10_export())
    content(export)
    path = tmp_path / "chain.json"
    path.write_bytes(canonical_json_bytes(export))
    code = main(["audit", str(path), "--out", str(tmp_path / "audit.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("AUDIT FAIL")
    assert "Traceback" not in captured.err
    [report] = json.loads((tmp_path / "audit.json").read_text())
    tag, text = finding
    assert any(v["tag"] == tag and text in v["description"] for v in report["violations"])


def test_audit_command_reports_an_unreadable_path(tmp_path, capsys):
    code = main(["audit", str(tmp_path)])  # a directory, not a file
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and str(tmp_path) in err


@pytest.fixture(scope="module")
def protected_run(tmp_path_factory):
    """(chain.json, tender address) of a protected_10_bids run."""
    out = tmp_path_factory.mktemp("protected")
    outcome = run_scenario(SCENARIO_DIR / "protected_10_bids.json", out_dir=out)
    return out / "chain.json", outcome.report.tender_address


@pytest.mark.parametrize("spell", [str, str.upper, lambda a: "0x" + a[2:].upper()],
                         ids=["lowercase", "uppercase", "uppercase-digits"])
def test_audit_command_reads_the_tender_address_in_either_case(protected_run, capsys, spell):
    chain_json, address = protected_run
    code = main(["audit", str(chain_json), "--tender", spell(address)])
    assert code == 0
    assert capsys.readouterr().out.startswith(f"AUDIT PASS tender={address} ")


def test_audit_command_names_an_address_with_no_tender(protected_run, capsys):
    chain_json, _ = protected_run
    code = main(["audit", str(chain_json), "--tender", "0x" + "00" * 20])
    assert code == 2
    assert capsys.readouterr().err.startswith("error[NO_SUCH_CONTRACT]")


def test_audit_command_names_an_export_with_no_tender(tmp_path, capsys):
    path = tmp_path / "chain.json"
    write_canonical_json(path, Chain(ChainConfig()).export())
    code = main(["audit", str(path)])
    assert code == 2
    assert capsys.readouterr().err == \
        "error[NO_SUCH_CONTRACT]: no tender deployment found in the export\n"


@pytest.mark.parametrize("text", ["", "0x", "0x1234", "0x" + "zz" * 20, "00" * 20,
                                  "0x" + "00" * 21])
def test_audit_command_refuses_a_malformed_tender_address(protected_run, capsys, text):
    chain_json, _ = protected_run
    code = main(["audit", str(chain_json), "--tender", text])
    assert code == 2
    assert capsys.readouterr().err.startswith("error[MALFORMED_ADDRESS]")


# --- one hostile value in a bundled scenario -------------------------------------------------

_HOSTILE_VALUES = [2**64, -1, 0.5, math.nan, True, None, "\ud800", [1], {"x": 1}]


@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_cli_run_exits_0_1_or_2_with_one_hostile_value_anywhere(tmp_path_factory, data):
    name = data.draw(st.sampled_from(sorted(BUNDLED_SCENARIOS)), label="scenario")
    doc = copy.deepcopy(BUNDLED_SCENARIOS[name])
    path = data.draw(st.sampled_from(list(leaf_paths(doc))), label="path")
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    parent[path[-1]] = data.draw(st.sampled_from(_HOSTILE_VALUES), label="value")
    file = tmp_path_factory.getbasetemp() / "hostile.json"
    file.write_text(json.dumps(doc), encoding="ascii")  # a lone surrogate as its \u escape
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", str(file)])
    assert code in (0, 1, 2)
    if code == 2:
        assert re.match(r"error\[[A-Z_]+\]: ", err.getvalue()), err.getvalue()


# --- determinism ---------------------------------------------------------------------------


def test_identical_scenario_runs_are_byte_identical(tmp_path):
    for run in ("a", "b"):
        run_scenario(SCENARIO_DIR / "early_key_reveal.json", out_dir=tmp_path / run)
    for report in ("gas.csv", "audit.json", "summary.txt", "chain.json"):
        assert _read(tmp_path / "a" / report) == _read(tmp_path / "b" / report)


# each key a scenario may leave out for its default: (bundled scenario, the objects that may
# hold the key, key, default)
_DEFAULTS = {
    "seed": ("early_key_reveal", lambda d: [d], "seed", 0),
    "adversarial": ("early_key_reveal", lambda d: [d], "adversarial", []),
    "expected": ("early_key_reveal", lambda d: [d], "expected", {}),
    "bidder-free-text": ("withheld_key", lambda d: d["bidders"], "free_text", ""),
    "bidder-withhold-key": ("withheld_key", lambda d: d["bidders"], "withhold_key", False),
    "late-bid-free-text": ("late_bid", lambda d: d["adversarial"], "free_text", ""),
    "late-bid-fields": ("late_bid", lambda d: d["adversarial"], "fields", {}),
    "violations-empty": ("erased_bid", lambda d: [d["expected"]], "violations_empty", False),
    "violation-tags-include": ("erased_bid", lambda d: [d["expected"]],
                               "violation_tags_include", []),
    "requirements": ("early_key_reveal", lambda d: [d["expected"]], "requirements", {}),
}


@pytest.mark.parametrize("scenario, holders, key, default", _DEFAULTS.values(), ids=_DEFAULTS)
def test_a_key_left_out_runs_as_its_default_written(tmp_path, scenario, holders, key, default):
    runs = {}
    for run in ("left-out", "written"):
        doc = copy.deepcopy(BUNDLED_SCENARIOS[scenario])
        for holder in holders(doc):
            holder.pop(key, None)
            if run == "written":
                holder[key] = copy.deepcopy(default)
        runs[run] = run_scenario(doc, out_dir=tmp_path / run).exit_code
    assert runs["left-out"] == runs["written"]
    for report in ("chain.json", "audit.json", "gas.csv", "summary.txt"):
        assert _read(tmp_path / "left-out" / report) == _read(tmp_path / "written" / report)


def test_a_late_bid_with_no_fields_seals_its_bidders_own(tmp_path):
    # left out or empty, a LATE_BID's fields stand for those of the bidder it names
    for run in ("own", "left-out", "empty"):
        doc = copy.deepcopy(BUNDLED_SCENARIOS["late_bid"])
        [late] = doc["adversarial"]
        assert late["bidder"] == doc["bidders"][0]["id"] and late["fields"]
        if run == "own":
            late["fields"] = doc["bidders"][0]["fields"]
        elif run == "left-out":
            del late["fields"]
        else:
            late["fields"] = {}
        run_scenario(doc, out_dir=tmp_path / run)
    for run in ("left-out", "empty"):
        for report in ("chain.json", "audit.json", "gas.csv", "summary.txt"):
            assert _read(tmp_path / run / report) == _read(tmp_path / "own" / report)


# --- experiment scripts ----------------------------------------------------------------------


@pytest.mark.parametrize("script", ["reproduce_gas_tables.py", "run_all_scenarios.py"])
def test_experiment_script_runs_from_a_source_checkout(tmp_path, script):
    # no PYTHONPATH and another working directory: the script must find src/ itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    path = Path(__file__).resolve().parent.parent / "scripts" / script
    done = subprocess.run([sys.executable, str(path), str(tmp_path / "out")], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
