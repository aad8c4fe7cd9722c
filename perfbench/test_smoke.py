"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench -q

Covers every workload untraced and traced, the correctness gate, and the
contract that the benchmark fails without a result when the program is absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import clock  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_passes_the_gate_and_prints_every_metric(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", str(trace)]
    code = run.main(argv, sizes=workloads.TINY_SIZES)
    result = _result(capsys)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = tracer.PER_LAYER if trace else run.END_TO_END
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.PER_LAYER


def test_traced_spans_link_to_parents_and_land_in_layers(tmp_path):
    run.fresh_import()
    t = tracer.Tracer()
    sample = workloads.full_track_spam(3, workloads.TINY_SIZES["full_track_spam"], tmp_path, t)
    assert not sample.failures
    by_id = {s.span_id: s for s in t.spans}
    roots = [s for s in t.spans if s.parent_id is None]
    assert {s.name for s in roots} == {"scenario.run_scenario", "cli.main"}
    for span in t.spans:
        assert 0 <= span.self_ns <= span.busy_ns
        if span.parent_id is not None:
            parent = by_id[span.parent_id]
            assert parent.start_ns <= span.start_ns <= span.end_ns <= parent.end_ns
    metrics = t.layer_metrics(1, sample.bids, sample.transactions, sample.blocks)
    assert metrics["secp256k1.recover_public_key.calls"] == 3 * sample.bids
    assert metrics["contracts.prior_bid_copies"] == sample.bids * (sample.bids - 1) / 2
    # the wrappers are gone once the traced block ends
    from tendersim import audit, encoding, scenario
    assert scenario.canonical_json is encoding.canonical_json
    assert not hasattr(audit.replay_and_audit, "__wrapped__")


def test_gate_catches_wrong_gas_verdict_and_digest(tmp_path):
    run.fresh_import()
    from tendersim.encoding import canonical_json

    export, winners = workloads.build_multi_tender_chain(5, 1, 2)
    assert workloads.gas_failures(export) == []
    bid = next(tx for b in export["blocks"] for tx in b["transactions"]
               if tx["kind"] == "bid_full")
    bid["gas_used"] += 1
    assert len(workloads.gas_failures(export)) == 1
    bid["gas_used"] -= 1

    chain_path = tmp_path / "chain.json"
    chain_path.write_text(canonical_json(export) + "\n")
    _, code, reports = workloads.citizen_audit(chain_path, tmp_path / "audit.json")
    assert code == 0 and workloads.report_failures(reports, winners, set()) == []
    assert workloads.report_failures(reports, winners, {"ERASURE"})

    work = tmp_path / "work"
    work.mkdir()
    size = workloads.TINY_SIZES["stateless_honest"]
    warm = workloads.stateless_honest(11, size, tmp_path)
    assert run.determinism_failures("stateless_honest", warm, 11, work,
                                    workloads.TINY_SIZES) == []
    warm.chain_sha256 = "0" * 64
    assert run.determinism_failures("stateless_honest", warm, 11, work,
                                    workloads.TINY_SIZES)


def test_speed_probe_samples_and_leaves_its_time_out():
    with clock.timed(probe=True) as timing:
        end = clock.time.perf_counter() + 0.2
        while clock.time.perf_counter() < end:
            pass
    assert len(timing.probe_ns) >= 3
    assert 0 < timing.wall_s < 0.2
    assert timing.seconds == timing.wall_s / timing.slowness


def test_fails_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "stateless_honest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
