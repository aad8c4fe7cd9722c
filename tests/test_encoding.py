"""The streamed JSON writer: the same bytes as canonical_json, less memory."""

import json
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from tendersim.encoding import canonical_json, write_canonical_json
from tendersim.scenario import run_scenario

from conftest import SCENARIO_DIR

_json = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-2**200, max_value=2**200)
    | st.text(max_size=6) | st.sampled_from(["é", "中文", " ", "\\\"", "\x00"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=4),
    max_leaves=30)


@given(_json)
@settings(max_examples=300, deadline=None)
def test_streamed_writer_equals_canonical_json(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("w") / "out.json"
    write_canonical_json(path, obj)
    assert path.read_bytes() == (canonical_json(obj) + "\n").encode("utf-8")


def _spammed_full_track(honest: int, spam_per_bid: int) -> dict:
    """The export of a FULL_TRACK tender where each honest bid is followed by
    a block of certificate-invalid ones, as in the full_track_spam benchmark."""
    doc = json.loads((SCENARIO_DIR / "spam_full_track.json").read_text(encoding="utf-8"))
    doc["bidders"] = [{"id": f"B{i}", "submit_at_ms": 60_000 * (i + 1),
                       "fields": {"price": 100_000 - i, "delivery_days": 30},
                       "free_text": f"offer {i}"} for i in range(honest)]
    doc["adversarial"] = [{"action": "SPAM_INVALID_CERTS", "count": spam_per_bid,
                           "at_ms": 60_000 * (i + 1) + 30_000} for i in range(honest)]
    doc["tender"]["length_ms"] = 60_000 * (honest + 1)
    doc["expected"] = {"winner_id": f"B{honest - 1}"}
    return run_scenario(doc).export


def test_streamed_writer_holds_no_copy_of_a_full_track_export(tmp_path):
    # 64 records. The writer's peak is about twice its largest block or
    # contract; the bid arrays, which grow with the square of the records,
    # are spread over one record each.
    export = _spammed_full_track(16, 3)
    assert sum(c["kind"] == "bid_record" for c in export["contracts"].values()) == 64
    path = tmp_path / "chain.json"
    tracemalloc.start()
    try:
        write_canonical_json(path, export)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert path.read_bytes() == (canonical_json(export) + "\n").encode("utf-8")
    assert peak < size / 4, (peak, size)
