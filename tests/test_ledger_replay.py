"""Random transaction programs: the ledger and the auditor's replay must agree.

A Hypothesis state machine seeds one to three valid tenders under the
organisation's key, then submits any mix of data deployments, tender
deployments with good or bad parameters (a float, bool or string where an
int goes among them), bids whose certificate is valid, issued for another
tender or another bidder id, random or junk, bids and data deployments whose
hex arguments are spelled in uppercase, key reveals, publications with a
result object or without one and by the organisation or a stranger,
publications whose result holds ``NaN`` or an infinity, as the bare token
``json.dumps`` writes, ``set_field`` and unknown calls, calls of each op that
only the op's key table refuses (a key no rule reads, a key missing, a value
off its fixed length or spaced, an id over ``MAX_ID_BYTES``), and raw
payloads: bytes that are not UTF-8, JSON that is not a call, and calls
holding lone surrogates. Blocks come 1 ms, 5 s or past a deadline apart.
After the last block, the export must be strict JSON, with no ``NaN`` or
infinity token, and disclose each data contract's ``data``, each bid
record's ``placed_by`` and each set ``results`` as a link to the transaction
that created or set it, however its call spelled the values; every contract
the replay re-derives must be disclosed exactly as the ledger's export
discloses it, and the replay of that export must find no ledger, receipt or
state fault; each call only the table refuses must have a MALFORMED_PAYLOAD
receipt, or a NO_SUCH_CONTRACT one where no contract lives at its target.
The citizen's ``tendersim audit`` of the written export must exit 0, 1 or 2
without raising, and name an error code whenever it exits 2.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path
from random import Random

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from tendersim import audit, cli, contracts, crypto
from tendersim.chain import Chain, ChainConfig
from tendersim.encoding import canonical_json, canonical_json_bytes, to_hex, write_canonical_json
from tendersim.errors import NoSuchContract

from conftest import account, json_values

ORG_KEYS = crypto.generate_keypair(Random(606))
ORG = account("org")
STRANGER = account("stranger")
BIDDERS = [account(f"bidder-{k}") for k in range(3)]
SENDERS = [ORG, STRANGER, *BIDDERS]
GAPS_MS = (1, 5_000, 700_000)  # 700 s is past every seeded tender's deadline
SCHEMES = st.sampled_from(contracts.SCHEMES)
BIDDER_IDS = st.sampled_from(["B1", "B2", "B3"])
# strings that hold lone surrogates, which st.text() never draws
SURROGATE_TEXT = st.text(st.characters(categories=["Cs"]) | st.characters(max_codepoint=0x7F),
                         min_size=1, max_size=4)
HALVES = st.binary(min_size=crypto.SEALED_HALF_LEN, max_size=crypto.SEALED_HALF_LEN)
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
# a call of each op whose values have the shape the ledger reads, and the values of
# fixed length, by key
SHAPED = {
    "deploy_data": {"data": b"terms"},
    "deploy_rft": {"scheme": "STATELESS", "length_ms": 600_000, "pubk": ORG_KEYS.public_key,
                   "limit": 2, "tender_data": bytes(20)},
    "place_bid": {"id": "B1", "data_addr": bytes(20), "v": 27, "r": bytes(32), "s": bytes(32),
                  "sealed_half_a": bytes(crypto.SEALED_HALF_LEN)},
    "reveal_key_half": {"bid_addr": bytes(20), "half_b": bytes(crypto.SEALED_HALF_LEN)},
    "publish_results": {"result": {}},
}
LENGTHS = {key: len(value) for values in SHAPED.values() for key, value in values.items()
           if isinstance(value, bytes) and key != "data"}


class LedgerAgainstReplay(RuleBasedStateMachine):

    def __init__(self):
        super().__init__()
        self.chain = Chain(ChainConfig())
        for sender in SENDERS:
            self.chain.register_account(sender)
        self.tenders: list[bytes] = []
        self.data: list[bytes] = []
        self.records: list[bytes] = []
        self.refused: list[str] = []  # hashes of the calls only their op's table refuses

    def _submit(self, sender: bytes, target: bytes | None, payload: bytes) -> bytes:
        """Queue a transaction; the address it creates if it is accepted."""
        created = self.chain.peek_contract_address(sender)
        self.chain.submit_transaction(sender, target, payload)
        return created

    def _call(self, sender, target, call: dict) -> bytes:
        return self._submit(sender, target, canonical_json_bytes(call))

    def _mine(self, gap_ms: int) -> None:
        ts = self.chain.head().timestamp + gap_ms
        self.chain.advance_to(ts)
        self.chain.mine_block(ts)

    def _any(self, data, pool: list[bytes]) -> bytes:
        """An address from ``pool``, or now and then one where no contract lives."""
        if pool and data.draw(st.integers(0, 4)):
            return data.draw(st.sampled_from(pool))
        return data.draw(st.binary(min_size=20, max_size=20))

    @initialize(schemes=st.lists(SCHEMES, min_size=1, max_size=3))
    def seed_tenders(self, schemes):
        spec = self._call(ORG, None, contracts.call("deploy_data", data=b'{"terms": "deliver"}'))
        self.data.append(spec)
        for scheme in schemes:
            call = contracts.call("deploy_rft", scheme=scheme, length_ms=600_000,
                                  pubk=ORG_KEYS.public_key, limit=2, tender_data=spec)
            self.tenders.append(self._call(ORG, None, call))
        self._mine(1)

    @rule(gap=st.sampled_from(GAPS_MS))
    def mine(self, gap):
        self._mine(gap)

    @rule(sender=st.sampled_from(SENDERS),
          blob=st.binary(max_size=40) | st.binary(min_size=620, max_size=640),
          upper=st.booleans())
    def deploy_data(self, sender, blob, upper):
        call = contracts.call("deploy_data", data=blob)
        if upper:  # the same bytes, spelled with uppercase hex digits
            call["data"] = "0x" + blob.hex().upper()
        self.data.append(self._call(sender, None, call))

    @rule(sender=st.sampled_from(SENDERS), scheme=SCHEMES | st.just("BOGUS"),
          length_ms=st.sampled_from([-1, 0, 1, 600_000, 600_000.0, "600000"]),
          limit=st.integers(0, 2) | st.sampled_from([True, 2.0]),
          own_key=st.booleans())
    def deploy_tender(self, sender, scheme, length_ms, limit, own_key):
        pubk = ORG_KEYS.public_key if own_key else b"\x01" * 63
        call = contracts.call("deploy_rft", scheme=scheme, length_ms=length_ms, pubk=pubk,
                              limit=limit, tender_data=None)
        self.tenders.append(self._call(sender, None, call))

    @rule(data=st.data(), sender=st.sampled_from(SENDERS), bidder_id=BIDDER_IDS,
          certificate=st.sampled_from(["valid", "other-tender", "other-id", "random", "junk"]),
          half=HALVES)
    def place_bid(self, data, sender, bidder_id, certificate, half):
        rft = self._any(data, self.tenders)
        if certificate == "random":
            rng = Random(data.draw(st.integers(0, 2**32)))
            v, r, s = 27 + rng.randrange(2), rng.randbytes(32), rng.randbytes(32)
        else:  # the organisation's signature, maybe for another tender or another id
            bound = rft if certificate != "other-tender" else self._any(data, self.tenders)
            holder = bidder_id if certificate != "other-id" else \
                data.draw(BIDDER_IDS.filter(lambda other: other != bidder_id))
            cert = crypto.issue_certificate(ORG_KEYS.private_key, holder, bound)
            v, r, s = cert.v, cert.r, cert.s
        call = contracts.call("place_bid", id=bidder_id, data_addr=self._any(data, self.data),
                              v=v, r=r, s=s, sealed_half_a=half)
        if certificate == "junk":
            call[data.draw(st.sampled_from(["v", "r", "id", "data_addr"]))] = \
                data.draw(json_values)
        self.records.append(self._call(sender, rft, call))

    @rule(data=st.data(), sender=st.sampled_from(SENDERS), bidder_id=BIDDER_IDS, half=HALVES,
          keys=st.sets(st.sampled_from(["data_addr", "r", "s", "sealed_half_a"]), min_size=1))
    def place_bid_in_uppercase(self, data, sender, bidder_id, half, keys):
        rft = self._any(data, self.tenders)
        cert = crypto.issue_certificate(ORG_KEYS.private_key, bidder_id, rft)
        call = contracts.call("place_bid", id=bidder_id, data_addr=self._any(data, self.data),
                              v=cert.v, r=cert.r, s=cert.s, sealed_half_a=half)
        for key in keys:
            call[key] = "0x" + call[key][2:].upper()
        self.records.append(self._call(sender, rft, call))

    @rule(data=st.data(), sender=st.sampled_from(SENDERS), half_b=HALVES)
    def reveal(self, data, sender, half_b):
        call = contracts.call("reveal_key_half", bid_addr=self._any(data, self.records),
                              half_b=half_b)
        self._call(sender, self._any(data, self.tenders), call)

    @rule(data=st.data(), sender=st.sampled_from([ORG, ORG, STRANGER]),
          result=st.dictionaries(st.sampled_from(["winner_id", "winner_bid_address", "bids"]),
                                 json_values, max_size=3) | json_values)
    def publish(self, data, sender, result):
        self._call(sender, self._any(data, self.tenders),
                   contracts.call("publish_results", result=result))

    @rule(data=st.data(), sender=st.sampled_from([ORG, ORG, STRANGER]), value=NON_FINITE,
          key=st.sampled_from(["winner_id", "bids", "score"]), nested=st.booleans())
    def publish_non_finite(self, data, sender, value, key, nested):
        call = contracts.call("publish_results", result={key: {"score": value} if nested
                                                         else value})
        self._submit(sender, self._any(data, self.tenders), json.dumps(call).encode("ascii"))

    def _refused(self, data, sender, op: str, call: dict) -> None:
        target = None if op.startswith("deploy") else self._any(data, self.tenders)
        self.refused.append(self.chain.submit_transaction(sender, target,
                                                          canonical_json_bytes(call)))

    @rule(data=st.data(), sender=st.sampled_from(SENDERS), op=st.sampled_from(sorted(SHAPED)),
          missing=st.booleans())
    def call_off_its_keys(self, data, sender, op, missing):
        call = contracts.call(op, **SHAPED[op])
        if missing:
            del call[data.draw(st.sampled_from(sorted(SHAPED[op])))]
        else:
            call[data.draw(st.sampled_from(["pad", "msg_hash", "Op"]))] = data.draw(json_values)
        self._refused(data, sender, op, call)

    @rule(data=st.data(), sender=st.sampled_from(SENDERS), key=st.sampled_from(["id", *LENGTHS]),
          by=st.sampled_from([1, 2, 600]), shape=st.sampled_from(["shorter", "longer", "spaced"]))
    def value_off_its_length(self, data, sender, key, by, shape):
        op = next(op for op, values in SHAPED.items() if key in values)
        call = contracts.call(op, **SHAPED[op])
        if key == "id":  # no id is too short
            call["id"] = data.draw(st.sampled_from(["B", "\u00e9"])) * (contracts.MAX_ID_BYTES + by)
        elif shape == "spaced":  # the right bytes, with spaces bytes.fromhex would skip
            call[key] = call[key][:4] + " " * by + call[key][4:]
        else:
            call[key] = to_hex(bytes(max(0, LENGTHS[key] + (-by if shape == "shorter" else by))))
        self._refused(data, sender, op, call)

    @rule(data=st.data(), sender=st.sampled_from(SENDERS),
          op=st.sampled_from(["set_field", "frobnicate"]), value=json_values)
    def other_call(self, data, sender, op, value):
        target = self._any(data, self.tenders + self.data + self.records)
        self._call(sender, target, {"op": op, "field": "data", "value": value})

    @rule(data=st.data(), sender=st.sampled_from(SENDERS), text=SURROGATE_TEXT,
          shape=st.sampled_from(["escaped", "surrogatepass", "raw", "not-a-call"]))
    def raw_payload(self, data, sender, text, shape):
        call = {"op": data.draw(st.sampled_from(["place_bid", "publish_results",
                                                 "deploy_data"])),
                "id": text, "result": {text: 1}, "data": text}
        if shape == "escaped":  # valid UTF-8 JSON whose \u escapes may spell a lone surrogate
            payload = json.dumps(call).encode("ascii")
        elif shape == "surrogatepass":  # surrogates encoded as bytes UTF-8 forbids
            payload = json.dumps(call, ensure_ascii=False).encode("utf-8", "surrogatepass")
        elif shape == "raw":
            payload = data.draw(st.binary(max_size=24))
        else:
            payload = data.draw(st.sampled_from([b"[1]", b"5", b"null", b'{"no": "op"}']))
        target = None if data.draw(st.booleans()) else self._any(data, self.tenders)
        self._submit(sender, target, payload)

    def teardown(self):
        self._mine(1)
        export = self.chain.export()
        json.loads(canonical_json(export), parse_constant=_not_json)
        txs = [tx for b in self.chain.blocks for tx in b.transactions if tx.status == "OK"]
        set_by = {"results": {to_hex(tx.target): tx.tx_hash for tx in txs
                              if tx.kind == "publish_results"}}
        set_by["data"] = set_by["placed_by"] = {to_hex(tx.created_address): tx.tx_hash
                                                for tx in txs if tx.created_address}
        for addr, state in export["contracts"].items():
            for key, setters in set_by.items():
                if state.get(key) is not None:
                    assert state[key] == {"in_tx": to_hex(setters[addr])}, (addr, key)
        parsed = audit.parse_export(io.BytesIO(canonical_json_bytes(export)))
        replay = audit.replay_chain(parsed)
        assert {to_hex(a): c.snapshot() for a, c in replay.state.items()} == export["contracts"]
        assert replay.findings == []
        errors = {to_hex(tx.tx_hash): tx.error for b in self.chain.blocks for tx in b.transactions}
        assert {errors[tx_hash] for tx_hash in self.refused} <= {contracts.MALFORMED_PAYLOAD,
                                                                 NoSuchContract.code}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "chain.json"
            write_canonical_json(path, export)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["audit", str(path)])
        assert code in (0, 1, 2)
        if code == 2:
            assert re.match(r"error\[[A-Z_]+\]: ", err.getvalue()), err.getvalue()


def _not_json(constant: str):
    raise ValueError(f"{constant} is not a JSON token")


LedgerAgainstReplay.TestCase.settings = settings(
    max_examples=100, stateful_step_count=15, derandomize=True, database=None,
    deadline=None, suppress_health_check=[HealthCheck.too_slow])
TestLedgerAgainstReplay = LedgerAgainstReplay.TestCase
