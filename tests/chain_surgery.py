"""Export tampering helpers for auditor soundness tests.

Each function edits an exported chain view the way a dishonest host or
miner could, optionally re-mining hashes so only the targeted property is
broken.
"""

import json

from tendersim.chain import compute_block_hash, compute_tx_hash, contract_address
from tendersim.encoding import from_hex, from_text, to_hex, to_text


# The receipt kinds of the transactions that create a contract
CREATING_KINDS = ("deploy_data", "deploy_rft_full", "deploy_rft_protected",
                  "deploy_rft_stateless", "bid_full", "bid_protected", "bid_stateless")


def created_address(tx: dict) -> str | None:
    """The address an exported transaction created, ``contract_address`` of its
    sender and nonce when it was accepted and its kind creates a contract, as
    tendersim-chain/10 and before wrote it in the receipt; else None."""
    if tx["status"] != "OK" or tx["kind"] not in CREATING_KINDS:
        return None
    return to_hex(contract_address(from_hex(tx["sender"]), tx["nonce"]))


def remine(export: dict, start_height: int = 1) -> None:
    """Recompute block hashes from start_height onward, each over the hash of
    the block before it."""
    for index in range(start_height, len(export["blocks"])):
        _rehash(export, index)


def reseal(export: dict, index: int, parent_hash: bytes | None = None, **fields) -> None:
    """Set ``fields`` on block ``index`` and recompute its hash, over
    ``parent_hash`` when given (a block mined over another parent) and else
    over the block before it; then re-mine the blocks after it, so the edit
    breaks no later hash."""
    export["blocks"][index].update(fields)
    _rehash(export, index, parent_hash)
    remine(export, index + 1)


def _rehash(export: dict, index: int, parent_hash: bytes | None = None) -> None:
    block = export["blocks"][index]
    if parent_hash is None:
        parent_hash = from_hex(export["blocks"][index - 1]["block_hash"]) if index else bytes(32)
    tx_hashes = [from_hex(t["tx_hash"]) for t in block["transactions"]]
    block["block_hash"] = to_hex(compute_block_hash(
        block["height"], parent_hash, block["timestamp"], tx_hashes))


def reuse_nonce(export: dict, height: int, tx_index: int, target_hex: str) -> dict:
    """Append to block ``height`` a copy of its transaction ``tx_index`` sent to
    ``target_hex``: same sender, nonce and payload, a recomputed tx hash.
    Re-mines from ``height`` and returns the copy."""
    block = export["blocks"][height]
    tx = dict(block["transactions"][tx_index], target=target_hex)
    tx["tx_hash"] = to_hex(compute_tx_hash(from_hex(tx["sender"]), from_hex(target_hex),
                                           tx["nonce"], from_text(tx["payload"])))
    block["transactions"].append(tx)
    remine(export, height)
    return tx


def flip_payload_bit(export: dict, height: int, tx_index: int, bit: int) -> None:
    tx = export["blocks"][height]["transactions"][tx_index]
    raw = bytearray(from_text(tx["payload"]))
    raw[bit // 8] ^= 1 << (bit % 8)
    tx["payload"] = to_text(bytes(raw))


def carried(export: dict, tx_hash_hex: str) -> dict:
    """The call that transaction ``tx_hash_hex`` of ``export`` carries."""
    tx = next(tx for block in export["blocks"] for tx in block["transactions"]
              if tx["tx_hash"] == tx_hash_hex)
    return json.loads(from_text(tx["payload"]))


def bid_record(export: dict, address_hex: str) -> dict:
    """The disclosed bid record at ``address_hex``, with the call arguments it
    links to read from the ``place_bid`` transaction that created it."""
    record = dict(export["contracts"][address_hex])
    link = record.pop("placed_by", None)
    if link is not None:
        call = carried(export, link["in_tx"])
        record.update({arg: call[arg] for arg in ("id", "data_addr", "sealed_half_a")})
    return record


def contract_data(export: dict, address_hex: str) -> bytes:
    """The bytes of the data contract at ``address_hex``, read through the link
    to its deployment when the export writes one."""
    data = export["contracts"][address_hex]["data"]
    if isinstance(data, dict):
        data = carried(export, data["in_tx"])["data"]
    return from_hex(data)


def published_results(export: dict, rft_hex: str) -> dict:
    """The results the accepted publication to tender ``rft_hex`` carried."""
    tx = next(tx for block in export["blocks"] for tx in block["transactions"]
              if tx["target"] == rft_hex and tx["status"] == "OK"
              and tx["kind"] == "publish_results")
    return json.loads(from_text(tx["payload"]))["result"]


def flip_contract_data_bit(export: dict, address_hex: str, bit: int) -> None:
    """Flip one bit of a data contract's bytes and write them whole."""
    raw = bytearray(contract_data(export, address_hex))
    raw[bit // 8] ^= 1 << (bit % 8)
    export["contracts"][address_hex]["data"] = to_hex(bytes(raw))


def backdate_block(export: dict, height: int, new_timestamp: int) -> None:
    export["blocks"][height]["timestamp"] = new_timestamp
    remine(export, height)


def duplicate_publish(export: dict, rft_hex: str) -> None:
    """Append a block replaying the publish transaction, recorded as accepted."""
    publish = None
    for block in export["blocks"]:
        for tx in block["transactions"]:
            if tx["target"] == rft_hex and tx["status"] == "OK" \
                    and tx["kind"] == "publish_results":
                publish = dict(tx)
    assert publish is not None, "no publish transaction to duplicate"
    head = export["blocks"][-1]
    export["blocks"].append({
        "height": head["height"] + 1,
        "timestamp": head["timestamp"] + 1,
        "block_hash": "0x" + "00" * 32,
        "transactions": [publish],
    })
    remine(export, len(export["blocks"]) - 1)
