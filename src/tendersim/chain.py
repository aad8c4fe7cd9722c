"""Deterministic single-chain ledger with a virtual clock and calibrated gas.

One writer path: transactions queue up and are applied, in submission
order, when a block is mined. Mined blocks and the value objects inside
them are frozen; readers never observe partial state. The clock is only
advanced explicitly by the driving scenario, never from wall time.

Gas is a closed-form model, not an instruction-level meter: deployments
cost a per-scheme constant, a tracked bid costs its base plus one array
copy per previously recorded bid, a stateless bid costs a flat amount.
The figures are fixed constants that reproduce measured reference costs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .encoding import to_hex, to_text
from .errors import (
    NoSuchContract,
    TimestampNotMonotonic,
    TimestampTooFarAhead,
    UnknownSender,
    UnmeteredOperation,
)

ADDRESS_LEN = 20
DEPLOY_TARGET = "DEPLOY"
GAS_PRICE = 1  # no fee market: every transaction offers the same price
EXPORT_FORMAT = "tendersim-chain/6"


# The calibrated gas figures
GAS_DEPLOY_RFT_FULL = 892160
GAS_DEPLOY_RFT_PROTECTED = 874791
GAS_DEPLOY_RFT_STATELESS = 352819
GAS_BID_BASE_FULL = 299501
GAS_BID_BASE_PROTECTED = 332788
GAS_BID_FLAT_STATELESS = 156601
GAS_PER_PRIOR_BID_COPY = 20781
GAS_DATA_CONTRACT_PER_BIT = 2  # 16 gas per stored byte


def meter_gas(kind: str, *, prior_recorded_bids: int = 0, data_bits: int = 0) -> int:
    """Deterministic gas for one operation kind against a state snapshot."""
    if kind == "deploy_rft_full":
        return GAS_DEPLOY_RFT_FULL
    if kind == "deploy_rft_protected":
        return GAS_DEPLOY_RFT_PROTECTED
    if kind == "deploy_rft_stateless":
        return GAS_DEPLOY_RFT_STATELESS
    if kind == "bid_full":
        return GAS_BID_BASE_FULL + GAS_PER_PRIOR_BID_COPY * prior_recorded_bids
    if kind == "bid_protected":
        return GAS_BID_BASE_PROTECTED + GAS_PER_PRIOR_BID_COPY * prior_recorded_bids
    if kind == "bid_stateless":
        return GAS_BID_FLAT_STATELESS
    # rejected bids never copy the bid array, so they cost the scheme base
    if kind == "bid_rejected_full":
        return GAS_BID_BASE_FULL
    if kind == "bid_rejected_protected":
        return GAS_BID_BASE_PROTECTED
    if kind == "bid_rejected_stateless":
        return GAS_BID_FLAT_STATELESS
    if kind in ("deploy_data", "publish_results", "reveal_key_half", "rejected_call"):
        return GAS_DATA_CONTRACT_PER_BIT * data_bits
    raise UnmeteredOperation(f"no gas rule for operation kind {kind!r}")


@dataclass(frozen=True)
class ChainConfig:
    block_interval_ms: int = 15_000
    max_future_drift_ms: int = 900_000
    genesis_timestamp: int = 1_600_000_000_000
    max_data_bits: int = 5_000

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if type(value) is not int:  # a bool is not a setting either
                raise ValueError(f"{name} must be an integer")
        if self.block_interval_ms <= 0:
            raise ValueError("block_interval_ms must be > 0")
        if self.max_future_drift_ms < 0:
            raise ValueError("max_future_drift_ms must be >= 0")
        if not 0 <= self.genesis_timestamp < 1 << 64:  # a block hash holds it in 8 bytes
            raise ValueError("genesis_timestamp must be >= 0 and < 2**64")
        if self.max_data_bits < 1:
            raise ValueError("max_data_bits must be >= 1")


@dataclass(frozen=True)
class Transaction:
    sender: bytes
    target: bytes | None  # None marks a deployment
    payload: bytes
    nonce: int
    gas_used: int
    status: str  # "OK" | "REJECTED"
    error: str | None
    kind: str | None
    created_address: bytes | None
    tx_hash: bytes


@dataclass(frozen=True)
class Block:
    height: int
    parent_hash: bytes  # the block_hash of the block before; zeros for genesis
    timestamp: int
    # Transaction on the ledger; audit.LedgerTransaction when read from an export
    transactions: tuple
    block_hash: bytes


def compute_tx_hash(sender: bytes, target: bytes | None, nonce: int, payload: bytes) -> bytes:
    """The hash of a transaction's signed fields, ``GAS_PRICE`` among them."""
    h = hashlib.sha256()
    h.update(b"tx|")
    h.update(sender)
    h.update(target if target is not None else b"DEPLOY")
    h.update(nonce.to_bytes(8, "big"))
    h.update(len(payload).to_bytes(8, "big"))
    h.update(payload)
    h.update(GAS_PRICE.to_bytes(8, "big"))
    return h.digest()


def compute_block_hash(height: int, parent_hash: bytes, timestamp: int,
                       tx_hashes: list[bytes]) -> bytes:
    h = hashlib.sha256()
    h.update(b"block|")
    h.update(height.to_bytes(8, "big"))
    h.update(parent_hash)
    h.update(timestamp.to_bytes(8, "big"))
    for th in tx_hashes:
        h.update(th)
    return h.digest()


def contract_address(creator: bytes, nonce: int) -> bytes:
    digest = hashlib.sha256(b"contract|" + creator + nonce.to_bytes(8, "big")).digest()
    return digest[-ADDRESS_LEN:]


@dataclass(frozen=True)
class ExecutionContext:
    """Everything a transaction's outcome depends on besides its target and call."""

    sender: bytes
    tx_nonce: int
    tx_hash: bytes  # names the transaction in the fields it sets (contracts.disclose)
    block_timestamp: int
    block_height: int
    max_data_bits: int  # the most bits a deploy_data may store
    # the ledger applying the transaction, which installs what it creates;
    # None when the contract rules are replayed off-ledger
    chain: "Chain | None" = None


@dataclass(frozen=True)
class ExecOutcome:
    kind: str
    gas_used: int
    created_address: bytes | None = None
    error: str | None = None

    @property
    def status(self) -> str:
        return "OK" if self.error is None else "REJECTED"


@dataclass
class _Pending:
    sender: bytes
    target: bytes | None
    payload: bytes
    nonce: int
    tx_hash: bytes = field(init=False)

    def __post_init__(self):
        self.tx_hash = compute_tx_hash(self.sender, self.target, self.nonce, self.payload)


class Chain:
    """Single honest chain; no forks, no fee market, no transaction drops."""

    def __init__(self, config: ChainConfig):
        self.config = config
        self._clock = self.config.genesis_timestamp
        self._accounts: set[bytes] = set()
        self._contracts: dict[bytes, object] = {}
        self._nonces: dict[bytes, int] = {}
        self._pending: list[_Pending] = []
        genesis = Block(
            height=0,
            parent_hash=b"\x00" * 32,
            timestamp=self.config.genesis_timestamp,
            transactions=(),
            block_hash=compute_block_hash(0, b"\x00" * 32, self.config.genesis_timestamp, []),
        )
        self.blocks: list[Block] = [genesis]

    # --- virtual clock ------------------------------------------------------

    def now(self) -> int:
        return self._clock

    def advance_to(self, timestamp: int) -> None:
        self._clock = max(self._clock, timestamp)

    # --- accounts -------------------------------------------------------------

    def register_account(self, address: bytes) -> bytes:
        if len(address) != ADDRESS_LEN:
            raise ValueError("addresses are 20 bytes")
        self._accounts.add(address)
        return address

    # --- transaction intake ---------------------------------------------------

    def submit_transaction(self, sender: bytes, target: bytes | None, payload: bytes) -> str:
        if sender not in self._accounts:
            raise UnknownSender(f"sender {to_hex(sender)} is not a registered account")
        if target is not None and len(target) != ADDRESS_LEN:
            raise ValueError("target must be a 20-byte address or None for deploy")
        nonce = self._nonces.get(sender, 0)
        self._nonces[sender] = nonce + 1
        pending = _Pending(sender=sender, target=target, payload=payload, nonce=nonce)
        self._pending.append(pending)
        return to_hex(pending.tx_hash)

    def peek_contract_address(self, sender: bytes) -> bytes:
        """Address the next transaction from sender would create."""
        return contract_address(sender, self._nonces.get(sender, 0))

    # --- mining ---------------------------------------------------------------

    def head(self) -> Block:
        return self.blocks[-1]

    def mine_block(self, proposed_timestamp: int) -> Block:
        parent = self.head()
        if proposed_timestamp <= parent.timestamp:
            raise TimestampNotMonotonic(
                f"proposed {proposed_timestamp} <= parent {parent.timestamp}")
        if proposed_timestamp > self._clock + self.config.max_future_drift_ms:
            raise TimestampTooFarAhead(
                f"proposed {proposed_timestamp} beyond now+drift "
                f"{self._clock + self.config.max_future_drift_ms}")
        if proposed_timestamp >= 1 << 64:  # a block hash holds it in 8 bytes
            raise TimestampTooFarAhead(f"proposed {proposed_timestamp} >= 2**64")
        height = parent.height + 1
        executed = []
        for pending in self._pending:
            ctx = ExecutionContext(sender=pending.sender, tx_nonce=pending.nonce,
                                   tx_hash=pending.tx_hash, block_timestamp=proposed_timestamp,
                                   block_height=height,
                                   max_data_bits=self.config.max_data_bits, chain=self)
            outcome = self._execute(ctx, pending)
            executed.append(Transaction(
                sender=pending.sender,
                target=pending.target,
                payload=pending.payload,
                nonce=pending.nonce,
                gas_used=outcome.gas_used,
                status=outcome.status,
                error=outcome.error,
                kind=outcome.kind,
                created_address=outcome.created_address,
                tx_hash=pending.tx_hash,
            ))
        self._pending.clear()
        block = Block(
            height=height,
            parent_hash=parent.block_hash,
            timestamp=proposed_timestamp,
            transactions=tuple(executed),
            block_hash=compute_block_hash(height, parent.block_hash, proposed_timestamp,
                                          [t.tx_hash for t in executed]),
        )
        self.blocks.append(block)
        return block

    def _execute(self, ctx: ExecutionContext, pending: _Pending) -> ExecOutcome:
        from . import contracts  # runtime dispatch; avoids an import cycle

        call = contracts.decode_call(pending.payload)
        if call is None:
            return contracts.malformed_payload(pending.payload)
        if pending.target is None:
            return contracts.execute_deploy(ctx, call)
        target = self._contracts.get(pending.target)
        if target is None:
            return contracts.missing_target(pending.payload)
        return target.execute(ctx, call)

    # --- state access -----------------------------------------------------------

    def install_contract(self, address: bytes, contract: object) -> None:
        self._contracts[address] = contract

    def get_contract(self, address: bytes):
        contract = self._contracts.get(address)
        if contract is None:
            raise NoSuchContract(f"no contract at {to_hex(address)}")
        return contract

    # --- export ------------------------------------------------------------------

    def export(self) -> dict:
        """Whole-chain view: blocks, receipts, disclosed contract state, and
        ``max_data_bits``, the one setting a contract rule reads.

        Payloads are written with ``to_text``, one character per byte. The
        registered accounts, the clock and its settings are left out: no
        reader of the export could check them against the ledger. Nor are the
        gas figures and ``GAS_PRICE``, which are constants of this module, nor
        each block's parent hash, which is the ``block_hash`` of the block
        before it (zeros for genesis) and which the block hash commits to.
        Each contract is written by ``contracts.disclose``: a tracked tender's
        records each keep the bid array as it stood, and each is written as a
        link to the record before it, so the file grows linearly with the bids;
        a bid record's call arguments, a data contract's bytes and a tender's
        published results are written as a link to the transaction that
        carried them, so the export does not hold them twice.
        """
        from . import contracts  # avoids an import cycle

        payloads = {t.tx_hash: t.payload for b in self.blocks for t in b.transactions
                    if t.kind in contracts.LINKED_KINDS}

        def call_of(tx_hash):
            # decoded at each lookup, so the export never holds every call at once
            payload = payloads.get(tx_hash)
            return None if payload is None else contracts.decode_call(payload)

        return {
            "format": EXPORT_FORMAT,
            "max_data_bits": self.config.max_data_bits,
            "blocks": [
                {
                    "height": b.height,
                    "timestamp": b.timestamp,
                    "block_hash": to_hex(b.block_hash),
                    "transactions": [
                        {
                            "sender": to_hex(t.sender),
                            "target": DEPLOY_TARGET if t.target is None else to_hex(t.target),
                            "payload": to_text(t.payload),
                            "nonce": t.nonce,
                            "gas_used": t.gas_used,
                            "status": t.status,
                            "error": t.error,
                            "kind": t.kind,
                            "created_address": to_hex(t.created_address)
                            if t.created_address else None,
                            "tx_hash": to_hex(t.tx_hash),
                        }
                        for t in b.transactions
                    ],
                }
                for b in self.blocks
            ],
            "contracts": {to_hex(a): contracts.disclose(c, self._contracts, call_of)
                          for a, c in self._contracts.items()},
        }
