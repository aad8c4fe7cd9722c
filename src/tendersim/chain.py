"""Deterministic single-chain ledger with a virtual clock and calibrated gas.

One writer path: transactions queue up and are applied, in submission
order, when a block is mined. Mined blocks and the value objects inside
them are frozen; readers never observe partial state. The clock is only
advanced explicitly by the driving scenario, never from wall time.

Gas is a closed-form model, not an instruction-level meter: deployments
cost a per-scheme constant, a tracked bid costs its base plus one array
copy per previously recorded bid, a stateless bid costs a flat amount.
The constants reproduce measured reference costs; see GasSchedule.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .encoding import canonical_json_bytes, to_hex
from .errors import (
    NoSuchContract,
    TimestampNotMonotonic,
    TimestampTooFarAhead,
    UnknownSender,
    UnmeteredOperation,
)

ADDRESS_LEN = 20
DEPLOY_TARGET = "DEPLOY"


@dataclass(frozen=True)
class GasSchedule:
    deploy_rft_full: int = 892160
    deploy_rft_protected: int = 874791
    deploy_rft_stateless: int = 352819
    bid_base_full: int = 299501
    bid_base_protected: int = 332788
    bid_flat_stateless: int = 156601
    per_prior_bid_copy: int = 20781
    data_contract_per_bit: int = 2  # 16 gas per stored byte

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if value <= 0:
                raise ValueError(f"gas schedule field {name} must be strictly positive")

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def meter_gas(schedule: GasSchedule, kind: str, *, prior_recorded_bids: int = 0,
              data_bits: int = 0) -> int:
    """Deterministic gas for one operation kind against a state snapshot."""
    if kind == "deploy_rft_full":
        return schedule.deploy_rft_full
    if kind == "deploy_rft_protected":
        return schedule.deploy_rft_protected
    if kind == "deploy_rft_stateless":
        return schedule.deploy_rft_stateless
    if kind == "bid_full":
        return schedule.bid_base_full + schedule.per_prior_bid_copy * prior_recorded_bids
    if kind == "bid_protected":
        return schedule.bid_base_protected + schedule.per_prior_bid_copy * prior_recorded_bids
    if kind == "bid_stateless":
        return schedule.bid_flat_stateless
    # rejected bids never copy the bid array, so they cost the scheme base
    if kind == "bid_rejected_full":
        return schedule.bid_base_full
    if kind == "bid_rejected_protected":
        return schedule.bid_base_protected
    if kind == "bid_rejected_stateless":
        return schedule.bid_flat_stateless
    if kind in ("deploy_data", "publish_results", "reveal_key_half", "rejected_call"):
        return schedule.data_contract_per_bit * data_bits
    raise UnmeteredOperation(f"no gas rule for operation kind {kind!r}")


@dataclass(frozen=True)
class ChainConfig:
    block_interval_ms: int = 15_000
    max_future_drift_ms: int = 900_000
    genesis_timestamp: int = 1_600_000_000_000
    max_data_bits: int = 5_000

    def __post_init__(self):
        if self.block_interval_ms <= 0:
            raise ValueError("block_interval_ms must be > 0")
        if self.max_future_drift_ms < 0:
            raise ValueError("max_future_drift_ms must be >= 0")

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class Transaction:
    sender: bytes
    target: bytes | None  # None marks a deployment
    payload: bytes
    nonce: int
    gas_price: int
    gas_used: int
    status: str  # "OK" | "REJECTED"
    error: str | None
    kind: str | None
    created_address: bytes | None
    tx_hash: bytes


@dataclass(frozen=True)
class Block:
    height: int
    parent_hash: bytes
    timestamp: int
    transactions: tuple[Transaction, ...]
    block_hash: bytes


def compute_tx_hash(sender: bytes, target: bytes | None, nonce: int, payload: bytes,
                    gas_price: int) -> bytes:
    h = hashlib.sha256()
    h.update(b"tx|")
    h.update(sender)
    h.update(target if target is not None else b"DEPLOY")
    h.update(nonce.to_bytes(8, "big"))
    h.update(len(payload).to_bytes(8, "big"))
    h.update(payload)
    h.update(gas_price.to_bytes(8, "big"))
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
    block_timestamp: int
    block_height: int
    gas_schedule: GasSchedule
    config: ChainConfig
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
    gas_price: int
    tx_hash: bytes = field(init=False)

    def __post_init__(self):
        self.tx_hash = compute_tx_hash(self.sender, self.target, self.nonce,
                                       self.payload, self.gas_price)


class Chain:
    """Single honest chain; no forks, no fee market, no transaction drops."""

    def __init__(self, config: ChainConfig | None = None,
                 gas_schedule: GasSchedule | None = None):
        self.config = config or ChainConfig()
        self.gas_schedule = gas_schedule or GasSchedule()
        self._clock = self.config.genesis_timestamp
        self._accounts: set[bytes] = set()
        self._contracts: dict[bytes, object] = {}
        self._nonces: dict[bytes, int] = {}
        self._pending: list[_Pending] = []
        self._tx_index: dict[bytes, Transaction] = {}
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

    def advance_by(self, ms: int) -> None:
        if ms < 0:
            raise ValueError("clock only moves forward")
        self._clock += ms

    # --- accounts -------------------------------------------------------------

    def register_account(self, address: bytes) -> bytes:
        if len(address) != ADDRESS_LEN:
            raise ValueError("addresses are 20 bytes")
        self._accounts.add(address)
        return address

    # --- transaction intake ---------------------------------------------------

    def submit_transaction(self, sender: bytes, target: bytes | None, payload: bytes,
                           gas_price: int = 1) -> str:
        if sender not in self._accounts:
            raise UnknownSender(f"sender {to_hex(sender)} is not a registered account")
        if target is not None and len(target) != ADDRESS_LEN:
            raise ValueError("target must be a 20-byte address or None for deploy")
        nonce = self._nonces.get(sender, 0)
        self._nonces[sender] = nonce + 1
        pending = _Pending(sender=sender, target=target, payload=payload,
                           nonce=nonce, gas_price=gas_price)
        self._pending.append(pending)
        return to_hex(pending.tx_hash)

    def peek_contract_address(self, sender: bytes, offset: int = 0) -> bytes:
        """Address the (current + offset)-th next transaction from sender would create."""
        return contract_address(sender, self._nonces.get(sender, 0) + offset)

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
        height = parent.height + 1
        executed = []
        for pending in self._pending:
            ctx = ExecutionContext(sender=pending.sender, tx_nonce=pending.nonce,
                                   block_timestamp=proposed_timestamp, block_height=height,
                                   gas_schedule=self.gas_schedule, config=self.config,
                                   chain=self)
            outcome = self._execute(ctx, pending)
            tx = Transaction(
                sender=pending.sender,
                target=pending.target,
                payload=pending.payload,
                nonce=pending.nonce,
                gas_price=pending.gas_price,
                gas_used=outcome.gas_used,
                status=outcome.status,
                error=outcome.error,
                kind=outcome.kind,
                created_address=outcome.created_address,
                tx_hash=pending.tx_hash,
            )
            executed.append(tx)
            self._tx_index[tx.tx_hash] = tx
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
            return contracts.malformed_payload(pending.payload, ctx)
        if pending.target is None:
            return contracts.execute_deploy(ctx, call)
        target = self._contracts.get(pending.target)
        if target is None:
            return contracts.missing_target(pending.payload, ctx)
        return target.execute(ctx, call)

    # --- state access -----------------------------------------------------------

    def install_contract(self, address: bytes, contract: object) -> None:
        self._contracts[address] = contract

    def has_contract(self, address: bytes) -> bool:
        return address in self._contracts

    def get_contract(self, address: bytes):
        contract = self._contracts.get(address)
        if contract is None:
            raise NoSuchContract(f"no contract at {to_hex(address)}")
        return contract

    def read_state(self, address: bytes) -> dict:
        """Zero-gas snapshot of one contract's current state."""
        return self.get_contract(address).snapshot()

    def get_transaction(self, tx_id: str | bytes) -> Transaction:
        key = bytes.fromhex(tx_id[2:]) if isinstance(tx_id, str) else tx_id
        return self._tx_index[key]

    def total_gas(self) -> int:
        return sum(t.gas_used for b in self.blocks for t in b.transactions)

    def state_digest(self) -> bytes:
        snap = {to_hex(addr): c.snapshot() for addr, c in self._contracts.items()}
        return hashlib.sha256(canonical_json_bytes(snap)).digest()

    # --- export ------------------------------------------------------------------

    def export(self) -> dict:
        """Whole-chain view: blocks, receipts, and disclosed contract state."""
        return {
            "format": "tendersim-chain/1",
            "config": self.config.as_dict(),
            "gas_schedule": self.gas_schedule.as_dict(),
            "clock": self._clock,
            "accounts": sorted(to_hex(a) for a in self._accounts),
            "blocks": [
                {
                    "height": b.height,
                    "parent_hash": to_hex(b.parent_hash),
                    "timestamp": b.timestamp,
                    "block_hash": to_hex(b.block_hash),
                    "transactions": [
                        {
                            "sender": to_hex(t.sender),
                            "target": DEPLOY_TARGET if t.target is None else to_hex(t.target),
                            "payload": to_hex(t.payload),
                            "nonce": t.nonce,
                            "gas_price": t.gas_price,
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
            "contracts": {to_hex(a): c.snapshot() for a, c in self._contracts.items()},
        }
