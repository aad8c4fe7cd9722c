"""Per-layer tracing from outside the program.

A :class:`Tracer` wraps the public functions of each tendersim module at the
attribute its callers look up: a function bound into several modules by
``from .x import f`` is replaced in every one of them, and a method is
replaced on its class. Each wrapped call records a span (name, start, end,
parent span, iteration) in memory; counters that need the call's arguments
or result (bytes encoded, recoveries that return ``None``, transactions per
block) are recorded by small hooks next to the span.

A layer's self time is its span duration minus the time of its child spans.
The program is single-threaded, so child spans never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
from dataclasses import dataclass

from clock import program_ns

# (owner module, attribute path) -> span name. A dotted attribute path names
# a method on a class of that module.
SPANS = {
    ("tendersim.secp256k1", "public_key_bytes"): "secp256k1.public_key_bytes",
    ("tendersim.secp256k1", "sign_digest"): "secp256k1.sign_digest",
    ("tendersim.secp256k1", "recover_public_key"): "secp256k1.recover_public_key",
    ("tendersim.secp256k1", "ecdh_shared_secret"): "secp256k1.ecdh_shared_secret",
    ("tendersim.crypto", "issue_certificate"): "crypto.issue_certificate",
    ("tendersim.crypto", "encrypt_bid"): "crypto.encrypt_bid",
    ("tendersim.crypto", "decrypt_bid"): "crypto.decrypt_bid",
    ("tendersim.crypto", "sign_receipt"): "crypto.sign_receipt",
    ("tendersim.crypto", "seal_bid_key"): "crypto.seal_bid_key",
    ("tendersim.crypto", "unseal_bid_key"): "crypto.unseal_bid_key",
    ("tendersim.crypto", "certificate_matches"): "crypto.certificate_matches",
    ("tendersim.chain", "Chain.mine_block"): "chain.Chain.mine_block",
    ("tendersim.chain", "Chain.submit_transaction"): "chain.Chain.submit_transaction",
    ("tendersim.chain", "Chain.export"): "chain.Chain.export",
    ("tendersim.contracts", "RequestForTenderContract.execute"):
        "contracts.RequestForTenderContract.execute",
    ("tendersim.contracts", "execute_deploy"): "contracts.execute_deploy",
    ("tendersim.contracts", "RequestForTenderContract.snapshot"): "contracts.snapshot",
    ("tendersim.contracts", "BidRecordContract.snapshot"): "contracts.snapshot",
    ("tendersim.contracts", "TenderDataContract.snapshot"): "contracts.snapshot",
    ("tendersim.orchestrator", "TenderOrchestrator.open_tender"): "orchestrator.open_tender",
    ("tendersim.orchestrator", "TenderOrchestrator.register_bidder"):
        "orchestrator.register_bidder",
    ("tendersim.orchestrator", "TenderOrchestrator.submit_sealed_bid"):
        "orchestrator.submit_sealed_bid",
    ("tendersim.orchestrator", "TenderOrchestrator.pre_deadline_decryption_probe"):
        "orchestrator.pre_deadline_decryption_probe",
    ("tendersim.orchestrator", "evaluate_tender"): "orchestrator.evaluate_tender",
    ("tendersim.orchestrator", "TenderOrchestrator.publish_results"):
        "orchestrator.publish_results",
    ("tendersim.audit", "replay_and_audit"): "audit.replay_and_audit",
    ("tendersim.audit", "verify_ledger_hashes"): "audit.verify_ledger_hashes",
    ("tendersim.encoding", "canonical_json"): "encoding.canonical_json",
    ("tendersim.encoding", "load_json_bytes"): "encoding.load_json_bytes",
    ("tendersim.scenario", "run_scenario"): "scenario.run_scenario",
    ("tendersim.scenario", "validate_scenario"): "scenario.validate_scenario",
    ("tendersim.cli", "main"): "cli.main",
}
# Generators are counted, not timed: their work interleaves with the caller's.
COUNTED_GENERATORS = {("tendersim.audit", "iter_transactions"): "audit.iter_transactions"}

# Per-layer metrics, in the order BENCHMARK.json lists them. Every value is
# per traced iteration unless its name says otherwise (ratios, percentiles).
PER_LAYER = [
    ("secp256k1.public_key_bytes.calls", "count"),
    ("secp256k1.public_key_bytes.busy_s", "s"),
    ("secp256k1.sign_digest.calls", "count"),
    ("secp256k1.sign_digest.busy_s", "s"),
    ("secp256k1.recover_public_key.calls", "count"),
    ("secp256k1.recover_public_key.busy_s", "s"),
    ("secp256k1.recover_public_key.none_ratio", "ratio"),
    ("secp256k1.ecdh_shared_secret.calls", "count"),
    ("secp256k1.ecdh_shared_secret.busy_s", "s"),
    ("secp256k1.calls_per_bid", "count"),
    ("crypto.issue_certificate.calls", "count"),
    ("crypto.issue_certificate.busy_s", "s"),
    ("crypto.encrypt_bid.calls", "count"),
    ("crypto.encrypt_bid.busy_s", "s"),
    ("crypto.decrypt_bid.calls", "count"),
    ("crypto.decrypt_bid.busy_s", "s"),
    ("crypto.sign_receipt.calls", "count"),
    ("crypto.sign_receipt.busy_s", "s"),
    ("crypto.seal_bid_key.calls", "count"),
    ("crypto.seal_bid_key.busy_s", "s"),
    ("crypto.seal_bid_key.self_s", "s"),
    ("crypto.unseal_bid_key.calls", "count"),
    ("crypto.unseal_bid_key.busy_s", "s"),
    ("crypto.unseal_bid_key.self_s", "s"),
    ("crypto.certificate_matches.calls", "count"),
    ("crypto.certificate_matches.busy_s", "s"),
    ("crypto.certificate_matches.accept_ratio", "ratio"),
    ("chain.Chain.mine_block.calls", "count"),
    ("chain.Chain.mine_block.busy_s", "s"),
    ("chain.Chain.mine_block.self_s", "s"),
    ("chain.Chain.mine_block.txs_per_block", "count"),
    ("chain.Chain.submit_transaction.calls", "count"),
    ("chain.Chain.export.calls", "count"),
    ("chain.Chain.export.busy_s", "s"),
    ("chain.rejected_tx_ratio", "ratio"),
    ("chain.transactions", "count"),
    ("chain.blocks", "count"),
    ("contracts.RequestForTenderContract.execute.calls", "count"),
    ("contracts.RequestForTenderContract.execute.busy_s", "s"),
    ("contracts.RequestForTenderContract.execute.self_s", "s"),
    ("contracts.execute_deploy.calls", "count"),
    ("contracts.execute_deploy.busy_s", "s"),
    ("contracts.execute_deploy.self_s", "s"),
    ("contracts.snapshot.calls", "count"),
    ("contracts.snapshot.busy_s", "s"),
    ("contracts.prior_bid_copies", "count"),
    ("orchestrator.submit_sealed_bid.calls", "count"),
    ("orchestrator.submit_sealed_bid.p50_ms", "ms"),
    ("orchestrator.submit_sealed_bid.p95_ms", "ms"),
    ("orchestrator.submit_sealed_bid.self_s", "s"),
    ("orchestrator.open_tender.busy_s", "s"),
    ("orchestrator.register_bidder.busy_s", "s"),
    ("orchestrator.pre_deadline_decryption_probe.busy_s", "s"),
    ("orchestrator.evaluate_tender.busy_s", "s"),
    ("orchestrator.publish_results.busy_s", "s"),
    ("audit.replay_and_audit.calls", "count"),
    ("audit.replay_and_audit.busy_s", "s"),
    ("audit.replay_and_audit.self_s", "s"),
    ("audit.verify_ledger_hashes.calls", "count"),
    ("audit.verify_ledger_hashes.busy_s", "s"),
    ("audit.iter_transactions.items", "ratio"),
    ("encoding.canonical_json.calls", "count"),
    ("encoding.canonical_json.busy_s", "s"),
    ("encoding.canonical_json.bytes_out", "bytes"),
    ("encoding.load_json_bytes.calls", "count"),
    ("encoding.load_json_bytes.busy_s", "s"),
    ("encoding.load_json_bytes.bytes_in", "bytes"),
    ("scenario.run_scenario.calls", "count"),
    ("scenario.run_scenario.self_s", "s"),
    ("scenario.validate_scenario.busy_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.entry_self_share", "ratio"),
    ("trace.overhead_run_s", "s"),
    ("trace.overhead_audit_s", "s"),
]

# Metrics that must repeat exactly when the same seed is run twice.
DETERMINISTIC = [
    "secp256k1.public_key_bytes.calls", "secp256k1.sign_digest.calls",
    "secp256k1.recover_public_key.calls", "secp256k1.recover_public_key.none_ratio",
    "secp256k1.ecdh_shared_secret.calls", "secp256k1.calls_per_bid",
    "crypto.certificate_matches.accept_ratio", "chain.Chain.mine_block.calls",
    "chain.Chain.mine_block.txs_per_block", "chain.Chain.submit_transaction.calls",
    "chain.rejected_tx_ratio", "chain.transactions", "chain.blocks",
    "contracts.snapshot.calls", "contracts.prior_bid_copies",
    "audit.iter_transactions.items", "encoding.canonical_json.calls",
    "encoding.canonical_json.bytes_out", "encoding.load_json_bytes.calls",
    "encoding.load_json_bytes.bytes_in", "trace.spans",
]


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    iteration: int
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0

    @property
    def busy_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.busy_ns - self.child_ns


class Tracer:
    """Collects spans and counters for the iterations run while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.iteration = 0
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self):
        for (module_name, attr), name in SPANS.items():
            owner, leaf = _resolve(module_name, attr)
            original = getattr(owner, leaf)
            hook = _HOOKS.get(name)
            self._replace(owner, leaf, original, self._span_wrapper(original, name, hook))
        for (module_name, attr), name in COUNTED_GENERATORS.items():
            owner, leaf = _resolve(module_name, attr)
            original = getattr(owner, leaf)
            self._replace(owner, leaf, original, self._counting_generator(original, name))

    def _replace(self, owner, leaf, original, wrapper):
        if isinstance(owner, type):
            targets = [(owner, leaf)]
        else:
            # a module-level function: every tendersim module that bound it
            targets = [(mod, key) for mod_name, mod in list(sys.modules.items())
                       if mod_name.startswith("tendersim") and mod is not None
                       for key, value in list(vars(mod).items()) if value is original]
        for target, key in targets:
            self._patches.append((target, key, original))
            setattr(target, key, wrapper)

    def _uninstall(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # -- wrappers --

    def _span_wrapper(self, func, name, hook):
        stack = self._stack
        spans = self.spans
        clock = program_ns  # leaves out time spent in the speed probe

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(len(spans), parent.span_id if parent else None, name,
                        self.iteration, clock())
            spans.append(span)
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end_ns = clock()
                stack.pop()
                if parent is not None:
                    parent.child_ns += span.busy_ns
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _counting_generator(self, func, name):
        counts = self.counts
        key = name + ".items"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            for item in func(*args, **kwargs):
                counts[key] = counts.get(key, 0) + 1
                yield item

        return wrapper

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- aggregation --

    def layer_metrics(self, iterations: int, bids: int, transactions: int,
                      blocks: int) -> dict:
        """Per-layer metrics averaged over ``iterations`` traced iterations.

        ``bids``, ``transactions`` and ``blocks`` are the totals over those
        iterations, on the chains the traced code built or audited.
        """
        by_name: dict[str, list[Span]] = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)
        per = max(iterations, 1)
        out: dict[str, float] = {}
        for name in set(SPANS.values()):
            spans = by_name.get(name, [])
            out[f"{name}.calls"] = len(spans) / per
            out[f"{name}.busy_s"] = sum(s.busy_ns for s in spans) / 1e9 / per
            out[f"{name}.self_s"] = sum(s.self_ns for s in spans) / 1e9 / per
        bid_spans = by_name.get("orchestrator.submit_sealed_bid", [])
        quantiles = _percentiles_ms([s.busy_ns for s in bid_spans])
        out["orchestrator.submit_sealed_bid.p50_ms"] = quantiles[0]
        out["orchestrator.submit_sealed_bid.p95_ms"] = quantiles[1]

        c = self.counts
        curve_calls = sum(len(by_name.get(n, [])) for n in (
            "secp256k1.public_key_bytes", "secp256k1.sign_digest",
            "secp256k1.recover_public_key", "secp256k1.ecdh_shared_secret"))
        out["secp256k1.calls_per_bid"] = _ratio(curve_calls, bids)
        out["secp256k1.recover_public_key.none_ratio"] = _ratio(
            c.get("recover_none", 0), len(by_name.get("secp256k1.recover_public_key", [])))
        out["crypto.certificate_matches.accept_ratio"] = _ratio(
            c.get("certificate_accepted", 0),
            len(by_name.get("crypto.certificate_matches", [])))
        out["chain.Chain.mine_block.txs_per_block"] = _ratio(
            c.get("mined_txs", 0), len(by_name.get("chain.Chain.mine_block", [])))
        out["chain.rejected_tx_ratio"] = _ratio(c.get("rejected_txs", 0), c.get("mined_txs", 0))
        out["chain.transactions"] = transactions / per
        out["chain.blocks"] = blocks / per
        out["contracts.prior_bid_copies"] = c.get("prior_bid_copies", 0) / per
        out["audit.iter_transactions.items"] = _ratio(
            c.get("audit.iter_transactions.items", 0), transactions)
        out["encoding.canonical_json.bytes_out"] = c.get("canonical_json_chars", 0) / per
        out["encoding.load_json_bytes.bytes_in"] = c.get("load_json_bytes", 0) / per
        out["trace.spans"] = len(self.spans) / per
        return out


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentiles_ms(durations_ns: list[int]) -> tuple[float, float]:
    if not durations_ns:
        return 0.0, 0.0
    if len(durations_ns) == 1:
        return durations_ns[0] / 1e6, durations_ns[0] / 1e6
    cuts = statistics.quantiles(durations_ns, n=20, method="inclusive")
    return statistics.median(durations_ns) / 1e6, cuts[18] / 1e6


# --- counters that need a call's arguments or result ------------------------------------

def _recover_hook(tracer, args, result):
    if result is None:
        tracer.count("recover_none")


def _certificate_hook(tracer, args, result):
    if result:
        tracer.count("certificate_accepted")


def _mine_hook(tracer, args, block):
    tracer.count("mined_txs", len(block.transactions))
    tracer.count("rejected_txs", sum(1 for tx in block.transactions if tx.status == "REJECTED"))


def _execute_hook(tracer, args, outcome):
    rft, ctx = args[0], args[1]
    if outcome.created_address is not None and rft.scheme != "STATELESS":
        record = ctx.chain.get_contract(outcome.created_address)
        tracer.count("prior_bid_copies", len(record.prior_bids))


def _canonical_json_hook(tracer, args, text):
    tracer.count("canonical_json_chars", len(text))


def _load_json_hook(tracer, args, result):
    tracer.count("load_json_bytes", len(args[0]))


_HOOKS = {
    "secp256k1.recover_public_key": _recover_hook,
    "crypto.certificate_matches": _certificate_hook,
    "chain.Chain.mine_block": _mine_hook,
    "contracts.RequestForTenderContract.execute": _execute_hook,
    "encoding.canonical_json": _canonical_json_hook,
    "encoding.load_json_bytes": _load_json_hook,
}
