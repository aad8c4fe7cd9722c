#!/usr/bin/env python3
"""tendersim benchmark: one workload per invocation, one process, one thread.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``. Workloads (see BENCHMARK.json for why each was chosen):

* ``stateless_honest``   run_scenario on a STATELESS tender, then the citizen audit
* ``full_track_spam``    run_scenario on a FULL_TRACK tender with spam and an
                          erased record, then the citizen audit
* ``multi_tender_audit`` interleaved tenders built through the orchestrator API,
                          then the citizen audit of every tender on the chain

Set-up (import, warm-up inputs, an untimed warm-up run) is repeated with a
fresh import of the package and its median is reported as ``setup_s``. Then
iterations run until ``--seconds`` is spent, each on inputs derived from its
own seed, so no iteration sees an input an earlier one saw. Every iteration
is checked (expected block, citizen verdict, closed-form gas); a final re-run
of the warm-up seed must reproduce its digests and counts exactly.

Timed phases run under the speed probe of ``clock.py``: times are reported
at a fixed reference machine speed, with the raw wall times printed next to
them.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
iterations alternate traced and untraced, and the per-layer metrics and the
tracing overhead are printed. The last line of output is one JSON object.
Exits 1 if any check fails and 2 if the program cannot be found.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from clock import timed  # noqa: E402
from tracer import DETERMINISTIC, PER_LAYER, Tracer  # noqa: E402
from workloads import FULL_SIZES, TINY_SIZES, WORKLOADS, Sample, derive_seed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

END_TO_END = [("run_s", "s"), ("audit_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("export_bytes", "bytes")]
SETUP_REPEATS = 5
MIN_ITERATIONS = 2


def fresh_import() -> None:
    """Import tendersim from ``src/``, discarding any earlier import of it."""
    for name in [m for m in sys.modules if m == "tendersim" or m.startswith("tendersim.")]:
        del sys.modules[name]
    for module in ("tendersim.scenario", "tendersim.cli"):
        importlib.import_module(module)
    location = Path(sys.modules["tendersim"].__file__).resolve()
    if SRC not in location.parents:
        raise ImportError(f"tendersim was imported from {location}, not from {SRC}")


def _safe_iteration(fn, seed, size, work_root, tracer=None, probe=False) -> Sample | None:
    """One iteration; a crash is reported and counted as a failed iteration."""
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        return fn(seed, size, work, tracer, probe)
    except Exception:
        traceback.print_exc()
        return None
    finally:
        shutil.rmtree(work)


def set_up(workload: str, seed: int, work_root: Path, sizes: dict):
    """Import and warm up SETUP_REPEATS times.

    Returns the set-up durations, the last warm-up sample and its seed.
    """
    durations, warm = [], None
    for k in range(SETUP_REPEATS):
        warm_seed = derive_seed(workload, seed, "warmup", k)
        with timed(probe=True) as timing:
            fresh_import()
            warm = _safe_iteration(WORKLOADS[workload], warm_seed, sizes[workload], work_root)
        durations.append(timing.seconds)
    return durations, warm, warm_seed


def measure(workload: str, seed: int, seconds: float, trace: bool, work_root: Path,
            sizes: dict, tracer: Tracer | None):
    """Timed iterations until ``seconds`` would be exceeded; (traced, sample) pairs."""
    fn = WORKLOADS[workload]
    samples: list[tuple[bool, Sample | None]] = []
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 0
        gc.collect()
        if traced:
            tracer.iteration = i
        sample = _safe_iteration(fn, derive_seed(workload, seed, i), sizes[workload],
                                 work_root, tracer if traced else None, probe=True)
        samples.append((traced, sample))
        i += 1
        elapsed = time.perf_counter() - start
        # start another iteration only if it should end within half an
        # iteration of the deadline, so runs last about ``seconds``
        if i >= MIN_ITERATIONS and elapsed + elapsed / i / 2 > seconds:
            return samples


def determinism_failures(workload: str, warm: Sample | None, warm_seed: int,
                         work_root: Path, sizes: dict) -> list[str]:
    """Re-run the warm-up seed twice, traced: digests and counts must repeat."""
    if warm is None:
        return ["warm-up iteration crashed"]
    runs = []
    for _ in range(2):
        tracer = Tracer()
        sample = _safe_iteration(WORKLOADS[workload], warm_seed, sizes[workload],
                                 work_root, tracer)
        if sample is None:
            return ["determinism re-run crashed"]
        counts = tracer.layer_metrics(1, sample.bids, sample.transactions, sample.blocks)
        runs.append((sample, {k: counts[k] for k in DETERMINISTIC}))
    failures = [f"re-run: {f}" for sample, _ in runs for f in sample.failures]
    for sample, _ in runs:
        if sample.digests() != warm.digests():
            failures.append(f"same seed gave different chain.json/audit.json digests: "
                            f"{warm.digests()} then {sample.digests()}")
    (_, first), (_, second) = runs
    for key in DETERMINISTIC:
        if first[key] != second[key]:
            failures.append(f"count {key} differs on the same seed: "
                            f"{first[key]} then {second[key]}")
    return failures


def end_to_end(samples: list[Sample], setup: list[float]) -> dict:
    return {
        "run_s": statistics.median(s.run_s for s in samples),
        "audit_s": statistics.median(s.audit_s for s in samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "export_bytes": statistics.median(s.export_bytes for s in samples),
    }


def per_layer(workload: str, tracer: Tracer, traced: list[Sample],
              untraced: list[Sample]) -> dict:
    metrics = tracer.layer_metrics(len(traced), sum(s.bids for s in traced),
                                   sum(s.transactions for s in traced),
                                   sum(s.blocks for s in traced))
    # spans read the same probe-free clock as the phases' wall_s
    if workload == "multi_tender_audit":
        share = metrics["cli.main.self_s"] / statistics.median(s.audit.wall_s for s in traced)
    else:
        share = (metrics["scenario.run_scenario.self_s"] + metrics["cli.main.self_s"]) \
            / statistics.median(s.run.wall_s for s in traced)
    metrics["trace.entry_self_share"] = share
    # at the reference speed, like the end-to-end metrics
    for phase in ("run", "audit"):
        metrics[f"trace.overhead_{phase}_s"] = (
            statistics.median(getattr(s, f"{phase}_s") for s in traced)
            - statistics.median(getattr(s, f"{phase}_s") for s in untraced))
    return metrics


def main(argv=None, sizes: dict = FULL_SIZES) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tendersim" / "__init__.py").is_file():
        print(f"error: tendersim sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        return _run(args, sizes, work_root)
    finally:
        shutil.rmtree(work_root)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def _run(args, sizes: dict, work_root: Path) -> int:
    trace = bool(args.trace)
    setup, warm, warm_seed = set_up(args.workload, args.seed, work_root, TINY_SIZES)
    to_first_iteration = time.perf_counter() - _PROCESS_START
    tracer = Tracer() if trace else None
    pairs = measure(args.workload, args.seed, args.seconds, trace, work_root, sizes, tracer)
    gate = determinism_failures(args.workload, warm, warm_seed, work_root, TINY_SIZES)

    samples = [s for _, s in pairs if s is not None]
    failed = sum(1 for _, s in pairs if s is None or s.failures) + (1 if gate else 0)
    attempted = len(pairs) + 1  # every timed iteration, plus the determinism re-run
    for _, sample in pairs:
        for failure in (sample.failures if sample else []):
            print(f"FAILED: {failure}")
    for failure in gate:
        print(f"FAILED: {failure}")

    print(f"workload {args.workload} seed {args.seed}: {len(pairs)} timed iterations, "
          f"process start to first timed iteration {to_first_iteration:.3f} s")
    print(f"error_rate = {failed / attempted} ratio ({failed} failed of {attempted})")
    for phase in ("run", "audit"):
        timings = [getattr(s, phase) for s in samples]
        print(f"{phase}_s per iteration: " + " ".join(f"{t.seconds:.3f}" for t in timings))
        print("  wall: " + " ".join(f"{t.wall_s:.3f}" for t in timings))
        print("  slowness: " + " ".join(f"{t.slowness:.3f}" for t in timings))
    if samples:
        first = samples[0]
        print(f"counts per iteration: bids {first.bids}, transactions {first.transactions}, "
              f"blocks {first.blocks}, tenders {first.tenders}, "
              f"export_bytes {first.export_bytes}")
    metrics: dict = {}
    traced = [s for t, s in pairs if t and s is not None]
    untraced = [s for t, s in pairs if not t and s is not None]
    if trace and traced and untraced:
        values = per_layer(args.workload, tracer, traced, untraced)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    elif not trace and samples:
        values = end_to_end(samples, setup)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
