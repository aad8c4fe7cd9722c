#!/usr/bin/env python3
"""Reproduce the deployment-cost and per-bid gas behaviour of the three schemes.

Runs the bundled 10-bid scenario for each scheme and prints the simulated
costs next to the measured reference series, with per-point deviations.
Exits nonzero if any point drifts beyond 0.1%.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]  # run from a source checkout

from reference_data import (  # noqa: E402
    DEPLOY_GAS,
    FULL_TRACK_BID_SERIES,
    PROTECTED_BID_SERIES,
    SERIES_TOLERANCE,
    STATELESS_BID_GAS,
)
from tendersim.scenario import run_scenario  # noqa: E402

SCENARIOS = ROOT / "scenarios"

RUNS = [
    ("FULL_TRACK", "full_track_10_bids.json", FULL_TRACK_BID_SERIES),
    ("PROTECTED", "protected_10_bids.json", PROTECTED_BID_SERIES),
    ("STATELESS", "stateless_10_bids.json", [STATELESS_BID_GAS] * 10),
]


def main() -> int:
    failures = 0
    print("deployment cost (gas)")
    print(f"{'scheme':<12} {'simulated':>10} {'reference':>10}")
    outcomes = {}
    for scheme, name, _ in RUNS:
        outcome = run_scenario(SCENARIOS / name)
        outcomes[scheme] = outcome
        ok = outcome.deployment_gas == DEPLOY_GAS[scheme]
        failures += 0 if ok else 1
        print(f"{scheme:<12} {outcome.deployment_gas:>10} {DEPLOY_GAS[scheme]:>10}"
              f"{'' if ok else '  MISMATCH'}")

    for scheme, name, reference in RUNS:
        outcome = outcomes[scheme]
        print(f"\nper-bid gas, {scheme} (tolerance {SERIES_TOLERANCE:.1%})")
        print(f"{'bid':>3} {'simulated':>10} {'reference':>10} {'delta':>7}")
        for i, (sim, ref) in enumerate(zip(outcome.bid_gas, reference), start=1):
            delta = sim - ref
            ok = abs(delta) / ref < SERIES_TOLERANCE
            failures += 0 if ok else 1
            print(f"{i:>3} {sim:>10} {ref:>10} {delta:>7}{'' if ok else '  OUT'}")

    print(f"\n{'all points within tolerance' if not failures else f'{failures} points out of tolerance'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
