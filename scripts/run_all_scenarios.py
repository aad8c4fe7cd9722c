#!/usr/bin/env python3
"""Run every bundled scenario and summarize audit outcomes.

Writes report files under the given output directory (default ./out) and
exits nonzero if any scenario misses its expected-verdict block.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # run from a source checkout

from tendersim.scenario import run_scenario  # noqa: E402

SCENARIOS = ROOT / "scenarios"


def main() -> int:
    out_root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    worst = 0
    for path in sorted(SCENARIOS.glob("*.json")):
        outcome = run_scenario(path, out_dir=out_root / path.stem)
        status = "ok" if outcome.exit_code == 0 else "EXPECTATION MISMATCH"
        print(f"{path.stem:<22} {status:<22} {outcome.report.one_line()}")
        for failure in outcome.expected_failures:
            print(f"    {failure}")
        worst = max(worst, outcome.exit_code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
