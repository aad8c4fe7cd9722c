"""Phase timing that stays steady on a shared, noisy machine.

On a host shared with other tenants, the speed of pure-Python code drifts by
20-40% over tens of seconds, with no CPU steal recorded: the program gets the
CPU, but a slower one. Medians over a run cannot remove drift that lasts as
long as the run, so every timed block is also sampled with a fixed probe.

While a block runs with the probe on, an interval timer interrupts it every
``PERIOD_S`` and times a fixed big-integer kernel (the same kind of
arithmetic the program spends its time in, but benchmark-owned code, so an
optimisation of the program never speeds the probe up). The time spent in the
probe is taken out of the block's wall time and out of trace spans, which
read the same clock (:func:`program_ns`). The mean kernel time, divided by
``REFERENCE_NS``, is the machine's slowness during that block; dividing the
block's wall time by it gives its time at the reference speed.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass, field

PERIOD_S = 0.02
# Kernel time that defines the reference speed; about this machine class.
REFERENCE_NS = 300_000
_P = 2**256 - 2**32 - 977

# Time spent in probe samples so far. SIGALRM is one per process, so this
# accounting is process-wide too.
_probe_spent_ns = 0


def program_ns() -> int:
    """``time.perf_counter_ns()`` minus the time spent in the probe so far."""
    return time.perf_counter_ns() - _probe_spent_ns


def _kernel() -> None:
    x = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
    y = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8
    z = 1
    for _ in range(40):
        s = 4 * x * y * y % _P
        m = 3 * x * x % _P
        x, y, z = (m * m - 2 * s) % _P, (m * (s - x) - 8 * pow(y, 4, _P)) % _P, 2 * y * z % _P


@dataclass
class Timing:
    wall_s: float = 0.0  # wall time of the block, time spent in the probe excluded
    probe_ns: list[int] = field(default_factory=list)

    @property
    def slowness(self) -> float:
        """Mean probe time over the reference; 1.0 without probe samples."""
        return statistics.fmean(self.probe_ns) / REFERENCE_NS if self.probe_ns else 1.0

    @property
    def seconds(self) -> float:
        """Wall time at the reference machine speed."""
        return self.wall_s / self.slowness


@contextlib.contextmanager
def timed(probe: bool):
    """Time the block; with ``probe``, sample the machine speed while it runs."""
    timing = Timing()

    def sample(signum, frame):
        global _probe_spent_ns
        start = time.perf_counter_ns()
        _kernel()
        timing.probe_ns.append(time.perf_counter_ns() - start)
        _probe_spent_ns += time.perf_counter_ns() - start

    previous = None
    if probe:
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    t0 = program_ns()
    try:
        yield timing
    finally:
        if probe:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        timing.wall_s = (program_ns() - t0) / 1e9
