"""The drift probe: a fixed integer loop timed beside every op.

The CPU speed this benchmark sees drifts with the load its neighbours
put on a shared machine, and raw wall time follows it.  The probe is a
fixed amount of pure integer work, run before the first op and after
every op, so the program under test never runs during a probe.  After
a long op the probe repeats until it has run for a tenth of the op's
wall, so the probe samples the machine in proportion to the time the
ops ran.  Every reported timing is scaled to a reference probe time::

    adjusted_s = raw_s * probe_ref_s / median(probe_s in this run)

The probe imports nothing from ``repro`` and allocates no object the
garbage collector tracks (only small ints and a ``range``), so it can
neither warm the program's caches nor trigger a collection that would
be charged to the next op.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: Loop length; about 50 ms of interpreter time on a 2-core cloud VM.
PROBE_ITERATIONS = 350_000
#: After an op, probe for at least this share of the op's wall.
PROBE_SHARE = 0.1


def _spin(iterations: int) -> int:
    acc = 0
    for i in range(iterations):
        acc = (acc * 1103515245 + i) & 0xFFFFFFF
    return acc


def probe() -> float:
    """Run the probe loop once; returns its wall time in seconds."""
    started = perf_counter()
    _spin(PROBE_ITERATIONS)
    return perf_counter() - started


def probe_after(op_wall_s: float) -> list[float]:
    """Probe once, then again until the probes have run for
    ``PROBE_SHARE`` of the op's wall; returns the probe times."""
    times = [probe()]
    while sum(times) < PROBE_SHARE * op_wall_s:
        times.append(probe())
    return times


def drift_factor(probe_ref_s: float, probes: list[float]) -> float:
    """The factor that turns a raw timing of this run into reference
    seconds: ``probe_ref_s / median(probes)``."""
    if probe_ref_s <= 0:
        raise ValueError(f"probe_ref_s must be positive, got {probe_ref_s}")
    if not probes:
        raise ValueError("no probe ran in this run")
    return probe_ref_s / statistics.median(probes)
