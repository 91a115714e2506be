"""Host-speed probe: a fixed chunk of interpreter work, timed in CPU time.

The benchmark's host is shared.  CPU time already leaves out the time
other processes and guests hold the CPU, but not how fast the core runs
while the benchmark holds it: on a 2-vCPU guest of an Intel Xeon at
2.1 GHz, the same ``fig5_warm`` sweep cost about 1.1 CPU seconds in one
ten-minute window and 1.6 in the next.  The end-to-end times are
therefore scaled by this probe, run between timed iterations.

The workloads slow down less than the probe does: fitted on 40-110
iteration/probe pairs per workload on that host, the workloads' log CPU
time moved 0.3-0.6 times as much as the probe's log CPU time, and
scaling by the probe ratio to the power :data:`ELASTICITY` gave the
smallest spread on each of them.  Scaling by the full ratio
over-corrects.

The chunk resembles the simulator's inner loops (dict lookups and small
integer arithmetic), like ``repro.evaluation.bench.calibration_score``,
but lives here so that no change to the program can move it.
"""

from __future__ import annotations

import time
from typing import List

#: CPU seconds one chunk is defined to take on the reference host.
REFERENCE_S = 0.05
#: Power of the probe ratio the scaling applies (see above).
ELASTICITY = 0.5
#: Loop trips of one chunk (about :data:`REFERENCE_S` on the host above).
CHUNK_LOOPS = 160_000


def chunk() -> float:
    """CPU seconds of one probe chunk on the calling thread."""
    table = {}
    acc = 0
    start = time.thread_time()
    for i in range(CHUNK_LOOPS):
        key = (i * 2654435761) & 0xFFFF
        value = table.get(key)
        table[key] = i if value is None else value + 1
        acc += (key >> 3) & 7
    return time.thread_time() - start


def probe(budget_s: float) -> List[float]:
    """Chunks until they took ``budget_s`` CPU seconds (at least one)."""
    samples = [chunk()]
    while sum(samples) < budget_s:
        samples.append(chunk())
    return samples


def scale(samples: List[float]) -> float:
    """Factor from this host's CPU seconds to reference CPU seconds."""
    from perfbench import stats

    return (REFERENCE_S / stats.median(samples)) ** ELASTICITY
