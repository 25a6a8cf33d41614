"""Machine-speed reference: a fixed NumPy kernel timed between operations.

On the shared 2-vCPU VM this benchmark was built on, the same code runs at
two speeds that switch every few minutes: a probe's 10-second median moved
between 8.4 and 13.4 ms while its thread CPU time moved with it (so the
process is not descheduled; the CPU itself is slower). Over five minutes
of probes interleaved with this kernel, the probe-to-kernel ratio stayed
within 8.4-9.3 while the probe alone moved by 60%.

End-to-end times of the single-threaded workloads (identify, gen) are
therefore reported at reference speed: wall time multiplied by REFERENCE_S
over the kernel's median time in the same run.
The kernel shares no code with handgeo, so a change to the program moves
the scaled figures exactly as it moves the wall times. The raw wall
figures are printed beside the result.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median time of one kernel run on that VM at its faster speed.
REFERENCE_S = 1.0e-3


class ReferenceKernel:
    def __init__(self):
        self.array = np.random.default_rng(0).random((200, 200))
        self.times: list[float] = []

    def sample(self, reps: int) -> None:
        for _ in range(reps):
            t = time.perf_counter()
            for _ in range(5):
                p = np.pad(self.array, 1)
                s = p[:-2, :-2] + p[1:-1, 1:-1] + p[2:, 2:] + p[:-2, 2:]
                int((s > 1.5).sum())
            self.times.append(time.perf_counter() - t)

    def median_s(self) -> float:
        return statistics.median(self.times)

    def scale(self) -> float:
        """Factor that turns a wall time measured in this run into reference time."""
        return REFERENCE_S / self.median_s()
