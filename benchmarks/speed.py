"""Host speed, measured by a fixed calibration kernel beside the workload.

The reference machine is a shared 2-vCPU guest whose speed moves between
about 0.55 and 1.25 of its median, in phases from a tenth of a second to
minutes; the process CPU clock moves with it.  The benchmark therefore
runs a small fixed kernel, outside every timed op, at most every
``INTERVAL_S`` between ops, and reports every time at the reference
speed: a raw time multiplied by ``REFERENCE_CHUNK_S`` over the mean time
of a kernel chunk in the same process (over the whole pass for the pass's
wall time; over the chunks within ``WINDOW_S`` of an op for the op's
latency, which follows the phases within a pass).  The kernel
mixes what dnacap spends its time on; it uses no dnacap code, so a change
to the package moves the raw times and leaves the kernel's alone.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

#: about the kernel's mean time per chunk on the reference machine; times
#: are reported as if every chunk took this long
REFERENCE_CHUNK_S = 450e-6
#: least time between two chunks
INTERVAL_S = 0.01
#: an op's latency is scaled by the chunks this close to it
WINDOW_S = 1.0
# one chunk: numpy products and reductions on 64 elements, string work of
# the kind FASTA parsing does, and plain interpreter arithmetic, in about
# the proportions that track the three workloads best on the reference
# machine
_PRODUCTS = 7
_TEXT_BASES = 2000
_LOOP = 1000


class Speedometer:
    def __init__(self):
        rng = random.Random(0)
        self._matrix = np.array([[rng.random() for _ in range(64)] for _ in range(64)])
        self._vector = self._matrix[0].copy()
        self._text = "".join(rng.choice("ACGTacgtU") for _ in range(_TEXT_BASES))
        self.samples: list[float] = []
        self.times: list[float] = []  # when each chunk ended
        self.spent_s = 0.0  # time spent in chunks since the last reset
        for _ in range(5):  # warm-up, not kept
            self._chunk()
        self._last = time.perf_counter()

    def _chunk(self) -> float:
        start = time.perf_counter()
        for _ in range(_PRODUCTS):
            y = np.log(self._vector @ self._matrix + 1.0)
            float(y.sum())
            np.exp(-y).max()
        text = self._text.upper().replace("U", "T")
        text = "".join(text[i:i + 60] for i in range(0, len(text), 60))
        counts: dict[str, int] = {}
        for i in range(0, len(text), 3):
            codon = text[i:i + 3]
            counts[codon] = counts.get(codon, 0) + 1
        total = 0
        for i in range(_LOOP):
            total += i * i % 7
        return time.perf_counter() - start

    def sample(self, chunks: int = 1) -> None:
        for _ in range(chunks):
            seconds = self._chunk()
            self.times.append(time.perf_counter())
            self.samples.append(seconds)
            self.spent_s += seconds
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Run one chunk if INTERVAL_S has passed since the last one."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def reset(self) -> None:
        self.samples, self.times, self.spent_s = [], [], 0.0
        self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor from raw seconds to seconds at the reference speed."""
        return REFERENCE_CHUNK_S / statistics.fmean(self.samples)

    def local_scales(self, starts: list[float], latencies: list[float]) -> list[float]:
        """The factor for each op, from the chunks within WINDOW_S of it."""
        times = np.array(self.times)
        sums = np.concatenate([[0.0], np.cumsum(self.samples)])
        lo = np.searchsorted(times, np.array(starts) - WINDOW_S)
        hi = np.searchsorted(times, np.array(starts) + np.array(latencies) + WINDOW_S)
        counts = hi - lo
        # an op with no chunk that close takes the pass's mean
        means = np.divide(sums[hi] - sums[lo], counts, where=counts > 0,
                          out=np.full(len(counts), statistics.fmean(self.samples)))
        return (REFERENCE_CHUNK_S / means).tolist()
