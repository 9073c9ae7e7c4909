"""Host-speed calibration of the benchmark's timings.

On a shared host, other tenants slow the whole vCPU, for moments and for
minutes at a time, and the program and any fixed piece of CPU work slow
alike: timed back to back on a 2-vCPU Xeon, a coeff_campaign pass and the
kernel below swung by up to 1.8x together (correlation 0.89).  The
benchmark therefore times the kernel, which uses nothing of diskclass,
between batches of timed work, and scales each batch's times by
REFERENCE_S over the mean of the kernel times either side of it.  A timing
then reads as it would at the host speed where the kernel takes
REFERENCE_S; a change to the program still moves it in full, since the
kernel does not change.  Over ten seeds per workload on that machine, the
quartile spread of the scaled time metrics was 0.04-0.13 of their median,
where raw times had spread by up to 0.33; in five-seed trials, scaling by
kernel times further away, or by the median kernel time of the whole run,
left more spread.

Work that other threads of the process do while the kernel runs would slow
the kernel and so shrink the scaled times.  A meter counts the kernel runs
during which the process used noticeably more CPU than the kernel's own
thread; the run fails its check when more than a quarter of them were.
numpy's BLAS threads, which spin for a moment after a threaded call, make
an odd run count; threads left busy between operations make most of them.
"""
from __future__ import annotations

import cmath
import statistics
from time import perf_counter, process_time, thread_time

import numpy as np

# Kernel time, in seconds, at the reference host speed: about the kernel's
# quiet-period median on the 2-vCPU Xeon the benchmark was tuned on.
REFERENCE_S = 0.010
# A batch of timed work lasts at least this long, so the kernel adds about
# REFERENCE_S / BATCH_S to a run's time.  Shorter batches track the host's
# speed more closely.
BATCH_S = 0.1
# Process CPU beyond the kernel thread's own, as a share of the kernel's
# wall time, that counts as other threads being busy during a kernel run.
BUSY_SHARE = 0.1
# Share of kernel runs that may count as busy.
BUSY_RUNS = 0.25

# The kernel's inputs: fixed, and built once at import.
_POLYS = [re + 1j * im for re, im in
          np.random.default_rng(0).standard_normal((120, 2, 9))]


def kernel() -> complex:
    """Fixed work in the program's mix of small numpy calls and complex
    arithmetic in the interpreter."""
    acc = 0j
    for c in _POLYS:
        roots = np.roots(c)
        acc += roots.sum() + np.fft.fft(c, 64)[3]
        for z in roots:
            acc += cmath.exp(0.01 * z) / (1.0 + abs(z))
    return acc


class Meter:
    """Kernel timings taken between batches of timed work."""

    def __init__(self):
        kernel()  # first calls into numpy are slower
        self.kernel_s = []
        self.busy = 0
        self.busiest = 0.0
        self._last = self._time_kernel()

    def _time_kernel(self) -> float:
        w0, p0, t0 = perf_counter(), process_time(), thread_time()
        kernel()
        wall = perf_counter() - w0
        others = (process_time() - p0) - (thread_time() - t0)
        self.busiest = max(self.busiest, others / wall)
        if others > BUSY_SHARE * wall:
            self.busy += 1
        self.kernel_s.append(wall)
        return wall

    def scale(self) -> float:
        """Factor for the times measured since the previous call (or since
        the meter was made): REFERENCE_S over the mean of the kernel times
        either side of them."""
        before, self._last = self._last, self._time_kernel()
        return 2.0 * REFERENCE_S / (before + self._last)

    def problems(self) -> list:
        if self.busy > BUSY_RUNS * len(self.kernel_s):
            return [f"other threads of the process used CPU during {self.busy} "
                    f"of {len(self.kernel_s)} kernel runs"]
        return []

    def note(self) -> str:
        return (f"speed: {len(self.kernel_s)} kernel runs, median "
                f"{1e3 * statistics.median(self.kernel_s):.2f} ms "
                f"(reference {1e3 * REFERENCE_S:g} ms); other threads busy "
                f"during {self.busy}, at most {100 * self.busiest:.1f}% of one")
