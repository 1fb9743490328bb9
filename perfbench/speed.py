"""Machine speed measured beside the benchmark's runs, on the same CPU.

On a shared host the CPU this benchmark gets runs Python at speeds that
switch between states (up to about 1.5x apart) every few seconds, and CPU
time stretches with wall time, so neither clock alone separates a slower
program from a slower machine.  `SpeedProbe` runs a fixed burst of Python in
a thread of the benchmark process, pinned with the `hall` child to one CPU,
every PERIOD_S seconds.  The child's time is then converted to reference
seconds: each stretch of wall time between two bursts counts REF_BURST_S /
(local burst time), so a second in the slow state counts less than one.  A
reference second is a second on a machine that runs the burst in
REF_BURST_S, about its median time on the shared 2-vCPU VM the benchmark was
written on; the time taken by the bursts themselves is not counted.

On that VM, over one minute, the burst time and a Python loop's speed on the
same CPU correlated at 0.92 (0.26 across the two CPUs).  Over five runs of
the verify workload, the per-run medians of wall time spread (quartile
distance over median) by 28%, those of reference time by 2%.
"""

import os
import statistics
import threading
import time

clock = time.perf_counter

BURST_ITERS = 2000
REF_BURST_S = 400e-6
PERIOD_S = 0.02
SMOOTH = 5  # bursts in the running median that damps one-off preemptions


def burst(n: int = BURST_ITERS) -> int:
    table = {}
    total = 0
    for i in range(n):
        key = (i, i * 7 % 13)
        table[key[1]] = key
        total += key[0] * key[1] % 11
    return total


def pin_to_one_cpu() -> int:
    """Confine this process, and every thread and child it starts later, to
    the highest-numbered CPU it may use; return that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """Context manager: times one burst every PERIOD_S seconds until exit."""

    def __init__(self):
        self.bursts = []  # (start, end) clock times
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe",
                                        daemon=True)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            t0 = clock()
            burst()
            self.bursts.append((t0, clock()))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        # one more burst after the last timed interval, then stop
        time.sleep(2 * PERIOD_S)
        self._stop.set()
        self._thread.join()
        return False

    def speeds(self) -> list:
        """(start, end, speed) per burst; speed is REF_BURST_S over the
        running median of burst times around it."""
        times = [end - start for start, end in self.bursts]
        half = SMOOTH // 2
        out = []
        for k, (start, end) in enumerate(self.bursts):
            local = statistics.median(times[max(0, k - half):k + half + 1])
            out.append((start, end, REF_BURST_S / local))
        return out

    def reference_seconds(self, a: float, b: float, speeds=None) -> float:
        """The wall interval [a, b] in reference seconds: each gap between
        bursts weighted by the speed measured at its end, bursts left out."""
        speeds = self.speeds() if speeds is None else speeds
        if not speeds:
            raise RuntimeError("speed probe recorded no bursts")
        total, prev_end = 0.0, float("-inf")
        for start, end, speed in speeds:
            lo, hi = max(a, prev_end), min(b, start)
            if hi > lo:
                total += (hi - lo) * speed
            prev_end = end
            if prev_end >= b:
                return total
        # past the last burst: use the last speed measured
        lo = max(a, prev_end)
        return total + max(0.0, b - lo) * speeds[-1][2]
