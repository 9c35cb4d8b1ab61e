"""Host-speed calibration, so that timings from a drifting host compare.

On a shared 2-core VM the same code runs up to 2x slower for stretches
of seconds to minutes, with CPU time tracking wall time (no steal is
reported). A fixed kernel, independent of robustkit, is timed between
requests, and during pooled requests; each request's time is scaled by
REF_KERNEL_S over the kernel time measured around it. A faster robustkit
lowers the scaled time; a slower host raises it far less than the raw
time. Raw times stay in the detail output.
"""

import bisect
import contextlib
import statistics
import threading
import time

import numpy as np

# Kernel time on the host the benchmark was defined on (2-core x86_64 VM,
# Python 3.11, numpy 2.4) at its usual speed; scaled times read as that host's.
REF_KERNEL_S = 0.0030
INTERVAL_S = 0.2  # re-calibrate when the last sample is older than this
_TABLEAU = np.random.default_rng(0).random((60, 200)) + 0.1


def kernel():
    """Dense-tableau pivots with Bland-style ratio tests and an interpreted loop.

    The same mix of small numpy temporaries and Python work as robustkit's
    simplex, which is what makes its time track the program's under host
    contention (log-log slope 0.8-0.9 against instance time, where an
    allocation-free kernel gave 1.4). Arrays stay below glibc's mmap
    threshold so that the program's heap state cannot add page faults. It
    is frozen here, so a change to robustkit never changes it.
    """
    T = _TABLEAU.copy()
    m = T.shape[0] - 1
    basis = list(range(m))
    for it in range(40):
        col = (it * 7) % (T.shape[1] - 1)
        colvals = T[:m, col]
        positive = colvals > 1e-9
        ratios = np.full(m, np.inf)
        ratios[positive] = T[:m, -1][positive] / colvals[positive]
        ties = np.nonzero(ratios == ratios.min())[0]
        row = int(min(ties, key=lambda r: basis[r]))
        T[row] /= T[row, col]
        colv = T[:, col].copy()
        colv[row] = 0.0
        T -= 1e-3 * np.outer(colv, T[row])
        T[:, col] = 0.0
        T[row, col] = 1.0
        basis[row] = col
        np.nonzero(T[-1, :-1] < -1e-9)
    acc = 0
    for i in range(10000):
        acc += i * i % 7
    return acc


class Calibrator:
    """Kernel samples over time; scales intervals to the reference host speed."""

    def __init__(self):
        self.times = []  # perf_counter at the end of each sample
        self.kernel_s = []
        self.thread_cpu_s = 0.0  # CPU the sampling threads used, to leave out of request CPU

    def sample(self, clock=time.perf_counter):
        """Median of three kernel runs, so one interrupted run does not count."""
        runs = []
        for _ in range(3):
            t0 = clock()
            kernel()
            runs.append(clock() - t0)
        self.times.append(time.perf_counter())
        self.kernel_s.append(statistics.median(runs))

    def maybe_sample(self):
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    @contextlib.contextmanager
    def sampling(self, delay=1.0, interval=0.5):
        """Sample from a thread while the main thread waits on pool workers.

        The kernel is timed in thread CPU time, so waiting for a core the
        workers hold does not count. Sampling starts after `delay`, once the
        pool has forked its workers, and costs about 1% of one core."""
        stop = threading.Event()

        def loop():
            if not stop.wait(delay):
                self.sample(time.thread_time)
                while not stop.wait(interval):
                    self.sample(time.thread_time)
            self.thread_cpu_s += time.thread_time()

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def factor(self, start, end):
        """REF_KERNEL_S over the mean kernel time of the samples just before
        start and just after end (plus any taken in between)."""
        lo = max(0, bisect.bisect_right(self.times, start) - 1)
        hi = min(len(self.times), bisect.bisect_left(self.times, end) + 1)
        return REF_KERNEL_S / statistics.fmean(self.kernel_s[lo:hi])
