"""Machine-speed calibration.

The host's speed drifts by tens of percent, in bursts of under a second and
in spells of minutes, because other tenants share its cores and memory.  A
fixed pure-Python kernel (building a set of nested tuples, like the tape's
and the enumeration's object churn) slows down with it.  While a command
runs, ``Sampler`` times the kernel every ``INTERVAL_S`` from a SIGALRM
handler; the handler's own time is taken out of the command's time.  A round
is scaled by the median of its kernel times, to the speed at which the
kernel takes ``KERNEL_REFERENCE_S`` (about its median on a 2-vCPU x86-64 VM
at Python 3.11).  The raw wall times are kept in the results file.
"""

import signal
import statistics
import time

INTERVAL_S = 0.2
KERNEL_REFERENCE_S = 0.0025


def kernel_seconds():
    start = time.perf_counter()
    seen = set()
    for i in range(5000):
        seen.add(((i % 997, i % 13), (i, i + 1)))
    return time.perf_counter() - start


class Sampler:
    """Kernel times taken while the ``with`` block runs, and the time the
    sampling itself took."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scale(kernel_samples):
    """Factor that turns wall seconds into seconds at the reference speed."""
    return KERNEL_REFERENCE_S / statistics.median(kernel_samples)
