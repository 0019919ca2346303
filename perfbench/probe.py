"""Host-speed probe: how fast this process's CPU runs, sampled in the timed phase.

On a shared host the same computation runs at several speeds, as other
tenants start and stop work on the same physical core.  The slow state is
about 1.6 times the fast one; the two alternate every few milliseconds, and
the share of time spent slow changes from one second, and one minute, to the
next.  A pass's wall time therefore mixes the program's cost with the host's
state.

The probe separates them.  A SIGALRM timer fires every ``INTERVAL_S``; its
handler, which runs in the main thread between bytecodes, times one call of
each of two fixed kernels that do not depend on the program: an interpreter
loop that allocates nothing (``loop``) and a small LAPACK eigensolve
(``eig``), the two kinds of work the workloads do.  A pass's cost in probes
is its wall time divided by the geometric mean of the two kernels' mean
times over the same pass: how many probe calls would have run in that time
under the same host conditions.  It falls when the program does less work
and stays put when the host slows the program and the kernels alike.  It is
not exact: a tenant that competes mainly for one kind of execution unit
slows the kernels and the program by different factors.

Samples wait for a running native call to return, so they are sparser in
native code; the host's state does not depend on what code runs, so the
means are not biased by it.  A sample more than ``CLIP`` times its kernel's
median over the run (an interrupt or page fault inside the kernel) is
clipped to that value.
"""

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
CLIP = 2.0

_SMALL = tuple(range(1, 241)) * 4  # small ints are cached: no allocation
_SYM = np.random.default_rng(0).standard_normal((48, 48))
_SYM = _SYM + _SYM.T


def loop():
    x = 0
    for v in _SMALL:
        x = (x ^ v) & 0xFF
    return x


def eig():
    return np.linalg.eigvalsh(_SYM)


KERNELS = (loop, eig)


class SpeedProbe:
    """Samples each kernel's time every ``INTERVAL_S`` between ``start`` and
    ``stop``; ``mark`` and ``factor_s`` read the samples of one pass."""

    def __init__(self):
        self.samples = [[] for _ in KERNELS]
        self._previous = None

    def _sample(self, signum, frame):
        for kernel, out in zip(KERNELS, self.samples):
            t = time.perf_counter()
            kernel()
            out.append(time.perf_counter() - t)

    def start(self):
        for _ in range(100):  # warm the kernels' code paths before sampling
            for kernel in KERNELS:
                kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self):
        return len(self.samples[-1])

    def median_us(self):
        """Each kernel's median time over the run, in microseconds."""
        return {k.__name__: statistics.median(s) * 1e6
                for k, s in zip(KERNELS, self.samples)}

    def means_s(self, begin, end):
        """Each kernel's clipped mean time over samples ``[begin, end)``."""
        means = {}
        for kernel, out in zip(KERNELS, self.samples):
            window = out[begin:end]
            if not window:
                raise ValueError("no probe samples in the window; the pass "
                                 f"was shorter than {INTERVAL_S} s")
            cap = CLIP * statistics.median(out)
            means[kernel.__name__] = statistics.fmean(min(s, cap)
                                                      for s in window)
        return means

    def factor_s(self, begin, end):
        """Geometric mean of the kernels' mean times over ``[begin, end)``."""
        logs = [math.log(m) for m in self.means_s(begin, end).values()]
        return math.exp(statistics.fmean(logs))
