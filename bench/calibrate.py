"""Machine speed, sampled inside the worker while it serves a pass.

The speed of a shared 2-core machine changes by up to a factor of two within
seconds: a pass on one fixed input takes from 2.9 s to 5.3 s.  So the worker
times a small fixed kernel on its own CPU every PERIOD_S, from a SIGALRM
handler that runs between the program's bytecodes; the kernel's mean time
over a pass follows the speed the program got in that pass.  A pass time is
scaled by REFERENCE_S over that mean, after the kernel's own time is taken
out.  The kernel does the kind of work the program spends its time on (exact
rational arithmetic: Bareiss elimination over ``Fraction``), but it is
benchmark code, so no change to the program can change it.  It takes about
1% of a pass.

Measured on 2-core Xeon VMs, on one fixed input per experiment:
- Timing the kernel on the other core, from a client thread, tracked the
  worker worse: the coefficient of variation of the pass time was 9.4% raw,
  10.7% scaled that way and 4.2% scaled by the worker's own kernel (14 passes).
- An integer loop that allocates almost nothing tracked it slightly worse
  (6.0% against 5.4%, from 20.5% raw, 9 passes; in whole runs its scaled
  passes spread more too).  It is less coupled to the program's memory
  behaviour, though: the traced / untraced pass ratio read 1.043 with it and
  1.007 with this kernel, so a change that enlarges the program's heap as
  much as tracing does can read up to about 4% faster than it is.  Peak RSS
  is reported beside the times for that reason among others.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# Mean kernel time in a worker at the usual speed of the machine the benchmark
# was defined on (2-core Xeon VM at 2.1 GHz, Python 3.11.7); scaled times read
# as seconds at that speed.
REFERENCE_S = 0.0022
PERIOD_S = 0.25
SIZE = 10

_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 7) for j in range(SIZE)] for i in range(SIZE)]


def _kernel():
    m = [row[:] for row in _MATRIX]
    n, prev = len(m), Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    break
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return m[n - 1][n - 1]


def start(samples: list):
    """Time the kernel every PERIOD_S from now on, appending (start, seconds) to ``samples``.

    The times come from ``time.perf_counter``, which is the system-wide
    monotonic clock on Linux, so the client can place them in its own windows.
    """

    def sample(_signum, _frame):
        # A garbage collection that the kernel's allocations set off would
        # time the program's heap; it runs after the kernel instead.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _kernel()
        samples.append((t0, time.perf_counter() - t0))
        if enabled:
            gc.enable()

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop():
    signal.setitimer(signal.ITIMER_REAL, 0, 0)


def window(samples, start: float, end: float):
    """(speed factor, kernel seconds) of the samples started in [start, end].

    The factor is REFERENCE_S over their mean kernel time; a window too short
    to hold a sample takes the last sample before it.
    """
    inside = [s for t, s in samples if start <= t <= end]
    times = inside or [s for t, s in samples if t <= end][-1:]
    return REFERENCE_S / statistics.fmean(times), sum(inside)
