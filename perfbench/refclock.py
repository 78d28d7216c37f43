"""Repetition times counted in durations of a fixed reference kernel.

The benchmark is meant for a small shared VM whose speed changes in phases:
for stretches of a fraction of a second to minutes, interpreter loops and
small numpy calls run up to twice as slowly, CPU time included. Over ten
38-second runs, even the fastest repetition of each run spread by 30 to 40%
of its median between the quartiles. RefClock measures the host's speed
while a repetition runs and divides it out.

While a RefClock is entered, a SIGALRM timer interrupts the repetition
every PERIOD_S seconds of wall time. The handler, which runs on the main
thread between two bytecodes of the workload, runs a fixed reference
kernel once to warm it and once timed. Each stretch of the repetition
between two samples is divided by the median kernel duration of the
samples around it, and the quotients are summed. The sum is the
repetition's time in reference-kernel durations ("refs"): a phase that
slows the workload and the kernel by the same factor leaves it unchanged.
The time spent in the handler is excluded.

A slow phase does not slow every kind of work alike: small numpy calls
and BLAS products of a few megaflops changed speed at different times. So
each workload names the kernel that resembles its own work: small_ops for
Python loops over tiny arrays, dense_step for BLAS products. Over three
20-second runs of the digits epoch, the median in refs varied by 2% with
dense_step and by 10% with small_ops, the median in seconds by 10%.

The program's own threads (EIGENDECAY_THREADS > 1) would make the kernel
wait for the interpreter lock and so read as a slower host; the benchmark
measures the default of one thread.
"""

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
WINDOW = 2  # samples on each side of a stretch whose median sets its speed

_RNG = np.random.default_rng(0)
_LEFT = _RNG.standard_normal((8, 2))
_RIGHT = _RNG.standard_normal((2, 8))
_BATCH = _RNG.random((32, 784))
_W1 = 0.05 * _RNG.standard_normal((784, 128))
_W2 = 0.1 * _RNG.standard_normal((128, 10))


def small_ops():
    """Forty steps of a 2-8-2 sigmoid product chain with some integer
    arithmetic: interpreter-bound, like a small net's SGD step."""
    x, acc = _LEFT, 0
    for i in range(40):
        z = 1.0 / (1.0 + np.exp(-(x @ _RIGHT)))
        x = (z @ _LEFT) * 0.5
        acc += i * i % 7
    return x, acc


def dense_step():
    """Forward pass and first-layer weight gradient of a 784-128-10 relu
    net on a batch of 32: BLAS-bound, like a digits SGD step."""
    hidden = np.maximum(_BATCH @ _W1, 0.0)
    delta = ((hidden @ _W2) @ _W2.T) * (hidden > 0)
    return _BATCH.T @ delta


def refs_between(entries, starts, ends, wall_ends, cpu_entries, cpu_ends):
    """(wall refs, cpu refs) of the stretches between consecutive samples.

    Sample k entered the handler at entries[k] (CPU time cpu_entries[k]),
    timed the kernel from starts[k] to ends[k] and left at wall_ends[k]
    (CPU time cpu_ends[k]). Stretch k runs from sample k leaving to sample
    k + 1 entering; its speed is the median kernel duration of samples
    k - WINDOW + 1 .. k + WINDOW.
    """
    kernel = [end - start for start, end in zip(starts, ends)]
    wall_refs = cpu_refs = 0.0
    for k in range(len(entries) - 1):
        ref = statistics.median(kernel[max(0, k - WINDOW + 1):k + WINDOW + 1])
        wall_refs += (entries[k + 1] - wall_ends[k]) / ref
        cpu_refs += (cpu_entries[k + 1] - cpu_ends[k]) / ref
    return wall_refs, cpu_refs


class RefClock:
    """Context manager sampling the reference kernel around one repetition.

    After exit, wall_refs and cpu_refs hold the repetition's wall and
    process CPU time in refs, wall_s and cpu_s the same times in seconds
    with the handler's time taken out, and kernel_s the median kernel
    duration.
    """

    def __init__(self, kernel, period=PERIOD_S):
        self.kernel = kernel
        self.period = period
        self._samples = []
        self._previous = None

    def _sample(self, *_):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.kernel()
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self._samples.append((wall0, start, end, cpu0, time.perf_counter(),
                              time.process_time()))

    def __enter__(self):
        self._samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        signal.signal(signal.SIGALRM, self._previous)
        entries, starts, ends, cpu_entries, wall_ends, cpu_ends = zip(*self._samples)
        self.wall_refs, self.cpu_refs = refs_between(
            entries, starts, ends, wall_ends, cpu_entries, cpu_ends)
        self.wall_s = sum(b - a for a, b in zip(wall_ends, entries[1:]))
        self.cpu_s = sum(b - a for a, b in zip(cpu_ends, cpu_entries[1:]))
        self.kernel_s = statistics.median(e - s for s, e in zip(starts, ends))
        self.samples = len(self._samples)
