"""Wall times corrected for contention on a shared host.

On a shared host a core can run at full speed one millisecond and at
about half speed the next, when a neighbour loads the hardware it
shares.  The share of slow time drifts over seconds to minutes, so two
runs of the same work can differ by 1.7x in wall time, and longer runs
or medians do not remove the drift.

So while a step runs, a timer interrupts it every SAMPLE_EVERY_S seconds
to time a short fixed calibration kernel; SAMPLES_AROUND more samples
are taken just before the step and as many just after.  The kernel's
time is left out of the step's wall time.  The step's corrected time is
its wall time scaled by REFERENCE_S / (harmonic mean of the kernel
times): the time the step would have taken at the speed where the
kernel takes REFERENCE_S.  The harmonic mean is the kernel time at the
step's average speed, since speed is work over time.  Under contention
the samples fall into a fast and a slow group, which the median would
jump between, and one disturbed, slow sample moves the harmonic mean by
less than 1/n of the speed.

The kernel is stdlib-only and does not depend on chainfold's state: it
runs with the cyclic garbage collector off, so a collection of
chainfold's heap never lands in a sample, and it keeps nothing beyond
the call and walks no large data, so chainfold's heap and working set
do not change its time.  A slowdown of chainfold's own code moves the
wall time and not the kernel, so it shows in full.
"""

from __future__ import annotations

import gc
import math
import signal
from fractions import Fraction
from statistics import harmonic_mean
from time import perf_counter

SAMPLE_EVERY_S = 0.025
SAMPLES_AROUND = 3
KERNEL_STEPS = 250
# about the kernel's time, sampled amid chainfold's work, on an uncontended
# core of a 2-vCPU x86-64 VM running CPython 3.11; corrected times then read
# close to uncontended wall times there
REFERENCE_S = 0.00056


def kernel_s() -> float:
    """Time one run of the calibration kernel, exact rational sums and
    float math, the mix chainfold's own work is made of, with the cyclic
    garbage collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        total = Fraction(0)
        acc = 0.0
        for i in range(1, KERNEL_STEPS):
            total += Fraction(i % 89 + 1, i % 97 + 1)
            acc += math.sqrt(i * 0.5) + math.sin(acc)
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def timed(fn, sample_during: bool = True):
    """Run fn(); return (its result, wall seconds, corrected seconds).

    Pass sample_during=False when fn waits for a child process on the same
    core, which the kernel would otherwise slow down.
    """
    samples = [kernel_s() for _ in range(SAMPLES_AROUND)]
    excluded = 0.0

    def on_alarm(signum, frame):
        nonlocal excluded
        start = perf_counter()
        samples.append(kernel_s())
        excluded += perf_counter() - start

    if sample_during:
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    start = perf_counter()
    try:
        result = fn()
    finally:
        elapsed = perf_counter() - start
        if sample_during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    samples += [kernel_s() for _ in range(SAMPLES_AROUND)]
    wall = elapsed - excluded
    return result, wall, wall * REFERENCE_S / harmonic_mean(samples)
