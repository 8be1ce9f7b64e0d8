"""Reference seconds: wall time rescaled by the speed of the CPU it ran on.

On a shared host a core's speed swings by up to 1.8x within seconds, with
neighbours' load and clock frequency, while CPU time stays equal to wall time.
A median of wall times then measures the host more than the program.  So the
benchmark pins itself and its children to one CPU (``pin``) and samples that
CPU's speed with a fixed pure-Python calibration loop (``step_s``) right
next to the work:

* before and after each piece of timed work;
* every ``SLICE_S`` in between: from a SIGALRM handler when the work runs in
  this process (``timed``), and by stopping the child with SIGSTOP for the
  ``CAL_S`` a sample takes when it runs in a child (``run_sliced``).

A stretch of work of ``d`` wall seconds between two samples counts
``d * REF_STEP_S / mean(step seconds of the two samples)`` reference
seconds: the time it would take on a CPU that runs one calibration step in
``REF_STEP_S``.  A change to the program moves reference seconds as it moves
wall seconds; a change in the host's speed mostly cancels out.
"""

from __future__ import annotations

import math
import os
import select
import signal
import subprocess
import time

#: seconds one calibration step takes on the reference CPU; about the median
#: on the 2-vCPU Xeon host the benchmark was defined on
REF_STEP_S = 0.8e-3
#: length of one speed sample
CAL_S = 0.05
#: timed work is sampled every SLICE_S; on the host above, per-verification
#: times spread more with samples every 0.25 s or every 1 s
SLICE_S = 0.5


def pin():
    """Keep this process, and the children it starts, on one CPU, so the
    calibration measures the CPU the work runs on.  Returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _step():
    x, s = 1, 0
    for _ in range(2000):
        x = (x * 1103515245 + 12345) % (1 << 127)
        s += x >> 64
    return s


def step_s():
    """Mean wall seconds of one calibration step over CAL_S."""
    start = time.perf_counter()
    steps = 0
    while True:
        _step()
        steps += 1
        elapsed = time.perf_counter() - start
        if elapsed >= CAL_S:
            return elapsed / steps


class Meter:
    """Sums stretches of work, in wall and in reference seconds; each
    stretch lies between the previous speed sample and the one passed in."""

    def __init__(self, step):
        self.step = step
        self.wall = 0.0
        self.ref = 0.0

    def add(self, seconds, step_after):
        self.wall += seconds
        self.ref += seconds * REF_STEP_S * 2 / (self.step + step_after)
        self.step = step_after


def timed(fn, slice_s=SLICE_S):
    """Call fn() in this process, sampling the CPU's speed before, after and,
    from a SIGALRM handler, every `slice_s` in between: (its result, a Meter
    over its run with the samples left out)."""
    meter = Meter(step_s())
    start = time.perf_counter()

    def sample(signum, frame):
        nonlocal start
        meter.add(time.perf_counter() - start, step_s())
        start = time.perf_counter()

    previous = signal.signal(signal.SIGALRM, sample)
    if math.isfinite(slice_s):
        signal.setitimer(signal.ITIMER_REAL, slice_s, slice_s)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    meter.add(time.perf_counter() - start, step_s())
    return result, meter


def run_sliced(argv, deadline, slice_s=SLICE_S, **popen_args):
    """Run the child `argv` to its exit, stopping it every `slice_s` to
    sample the CPU's speed: (exit code, its rusage, a Meter over its run time
    from spawn to exit with the stops left out).  With `slice_s` infinite the
    child only runs between a sample before and one after.  A child still
    running at `deadline` (time.monotonic) is killed and TimeoutError
    raised."""
    meter = Meter(step_s())
    start = time.perf_counter()
    proc = subprocess.Popen(argv, **popen_args)
    status = pidfd = None
    try:
        pidfd = os.pidfd_open(proc.pid)
        while status is None:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"{argv[1:]} still running at the deadline")
            ready, _, _ = select.select([pidfd], [], [], min(slice_s, left))
            if not ready:
                os.kill(proc.pid, signal.SIGSTOP)
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)  # stopped or exited
            meter.add(time.perf_counter() - start, step_s())
            if os.WIFSTOPPED(status):
                status = None
                start = time.perf_counter()
                os.kill(proc.pid, signal.SIGCONT)
    finally:
        if pidfd is not None:
            os.close(pidfd)
        if status is None:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here: Popen must not wait
    return proc.returncode, usage, meter
