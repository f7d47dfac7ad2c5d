"""Reference CPU-speed probe, used to express measured times in reference
seconds.

The benchmark runs on shared virtual machines whose CPUs slow down by up to
about 2.3 times, for stretches of seconds to minutes, because of other
tenants on the host; at times the hypervisor also withholds a virtual CPU
altogether (steal time).  The slowdown shows in CPU time as much as in wall
time, so neither is steady on its own.  A fixed pure-Python kernel, timed
while a span runs, slows down with it.  A span's time in reference seconds
is the time it would have taken with the kernel running at its nominal
speed:

    reference seconds = measured seconds * mean(NOMINAL_CHUNK_S / chunk seconds)

where the mean runs over kernel chunks timed at even intervals of wall time
during the span (`Sampler`).  A span too short for that is scaled by the
median chunk time of a `probe` right before and one right after it.

Chunks are timed in thread CPU time, which leaves out time the thread did
not run: stolen by the hypervisor, or taken by another process.  Timed in
wall time they would undercount steal, because a timer tick that falls due
while the virtual CPU is withheld is handled just after it comes back.  So
each CPU's chunk speed is multiplied by the share of the span the work could
run.  In a single process the chunks run in the measured thread, and that
share is the thread's CPU time over the span's wall time.  Work spread over
several processes runs on every CPU, and the CPUs do not slow down at the
same times, so there the chunks take turns on each CPU, and each CPU's share
is one less the share of the span the hypervisor stole from it, read from
/proc/stat.

The kernel mixes what the package's hot loops do: list indexing, small-int
arithmetic and comparisons, branches, set insertion, tuple building and
multi-hundred-bit integer arithmetic.  It does not touch the package, so a
change to the package never changes the probe.  Changing the kernel or
NOMINAL_CHUNK_S changes every reported time; compare figures only between
runs of the same benchmark code.
"""

from __future__ import annotations

import os
import signal
import statistics
from time import perf_counter, thread_time

# Iterations of one kernel chunk, and the chunk's time in seconds at the
# nominal speed (about the fastest speed seen on the 2-vCPU Xeon VM the
# benchmark was built on).
CHUNK_ITERATIONS = 12_000
NOMINAL_CHUNK_S = 0.0016
PROBE_CHUNKS = 15
SAMPLE_INTERVAL_S = 0.05


def _chunk(clock=thread_time) -> float:
    """Run one kernel chunk and return its seconds on `clock`."""
    start = clock()
    table = [0, 1, 2, 1, 0, 3, 1, 2]
    seen = set()
    acc = 0
    big = (1 << 300) + 12345
    odd = (1 << 299) + 1
    for i in range(CHUNK_ITERATIONS):
        s = table[i & 7]
        if s:
            acc += s * 3
            if acc > 1000:
                acc -= 997
        else:
            acc ^= i
        if i % 16 == 0:
            seen.add((acc, s))
            big = (big * 3 + odd) % (odd * 5)
    if acc + len(seen) + (big & 1) < 0:
        raise AssertionError("unreachable")
    return clock() - start


def probe() -> float:
    """Median wall seconds of PROBE_CHUNKS kernel chunks."""
    return statistics.median(_chunk(perf_counter) for _ in range(PROBE_CHUNKS))


def to_reference(seconds: float, probe_s: float) -> float:
    """`seconds` measured while a chunk took `probe_s`, in reference seconds."""
    return seconds * NOMINAL_CHUNK_S / probe_s


def _steal_seconds() -> dict[int, float]:
    """Steal time so far of each CPU, from /proc/stat; empty where the file
    is missing."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            lines = stat.readlines()
    except OSError:
        return {}
    tick = os.sysconf("SC_CLK_TCK")
    return {int(f[0][3:]): int(f[8]) / tick for f in (line.split() for line in lines)
            if f and f[0].startswith("cpu") and f[0][3:].isdigit() and len(f) > 8}


class Sampler:
    """Times one kernel chunk every SAMPLE_INTERVAL_S of wall time while the
    `with` block runs, from a SIGALRM handler in the main thread.

    `reference(seconds)` converts the block's measured wall time, from which
    it first takes out the time the chunks themselves spent, into reference
    seconds.  A block that ends before the first tick is scaled by a probe
    taken right after it.  Pool processes forked inside the block do not
    inherit the timer.  With `every_cpu`, for work spread over several
    processes, the chunks take turns on each CPU.
    """

    def __init__(self, every_cpu: bool = False):
        self.cpus = sorted(os.sched_getaffinity(0)) if every_cpu and hasattr(os, "sched_setaffinity") else []
        self.chunks: list[tuple[int, float]] = []  # (CPU the chunk was moved to or -1, CPU seconds)
        self.runnable: dict[int, float] = {}  # CPU or -1 -> share of the block the work could run
        self.spent = 0.0
        self._saved = None
        self._start = (0.0, 0.0, {})

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        if self.cpus:
            # Only this thread moves; processes forked outside the handler
            # keep the full CPU set.
            cpu = self.cpus[len(self.chunks) % len(self.cpus)]
            os.sched_setaffinity(0, {cpu})
            try:
                self.chunks.append((cpu, _chunk()))
            finally:
                os.sched_setaffinity(0, self.cpus)
        else:
            self.chunks.append((-1, _chunk()))
        self.spent += perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._start = (perf_counter(), thread_time(), _steal_seconds() if self.cpus else {})
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)
        began, cpu_began, steal_before = self._start
        elapsed = perf_counter() - began
        if not self.chunks:
            # A block shorter than one interval: probe right after it, in
            # wall time, which already counts what the thread could not run.
            self.chunks.append((-1, probe()))
        elif self.cpus:
            for cpu, steal in _steal_seconds().items():
                if cpu in steal_before:
                    self.runnable[cpu] = min(1.0, max(0.1, 1 - (steal - steal_before[cpu]) / elapsed))
        else:
            self.runnable[-1] = min(1.0, max(0.1, (thread_time() - cpu_began) / elapsed))

    def speed(self) -> float:
        """Mean over CPUs of nominal / measured chunk time times the share
        the work could run: 1 at the nominal speed, below 1 on a slower CPU."""
        per_cpu: dict[int, list[float]] = {}
        for cpu, seconds in self.chunks:
            per_cpu.setdefault(cpu, []).append(NOMINAL_CHUNK_S / seconds)
        return statistics.fmean(statistics.fmean(speeds) * self.runnable.get(cpu, 1.0)
                                for cpu, speeds in per_cpu.items())

    def reference(self, seconds: float) -> float:
        return (seconds - self.spent) * self.speed()
