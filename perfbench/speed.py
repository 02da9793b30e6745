"""Machine-speed calibration for timings taken on a shared host.

On a few vCPUs of a shared host the same work runs up to twice as fast
in one minute as in the next (CPU time as well as wall time), in phases
of seconds to minutes: longer than one op, often longer than a run.
The benchmark therefore runs a fixed calibration kernel between its
timed units (an op, a scan, a fresh interpreter) and reports each unit's
time scaled to a machine on which the kernel takes its nominal time:

    reported = measured * nominal / mean(kernel time just before,
                                         kernel time just after)

The speeds of the host's vCPUs vary independently of one another, so
the benchmark process pins itself, and with it every interpreter it
starts, to one CPU (``Speed`` does this), and calibrates on that CPU.
The one parallel op, the cli ``exclusion --threads 2`` command, runs on
all CPUs (``Speed.widened``) and is scaled by the mean speed of all of
them, each calibrated in turn.  In one test on the host this was tuned
on (two vCPUs), pinned, the scaling cut the spread of repeated
``import cslbounds`` interpreters from 20 % to 6 %; unpinned it did not
reduce it at all.  What the samples between units cannot see is the
speed change inside a unit: under heavy load about 10-15 % spread per
execution of a one-second op remains, which the runner's medians over
rounds and sums over ops average down.

The kernel does not touch cslbounds, so a change to the library moves
the reported times exactly as it moves the measured ones; only the
machine's own speed is divided out.  Contention on the host slows kinds
of work differently, so the kernel does the kinds the workload does:
interpreted Python and ufunc and special-function calls on small
arrays always, and streaming over arrays larger than a core's own
caches only for the workloads that stream (``stream=True``).  On the
same host, per-op spreads after scaling, with the streaming part and
without it: lattice_pairs 8 % and 13 %, cli 14 % and 12 %, and for
10 s windows of scan_1d 10 % and 5 % (unscaled: 29 %, 40 % and 46 %).

The kernel's arrays are allocated once, when the runner creates its
Speed, so calibrating inside the scan_3d address-space cap allocates
nothing.
"""

import bisect
import contextlib
import os
import statistics
import time

import numpy as np
import scipy.special

# kernel times, in seconds, that reported timings are scaled to (about
# their medians on the two-vCPU host the benchmark was tuned on): the
# compute part, and the streaming part added for streaming workloads
NOMINAL_S = 0.027
NOMINAL_STREAM_S = 0.013


def kernel(small, big=None, out=None):
    """The fixed calibration work on Speed's arrays (the streaming part
    only when given big arrays); returns a checksum."""
    s = 0.0
    for i in range(120000):
        s += (i * 0.5) % 7.0
    for _ in range(150):
        x = small * 1.0001
        s += float((np.sin(x) / x * scipy.special.j1(x)).sum())
    if big is not None:
        for _ in range(4):
            np.multiply(big, 1.0001, out=out)
            np.add(out, 0.5, out=out)
            s += float(out.sum())
    return s


class Speed:
    """Calibration samples taken between timed units, on this process's
    home CPU (and on every CPU around a unit that runs on all of them).

    Creating one pins this process to one CPU, its home.  ``tick()``
    takes a sample; the runners call it between units.  ``factor(start,
    end)`` is the scale for a unit timed over [start, end]: the nominal
    kernel time over the mean of the last sample before the unit and the
    first after it (wider windows of samples were tried and did no
    better).  A unit that runs on all CPUs runs inside ``widened()``
    between two ``tick(wide=True)`` and is scaled by ``factor(...,
    wide=True)``, the mean over every CPU.
    """

    def __init__(self, stream):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.home = self.cpus[-1]
        os.sched_setaffinity(0, {self.home})
        self.samples = {cpu: [] for cpu in self.cpus}   # (mid time, s)
        self.nominal = NOMINAL_S + (NOMINAL_STREAM_S if stream else 0.0)
        self._arrays = [np.linspace(0.1, 50.0, 2048)]
        if stream:
            big = np.arange(1 << 20, dtype=float)      # 8 MiB
            self._arrays += [big, np.empty_like(big)]

    def tick(self, wide=False):
        for cpu in self.cpus if wide else [self.home]:
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            kernel(*self._arrays)
            t1 = time.perf_counter()
            self.samples[cpu].append((0.5 * (t0 + t1), t1 - t0))
        os.sched_setaffinity(0, {self.home})

    def level(self, cpu, start, end):
        """Kernel time on cpu around [start, end]: the mean of the last
        sample before start and the first after end."""
        samples = self.samples[cpu]
        times = [t for t, _ in samples]
        before = max(bisect.bisect_left(times, start) - 1, 0)
        after = min(bisect.bisect_right(times, end), len(samples) - 1)
        return 0.5 * (samples[before][1] + samples[after][1])

    def factor(self, start, end, wide=False):
        cpus = self.cpus if wide else [self.home]
        return self.nominal / statistics.mean(
            self.level(cpu, start, end) for cpu in cpus)

    @contextlib.contextmanager
    def widened(self):
        """Let this process, and what it starts meanwhile, use every
        CPU."""
        os.sched_setaffinity(0, self.cpus)
        try:
            yield
        finally:
            os.sched_setaffinity(0, {self.home})

    def median(self):
        """Median kernel time on the home CPU."""
        return statistics.median(dt for _, dt in self.samples[self.home])
