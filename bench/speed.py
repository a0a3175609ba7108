"""Host speed, measured alongside the jobs, to scale the reported timings.

On a shared host the speed of CPU-bound Python drifts by about 15% within
seconds and by up to 1.5x between minutes, far more than a bound can absorb.
Two things drift:

- The worker loses its CPU for a while: the host deschedules the virtual
  CPU (steal time), or another process runs. That stretches the wall time
  of jobs longer than a few milliseconds, by up to 1.65x in one phase, and
  leaves short jobs and any short unit of work untouched. So in-process jobs
  are timed in the worker thread's CPU time, which does not count those
  waits. The jobs are single-threaded and do no I/O, so that is the time
  they take on an idle host.
- The CPU runs slower or faster while it runs. So the benchmark times a fixed
  unit of work right after every in-process job, for about 3% of the job's
  time and at least once, and scales the job's time by
  NOMINAL_S / (median unit time over the same pass). Both sides of that ratio
  run in the same thread at nearly the same moment, so host drift cancels,
  while a change in pathseq moves only the job's side.

Work done in child processes (set-up interpreters, CLI commands) is timed
the same way: in the child's CPU time (user + system, from the parent's
RUSAGE_CHILDREN), scaled by a unit process instead of the unit. The unit
process is a fresh interpreter that imports the standard modules pathseq
imports and exits, started right after each timed process. It pays the same
interpreter start and site import that dominate a CLI command, and nothing of
pathseq. A child may run on the other CPU, so this thread's speed says little
about it.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
from time import thread_time

import reference as ref

# Median CPU time of one unit on the 2-vCPU Xeon host the bounds were set on,
# at its usual speed; reported times are seconds at that speed.
NOMINAL_S = 1.1e-3
SHARE = 0.03
# Median CPU time of the unit process on the same host.
PROCESS_NOMINAL_S = 0.120
PROCESS_UNIT = "import argparse, csv, dataclasses, json, math, typing"

# Two 25-vertex clique-coalesced specs of the same size.
_UNIT_SPECS = (ref.spec_from_lengths([9, 6, 3, 2], 4), ref.spec_from_lengths([9, 5, 4, 2], 4))


def unit():
    """Profiles of two small specs by the reference's path listing, compared order by order.

    This is the tuple, Counter, float and comparison work of pathseq's closed
    forms, enumeration and surveys, in code that does not import pathseq. A
    tighter loop (a dict update and a square root) tracked the jobs worse: its
    speed on this host flips between two levels 1.7x apart that the jobs do
    not follow.
    """
    a, b = (ref.profile_values(ref.spec_classes(spec), "connectivity", 12) for spec in _UNIT_SPECS)
    return ref.first_difference(a, b)


class Speed:
    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample_after(self, busy_s: float) -> None:
        """Time units in CPU time for SHARE of busy_s, and at least one."""
        end = thread_time() + SHARE * busy_s
        while True:
            t0 = thread_time()
            unit()
            t1 = thread_time()
            self.samples.append(t1 - t0)
            if t1 >= end:
                return

    def factor(self) -> float:
        """Multiply a measured time by this to express it at the nominal speed."""
        return NOMINAL_S / statistics.median(self.samples)


def children_cpu_s() -> float:
    """CPU time of all finished children; a clock for work done in child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def process_unit_s(env=None) -> float:
    """CPU time of one unit process."""
    t0 = children_cpu_s()
    subprocess.run([sys.executable, "-c", PROCESS_UNIT], env=env, check=True)
    return children_cpu_s() - t0


def process_factor(samples) -> float:
    """Multiply a time measured in another process by this; see process_unit_s."""
    return PROCESS_NOMINAL_S / statistics.median(samples)
