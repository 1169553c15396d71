"""Speed calibration: a fixed kernel timed next to every measured op.

The reference machine shares its cores with other tenants. Their load
changes how fast the same Python code runs by up to 1.8x, in bursts of
seconds and in stretches of minutes, with CPU time equal to wall time, so
neither CPU time nor the fastest of a few passes filters it out. Timing
this kernel right next to an op measures the machine's speed at that
moment, and an op's latency is reported at reference speed:

    wall time x REF_S / kernel time

The kernel is rational arithmetic on small Fractions: allocation-bound
pure Python, like the program's hot loops. It uses only the standard
library, so no change to cyclokit moves it. This module imports nothing
but ``fractions`` (which cyclokit imports anyway), ``math`` and ``time``,
so that a fresh interpreter can time the kernel before it imports the
program.
"""

import math
import time
from fractions import Fraction

# about the kernel's time next to an op in a warm process on the reference
# machine (2-core Intel Xeon, Python 3.11) when it is quiet, so that a warm
# op's scaled latency reads close to its wall time at such a moment
REF_S = 2.2e-3
# a child times the kernel as its fastest of this many back-to-back runs,
# when it starts and when its command has run; an op in this process is
# timed between two single runs
CHILD_RUNS = 3

MARK = "PERFBENCH_CAL "  # prefix of a child's calibration line on stderr


def kernel() -> Fraction:
    f = Fraction(1, 3)
    for i in range(1, 400):
        f = f * Fraction(i, i + 1) + Fraction(1, i)
    return f


def measure(runs: int = 1) -> tuple[float, float]:
    """(kernel time, seconds spent): the kernel's fastest of ``runs`` runs."""
    clock = time.perf_counter
    start = clock()
    best = float("inf")
    for _ in range(runs):
        t0 = clock()
        kernel()
        best = min(best, clock() - t0)
    return best, clock() - start


def mark_line(start: tuple[float, float]) -> str:
    """A child's calibration line, written when its command has run.

    ``start`` is the measure() taken when the child started. The line holds
    the geometric mean of the kernel's time then and now, and the seconds
    spent on both: 'PERFBENCH_CAL <kernel s> <seconds spent>'.
    """
    end = measure(CHILD_RUNS)
    kernel_s = math.sqrt(start[0] * end[0])
    return f"{MARK}{kernel_s!r} {start[1] + end[1]!r}\n"


def parse_mark(text: str) -> tuple[float, float] | None:
    """(kernel time, seconds spent) from the last calibration line in ``text``."""
    found = None
    for line in text.splitlines():
        if line.startswith(MARK):
            best, spent = line[len(MARK) :].split()
            found = float(best), float(spent)
    return found
