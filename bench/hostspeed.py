"""Gauge of the host's current speed, to take host contention out of timings.

On a shared host the same job runs up to 1.7 times slower for tens of
seconds at a time, longer than a benchmark run, so raw medians of one run
differ from the next by more than any useful bound.  A fixed kernel of
standard-library Fraction arithmetic, timed right before and right after
each measured interval, slows down with it; an interval is reported in
reference seconds: its duration times REFERENCE_SECONDS over the kernel's
time.  The kernel uses nothing from goldengasket, so a change to the
program cannot move it.
"""

from fractions import Fraction
from time import perf_counter

# About the kernel's best time on an idle core of the 2-core x86-64 host the
# baseline was measured on (Python 3.11), so reference seconds read close to
# seconds on a quiet host.
REFERENCE_SECONDS = 0.003

# Interval Horner on a narrow rational interval, the arithmetic that
# dominates exact sign decisions, plus a recurrence whose fractions grow
# into big integers.  Each part alone tracks some workloads' slowdowns
# better than the other.
_LO = Fraction(6180339887498948, 10**16)
_HI = Fraction(6180339887498949, 10**16)
_COEFFS = (3, -5, 8, -13, 21, -34, 55, -89, 144)


def _kernel():
    for rep in range(12):
        vlo = vhi = Fraction(_COEFFS[-1] + rep)
        for c in reversed(_COEFFS[:-1]):
            p = (vlo * _LO, vlo * _HI, vhi * _LO, vhi * _HI)
            vlo, vhi = min(p) + c, max(p) + c
    x, step, seen = Fraction(0), Fraction(31, 53), {}
    for i in range(200):
        x = x * step + Fraction(i % 7, 59)
        if x > 1:
            x -= 1
        seen[(x.numerator % 1009, i)] = x
    return vlo, len(seen)


def kernel_seconds():
    """Best of three timings of the kernel, in seconds."""
    best = None
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        took = perf_counter() - t0
        best = took if best is None else min(best, took)
    return best


def scale(seconds, before, after):
    """``seconds`` in reference seconds, given the kernel's time before and
    after the interval."""
    return seconds * REFERENCE_SECONDS * 2 / (before + after)


def timed(fn, *args):
    """``fn(*args)``, its raw seconds and its reference seconds."""
    before = kernel_seconds()
    t0 = perf_counter()
    result = fn(*args)
    seconds = perf_counter() - t0
    return result, seconds, scale(seconds, before, kernel_seconds())
