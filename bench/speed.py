"""Host-speed reference for the end-to-end times.

The speed of the shared machines this benchmark runs on drifts by up to a
third within minutes, so raw medians of runs made a few minutes apart can
differ by more than any useful bound. Each end-to-end time is therefore
scaled to a fixed host speed: multiplied by ``REFERENCE_S / r``, where ``r``
is the mean duration of ``reference()`` run right before and right after the
timed span. The loop does the kinds of work gasprover spends its time in
(exact Fraction arithmetic, big-integer products, tuple-keyed dict updates)
but runs none of its code, so a change to gasprover moves the scaled time as
much as the raw one. The raw times are reported beside the scaled ones.
"""
from __future__ import annotations

import time
from fractions import Fraction

# Nominal duration of reference(), in seconds; a scaled time is the time the
# span would take on a host where reference() takes exactly this long.
REFERENCE_S = 0.15


def reference() -> float:
    """Run the fixed reference loop; return its wall time in seconds."""
    start = time.perf_counter()
    x, total = Fraction(1, 3), Fraction(0)
    for i in range(12000):
        total += x * i / (i + 7)
    # A small table, so that the loop does not raise the peak memory that
    # the benchmark reports.
    table, big = {}, 3 ** 200
    for i in range(90000):
        key = (i % 97, i % 23)
        table[key] = table.get(key, 0) + big * i
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """A time measured between two reference() runs, at the nominal speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
