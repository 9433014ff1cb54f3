"""Machine-speed references for timing on a shared host.

On a host whose cores are shared with other tenants, the same work takes up
to 1.8x longer for stretches of tens of seconds to minutes, as long as a
benchmark run or longer, so the medians of a run move with the host's load
rather than with the program.  Every timed sample is therefore taken next to
a fixed reference that does not use the program, and reported at the speed
at which the reference takes its nominal time:

* in-process samples between two passes of ``reference_pass`` (interpreter
  work of the simulator's kind), nominally PASS_S;
* process samples (set-up, CLI) between two runs of this file as a script: a
  fresh interpreter that imports the program's third-party dependencies and
  makes PROCESS_PASSES reference passes, like a CLI process that imports and
  then computes; nominally PROCESS_S.

A change to the program moves its times and not the references, so it shows
in full; a slow stretch of the host slows both, and the two cancel.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

PASS_S = 0.025
PASS_STEPS = 6000
PROCESS_S = 1.2
PROCESS_PASSES = 12


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.x):
            raise ValueError("x must be finite")


def reference_pass() -> float:
    """Seconds of one pass of small frozen dataclasses, dicts, float64 and
    float32 scalars, 3-vectors and an integer shift-add loop."""
    start = time.perf_counter()
    acc = 0.0
    f = np.float32(1.0)
    z = 0
    for k in range(PASS_STEPS):
        p = _Point(k * 1e-3, math.sin(k * 1e-3))
        d = {"x": p.x, "y": p.y}
        acc += math.sqrt(d["x"] * d["x"] + d["y"] * d["y"])
        f = f * np.float32(0.999) + np.float32(p.y)
        v = np.asarray((p.x, p.y, acc), dtype=float)
        acc += float(v[0])
        for i in range(4):
            z = (z + (k >> i)) if z < 0 else (z - (k >> i))
    if not math.isfinite(acc + float(f) + z):
        raise ArithmeticError("reference pass overflowed")
    return time.perf_counter() - start


def bracketed(fn):
    """``(fn(), factor)``: a time measured inside ``fn`` times ``factor`` is
    that time at reference speed."""
    before = reference_pass()
    result = fn()
    after = reference_pass()
    return result, 2.0 * PASS_S / (before + after)


if __name__ == "__main__":
    import scipy.optimize  # noqa: F401  (the program's dependencies)
    import yaml  # noqa: F401

    for _ in range(PROCESS_PASSES):
        reference_pass()
