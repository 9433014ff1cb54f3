"""Exhaustive check of the unit-circle ROM's bands: every float32 t in
[0, 1], fed through `tfb_acos`'s operand path at s16.13, gives a vectoring
operand pair (y, x) inside the ROM's band for x.  The pair of -t is (y, -x),
which `cordic_atan2` folds onto (y, x), so this covers [-1, 1].

    PYTHONPATH=src python tests/check_circle_band.py

Pytest does not collect this file: it sweeps 1 065 353 217 operands in
chunks and takes about 40 s on a 2-vCPU host.  Exits nonzero, naming the
first operand outside its band, if any.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from tactilesim.numerics import S16_13, CordicConfig

CHUNK = 1 << 21
LAST = int(np.float32(1.0).view(np.int32))


def main() -> int:
    started = time.perf_counter()
    cfg = CordicConfig(iterations=10, fmt=S16_13)
    scale = cfg.fmt.scale
    _one, _pi_io, _half_pi_io, *arrays = cfg._circle
    low, high, _base, _angles = (np.frombuffer(a, np.int32) for a in arrays)
    checked = 0
    # Bit patterns 0 .. LAST are the float32 values 0 .. 1 in order.
    for first in range(0, LAST + 1, CHUNK):
        t = np.arange(first, min(first + CHUNK, LAST + 1), dtype=np.int32).view(np.float32)
        # As tfb_acos computes them: the float32 root, then F2FP of both.
        root = np.sqrt(np.float32(1.0) - t * t)
        y = np.rint(root.astype(np.float64) * scale).astype(np.int32)
        x = np.rint(t.astype(np.float64) * scale).astype(np.int32)
        outside = (y < low[x]) | (y > high[x])
        if outside.any():
            k = int(outside.argmax())
            print(f"FAIL t = {float(t[k])!r}: (y, x) = ({y[k]}, {x[k]}) "
                  f"outside [{low[x[k]]}, {high[x[k]]}]")
            return 1
        checked += len(t)
    elapsed = time.perf_counter() - started
    print(f"circle band: all {checked} float32 t in [0, 1] land in their "
          f"{cfg.fmt} bands ({elapsed:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
