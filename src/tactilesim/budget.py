"""The round-trip latency budget: the paper's limits, the device share of a
limit and the speedup of a hardware time against it.

Both commands report it (``tactilesim run`` in its summary, ``tactilesim
latency`` for the fitted hardware time), so it imports nothing of either.
Each value is read through ``inputs.check``, which names it.
"""

from __future__ import annotations

import math
from typing import Sequence

from tactilesim.inputs import ScenarioError, check, check_items

# The paper's round-trip latency limits and hardware time in seconds: the
# defaults of a scenario's budget and of `latency --limits`.
BUDGET_LIMITS = (1e-3, 10e-3)
BUDGET_T_HARDWARE = 403e-9


def hardware_time_limit(t_latency: float) -> float:
    """Per-device compute budget: 30% of the round trip is device time, split
    over two devices and two directions each: 0.3 * t_latency / 8."""
    t_latency = check(t_latency, float, "t_latency")
    if t_latency < 0:
        raise ValueError("t_latency must be nonnegative")
    return 0.3 * t_latency / 8.0


def check_limits(limits, t_hw: float, name: str, hardware: str) -> None:
    """Each round-trip latency limit must be finite and nonnegative, and its
    speedup ``hardware_time_limit(limit) / t_hw``, which the reports print as
    an integer, must be finite.  The hardware time ``t_hw`` is judged first,
    against the paper's 1 ms limit.  ``name`` is the field the limits came
    from, ``hardware`` says where ``t_hw`` came from."""
    if not (t_hw > 0 and math.isfinite(hardware_time_limit(1e-3) / t_hw)):
        raise ScenarioError(f"{hardware} is too small for a finite speedup: {t_hw!r} s")
    for i, lim in enumerate(limits):
        if not (math.isfinite(lim) and lim >= 0):
            raise ScenarioError(f"field '{name}[{i}]' must be finite and nonnegative, got {lim!r}")
        if not math.isfinite(hardware_time_limit(lim) / t_hw):
            raise ScenarioError(
                f"field '{name}[{i}]' is too large for a finite speedup "
                f"over t_hardware {t_hw!r} s: {lim!r} s"
            )


def speedup_report(t_hardware: float, limits: Sequence[float]) -> list[tuple[float, int]]:
    """Speedup of the hardware against each latency limit's compute budget,
    with the fractional part truncated (reported as whole multiples); the
    values must pass `check_limits`."""
    t_hardware = check(t_hardware, float, "t_hardware")
    limits = check_items(limits, float, "limits")
    check_limits(limits, t_hardware, "limits", "t_hardware")
    return [(lim, int(hardware_time_limit(lim) / t_hardware)) for lim in limits]
