"""The round-trip latency budget: the paper's limits, the device share of a
limit and the speedup of a hardware time against it.

Both commands report it (``tactilesim run`` in its summary, ``tactilesim
latency`` for the fitted hardware time), so it imports nothing of either.
"""

from __future__ import annotations

from typing import Sequence

# The paper's round-trip latency limits and hardware time in seconds: the
# defaults of a scenario's budget and of `latency --limits`.
BUDGET_LIMITS = (1e-3, 10e-3)
BUDGET_T_HARDWARE = 403e-9


def hardware_time_limit(t_latency: float) -> float:
    """Per-device compute budget: 30% of the round trip is device time, split
    over two devices and two directions each: 0.3 * t_latency / 8."""
    if t_latency < 0:
        raise ValueError("t_latency must be nonnegative")
    return 0.3 * t_latency / 8.0


def speedup_report(t_hardware: float, limits: Sequence[float]) -> list[tuple[float, int]]:
    """Speedup of the hardware against each latency limit's compute budget,
    with the fractional part truncated (reported as whole multiples)."""
    if not t_hardware > 0:
        raise ValueError("t_hardware must be positive")
    return [(lim, int(hardware_time_limit(lim) / t_hardware)) for lim in limits]
