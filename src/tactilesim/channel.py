"""Discrete-time channel impairment: per-component integer sample delay plus
additive Gaussian noise, with seeded, reproducible randomness.

Noise values come from ``numpy.random.Generator`` / PCG64 ``standard_normal``
draws; the noise and delay streams are derived from the configured seed via
``SeedSequence([seed, 0])`` and ``SeedSequence([seed, 1])``, so a trace is
reproducible bit for bit from the scenario file alone.  Both streams are drawn
``_BLOCK`` rows at a time; PCG64 gives a ``(B, 3)`` draw the same values as B
successive 3-vector draws, so the block size does not change a trace.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "OutOfOrderSample",
    "ConstantDelay",
    "RandomWalkDelay",
    "ChannelConfig",
    "ChannelState",
    "channel_step",
]


# Rows per RNG draw.  At this size the fixed cost of a call (about 7 us for
# the walk steps on a 2-vCPU x86-64 host) adds under 0.03 us per row, and the
# per-row cost is near its minimum.
_BLOCK = 256


class OutOfOrderSample(RuntimeError):
    """Channel stepped with a sample index that is not the expected next one."""


@dataclass(frozen=True)
class ConstantDelay:
    delay: int = 0

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError("delay must be a nonnegative integer")

    @property
    def max_delay(self) -> int:
        return self.delay


@dataclass(frozen=True)
class RandomWalkDelay:
    """Bounded integer random walk: each component's delay moves by +-1 per
    sample and is clamped to [d_min, d_max]; the walk starts at d_min."""

    d_min: int
    d_max: int

    def __post_init__(self) -> None:
        if self.d_min < 0 or self.d_max < self.d_min:
            raise ValueError("need 0 <= d_min <= d_max")

    @property
    def max_delay(self) -> int:
        return self.d_max


@dataclass(frozen=True)
class ChannelConfig:
    """Noise variance per component (signal units squared), delay profile,
    RNG seed and the value emitted before the first delayed sample arrives
    (``None``: hold the n = 0 input)."""

    noise_variance: tuple[float, float, float] = (0.0, 0.0, 0.0)
    delay: ConstantDelay | RandomWalkDelay = ConstantDelay(0)
    seed: int = 0
    initial_hold: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        nv = self.noise_variance
        if isinstance(nv, (int, float)):
            nv = (float(nv),) * 3
        else:
            nv = tuple(float(v) for v in nv)
        if len(nv) != 3:
            raise ValueError("noise_variance must be a scalar or a 3-vector")
        # NaN fails the test too: it would otherwise run noise-free.
        if not all(0 <= v < math.inf for v in nv):
            raise ValueError(f"noise_variance must be finite and nonnegative, got {nv}")
        object.__setattr__(self, "noise_variance", nv)
        if self.initial_hold is not None:
            hold = tuple(float(v) for v in self.initial_hold)
            if len(hold) != 3:
                raise ValueError("initial_hold must be a 3-vector")
            # The run would otherwise fail only at its first sample.
            if not all(map(math.isfinite, hold)):
                raise ValueError(f"initial_hold must be finite, got {hold}")
            object.__setattr__(self, "initial_hold", hold)

    @cached_property
    def _noise_sigma(self) -> tuple[float, float, float] | None:
        """Per-component noise standard deviation; None when no component is
        noisy."""
        if not any(v > 0 for v in self.noise_variance):
            return None
        return tuple(math.sqrt(v) for v in self.noise_variance)

    @classmethod
    def transparent(cls) -> "ChannelConfig":
        """Zero-noise, zero-delay channel (bit-exact identity)."""
        return cls()


class ChannelState:
    """Single-owner mutable state of one channel instance: the input history
    ring buffer, the per-component delays, the walk bounds and the RNG
    streams."""

    def __init__(self, cfg: ChannelConfig):
        depth = cfg.delay.max_delay + 1
        self.buffer = [(0.0, 0.0, 0.0)] * depth
        self.expected_n = 0
        self.hold = cfg.initial_hold
        if isinstance(cfg.delay, RandomWalkDelay):
            self.delays = [cfg.delay.d_min] * 3
            self.walk = (cfg.delay.d_min, cfg.delay.d_max)
        else:
            self.delays = [cfg.delay.delay] * 3
            self.walk = None
        noise_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
        delay_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
        # One row per step as a list of Python numbers: the noise terms
        # eps_i * sigma_i, and walk steps of -1 or +1.  A stream that is never
        # read never draws.  A noiseless component's term is -0.0, which
        # x + (-0.0) returns as x for every x, the sign of zero included; a
        # channel with no noisy component draws no noise.
        sigma = cfg._noise_sigma
        if sigma is None:
            self.noise = itertools.repeat((-0.0, -0.0, -0.0))
        else:
            noisy = np.array(sigma) > 0
            self.noise = _rows(
                lambda: np.where(noisy, noise_rng.standard_normal((_BLOCK, 3)) * sigma, -0.0)
            )
        self.steps = _rows(lambda: 2 * delay_rng.integers(0, 2, (_BLOCK, 3)) - 1)


def _rows(draw: Callable[[], np.ndarray]) -> Iterator[list]:
    """The rows of successive ``draw()`` blocks, one at a time."""
    while True:
        yield from draw().tolist()


def channel_step(state: ChannelState, sample, n: int) -> tuple[float, float, float]:
    """Push one 3-vector sample through the channel at index ``n``; returns
    the channel output as a tuple of three floats.

    out_i = in_i(n - d_i(n)) + r_i(n), with r_i drawn from N(0, sigma_i^2).
    Before the first delayed sample is available the component emits the hold
    value exactly (no noise).  ``n`` must increase by one per call.  ``state``,
    built from the channel's config, holds everything the step reads.
    """
    if n != state.expected_n:
        raise OutOfOrderSample(f"expected sample {state.expected_n}, got {n}")
    state.expected_n = n + 1

    try:
        x0, x1, x2 = sample
    except ValueError:
        raise ValueError("sample must be a 3-vector") from None
    x = (float(x0), float(x1), float(x2))
    hold = state.hold
    if hold is None:
        hold = state.hold = x

    buffer = state.buffer
    depth = len(buffer)
    buffer[n % depth] = x

    # One noise row per sample keeps the noise stream aligned with the sample
    # index regardless of delays.
    r0, r1, r2 = next(state.noise)
    d0, d1, d2 = state.delays
    out = (
        hold[0] if n < d0 else buffer[(n - d0) % depth][0] + r0,
        hold[1] if n < d1 else buffer[(n - d1) % depth][1] + r1,
        hold[2] if n < d2 else buffer[(n - d2) % depth][2] + r2,
    )

    if state.walk is not None:
        lo, hi = state.walk
        s0, s1, s2 = next(state.steps)
        d0 += s0
        d1 += s1
        d2 += s2
        # Clamped with comparisons: min() and max() calls cost three times as
        # much.
        state.delays = [
            lo if d0 < lo else hi if d0 > hi else d0,
            lo if d1 < lo else hi if d1 > hi else d1,
            lo if d2 < lo else hi if d2 > hi else d2,
        ]

    return out
