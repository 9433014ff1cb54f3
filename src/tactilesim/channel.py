"""Discrete-time channel impairment: per-component integer sample delay plus
additive Gaussian noise, with seeded, reproducible randomness.

Noise values come from ``numpy.random.Generator`` / PCG64 ``standard_normal``
draws; the noise and delay streams are derived from the configured seed via
``SeedSequence([seed, 0])`` and ``SeedSequence([seed, 1])``, so a trace is
reproducible bit for bit from the scenario file alone.  Both streams are drawn
``_BLOCK`` rows at a time; PCG64 gives a ``(B, 3)`` draw the same values as B
successive 3-vector draws, so the block size does not change a trace.  Each
generator is made on its stream's first draw, so a channel whose streams are
never read (no noise, equal delay bounds) imports no ``numpy.random``.
A ``ChannelConfig`` is a validated named tuple (``tactilesim.inputs.Checked``).
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from collections import namedtuple
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from tactilesim.inputs import Checked, check, check_items
from tactilesim.numerics import int_text

__all__ = [
    "OutOfOrderSample",
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


class ChannelConfig(Checked, namedtuple("ChannelConfig", "noise_variance delay seed")):
    """Noise variance per component (signal units squared), the delay bounds
    ``(min, max)`` in samples and the RNG seed, a nonnegative integer.

    Each component's delay starts at min and walks +-1 per sample, clamped to
    [min, max]; equal bounds are a constant delay, which draws no walk
    steps.  Before its first delayed sample a component outputs the first
    input sample."""

    def __new__(cls, noise_variance=(0.0, 0.0, 0.0), delay=(0, 0), seed=0):
        # A real number (a bool too, which the check refuses) is every
        # component's variance.
        if isinstance(noise_variance, numbers.Real):
            noise_variance = (noise_variance,) * 3
        nv = check_items(noise_variance, float, "noise_variance", 3)
        if not all(v >= 0 for v in nv):
            raise ValueError(f"noise_variance must be nonnegative, got {nv}")
        lo, hi = check_items(delay, int, "delay", 2)
        if lo < 0:
            raise ValueError(f"delay min must be nonnegative, got {int_text(lo)}")
        if hi < lo:
            raise ValueError(f"delay min {int_text(lo)} exceeds max {int_text(hi)}")
        # numpy's SeedSequence would refuse a negative seed only at the first
        # noisy step.
        seed = check(seed, int, "seed")
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {int_text(seed)}")
        return tuple.__new__(cls, (nv, (lo, hi), seed))

    @cached_property
    def _noise_sigma(self) -> tuple[float, float, float] | None:
        """Per-component noise standard deviation; None when no component is
        noisy."""
        if not any(v > 0 for v in self.noise_variance):
            return None
        return tuple(math.sqrt(v) for v in self.noise_variance)


class ChannelState:
    """Single-owner mutable state of one channel instance: the input history
    ring buffer, the per-component delays, the walk bounds and the RNG
    streams."""

    def __init__(self, cfg: ChannelConfig):
        lo, hi = cfg.delay
        try:
            self.buffer = [(0.0, 0.0, 0.0)] * (hi + 1)
        except OverflowError:  # beyond the index range: no memory holds it
            raise MemoryError(f"cannot hold a delay of {int_text(hi)} samples") from None
        self.expected_n = 0
        # The output before the first delayed sample: the first input
        # sample, which the first step sets.
        self.hold = None
        self.delays = [lo] * 3
        # Equal bounds are a constant delay, which never reads the steps.
        self.walk = (lo, hi) if hi > lo else None
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
                cfg.seed,
                0,
                lambda rng: np.where(noisy, rng.standard_normal((_BLOCK, 3)) * sigma, -0.0),
            )
        self.steps = _rows(cfg.seed, 1, lambda rng: 2 * rng.integers(0, 2, (_BLOCK, 3)) - 1)


def _rows(
    seed: int, stream: int, draw: Callable[[np.random.Generator], np.ndarray]
) -> Iterator[list]:
    """The rows of successive ``draw(rng)`` blocks, one at a time, where
    ``rng`` is the PCG64 generator of ``SeedSequence([seed, stream])``, made
    when the first row is asked for."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    while True:
        yield from draw(rng).tolist()


def channel_step(state: ChannelState, sample, n: int) -> tuple[float, float, float]:
    """Push one 3-vector sample through the channel at index ``n``; returns
    the channel output as a tuple of three floats.

    out_i = in_i(n - d_i(n)) + r_i(n), with r_i drawn from N(0, sigma_i^2).
    Before the first delayed sample is available the component emits the
    first input sample exactly (no noise).  ``n`` must increase by one per call.  ``state``,
    built from the channel's config, holds everything the step reads.
    """
    if n != state.expected_n:
        raise OutOfOrderSample(f"expected sample {state.expected_n}, got {n}")
    state.expected_n = n + 1

    try:
        x0, x1, x2 = sample
    except ValueError:
        raise ValueError("sample must be a 3-vector") from None
    try:
        x = (float(x0), float(x1), float(x2))
    except OverflowError:  # an int beyond the float range
        ints = [(i, v) for i, v in enumerate((x0, x1, x2)) if isinstance(v, int)]
        i, v = next((i, v) for i, v in ints if abs(v) > sys.float_info.max)
        raise ValueError(f"sample[{i}] = {int_text(v)} is beyond the float range") from None
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
