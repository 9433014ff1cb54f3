import math
from operator import add

import numpy as np
import pytest

from tactilesim import channel
from tactilesim.channel import (
    ChannelConfig,
    ChannelState,
    ConstantDelay,
    OutOfOrderSample,
    RandomWalkDelay,
    channel_step,
)


def run_channel(cfg: ChannelConfig, inputs: np.ndarray) -> np.ndarray:
    state = ChannelState(cfg)
    return np.stack(
        [channel_step(state, inputs[n], n) for n in range(len(inputs))]
    )


class TestConfig:
    def test_scalar_variance_broadcasts(self):
        cfg = ChannelConfig(noise_variance=1e-6)
        assert cfg.noise_variance == (1e-6, 1e-6, 1e-6)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(noise_variance=(-1e-6, 0, 0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_variance_rejected(self, bad):
        # A NaN variance used to build a channel that ran noise-free.
        for nv in (bad, (0.0, bad, 1e-6)):
            with pytest.raises(ValueError, match="^noise_variance must be finite"):
                ChannelConfig(noise_variance=nv)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_hold_rejected(self, bad):
        # A non-finite hold used to fail the run only at sample 0, as a
        # NonFiniteSignal from the channel's output.
        with pytest.raises(ValueError, match="^initial_hold must be finite"):
            ChannelConfig(initial_hold=(bad, 0.0, 0.0), delay=ConstantDelay(2))

    def test_delay_validation(self):
        with pytest.raises(ValueError):
            ConstantDelay(-1)
        with pytest.raises(ValueError):
            RandomWalkDelay(5, 3)


class TestTransparency:
    def test_identity_is_bit_exact(self):
        cfg = ChannelConfig()
        rng = np.random.default_rng(3)
        inputs = rng.uniform(-0.3, 0.3, (200, 3))
        inputs[0] = (-0.0, 0.1, -0.1)
        out = run_channel(cfg, inputs)
        assert np.array_equal(out, inputs)
        # Including the sign of zero.
        assert math.copysign(1.0, out[0, 0]) == -1.0


class TestDelay:
    def test_step_delayed_with_zero_hold(self):
        cfg = ChannelConfig(delay=ConstantDelay(3), initial_hold=(0.0, 0.0, 0.0))
        inputs = np.ones((8, 3))  # unit step at n = 0
        out = run_channel(cfg, inputs)
        expected = np.array([0, 0, 0, 1, 1, 1, 1, 1], dtype=float)
        assert np.array_equal(out[:, 0], expected)

    def test_default_hold_is_first_input(self):
        cfg = ChannelConfig(delay=ConstantDelay(3))
        inputs = np.ones((8, 3)) * 0.25
        out = run_channel(cfg, inputs)
        assert np.array_equal(out, inputs)

    def test_causality(self):
        # Output at n only depends on inputs up to n: two sequences agreeing
        # up to n produce identical outputs up to n.
        cfg = ChannelConfig(delay=RandomWalkDelay(1, 4), seed=9)
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, (50, 3))
        b = a.copy()
        b[30:] += 10.0
        out_a = run_channel(cfg, a)
        out_b = run_channel(cfg, b)
        assert np.array_equal(out_a[:30], out_b[:30])

    def test_random_walk_stays_bounded(self):
        cfg = ChannelConfig(delay=RandomWalkDelay(2, 6), seed=12)
        state = ChannelState(cfg)
        seen = []
        for n in range(500):
            seen.append(state.delays.copy())
            channel_step(state, (0.0, 0.0, 0.0), n)
        seen = np.stack(seen)
        assert seen.min() >= 2 and seen.max() <= 6
        assert np.abs(np.diff(seen, axis=0)).max() <= 1


class TestNoise:
    def test_deterministic_given_seed(self):
        cfg = ChannelConfig(noise_variance=1e-6, seed=42)
        rng = np.random.default_rng(7)
        inputs = rng.uniform(-1, 1, (300, 3))
        assert np.array_equal(run_channel(cfg, inputs), run_channel(cfg, inputs))

    def test_different_seeds_differ(self):
        inputs = np.zeros((100, 3))
        a = run_channel(ChannelConfig(noise_variance=1e-6, seed=1), inputs)
        b = run_channel(ChannelConfig(noise_variance=1e-6, seed=2), inputs)
        assert not np.array_equal(a, b)

    def test_statistics(self):
        sigma2 = 1e-4
        cfg = ChannelConfig(noise_variance=sigma2, seed=77)
        inputs = np.zeros((20_000, 3))
        out = run_channel(cfg, inputs)
        sigma = math.sqrt(sigma2)
        assert abs(out.mean()) <= 4 * sigma / math.sqrt(out.size)
        assert abs(out.var() - sigma2) <= 0.05 * sigma2


class TestOrdering:
    def test_out_of_order_rejected(self):
        cfg = ChannelConfig()
        state = ChannelState(cfg)
        channel_step(state, (0.0, 0.0, 0.0), 0)
        with pytest.raises(OutOfOrderSample):
            channel_step(state, (0.0, 0.0, 0.0), 2)

    def test_restart_required(self):
        cfg = ChannelConfig()
        state = ChannelState(cfg)
        channel_step(state, (1.0, 1.0, 1.0), 0)
        with pytest.raises(OutOfOrderSample):
            channel_step(state, (1.0, 1.0, 1.0), 0)


def reference_channel(cfg: ChannelConfig, inputs: np.ndarray) -> np.ndarray:
    """The channel with one RNG call per stream per sample, as the streams
    were first defined: the block draws must reproduce it bit for bit."""
    noise_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    delay_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    walk = isinstance(cfg.delay, RandomWalkDelay)
    delays = [cfg.delay.d_min if walk else cfg.delay.delay] * 3
    hold = cfg.initial_hold if cfg.initial_hold is not None else tuple(inputs[0])
    sigma = [math.sqrt(v) for v in cfg.noise_variance]
    noisy = any(s > 0 for s in sigma)
    out = np.empty_like(inputs)
    for n in range(len(inputs)):
        eps = noise_rng.standard_normal(3) if noisy else None
        for i, d in enumerate(delays):
            if n - d < 0:
                out[n, i] = hold[i]
            elif sigma[i] > 0:
                out[n, i] = inputs[n - d, i] + eps[i] * sigma[i]
            else:
                out[n, i] = inputs[n - d, i]
        if walk:
            steps = delay_rng.integers(0, 2, size=3)
            delays = [min(max(d + 2 * s - 1, cfg.delay.d_min), cfg.delay.d_max)
                      for d, s in zip(delays, steps)]
    return out


@pytest.mark.parametrize(
    "cfg",
    [
        ChannelConfig(noise_variance=1e-4, delay=ConstantDelay(2), seed=3),
        ChannelConfig(noise_variance=1e-4, delay=RandomWalkDelay(0, 5), seed=4),
        ChannelConfig(
            noise_variance=(1e-4, 0.0, 1e-6),
            delay=RandomWalkDelay(1, 3),
            seed=5,
            initial_hold=(0.5, -0.0, 0.25),
        ),
        ChannelConfig(delay=RandomWalkDelay(0, 2), seed=6),
    ],
    ids=["constant", "random_walk", "list_sigma2_hold", "walk_only"],
)
def test_block_draws_match_per_sample_draws(cfg):
    q = 3 * channel._BLOCK + 7
    inputs = np.random.default_rng(8).uniform(-1, 1, (q, 3))
    inputs[::5, 1] = -0.0  # passes the noiseless component with its sign
    got = run_channel(cfg, inputs)
    want = reference_channel(cfg, inputs)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize(
    "cfg",
    [
        ChannelConfig(),
        ChannelConfig(
            noise_variance=(1e-6, 0.0, 4e-6),
            delay=RandomWalkDelay(1, 3),
            seed=11,
            initial_hold=(0.5, -0.5, 0.0),
        ),
    ],
    ids=["transparent", "noisy-delayed"],
)
def test_step_returns_a_tuple_of_floats(cfg):
    # Inputs of other number types (ints, numpy scalars) come out as floats.
    state = ChannelState(cfg)
    for n in range(40):
        sample = (n, np.float64(0.25 * n), np.float32(-n))
        out = channel_step(state, sample, n)
        assert type(out) is tuple and len(out) == 3
        assert all(type(v) is float for v in out)


class LoopState:
    """The channel state the loop-form step reads: lists for the ring
    buffer, the hold and the delays, and raw standard-normal noise rows."""

    def __init__(self, cfg: ChannelConfig):
        depth = cfg.delay.max_delay + 1
        self.buffer = [[0.0, 0.0, 0.0] for _ in range(depth)]
        self.expected_n = 0
        self.hold = None if cfg.initial_hold is None else list(cfg.initial_hold)
        if isinstance(cfg.delay, RandomWalkDelay):
            self.delays = [cfg.delay.d_min] * 3
        else:
            self.delays = [cfg.delay.delay] * 3
        noise_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
        delay_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
        self.noise = block_rows(lambda: noise_rng.standard_normal((channel._BLOCK, 3)))
        self.steps = block_rows(lambda: 2 * delay_rng.integers(0, 2, (channel._BLOCK, 3)) - 1)


def block_rows(draw):
    """The rows of successive ``draw()`` blocks, one at a time."""
    while True:
        yield from draw().tolist()


def loop_channel_step(state: LoopState, cfg: ChannelConfig, sample, n: int):
    """The step as a loop over the components, as it was written before the
    straight-line form; the reference that form must reproduce."""
    if n != state.expected_n:
        raise OutOfOrderSample(f"expected sample {state.expected_n}, got {n}")
    state.expected_n = n + 1

    x = list(map(float, sample))
    if len(x) != 3:
        raise ValueError("sample must be a 3-vector")
    if state.hold is None:
        state.hold = x

    buffer = state.buffer
    depth = len(buffer)
    buffer[n % depth] = x

    sigma = cfg._noise_sigma
    eps = next(state.noise) if sigma is not None else None

    out = []
    for i, d in enumerate(state.delays):
        k = n - d
        if k < 0:
            out.append(state.hold[i])
        elif sigma is not None and sigma[i] > 0:
            out.append(buffer[k % depth][i] + eps[i] * sigma[i])
        else:
            out.append(buffer[k % depth][i])

    delay = cfg.delay
    if isinstance(delay, RandomWalkDelay):
        lo, hi = delay.d_min, delay.d_max
        state.delays = [
            lo if d < lo else hi if d > hi else d
            for d in map(add, state.delays, next(state.steps))
        ]
    return tuple(out)


STEP_CONFIGS = {
    "transparent": ChannelConfig(),
    "constant-noisy": ChannelConfig(noise_variance=1e-4, delay=ConstantDelay(2), seed=3),
    "constant-quiet-hold": ChannelConfig(
        delay=ConstantDelay(4), seed=4, initial_hold=(0.5, -0.0, -0.25)
    ),
    "walk-noisy": ChannelConfig(noise_variance=1e-4, delay=RandomWalkDelay(0, 5), seed=5),
    "walk-pinned": ChannelConfig(noise_variance=1e-6, delay=RandomWalkDelay(3, 3), seed=6),
    "walk-zero-variance-components": ChannelConfig(
        noise_variance=(0.0, 1e-4, 0.0),
        delay=RandomWalkDelay(1, 3),
        seed=7,
        initial_hold=(-0.0, 0.0, 1.5),
    ),
    "walk-quiet": ChannelConfig(delay=RandomWalkDelay(0, 2), seed=8),
}


@pytest.mark.parametrize("cfg", list(STEP_CONFIGS.values()), ids=list(STEP_CONFIGS))
def test_step_is_the_loop_form(cfg):
    q = 3 * channel._BLOCK + 7
    rng = np.random.default_rng(9)
    inputs = rng.uniform(-1, 1, (q, 3))
    inputs[::3, 0] = -0.0
    inputs[1::4, 1] = -0.0
    inputs[:2, 2] = -0.0
    state, loop = ChannelState(cfg), LoopState(cfg)
    for n, sample in enumerate(inputs.tolist()):
        got = channel_step(state, sample, n)
        want = loop_channel_step(loop, cfg, sample, n)
        assert type(got) is tuple
        assert list(map(float.hex, got)) == list(map(float.hex, want)), n
        assert state.delays == loop.delays


@pytest.mark.parametrize(
    "sample, n, message",
    [
        ((1.0, 2.0, 3.0), 2, "expected sample 1, got 2"),
        ((1.0, 2.0, 3.0), 0, "expected sample 1, got 0"),
        ((1.0, 2.0), 1, "sample must be a 3-vector"),
        ((1.0, 2.0, 3.0, 4.0), 1, "sample must be a 3-vector"),
    ],
)
def test_step_errors_are_the_loop_forms(sample, n, message):
    cfg = STEP_CONFIGS["walk-noisy"]
    errors = []

    def loop_step(state, sample, n):
        return loop_channel_step(state, cfg, sample, n)

    for step, state in ((channel_step, ChannelState(cfg)), (loop_step, LoopState(cfg))):
        step(state, (0.0, 0.0, 0.0), 0)
        with pytest.raises((OutOfOrderSample, ValueError)) as err:
            step(state, sample, n)
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]
    assert errors[0][1] == message
