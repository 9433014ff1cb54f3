import math
import re
from operator import add

import numpy as np
import pytest

from tactilesim import channel
from tactilesim.channel import ChannelConfig, ChannelState, OutOfOrderSample, channel_step


def run_channel(cfg: ChannelConfig, inputs: np.ndarray) -> np.ndarray:
    state = ChannelState(cfg)
    return np.stack(
        [channel_step(state, inputs[n], n) for n in range(len(inputs))]
    )


class TestConfig:
    def test_scalar_variance_broadcasts(self):
        cfg = ChannelConfig(noise_variance=1e-6)
        assert cfg.noise_variance == (1e-6, 1e-6, 1e-6)

    @pytest.mark.parametrize("nv", [np.float32(1e-8), np.float64(1e-8), np.int64(2), 3])
    def test_any_real_scalar_variance_broadcasts(self, nv):
        # The broadcast takes what the field check takes: a float32 too.
        cfg = ChannelConfig(noise_variance=nv)
        assert cfg == ChannelConfig(noise_variance=[nv] * 3)
        assert cfg.noise_variance == (nv, nv, nv)
        bool_refused = r"^field 'noise_variance\[0\]' must be float, got bool"
        with pytest.raises(ValueError, match=bool_refused):
            ChannelConfig(noise_variance=True)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(noise_variance=(-1e-6, 0, 0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_variance_rejected(self, bad):
        # A NaN variance used to build a channel that ran noise-free.
        for nv in (bad, (0.0, bad, 1e-6)):
            name = re.escape("noise_variance[0]" if nv is bad else "noise_variance[1]")
            with pytest.raises(ValueError, match=f"^field '{name}' must be finite"):
                ChannelConfig(noise_variance=nv)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # A fractional delay once failed the run with a raw TypeError, a
            # bool ran as a 1-sample delay or a variance of 1.0.
            ({"delay": (2.5, 2.5)}, "field 'delay[0]' must be int, got float"),
            ({"delay": (0.5, 2)}, "field 'delay[0]' must be int, got float"),
            ({"delay": (0, 2.0)}, "field 'delay[1]' must be int, got float"),
            ({"delay": (True, True)}, "field 'delay[0]' must be int, got bool"),
            ({"delay": (0, "3")}, "field 'delay[1]' must be int, got str"),
            ({"delay": (-1, -1)}, "delay min must be nonnegative, got -1"),
            ({"delay": (-(10**300), 0)}, "delay min must be nonnegative, got a negative integer"),
            ({"delay": (-(10**400), 0)}, "field 'delay[0]' is an integer beyond the float range"),
            ({"delay": (5, 3)}, "delay min 5 exceeds max 3"),
            ({"delay": 2}, "field 'delay' must be list, got int"),
            ({"delay": (0, 1, 2)}, "field 'delay' must be a list of 2 numbers"),
            ({"noise_variance": True}, "field 'noise_variance[0]' must be float, got bool"),
            (
                {"noise_variance": (0.0, False, 0.0)},
                "field 'noise_variance[1]' must be float, got bool",
            ),
            (
                {"noise_variance": 10**400},
                "field 'noise_variance[0]' is an integer beyond the float range",
            ),
        ],
        ids=[
            "fraction", "fractional-min", "whole-float-max", "bool", "string", "negative",
            "negative-huge", "negative-beyond-float", "min-above-max", "not-a-pair", "triple",
            "bool-variance",
            "bool-component", "huge-variance",
        ],
    )
    def test_malformed_delay_or_variance_rejected(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            ChannelConfig(**kwargs)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize(
        "seed, message",
        [
            # Each was accepted when built: -1, 1.5 and None then failed the
            # first noisy step with numpy's own errors, True ran as seed 1
            # and "3" ran as well.
            (-1, "seed must be nonnegative, got -1"),
            (1.5, "field 'seed' must be int, got float"),
            (True, "field 'seed' must be int, got bool"),
            ("3", "field 'seed' must be int, got str"),
            (None, "field 'seed' must be int, got NoneType"),
            (-(10**300), "seed must be nonnegative, got a negative integer of 301 digits"),
        ],
        ids=["negative", "fraction", "bool", "string", "none", "negative-huge"],
    )
    def test_malformed_seed_rejected(self, seed, message):
        with pytest.raises(ValueError) as err:
            ChannelConfig(noise_variance=1e-6, seed=seed)
        assert str(err.value) == message

    def test_seed_read_as_int(self):
        cfg = ChannelConfig(noise_variance=1e-6, seed=np.int64(3))
        assert cfg.seed == 3 and type(cfg.seed) is int
        assert run_channel(cfg, np.zeros((4, 3))).tobytes() == run_channel(
            ChannelConfig(noise_variance=1e-6, seed=3), np.zeros((4, 3))
        ).tobytes()

    def test_delay_bounds_read_as_ints(self):
        cfg = ChannelConfig(delay=[np.int64(1), 3])
        assert cfg.delay == (1, 3) and all(type(d) is int for d in cfg.delay)
        assert ChannelConfig().delay == (0, 0)


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
        cfg = ChannelConfig(delay=(3, 3))
        inputs = np.ones((8, 3))
        inputs[0] = 0.0  # unit step at n = 1; the first input is the hold
        out = run_channel(cfg, inputs)
        expected = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=float)
        assert np.array_equal(out[:, 0], expected)

    def test_default_hold_is_first_input(self):
        cfg = ChannelConfig(delay=(3, 3))
        inputs = np.random.default_rng(2).uniform(-1, 1, (8, 3))
        out = run_channel(cfg, inputs)
        assert np.array_equal(out[:3], np.repeat(inputs[:1], 3, axis=0))
        assert np.array_equal(out[3:], inputs[:-3])

    def test_causality(self):
        # Output at n only depends on inputs up to n: two sequences agreeing
        # up to n produce identical outputs up to n.
        cfg = ChannelConfig(delay=(1, 4), seed=9)
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, (50, 3))
        b = a.copy()
        b[30:] += 10.0
        out_a = run_channel(cfg, a)
        out_b = run_channel(cfg, b)
        assert np.array_equal(out_a[:30], out_b[:30])

    def test_random_walk_stays_bounded(self):
        cfg = ChannelConfig(delay=(2, 6), seed=12)
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
    lo, hi = cfg.delay
    delays = [lo] * 3
    hold = tuple(inputs[0])
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
        if lo < hi:
            steps = delay_rng.integers(0, 2, size=3)
            delays = [min(max(d + 2 * s - 1, lo), hi) for d, s in zip(delays, steps)]
    return out


@pytest.mark.parametrize(
    "cfg",
    [
        ChannelConfig(noise_variance=1e-4, delay=(2, 2), seed=3),
        ChannelConfig(noise_variance=1e-4, delay=(0, 5), seed=4),
        ChannelConfig(noise_variance=(1e-4, 0.0, 1e-6), delay=(1, 3), seed=5),
        ChannelConfig(delay=(0, 2), seed=6),
    ],
    ids=["constant", "random_walk", "list_sigma2", "walk_only"],
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
        ChannelConfig(noise_variance=(1e-6, 0.0, 4e-6), delay=(1, 3), seed=11),
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
        lo, hi = cfg.delay
        self.buffer = [[0.0, 0.0, 0.0] for _ in range(hi + 1)]
        self.expected_n = 0
        self.hold = None
        self.delays = [lo] * 3
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
    straight-line form; the reference that form must reproduce.  Every
    component walks, and equal bounds pin it."""
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

    lo, hi = cfg.delay
    state.delays = [
        lo if d < lo else hi if d > hi else d for d in map(add, state.delays, next(state.steps))
    ]
    return tuple(out)


STEP_CONFIGS = {
    "transparent": ChannelConfig(),
    "constant-noisy": ChannelConfig(noise_variance=1e-4, delay=(2, 2), seed=3),
    "constant-quiet": ChannelConfig(delay=(4, 4), seed=4),
    "walk-noisy": ChannelConfig(noise_variance=1e-4, delay=(0, 5), seed=5),
    "walk-pinned": ChannelConfig(noise_variance=1e-6, delay=(3, 3), seed=6),
    "walk-zero-variance-components": ChannelConfig(
        noise_variance=(0.0, 1e-4, 0.0), delay=(1, 3), seed=7
    ),
    "walk-quiet": ChannelConfig(delay=(0, 2), seed=8),
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
