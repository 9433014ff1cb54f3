"""Inputs of the benchmark workloads.

The program only ever sees the files written here; the seed stays on the
benchmark side.  Only ``long_oracle`` depends on the seed: ``default`` uses
the shipped scenario unchanged and ``calibrate`` the published timings.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np
import yaml

# Published module timings of the reference hardware (ns).  Kept here rather
# than imported so that the generated inputs cannot move with the program.
PUBLISHED_TARGETS_NS = {"FK": 47.0, "KFF": 70.0, "IK": 218.0, "FBF": 21.0}

LONG_SAMPLES = 10_000

# The long run stays inside the interior workspace of the test suite's pose
# sampler, with a wider elbow margin: at |theta3 - theta2| <= pi/2 - 0.5 the
# tool is at least 8 mm inside full reach, which absorbs the worst mix of
# per-component delays (5 samples at MAX_STEP) plus channel noise of many
# sigma, so no sample can become unreachable for any seed.
ELBOW_SPAN = math.pi / 2 - 0.5
MAX_STEP = 1e-3  # rad per sample, one joint moving at a time
FC_SIGMA2 = 1e-8  # m^2: 0.1 mm position noise
BC_SIGMA2 = 1e-4  # N^2: 10 mN force noise

# The contact plane keeps the default scene's normal; its offset is placed per
# seed so that the same share of samples touches it whatever the ramps are,
# which keeps the per-sample cost independent of the seed.
PLANE_NORMAL = (-2.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0)
CONTACT_SHARE = 1.0 / 3.0
LINKS = (0.135, 0.135, 0.025, 0.170)  # default geometry l1..l4, m


def _joint_range(pose: list[float], joint: int) -> tuple[float, float]:
    t2, t3 = pose[1], pose[2]
    if joint == 0:
        return -math.pi / 2, math.pi / 2
    if joint == 1:
        return max(0.0, t3 - ELBOW_SPAN), min(math.pi / 2, t3 + ELBOW_SPAN)
    return t2 - ELBOW_SPAN, t2 + ELBOW_SPAN


def long_oracle_segments(seed: int, samples: int) -> list[dict]:
    """Random one-joint ramps summing to ``samples``, each corner pose inside
    the workspace (so every ramp between corners is too: the region is
    convex), moving at most MAX_STEP rad per sample."""
    rng = random.Random(f"long_oracle:{seed}")
    pose = [0.0, 0.0, 0.0]
    segments = []
    remaining = samples
    while remaining > 0:
        joint = rng.randrange(3)
        start = pose[joint]
        end = rng.uniform(*_joint_range(pose, joint))
        # Ramps take at least as many samples as the speed limit needs and
        # sometimes dwell longer.
        n = max(2, math.ceil(abs(end - start) / MAX_STEP) + 1) + rng.randrange(200)
        if n > remaining:
            n = remaining
            reach = MAX_STEP * (n - 1)
            end = start + max(-reach, min(reach, end - start))
        segments.append({"joint": joint + 1, "start": start, "end": end, "samples": n})
        pose[joint] = end
        remaining -= n
    return segments


def _plane_offset(segments: list[dict]) -> float:
    """Offset at which CONTACT_SHARE of the commanded tool positions lie
    beyond the plane, rounded to 10 um."""
    pose = np.zeros(3)
    angles = []
    for seg in segments:
        ramp = np.tile(pose, (seg["samples"], 1))
        ramp[:, seg["joint"] - 1] = np.linspace(seg["start"], seg["end"], seg["samples"])
        angles.append(ramp)
        pose = ramp[-1]
    s1, s2, s3 = np.sin(np.vstack(angles)).T
    c1, c2, c3 = np.cos(np.vstack(angles)).T
    l1, l2, l3, l4 = LINKS
    tool = np.stack(
        (
            -s1 * (l2 * s3 + l1 * c2),
            -l2 * c3 + l1 * s2 + l3,
            l2 * c1 * s3 + l1 * c1 * c2 - l4,
        ),
        axis=1,
    )
    return round(float(np.quantile(tool @ np.array(PLANE_NORMAL), 1.0 - CONTACT_SHARE)), 5)


def long_oracle_scenario(seed: int, samples: int = LONG_SAMPLES) -> dict:
    """Oracle-only 1 kHz run with noisy, random-walk-delayed channels, FCS lag
    and a contact plane touched for a third of the run."""
    segments = long_oracle_segments(seed, samples)
    delay = {"min": 0, "max": 5}
    return {
        "version": 1,
        "seed": seed,
        "backends": ["oracle"],
        "trajectory": {
            "sample_period": 0.001,
            "total_samples": samples,
            "segments": segments,
        },
        "scene": {
            "type": "plane",
            "normal": list(PLANE_NORMAL),
            "offset": _plane_offset(segments),
            "elasticity": {"hx": 80.0, "hy": 80.0, "hz": 80.0},
        },
        "fc": {"sigma2": FC_SIGMA2, "delay": delay},
        "bc": {"sigma2": BC_SIGMA2, "delay": delay},
        "fcs": {"pole": 0.5},
        "output": {"prefix": "trace"},
    }


def target_sets() -> list[dict[str, float]]:
    """Calibration targets: the published timings, then each module left out
    in turn.  The sets do not depend on the seed: calibrate() raises
    ValueError on about one set in twenty when the timings are scaled (HiGHS
    returns an operator latency of -1.1e-13 and OpLatencyTable rejects it),
    so seeded scaling would make the workload fail rather than measure it."""
    sets = [dict(PUBLISHED_TARGETS_NS)]
    for left_out in PUBLISHED_TARGETS_NS:
        sets.append({m: t for m, t in PUBLISHED_TARGETS_NS.items() if m != left_out})
    return sets


def write_long_oracle(seed: int, directory: Path, samples: int = LONG_SAMPLES) -> Path:
    path = directory / "long_oracle.yaml"
    path.write_text(yaml.safe_dump(long_oracle_scenario(seed, samples), sort_keys=False))
    return path


def write_targets(directory: Path) -> Path:
    """The published timings as the file ``tactilesim latency --targets``
    reads."""
    path = directory / "targets.json"
    path.write_text(json.dumps(PUBLISHED_TARGETS_NS))
    return path
