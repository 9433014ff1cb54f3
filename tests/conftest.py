import math

import numpy as np

from tactilesim.kinematics import JointAngles
from tactilesim.scenario import SCHEMA


def sample_workspace_poses(rng: np.random.Generator, count: int) -> list[JointAngles]:
    """Random interior-workspace poses: base angle in [-pi/2, pi/2], shoulder
    in [0, pi/2], elbow within +-(pi/2 - 0.05) of the shoulder so the arm
    stays clear of the fold/extension singularities."""
    t1 = rng.uniform(-math.pi / 2, math.pi / 2, count)
    t2 = rng.uniform(0.0, math.pi / 2, count)
    t3 = rng.uniform(t2 - math.pi / 2 + 0.05, t2 + math.pi / 2 - 0.05)
    return [JointAngles(float(a), float(b), float(c)) for a, b, c in zip(t1, t2, t3)]


def schema_fields(section: dict = SCHEMA, path: tuple = ()):
    """(path, section, kind) of every field of the scenario schema, sections
    before their fields; a list of sections stands as its first item."""
    for key, (kind, _default) in section.items():
        yield path + (key,), section, kind
        for sub in kind if isinstance(kind, tuple) else (kind,):
            if isinstance(sub, list):
                yield from schema_fields(sub[0], path + (key, 0))
            elif isinstance(sub, dict):
                yield from schema_fields(sub, path + (key,))


def field_name(path: tuple) -> str:
    """A key path as error messages name it: ``trajectory.segments[0].joint``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")
