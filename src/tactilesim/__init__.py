"""tactilesim: deterministic simulator for a bilateral teleoperation pipeline
with hybrid fixed-point/float32 hardware-model datapaths.

The exported names resolve on first use (PEP 562), so ``import tactilesim``
loads no submodule, and a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "tactilesim.channel": (
        "ChannelConfig",
        "ChannelState",
        "ConstantDelay",
        "OutOfOrderSample",
        "RandomWalkDelay",
        "channel_step",
    ),
    "tactilesim.force": (
        "Elasticity",
        "ForceVector",
        "JacobianMatrix",
        "TorqueVector",
        "feedback_force",
        "jacobian",
        "kinesthetic_feedback",
    ),
    "tactilesim.kinematics": (
        "CartesianPosition",
        "DEFAULT_GEOMETRY",
        "DeviceGeometry",
        "Hybrid",
        "JointAngles",
        "NonFiniteSignal",
        "ORACLE",
        "Oracle",
        "SampleError",
        "Unreachable",
        "forward_kinematics",
        "inverse_kinematics",
    ),
    "tactilesim.latency_model": (
        "CalibrationDegenerate",
        "DataflowGraph",
        "OpLatencyTable",
        "builtin_graphs",
        "calibrate",
        "critical_path",
    ),
    "tactilesim.numerics": (
        "CordicConfig",
        "NegativeRadicand",
        "QFormat",
        "S16_13",
        "cordic_atan2",
        "cordic_sincos",
        "float_to_fixed",
        "sqrt32",
    ),
    "tactilesim.pipeline": (
        "Scene",
        "SeriesLengthMismatch",
        "SimulationTrace",
        "TrajectorySegment",
        "TrajectorySpec",
        "compute_mse",
        "mse_table",
        "run_pipeline",
    ),
    "tactilesim.budget": ("hardware_time_limit", "speedup_report"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
