"""tactilesim: deterministic simulator for a bilateral teleoperation pipeline
with hybrid fixed-point/float32 hardware-model datapaths."""

from tactilesim.channel import (
    ChannelConfig,
    ChannelState,
    ConstantDelay,
    OutOfOrderSample,
    RandomWalkDelay,
    channel_step,
)
from tactilesim.force import (
    Elasticity,
    ForceVector,
    JacobianMatrix,
    TorqueVector,
    feedback_force,
    jacobian,
    kinesthetic_feedback,
)
from tactilesim.kinematics import (
    Backend,
    CartesianPosition,
    DEFAULT_GEOMETRY,
    DeviceGeometry,
    Hybrid,
    IkIntermediates,
    JointAngles,
    NonFiniteSignal,
    ORACLE,
    Oracle,
    SampleError,
    Unreachable,
    forward_kinematics,
    ik_intermediates,
    inverse_kinematics,
)
from tactilesim.latency_model import (
    CalibrationDegenerate,
    DataflowGraph,
    OpLatencyTable,
    builtin_graphs,
    calibrate,
    critical_path,
)
from tactilesim.numerics import (
    CordicConfig,
    NegativeRadicand,
    QFormat,
    S16_13,
    cordic_atan2,
    cordic_sincos,
    float_to_fixed,
    sqrt32,
)
from tactilesim.pipeline import (
    Scene,
    SeriesLengthMismatch,
    SimulationTrace,
    TrajectorySegment,
    TrajectorySpec,
    compute_mse,
    generate_trajectory,
    hardware_time_limit,
    mse_table,
    run_pipeline,
    speedup_report,
)

__version__ = "0.1.0"
