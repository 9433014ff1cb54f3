"""Command-line front end: run a scenario, calibrate the latency model,
compare trace files.

The commands raise; ``main`` alone turns an error into one line on stderr
and an exit code: 0 success; 1 an input, option or output a command cannot
use (a usage error included), the latency solver missing, or memory running
out; 2 a runtime error (e.g. an unreachable sample during simulation).

Each command imports only what it runs: the scenario schema, the pipeline
and the latency model load on first use (see ``__getattr__``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from tactilesim.budget import BUDGET_LIMITS, check_limits, hardware_time_limit, speedup_report
from tactilesim.inputs import ScenarioError, check, read_input

if TYPE_CHECKING:
    import numpy as np

    from tactilesim.latency_model import calibrate
    from tactilesim.pipeline import TraceWriter, run_pipeline, summary_report
    from tactilesim.scenario import Scenario, load_scenario

__all__ = ["Scenario", "ScenarioError", "load_scenario", "main"]

OUTDIR_ENV = "TACTILESIM_OUTDIR"

# What a command calls in a module only it needs, by that module.  Each name
# becomes a global of this module on first use, so a replacement set here
# before then (a tracer's span, a test's fake) is the one the command calls.
_LAZY = {
    "Scenario": "tactilesim.scenario",
    "load_scenario": "tactilesim.scenario",
    "run_pipeline": "tactilesim.pipeline",
    "TraceWriter": "tactilesim.pipeline",
    # `run` writes its traces through TraceWriter; the benchmark's traced
    # run still spans this name.
    "write_trace_csv": "tactilesim.pipeline",
    "summary_report": "tactilesim.pipeline",
    "calibrate": "tactilesim.latency_model",
}


def __getattr__(name: str):
    """Bind the lazy global ``name`` and return it.  Python calls this only
    for a name the module does not hold, so a bound name is never rebound."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(_LAZY[name]), name)
    return value


def _bind(*names: str) -> None:
    """Bind each lazy global a command calls by name; a function's lookup of
    a global does not reach ``__getattr__``."""
    for name in names:
        if name not in globals():
            __getattr__(name)


@contextmanager
def _writing(path=None):
    """An output at ``path`` that cannot be written is a ScenarioError:
    ``cannot write <path>: <reason>``; without ``path``, the file the
    OSError names."""
    try:
        yield
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        where = getattr(exc, "filename", None) if path is None else path
        raise ScenarioError(f"cannot write {where}: {reason}") from exc


def _emit(text: str, out) -> None:
    """Print a report, after writing it to ``out`` when that is given."""
    if out:
        with _writing(out):
            Path(out).write_text(text + "\n")
    print(text)


def cmd_run(args) -> int:
    _bind("load_scenario", "run_pipeline", "TraceWriter", "summary_report")
    scenario = load_scenario(args.scenario)
    out = Path(args.out_dir or os.environ.get(OUTDIR_ENV) or scenario.output_dir)
    # Made before the run, so that an unusable directory fails at once rather
    # than after the whole simulation.  A run that fails removes the
    # directories it made, and so leaves nothing behind.
    made = [p for p in (out, *out.parents) if not p.exists()]
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    try:
        driver, shadow = scenario.backend_objects()
        backends = [be.name for be in (driver, shadow) if be is not None]
        written = [out / f"{scenario.output_prefix}_{backend}.csv" for backend in backends]
        # The traces are formatted while the run goes on and renamed into
        # place at the end; discard leaves no process or temporary file.
        writer = TraceWriter(written)
        try:
            trace = run_pipeline(
                scenario.trajectory,
                scenario.scene,
                scenario.fc,
                scenario.bc,
                driver,
                geometry=scenario.geometry,
                shadow=shadow,
                fcs_pole=scenario.fcs_pole,
                on_block=writer.on_block,
            )
            with _writing():
                writer.close()
        finally:
            writer.discard()
    except BaseException:
        for p in made:
            p.rmdir()
        raise

    report = summary_report(
        trace,
        budget_limits=scenario.budget_limits,
        t_hardware=scenario.budget_t_hardware,
    )
    report["traces"] = [p.name for p in written]
    summary_path = out / f"{scenario.output_prefix}_summary.json"
    with _writing(summary_path):
        summary_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {', '.join(str(p) for p in written)} and {summary_path}")
    return 0


def _unique_modules(pairs: list[tuple[str, object]]) -> dict:
    """A targets object as a dict; a module given twice is an error, where
    ``json`` would keep its last value."""
    targets: dict = {}
    for module, value in pairs:
        if module in targets:
            raise ScenarioError(f"module {module!r} given twice")
        targets[module] = value
    return targets


def _parse_targets(fh) -> dict:
    """A targets file: a non-empty JSON object of numbers, each module once."""
    raw = json.load(fh, object_pairs_hook=_unique_modules)
    if not isinstance(raw, dict) or not raw:
        raise ScenarioError("must be a non-empty JSON object")
    # Numbers as the scenario rules read them: no strings, no booleans.
    return {k: check(v, float, k) for k, v in raw.items()}


def cmd_latency(args) -> int:
    from tactilesim.latency_model import DEFAULT_TARGETS_NS, hardware_time

    _bind("calibrate")
    if args.targets is None:
        targets = dict(DEFAULT_TARGETS_NS)
    else:
        targets = read_input(args.targets, _parse_targets, "targets")
    result = calibrate(targets)

    # Speedups are quoted against the measured module times; the fitted
    # critical paths are the model's attribution of them.
    measured = hardware_time(targets)
    hardware = f"targets: hardware time {measured!r} ns"
    check_limits(args.limits, measured * 1e-9, "--limits", hardware)
    report = result.to_dict()
    report["t_hardware_measured_ns"] = measured
    report["speedups"] = {
        f"{lim:g}s": speedup
        for lim, speedup in speedup_report(measured * 1e-9, args.limits)
    }
    report["hardware_time_limits"] = {
        f"{lim:g}s": hardware_time_limit(lim) for lim in args.limits
    }
    _emit(json.dumps(report, indent=2), args.out)
    return 0


def _read_trace(path) -> tuple[list[str], np.ndarray]:
    """``read_trace_csv``, its errors as ScenarioErrors naming the file."""
    from tactilesim.pipeline import read_trace_csv

    try:
        return read_trace_csv(path)
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except (OSError, ValueError) as exc:
        raise ScenarioError(str(exc)) from exc


def cmd_mse(args) -> int:
    import numpy as np

    from tactilesim.pipeline import compute_mse

    header_a, data_a = _read_trace(args.trace_a)
    header_b, data_b = _read_trace(args.trace_b)
    if header_a != header_b:
        raise ScenarioError("trace schemas differ")
    if data_a.shape != data_b.shape:
        raise ScenarioError(
            f"trace lengths differ: {data_a.shape[0]} rows vs {data_b.shape[0]} rows"
        )
    # Finite values far apart still overflow the squared difference.
    with np.errstate(over="ignore"):
        table = {
            name: compute_mse(data_a[:, i], data_b[:, i]) for i, name in enumerate(header_a)
        }
    for name, mse in table.items():
        if not math.isfinite(mse):
            raise ScenarioError(f"the MSE of column {name!r} overflows")
    _emit(json.dumps(table, indent=2), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise, for ``main`` to map like
    any other unusable option, where argparse would exit 2 with its usage."""

    def error(self, message: str):
        raise ScenarioError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tactilesim",
        description="Deterministic teleoperation-pipeline simulator and latency model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file, emit trace CSVs and a summary")
    p_run.add_argument("scenario", help="path to the scenario YAML file")
    p_run.add_argument(
        "--out-dir",
        help=f"output directory (overrides ${OUTDIR_ENV} and the scenario setting)",
    )
    p_run.set_defaults(func=cmd_run)

    p_lat = sub.add_parser("latency", help="calibrate the latency model and report")
    p_lat.add_argument(
        "--targets",
        help="JSON file mapping module name (FK, IK, KFF, FBF) to target ns; "
        "defaults to the published module timings",
    )
    p_lat.add_argument(
        "--limits",
        type=float,
        nargs="+",
        default=BUDGET_LIMITS,
        help="round-trip latency limits in seconds for the speedup report",
    )
    p_lat.add_argument("--out", help="also write the report JSON to this path")
    p_lat.set_defaults(func=cmd_latency)

    p_mse = sub.add_parser("mse", help="per-column MSE between two trace CSVs")
    p_mse.add_argument("trace_a")
    p_mse.add_argument("trace_b")
    p_mse.add_argument("--out", help="also write the MSE JSON to this path")
    p_mse.set_defaults(func=cmd_mse)
    return parser


def _loaded(*names: str) -> tuple[type, ...]:
    """The classes among ``names`` ("module.Class") whose module is loaded.
    A module never imported raised none of its errors, so ``main`` maps them
    without importing it."""
    return tuple(
        getattr(sys.modules[module], cls)
        for module, _, cls in (name.rpartition(".") for name in names)
        if module in sys.modules
    )


def main(argv: list[str] | None = None) -> int:
    """Run one command; the one place that maps an error to its exit code."""
    # An except clause's classes are looked up only when an error arrives.
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _loaded(
        "tactilesim.kinematics.SampleError", "tactilesim.channel.OutOfOrderSample"
    ) as exc:
        message, code = f"runtime error: {exc}", 2
    except (
        ScenarioError, ImportError, *_loaded("tactilesim.latency_model.CalibrationDegenerate")
    ) as exc:
        message, code = f"error: {exc}", 1
    except MemoryError:
        message, code = "error: out of memory", 1
    # One line, although a YAML parse error spans several.
    print("; ".join(line.strip() for line in message.split("\n")), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
