"""tactilesim benchmark: host time of the simulator, end to end and per layer.

    python3 perfbench/run.py --workload default --seed 1 --seconds 8 --trace 0

Run it from the root of a source checkout; it imports ``src/tactilesim`` and
runs the CLI from there.  Every number is host time (what simulating costs),
never simulated time.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Workloads (closed loop: one process at a time, no threads):

* ``default``     the shipped validation scenario, oracle driving and hybrid
                  shadowing at 10 CORDIC iterations; CORDIC-bound.
* ``long_oracle`` a seeded 10 000-sample oracle-only run at 1 kHz with noisy,
                  random-walk-delayed channels and FCS lag; no CORDIC at all.
* ``calibrate``   ``tactilesim latency`` and ``calibrate()`` on the published
                  module timings and their leave-one-out subsets; no pipeline.

``--trace 0`` measures the end-to-end metrics, each a median over the run:

* ``setup_s``      a fresh interpreter from start to ``tactilesim.cli``
                   imported, the input parsed and the backends built;
* ``wall_s``       the workload's CLI command in a fresh process;
* ``peak_rss_mb``  peak resident memory of that process alone (``wait4``);
* ``ops_per_s``    warm in-process work per second: loop samples of
                   ``run_pipeline`` (no CSV or summary I/O) on the pipeline
                   workloads, ``calibrate()`` fits on ``calibrate``.

The run makes ROUNDS rounds of one set-up probe, one CLI process and
``seconds / ROUNDS`` of in-process repetitions, so a burst of machine noise
lands on every metric alike instead of on one of them.  An in-process sample
repeats the operation for at least MIN_SAMPLE_S.  Times and rates are
reported at reference speed, which takes out the host's own drift in speed
(see speed.py); the summary lines also print the medians as timed.

``--trace 1`` makes one traced execution of the workload and reports the
per-layer metrics; ``--seconds`` does not apply.  Spans wrap the public
functions the program calls through (see ``SPANS``); ``calls`` are counts per
run and ``self_us`` the mean time per call not covered by child spans.  A
layer the workload does not execute reads 0.  The spans are written to
``.bench_out/spans-<workload>-<seed>.csv``.

Correctness: every output file's SHA-256 must equal the digest recorded in
``digests.json`` for the workload (and seed), or, for a seed with no record,
the digest of the run's first output.  A process that exits nonzero or whose
outputs differ counts as failed, and so does an in-process repetition whose
result differs from the first.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SCENARIO = ROOT / "scenarios" / "default.yaml"
WORK = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"

import speed
import workloads
from tracer import SpanStats, Tracer, sample_durations

WORKLOADS = ("default", "long_oracle", "calibrate")
ROUNDS = 5
MIN_SAMPLE_S = 0.3
IMPORTTIME_REPEATS = 3
REPLAY_REPEATS = 5
OVERHEAD_PAIRS = 3
CHILD_TIMEOUT_S = 60
CLI_MAIN = "import sys; from tactilesim.cli import main; sys.exit(main())"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "ops/s",
}

MODULES = ("FK-HMD", "KFF-HMD", "FK-HSD", "IK-HSD", "FBF-HSD")

# Per-layer metrics of the traced run, by program module, each group with the
# end-to-end metric and workload it should move.
PER_LAYER = {
    # numerics (TFB spans; replayed CORDIC kernels at two iteration grades):
    # ops_per_s on default; zero calls on long_oracle and calibrate.
    "numerics.tfb_sincos.calls": "count",
    "numerics.tfb_sincos.self_us": "us",
    "numerics.tfb_atan2.calls": "count",
    "numerics.tfb_atan2.self_us": "us",
    "numerics.tfb_acos.calls": "count",
    "numerics.tfb_acos.self_us": "us",
    "numerics.tfb_share": "frac",
    "numerics.cordic_sincos.ns_per_op.i10": "ns",
    "numerics.cordic_sincos.ns_per_op.i16": "ns",
    "numerics.cordic_atan2.ns_per_op.i10": "ns",
    "numerics.cordic_atan2.ns_per_op.i16": "ns",
    # kinematics and force, per backend: ops_per_s on default (hybrid) and
    # on both pipeline workloads (oracle).
    "kinematics.fk.oracle.calls": "count",
    "kinematics.fk.oracle.self_us": "us",
    "kinematics.fk.hybrid.calls": "count",
    "kinematics.fk.hybrid.self_us": "us",
    "kinematics.ik.oracle.calls": "count",
    "kinematics.ik.oracle.self_us": "us",
    "kinematics.ik.hybrid.calls": "count",
    "kinematics.ik.hybrid.self_us": "us",
    "force.jacobian.oracle.self_us": "us",
    "force.jacobian.hybrid.self_us": "us",
    "force.kff.oracle.self_us": "us",
    "force.kff.hybrid.self_us": "us",
    "force.fbf.oracle.self_us": "us",
    "force.fbf.hybrid.self_us": "us",
    # channel: ops_per_s on long_oracle; little on default.
    "channel.step.calls": "count",
    "channel.step.self_us": "us",
    # pipeline: loop and scene move ops_per_s on both pipeline workloads, the
    # trace writer wall_s on long_oracle, the summary wall_s on default.
    "pipeline.loop.self_us_per_sample": "us",
    "pipeline.scene.self_us": "us",
    "pipeline.sample_us.p50": "us",
    "pipeline.sample_us.p99": "us",
    "pipeline.write_trace_csv.ms": "ms",
    "pipeline.write_trace_csv.bytes": "bytes",
    "pipeline.summary_report.ms": "ms",
    # latency_model: ops_per_s on calibrate.
    "latency_model.calibrate.ms": "ms",
    "latency_model.linprog.calls": "count",
    "latency_model.linprog.self_ms": "ms",
    "latency_model.critical_path.calls": "count",
    "latency_model.critical_path.self_us": "us",
    "latency_model.builtin_graphs.ms": "ms",
    # cli (import from python -X importtime): setup_s and wall_s on default
    # and calibrate.
    "cli.import_ms": "ms",
    "cli.import.scipy_ms": "ms",
    "cli.load_scenario.ms": "ms",
    # The modelled design's own deterministic numbers: a simulator-only
    # change must not move them.
    "model.t_hardware_ns": "ns",
    **{f"model.mse_max.{m}": "1" for m in MODULES},
    "model.contact_samples": "count",
    # Traced against untraced in-process time.
    "trace.overhead_frac": "frac",
}

# (module[:class], attribute, span name): the public names the program calls
# through.
SPANS = (
    ("tactilesim.pipeline", "forward_kinematics", "kinematics.fk"),
    ("tactilesim.pipeline", "inverse_kinematics", "kinematics.ik"),
    ("tactilesim.pipeline", "feedback_force", "force.fbf"),
    ("tactilesim.pipeline", "kinesthetic_feedback", "force.kff"),
    ("tactilesim.pipeline", "channel_step", "channel.step"),
    ("tactilesim.pipeline:Scene", "object_position", "pipeline.scene"),
    ("tactilesim.kinematics", "tfb_sincos", "numerics.tfb_sincos"),
    ("tactilesim.kinematics", "tfb_atan2", "numerics.tfb_atan2"),
    ("tactilesim.kinematics", "tfb_acos", "numerics.tfb_acos"),
    ("tactilesim.force", "tfb_sincos", "numerics.tfb_sincos"),
    ("tactilesim.force", "jacobian", "force.jacobian"),
    ("tactilesim.cli", "load_scenario", "cli.load_scenario"),
    ("tactilesim.cli", "run_pipeline", "pipeline.loop"),
    ("tactilesim.cli", "write_trace_csv", "pipeline.write_trace_csv"),
    ("tactilesim.cli", "summary_report", "pipeline.summary_report"),
    ("tactilesim.cli", "calibrate", "latency_model.calibrate"),
    ("tactilesim.latency_model", "linprog", "latency_model.linprog"),
    ("tactilesim.latency_model", "critical_path", "latency_model.critical_path"),
    ("tactilesim.latency_model", "builtin_graphs", "latency_model.builtin_graphs"),
)
TFB_SPANS = ("numerics.tfb_sincos", "numerics.tfb_atan2", "numerics.tfb_acos")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Gate:
    """Output-correctness gate for one run.  Output digests of the CLI
    (``"cli"``) and of the first in-process result (``"inprocess"``) must
    equal the record for the workload and seed in digests.json, or, with no
    record, the first digests seen.  Counts attempts and failures."""

    def __init__(self, key: str, seed: int) -> None:
        record = json.loads(DIGESTS.read_text()).get(key, {})
        entry = record.get("*") or record.get(str(seed)) or {}
        self.recorded = bool(entry)
        self.expected = {"cli": entry.get("cli"), "inprocess": entry.get("inprocess")}
        self.attempted = 0
        self.failed = 0

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def check(self, kind: str, digests: dict[str, str], exit_ok: bool = True) -> None:
        if exit_ok and self.expected[kind] is None:
            self.expected[kind] = digests
        self.count(exit_ok and digests == self.expected[kind])


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path) -> tuple[float, int, float]:
    """Run ``argv`` to completion: (wall seconds, exit code, peak RSS in MiB of
    this process alone).  A watchdog kills it after CHILD_TIMEOUT_S."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = stderr.read_bytes()[-2000:].decode(errors="replace")
        print(f"{argv[1:3]} exited {proc.returncode}: {tail}", file=sys.stderr)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Workload:
    """One workload's input, CLI command and warm in-process operation."""

    def __init__(self, name: str, seed: int, work: Path, long_samples: int) -> None:
        self.name = name
        self.seed = seed
        self.work = work
        self.out = work / "out"
        if name == "default":
            self.input = DEFAULT_SCENARIO
        elif name == "long_oracle":
            self.input = workloads.write_long_oracle(seed, work, long_samples)
        else:
            self.input = workloads.write_targets(work)
        sized = name == "long_oracle" and long_samples != workloads.LONG_SAMPLES
        self.gate = Gate(f"{name}@{long_samples}" if sized else name, seed)
        self.command = "latency" if name == "calibrate" else "run"
        self._op_digest: str | None = None

    def cli_args(self) -> list[str]:
        if self.command == "latency":
            return ["latency", "--targets", str(self.input)]
        return ["run", str(self.input), "--out-dir", str(self.out)]

    def output_digests(self, stdout: bytes) -> dict[str, str]:
        if self.command == "latency":
            return {"latency.json": sha256(stdout)}
        return {p.name: sha256(p.read_bytes()) for p in sorted(self.out.iterdir())}

    def run_cli(self) -> tuple[float, float]:
        """One CLI process, gated: (wall seconds, peak RSS MiB)."""
        shutil.rmtree(self.out, ignore_errors=True)
        stdout, stderr = self.work / "stdout", self.work / "stderr"
        wall, code, rss = spawn([sys.executable, "-c", CLI_MAIN, *self.cli_args()], stdout, stderr)
        digests = self.output_digests(stdout.read_bytes()) if code == 0 else {}
        self.gate.check("cli", digests, code == 0)
        return wall, rss

    def reference_process(self) -> float:
        """Wall seconds of the reference process (see speed.py)."""
        wall, code, _ = spawn(
            [sys.executable, speed.__file__], self.work / "reference.out", self.work / "reference.err"
        )
        if code != 0:
            raise RuntimeError("reference process failed")
        return wall

    def probe_setup(self) -> float:
        """Seconds from starting a fresh interpreter to ready (see probe.py)."""
        stdout, stderr = self.work / "probe.out", self.work / "probe.err"
        start = time.monotonic()
        _, code, _ = spawn(
            [sys.executable, str(HERE / "probe.py"), self.command, str(self.input)], stdout, stderr
        )
        self.gate.count(code == 0)
        return float(stdout.read_text()) - start if code == 0 else time.monotonic() - start

    def prepare(self) -> None:
        """Build the in-process operation: one ``run_pipeline`` over the
        scenario, or one ``calibrate()`` per target set."""
        import tactilesim.cli as cli
        from tactilesim import pipeline

        if self.command == "run":
            sc = cli.load_scenario(self.input)
            driver, shadow = sc.backend_objects()
            self.units = sc.trajectory.q

            def op():
                return pipeline.run_pipeline(
                    sc.trajectory, sc.scene, sc.fc, sc.bc, driver,
                    geometry=sc.geometry, shadow=shadow, fcs_pole=sc.fcs_pole,
                )
        else:
            sets = workloads.target_sets()
            self.units = len(sets)

            def op():
                return [cli.calibrate(targets) for targets in sets]

        self.op = op

    def timed_op(self):
        """One gated in-process repetition: (seconds, result)."""
        start = time.perf_counter()
        result = self.op()
        elapsed = time.perf_counter() - start
        self._check_op(result)
        return elapsed, result

    def _check_op(self, result) -> None:
        """Every result must equal the first, and the first one's outputs the
        recorded digests: the fits as JSON, or the traces as written by
        ``write_trace_csv``."""
        if self.command == "run":
            h = hashlib.sha256()
            for backend in result.backends:
                for name, column in result.view(backend).items():
                    h.update(name.encode() + column.tobytes())
            digest = h.hexdigest()
        else:
            digest = sha256(json.dumps([r.to_dict() for r in result]).encode())
        if self._op_digest is not None:
            self.gate.count(digest == self._op_digest)
            return
        self._op_digest = digest
        if self.command == "latency":
            self.gate.check("inprocess", {"fits": digest})
            return
        from tactilesim.pipeline import write_trace_csv

        outputs = {}
        for backend in result.backends:
            path = self.work / f"inprocess_{backend}.csv"
            write_trace_csv(result, path, backend)
            outputs[f"trace_{backend}.csv"] = sha256(path.read_bytes())
        self.gate.check("inprocess", outputs)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(wl: Workload, seconds: float) -> tuple[dict, dict]:
    """Samples of every end-to-end metric at reference speed (see speed.py),
    and as timed."""
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    timed: dict[str, list[float]] = {name: [] for name in END_TO_END}

    def add(name: str, value: float, factor: float = 1.0) -> None:
        timed[name].append(value)
        samples[name].append(value * factor)

    wl.run_cli()  # untimed: compiles bytecode and fills the page cache
    wl.prepare()
    wl.timed_op()  # untimed warm-up: fills the lru caches
    ref_before = wl.reference_process()
    for _ in range(ROUNDS):
        setup = wl.probe_setup()
        wall, rss = wl.run_cli()
        ref_after = wl.reference_process()
        factor = 2.0 * speed.PROCESS_S / (ref_before + ref_after)
        ref_before = ref_after
        add("setup_s", setup, factor)
        add("wall_s", wall, factor)
        add("peak_rss_mb", rss)
        deadline = time.perf_counter() + seconds / ROUNDS
        while True:
            (units, elapsed), factor = speed.bracketed(lambda: timed_batch(wl))
            add("ops_per_s", units / elapsed, 1.0 / factor)
            if time.perf_counter() >= deadline:
                break
    return samples, timed


def timed_batch(wl: Workload) -> tuple[int, float]:
    """In-process repetitions until MIN_SAMPLE_S has passed: (units of work,
    seconds)."""
    units = elapsed = 0
    while elapsed < MIN_SAMPLE_S:
        elapsed += wl.timed_op()[0]
        units += wl.units
    return units, elapsed


def import_times(wl: Workload) -> tuple[float, float]:
    """Median over fresh interpreters of ``python -X importtime`` for
    ``import tactilesim.cli``: (cumulative ms of tactilesim.cli, ms of the
    outermost scipy imports)."""
    cli_ms, scipy_ms = [], []
    for _ in range(IMPORTTIME_REPEATS):
        stderr = wl.work / "importtime.err"
        _, code, _ = spawn(
            [sys.executable, "-X", "importtime", "-c", "import tactilesim.cli"],
            wl.work / "importtime.out", stderr,
        )
        wl.gate.count(code == 0)
        rows = []
        for line in stderr.read_text().splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cumulative, name = line[len("import time:"):].split("|")
                if cumulative.strip().isdigit():
                    depth = (len(name) - len(name.lstrip())) // 2
                    rows.append((depth, int(cumulative), name.strip()))
        # Lines come children first; a line's parent is the next one that is
        # shallower.  Count scipy modules whose parent is not scipy.
        total = 0
        for i, (depth, cumulative, name) in enumerate(rows):
            if name.split(".")[0] != "scipy":
                continue
            parent = next((r[2] for r in rows[i + 1:] if r[0] < depth), "")
            if parent.split(".")[0] != "scipy":
                total += cumulative
        cli_ms.append(next((c for _, c, n in rows if n == "tactilesim.cli"), 0) / 1000.0)
        scipy_ms.append(total / 1000.0)
    return statistics.median(cli_ms), statistics.median(scipy_ms)


def replay_ns(fn, calls: list[tuple], iterations: int) -> float:
    """Median ns per call of ``fn`` over recorded operands, re-run at
    ``iterations`` CORDIC iterations in the recorded number format."""
    from tactilesim.numerics import CordicConfig

    cfg = CordicConfig(iterations=iterations, fmt=calls[0][-1].fmt)
    operands = [args[:-1] for args in calls]
    times = []
    for _ in range(REPLAY_REPEATS):
        start = time.perf_counter()
        for args in operands:
            fn(*args, cfg)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / len(operands) * 1e9


def instrumented() -> Tracer:
    """A tracer with every SPANS name wrapped; restored on exit."""
    import importlib

    tracer = Tracer()
    for owner, attr, name in SPANS:
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        tracer.wrap(getattr(obj, cls) if cls else obj, attr, name)
    return tracer


def traced(wl: Workload) -> dict[str, float]:
    """One traced execution of the workload through the CLI entry point (plus
    one pass of fits on ``calibrate``), in process, and its per-layer
    metrics."""
    import numpy as np
    import tactilesim.cli as cli
    from tactilesim import numerics

    metrics = {name: 0.0 for name in PER_LAYER}
    metrics["cli.import_ms"], metrics["cli.import.scipy_ms"] = import_times(wl)

    wl.prepare()
    _, warm = wl.timed_op()
    # Tracing overhead: untraced and traced repetitions side by side, so that
    # a change in machine speed between them does not read as overhead.
    ratios = []
    for _ in range(OVERHEAD_PAIRS):
        plain = wl.timed_op()[0]
        with instrumented():
            ratios.append(wl.timed_op()[0] / plain)
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0

    shutil.rmtree(wl.out, ignore_errors=True)
    stdout = io.StringIO()
    with instrumented() as tracer:
        tracer.capture(numerics, "cordic_sincos", "cordic_sincos")
        tracer.capture(numerics, "cordic_atan2", "cordic_atan2")
        with contextlib.redirect_stdout(stdout):
            code = cli.main(wl.cli_args())
        if wl.command == "latency":
            wl.timed_op()
    digests = wl.output_digests(stdout.getvalue().encode()) if code == 0 else {}
    wl.gate.check("cli", digests, code == 0)
    tracer.write_csv(WORK / f"spans-{wl.name}-{wl.seed}.csv")
    stats = SpanStats(tracer.spans)

    us, ms = 1e6, 1e3
    for fn in ("tfb_sincos", "tfb_atan2", "tfb_acos"):
        metrics[f"numerics.{fn}.calls"] = stats.count(f"numerics.{fn}")
        metrics[f"numerics.{fn}.self_us"] = stats.mean_self(f"numerics.{fn}") * us
    for kernel in ("cordic_sincos", "cordic_atan2"):
        calls = tracer.captured.get(kernel)
        if calls:
            for i in (10, 16):
                metrics[f"numerics.{kernel}.ns_per_op.i{i}"] = replay_ns(
                    getattr(numerics, kernel), calls, i
                )
    for short, span in (("fk", "kinematics.fk"), ("ik", "kinematics.ik")):
        for b in ("oracle", "hybrid"):
            metrics[f"kinematics.{short}.{b}.calls"] = stats.count(span, b)
            metrics[f"kinematics.{short}.{b}.self_us"] = stats.mean_self(span, b) * us
    for short in ("jacobian", "kff", "fbf"):
        for b in ("oracle", "hybrid"):
            metrics[f"force.{short}.{b}.self_us"] = stats.mean_self(f"force.{short}", b) * us
    metrics["channel.step.calls"] = stats.count("channel.step")
    metrics["channel.step.self_us"] = stats.mean_self("channel.step") * us
    metrics["pipeline.scene.self_us"] = stats.mean_self("pipeline.scene") * us
    metrics["pipeline.write_trace_csv.ms"] = stats.total[("pipeline.write_trace_csv", "*")] * ms
    metrics["pipeline.summary_report.ms"] = stats.total[("pipeline.summary_report", "*")] * ms
    metrics["latency_model.calibrate.ms"] = stats.mean_total("latency_model.calibrate") * ms
    metrics["latency_model.linprog.calls"] = stats.count("latency_model.linprog")
    metrics["latency_model.linprog.self_ms"] = stats.mean_self("latency_model.linprog") * ms
    metrics["latency_model.critical_path.calls"] = stats.count("latency_model.critical_path")
    metrics["latency_model.critical_path.self_us"] = (
        stats.mean_self("latency_model.critical_path") * us
    )
    metrics["latency_model.builtin_graphs.ms"] = stats.mean_total("latency_model.builtin_graphs") * ms
    metrics["cli.load_scenario.ms"] = stats.mean_total("cli.load_scenario") * ms

    if code != 0:
        return metrics
    if wl.command == "run":
        loop_s = stats.total[("pipeline.loop", "*")]
        tfb_self = sum(stats.self_time[(name, "*")] for name in TFB_SPANS)
        metrics["numerics.tfb_share"] = tfb_self / loop_s
        metrics["pipeline.loop.self_us_per_sample"] = (
            stats.self_time[("pipeline.loop", "*")] / wl.units * us
        )
        per_sample = sample_durations(tracer.spans, "pipeline.loop", "kinematics.fk")
        if len(per_sample) == wl.units:
            metrics["pipeline.sample_us.p50"] = statistics.median(per_sample) * us
            metrics["pipeline.sample_us.p99"] = (
                statistics.quantiles(per_sample, n=100, method="inclusive")[98] * us
            )
        metrics["pipeline.write_trace_csv.bytes"] = sum(
            p.stat().st_size for p in wl.out.glob("*.csv")
        )
        summary = json.loads(next(wl.out.glob("*_summary.json")).read_text())
        for row in summary["mse"] or []:
            key = f"model.mse_max.{row['module']}"
            metrics[key] = max(metrics[key], row["mse"])
        sig = warm.signals
        touching = [sig[f"s_obj_{a}"] != sig[f"l_{a}"] for a in "xyz"]
        metrics["model.contact_samples"] = int(np.any(touching, axis=0).sum())
    else:
        metrics["model.t_hardware_ns"] = json.loads(stdout.getvalue())["t_hardware_ns"]
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool,
        long_samples: int = workloads.LONG_SAMPLES) -> dict:
    """One benchmark run; returns the result object printed last."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        wl = Workload(workload, seed, work, long_samples)
        if trace:
            values = traced(wl)
            metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
            for k, m in metrics.items():
                print(f"{workload:12s} {k:40s} {m['value']:.6g} {m['unit']}")
        else:
            samples, timed = measure(wl, seconds)
            metrics = {}
            for k, unit in END_TO_END.items():
                q1, med, q3 = quartiles(samples[k])
                metrics[k] = {"value": med, "unit": unit}
                print(f"{workload:12s} {k:12s} median {med:.6g} {unit}  "
                      f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(samples[k])}  "
                      f"(as timed: median {statistics.median(timed[k]):.6g})")
        gate = wl.gate
        print(f"{workload:12s} runs failed/attempted: {gate.failed}/{gate.attempted}"
              f" (digests {'recorded' if gate.recorded else 'from first run'})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tactilesim" / "cli.py").is_file() or not DEFAULT_SCENARIO.is_file():
        print(f"error: no tactilesim source checkout at {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
