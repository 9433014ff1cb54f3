"""Self-check of the benchmark at a small size: output schema, golden digests
and exact call counts, never timings.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  Runs every workload once untraced
and once traced (``long_oracle`` shortened to SELFCHECK_SAMPLES samples) and
exits nonzero naming each check that failed.
"""

from __future__ import annotations

import json
import sys

import run
from record_digests import SELFCHECK_SAMPLES

DEFAULT_SAMPLES = 1200

# Seed-commit digests (SHA-256 prefixes) of the default scenario's outputs and
# of `tactilesim latency` on the published timings.
GOLDEN_PREFIXES = {
    ("default", "trace_oracle.csv"): "cb05aa41",
    ("default", "trace_hybrid.csv"): "736fbcf0",
    ("default", "trace_summary.json"): "ca3b6d37",
    ("calibrate", "latency.json"): "200dd929",
}

# Exact per-run call counts of the traced run.
EXPECTED_COUNTS = {
    "default": {
        "numerics.tfb_sincos.calls": 9 * DEFAULT_SAMPLES,
        "numerics.tfb_atan2.calls": 2 * DEFAULT_SAMPLES,
        "numerics.tfb_acos.calls": 2 * DEFAULT_SAMPLES,
        "kinematics.fk.oracle.calls": 2 * DEFAULT_SAMPLES,
        "kinematics.fk.hybrid.calls": 2 * DEFAULT_SAMPLES,
        "kinematics.ik.oracle.calls": DEFAULT_SAMPLES,
        "kinematics.ik.hybrid.calls": DEFAULT_SAMPLES,
        "channel.step.calls": 2 * DEFAULT_SAMPLES,
        "latency_model.linprog.calls": 0,
    },
    "long_oracle": {
        "numerics.tfb_sincos.calls": 0,
        "numerics.tfb_atan2.calls": 0,
        "numerics.tfb_acos.calls": 0,
        "kinematics.fk.oracle.calls": 2 * SELFCHECK_SAMPLES,
        "kinematics.fk.hybrid.calls": 0,
        "kinematics.ik.oracle.calls": SELFCHECK_SAMPLES,
        "kinematics.ik.hybrid.calls": 0,
        "channel.step.calls": 2 * SELFCHECK_SAMPLES,
        "latency_model.linprog.calls": 0,
    },
    "calibrate": {
        "numerics.tfb_sincos.calls": 0,
        "kinematics.fk.oracle.calls": 0,
        "channel.step.calls": 0,
        # The published calibration: FK 47, IK 218, KFF 68, FBF 21 ns.
        "model.t_hardware_ns": 401.0,
    },
}


def main() -> int:
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    sys.path.insert(0, str(run.SRC))
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for section, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in bench[section]}
        check(listed == declared, f"BENCHMARK.json {section} differs from run.py")
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads differ from run.py")

    digests = json.loads(run.DIGESTS.read_text())
    for (workload, name), prefix in GOLDEN_PREFIXES.items():
        check(digests[workload]["*"]["cli"][name].startswith(prefix),
              f"{workload} {name} digest is not the seed-commit digest")
    check("0" in digests.get(f"long_oracle@{SELFCHECK_SAMPLES}", {}),
          "no recorded digests for the selfcheck's long_oracle run")

    for workload in run.WORKLOADS:
        for trace, declared in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            result = run.run(workload, 0, 1, trace, long_samples=SELFCHECK_SAMPLES)
            tag = f"{workload} trace={int(trace)}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: keys")
            check(result["correct"] is True and result["failed"] == 0, f"{tag}: not correct")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                  f"{tag}: attempted")
            metrics = result["metrics"]
            check({k: m["unit"] for k, m in metrics.items()} == declared, f"{tag}: metric names")
            check(all(isinstance(m["value"], (int, float)) for m in metrics.values()),
                  f"{tag}: metric values")
            if not trace:
                check(all(m["value"] > 0 for m in metrics.values()), f"{tag}: zero metric")
                continue
            for name, expected in EXPECTED_COUNTS[workload].items():
                got = metrics[name]["value"]
                check(got == expected, f"{tag}: {name} is {got}, expected {expected}")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
