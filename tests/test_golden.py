"""Golden digests: the CLI outputs must stay byte-identical to the SHA-256
digests recorded in perfbench/digests.json, across versions and not only
from rerun to rerun."""

import hashlib
import importlib.util
import itertools
import json
import random
from pathlib import Path

import pytest
import yaml

from tactilesim.cli import main
from tactilesim.latency_model import DEFAULT_TARGETS_NS, calibrate

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_default_scenario_outputs(tmp_path, capsys):
    scenario = ROOT / "scenarios" / "default.yaml"
    assert main(["run", str(scenario), "--out-dir", str(tmp_path)]) == 0
    got = {p.name: sha256(p.read_bytes()) for p in tmp_path.iterdir()}
    assert got == DIGESTS["default"]["*"]["cli"]


def test_published_calibration(tmp_path, capsys):
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps(DEFAULT_TARGETS_NS))
    assert main(["latency", "--targets", str(targets)]) == 0
    out = capsys.readouterr().out
    assert {"latency.json": sha256(out.encode())} == DIGESTS["calibrate"]["*"]["cli"]
    report = json.loads(out)
    assert report["critical_path_ns"] == {"FBF": 21.0, "FK": 47.0, "IK": 218.0, "KFF": 68.0}
    assert report["t_hardware_ns"] == 401.0


def load_workloads():
    """The benchmark's scenario generator, perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_calibration_fits():
    # The published timings and each module left out in turn, hashed as the
    # benchmark's in-process gate hashes them; the leave-one-out fits hold
    # half-nanosecond latencies and a negative zero.
    fits = [calibrate(targets).to_dict() for targets in load_workloads().target_sets()]
    digest = sha256(json.dumps(fits).encode())
    assert digest == DIGESTS["calibrate"]["*"]["inprocess"]["fits"]


def sweep_target_sets(count: int) -> list[dict[str, float]]:
    """``count`` target sets cycling through the 15 non-empty module subsets
    and three kinds of targets in turn: published timings each scaled by a
    factor in [0.05, 20], whole numbers of ns in [1, 300] (where paths tie
    often), and log-uniform values in [1e-3, 1e6] ns."""
    rng = random.Random(25)
    subsets = [
        combo for r in range(1, 5) for combo in itertools.combinations(DEFAULT_TARGETS_NS, r)
    ]
    draws = (
        lambda m: DEFAULT_TARGETS_NS[m] * 20.0 ** rng.uniform(-1.0, 1.0),
        lambda m: float(rng.randint(1, 300)),
        lambda m: 10.0 ** rng.uniform(-3.0, 6.0),
    )
    return [
        {m: draws[i % 3](m) for m in subsets[i % len(subsets)]} for i in range(count)
    ]


def test_calibration_sweep():
    # Pins every fit's bytes beyond the benchmark's five target sets: the
    # LP model, the vertex HiGHS returns and the path re-selection.
    fits = [calibrate(targets).to_dict() for targets in sweep_target_sets(1000)]
    digest = sha256(json.dumps(fits).encode())
    assert digest == "8345959cea0c7cb6c1b4fb7ed8249c76775621332123a546aca5c18ddd5ca1d4"


def run_outputs(scenario: Path, out: Path) -> dict[str, str]:
    assert main(["run", str(scenario), "--out-dir", str(out)]) == 0
    return {p.name: sha256(p.read_bytes()) for p in out.iterdir()}


def test_long_oracle_outputs(tmp_path, capsys):
    # Noise, a random-walk delay, FCS lag and contact, none of which the
    # default scenario has.
    scenario = load_workloads().write_long_oracle(0, tmp_path, samples=500)
    assert run_outputs(scenario, tmp_path / "out") == DIGESTS["long_oracle@500"]["0"]["cli"]


@pytest.mark.parametrize("seed", [3, 11])
def test_full_length_long_oracle_outputs(seed, tmp_path, capsys):
    # 10^4 samples cross 39 block edges of the stage pass, against one at
    # 500 samples.
    scenario = load_workloads().write_long_oracle(seed, tmp_path)
    assert run_outputs(scenario, tmp_path / "out") == DIGESTS["long_oracle"][str(seed)]["cli"]


# The long_oracle scenario of seed 0 at 500 samples, driven by the hybrid
# backend alone and shadowed by it, at both iteration grades: the only pins
# of hybrid bytes under noise, a random-walk delay, FCS lag and contact.
HYBRID_DIGESTS = {
    ("hybrid", 10): {
        "trace_hybrid.csv": "17ba581fbe5790f72880542efcb4ce69d9c087f1f2afe24b0d74c6c70cee982e",
        "trace_summary.json": "1f26149712174b40d08012f05291e51dcc59d8d114e4011a1b9105e3e110ecaa",
    },
    ("hybrid", 16): {
        "trace_hybrid.csv": "2c4181c1496edd78c08fcd811a5e2f9a09daaf45b080bcecf8d3ccdf574a1689",
        "trace_summary.json": "1f26149712174b40d08012f05291e51dcc59d8d114e4011a1b9105e3e110ecaa",
    },
    ("oracle,hybrid", 10): {
        "trace_oracle.csv": "8dce2bcfa7f4b1b4fc8cc4bbe455df47f5c425bf66cd1a91972f82c3183f45c8",
        "trace_hybrid.csv": "2dd5c5a941f24f0cb712f13f3c8517c146b0913a8d9835b0fc2e13bbd4aef3e7",
        "trace_summary.json": "e87333d445ea462fa8f42b2174175d7470a7f49df223b216219aa5e06162463e",
    },
    ("oracle,hybrid", 16): {
        "trace_oracle.csv": "8dce2bcfa7f4b1b4fc8cc4bbe455df47f5c425bf66cd1a91972f82c3183f45c8",
        "trace_hybrid.csv": "6d1e69aea22eaf706125b508fc1eefa16472b1dd44573a4f873036ae0e02bd1b",
        "trace_summary.json": "e4202efc1744f1e03da99996ad271dea9801aacd1b720cc8abb01d592130fd4d",
    },
}


@pytest.mark.parametrize("backends, iterations", list(HYBRID_DIGESTS))
def test_hybrid_long_oracle_outputs(backends, iterations, tmp_path, capsys):
    scenario = load_workloads().long_oracle_scenario(0, 500)
    scenario["backends"] = backends.split(",")
    scenario["cordic"] = {"iterations": iterations}
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(scenario, sort_keys=False))
    assert run_outputs(path, tmp_path / "out") == HYBRID_DIGESTS[backends, iterations]
