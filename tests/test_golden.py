"""Golden digests: the CLI outputs must stay byte-identical to the SHA-256
digests recorded in perfbench/digests.json, across versions and not only
from rerun to rerun."""

import hashlib
import importlib.util
import json
from pathlib import Path

from tactilesim.cli import main
from tactilesim.latency_model import DEFAULT_TARGETS_NS

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


def test_long_oracle_outputs(tmp_path, capsys):
    # Noise, a random-walk delay, FCS lag and contact, none of which the
    # default scenario has; the scenario file comes from the benchmark's
    # generator.
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    scenario = workloads.write_long_oracle(0, tmp_path, samples=500)
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out-dir", str(out)]) == 0
    got = {p.name: sha256(p.read_bytes()) for p in out.iterdir()}
    assert got == DIGESTS["long_oracle@500"]["0"]["cli"]
