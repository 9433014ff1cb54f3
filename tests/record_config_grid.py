"""Re-record the configuration grid's output digests in config_grid.json.

    PYTHONPATH=src python3 tests/record_config_grid.py

Run from the root of a source checkout, and only for a change that is meant
to alter the hybrid datapath's outputs; say in that change why the digests
moved.  The grid is the 500-sample seed-0 ``long_oracle`` scenario of the
benchmark (perfbench/workloads.py) at every point of FORMATS x ITERATIONS,
driven dual (oracle driving, hybrid shadowing) and by the hybrid backend
alone.  Every point is run twice; the two runs must agree byte for byte
before anything is written.  tests/test_config_grid.py checks the record.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import yaml

from tactilesim import cli

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).resolve().parent / "config_grid.json"

# Every format holds pi with at most 16 fractional bits, as `CordicConfig`
# requires; the iteration counts span its range of 1..64.
FORMATS = ("s4.1", "s6.3", "s8.5", "s12.9", "s16.13", "s20.16", "s24.16", "s32.16")
ITERATIONS = (1, 2, 4, 6, 10, 16, 24, 32, 64)
BACKENDS = ("oracle,hybrid", "hybrid")
SEED = 0
SAMPLES = 500


def load_workloads():
    """The benchmark's scenario generator, perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def points():
    """(backends, format, iterations) of every grid point, in record order."""
    for backends in BACKENDS:
        for fmt in FORMATS:
            for iterations in ITERATIONS:
                yield backends, fmt, iterations


def grid_outputs(directory: Path) -> dict[tuple[str, str, int], dict[str, str]]:
    """The SHA-256 of each output file of every grid point, run from the CLI
    in ``directory``."""
    base = load_workloads().long_oracle_scenario(SEED, SAMPLES)
    digests = {}
    for n, (backends, fmt, iterations) in enumerate(points()):
        scenario = dict(base, backends=backends.split(","))
        scenario["cordic"] = {"format": fmt, "iterations": iterations}
        path = directory / f"scenario-{n}.yaml"
        path.write_text(yaml.safe_dump(scenario, sort_keys=False))
        out = directory / f"out-{n}"
        # Each run prints the files it wrote.
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(path), "--out-dir", str(out)])
        if code != 0:
            sys.exit(f"{backends} {fmt} x {iterations}: the run failed")
        digests[backends, fmt, iterations] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
        }
    return digests


def as_json(digests: dict[tuple[str, str, int], dict[str, str]]) -> dict:
    """``digests`` nested as backends -> format -> iterations -> file."""
    record: dict = {}
    for (backends, fmt, iterations), files in digests.items():
        record.setdefault(backends, {}).setdefault(fmt, {})[str(iterations)] = files
    return record


def main() -> None:
    runs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory(prefix="config-grid-") as work:
            runs.append(grid_outputs(Path(work)))
    if runs[0] != runs[1]:
        sys.exit("the grid's outputs differ between two runs")
    RECORD.write_text(json.dumps(as_json(runs[0]), indent=1) + "\n")
    print(f"wrote {RECORD}")


if __name__ == "__main__":
    main()
