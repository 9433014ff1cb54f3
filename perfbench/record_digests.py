"""Re-record the golden output digests in digests.json.

    python3 perfbench/record_digests.py

Run from the root of a source checkout, and only for a change that is meant
to alter the program's outputs; say in that change why the digests moved.
Each workload is run twice (CLI and in-process); the two must agree byte for
byte before anything is written.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

# long_oracle is the only seeded workload; these seeds get golden digests,
# others are held to agreement within a run.  The selfcheck runs seed 0 at
# SELFCHECK_SAMPLES samples.
RECORDED_SEEDS = range(16)
SELFCHECK_SAMPLES = 500


def record(name: str, seed: int, samples: int) -> dict:
    """Output digests of one CLI run and one in-process run, twice over."""
    runs = []
    for _ in range(2):
        work = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=run.WORK))
        try:
            wl = run.Workload(name, seed, work, samples)
            wl.gate.expected = {"cli": None, "inprocess": None}
            wl.run_cli()
            wl.prepare()
            wl.timed_op()
            if wl.gate.failed:
                sys.exit(f"{name} seed {seed}: the CLI failed")
            runs.append(wl.gate.expected)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    if runs[0] != runs[1]:
        sys.exit(f"{name} seed {seed}: outputs differ between two runs")
    return runs[0]


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    full = workloads.LONG_SAMPLES
    digests = {
        "default": {"*": record("default", 0, full)},
        "calibrate": {"*": record("calibrate", 0, full)},
        "long_oracle": {str(s): record("long_oracle", s, full) for s in RECORDED_SEEDS},
        f"long_oracle@{SELFCHECK_SAMPLES}": {"0": record("long_oracle", 0, SELFCHECK_SAMPLES)},
    }
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.DIGESTS}")


if __name__ == "__main__":
    main()
