"""Set-up probe, run in a fresh interpreter by the benchmark.

    python3 perfbench/probe.py run <scenario.yaml>
    python3 perfbench/probe.py latency <targets.json>

Imports ``tactilesim.cli``, parses the workload input and builds what the
first sample or fit needs, then prints ``time.monotonic()``.  The benchmark
subtracts the monotonic time it read just before starting this process.
"""

import json
import sys
import time


def main() -> None:
    command, path = sys.argv[1], sys.argv[2]
    import tactilesim.cli as cli

    if command == "run":
        cli.load_scenario(path).backend_objects()
    else:
        from tactilesim.latency_model import builtin_graphs

        with open(path) as fh:
            json.load(fh)
        builtin_graphs()
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()
