"""Every configuration the datapath accepts, pinned: the output digests of
the 500-sample seed-0 ``long_oracle`` run at each (format, iterations)
point of the grid, dual and hybrid-driven, must equal config_grid.json.
The goldens pin hybrid bytes at s16.13 only; this pins the kernels under
every format and iteration count they are rewritten for.  Re-record with
tests/record_config_grid.py."""

import json

import pytest

from record_config_grid import BACKENDS, RECORD, grid_outputs, points


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return grid_outputs(tmp_path_factory.mktemp("config-grid"))


@pytest.mark.parametrize("backends", BACKENDS)
def test_grid_outputs(backends, outputs):
    recorded = json.loads(RECORD.read_text())[backends]
    differing = []
    for run_backends, fmt, iterations in points():
        if run_backends != backends:
            continue
        want = recorded[fmt][str(iterations)]
        got = outputs[backends, fmt, iterations]
        differing += [
            (fmt, iterations, name)
            for name in sorted(want.keys() | got.keys())
            if want.get(name) != got.get(name)
        ]
    assert not differing, (
        f"{len(differing)} output files differ; the first: format {differing[0][0]}, "
        f"{differing[0][1]} iterations, backends {backends}, file {differing[0][2]}"
    )
