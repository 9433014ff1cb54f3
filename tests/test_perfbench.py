"""The benchmark's traced run wraps program attributes by name (``SPANS`` in
``perfbench/run.py``); a dropped or renamed attribute would otherwise show
only when the benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_run(monkeypatch):
    # run.py imports its sibling modules by their bare names.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_every_span_name_resolves(monkeypatch):
    spans = load_run(monkeypatch).SPANS
    assert spans
    for owner, attr, name in spans:
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        if cls:
            obj = getattr(obj, cls)
        assert callable(getattr(obj, attr, None)), f"{name}: {owner}.{attr} is missing"
        # The tracer replaces the attribute where it is defined.
        assert attr in vars(obj), f"{name}: {owner}.{attr} is not set on {owner}"
