"""The benchmark's traced run wraps program attributes by name (``SPANS`` in
``perfbench/run.py``); a dropped or renamed attribute would otherwise show
only when the benchmark runs."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_run(monkeypatch):
    # run.py imports its sibling modules by their bare names.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def resolve(owner: str):
    """The module, or the class in it, that ``owner`` names."""
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def test_every_span_name_resolves(monkeypatch):
    spans = load_run(monkeypatch).SPANS
    assert spans
    for owner, attr, name in spans:
        obj = resolve(owner)
        assert callable(getattr(obj, attr, None)), f"{name}: {owner}.{attr} is missing"
        # The tracer replaces the attribute where it is defined.
        assert attr in vars(obj), f"{name}: {owner}.{attr} is not set on {owner}"


def test_labelled_spans_take_a_backend(monkeypatch):
    # The traced run labels a span by the class of the call's ``backend``
    # argument, found by its name in the signature; without it every
    # ``<span>.oracle.*`` and ``<span>.hybrid.*`` metric reads 0.
    spans = load_run(monkeypatch).SPANS
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    labelled = [
        (owner, attr, name)
        for owner, attr, name in spans
        if any(m.startswith((f"{name}.oracle.", f"{name}.hybrid.")) for m in metrics)
    ]
    assert {name for _, _, name in labelled} == {
        "kinematics.fk", "kinematics.ik", "force.fbf", "force.kff", "force.jacobian"
    }
    for owner, attr, name in labelled:
        params = inspect.signature(getattr(resolve(owner), attr)).parameters
        assert "backend" in params, f"{name}: {owner}.{attr} takes no backend"
