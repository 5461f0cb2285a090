"""The benchmark traces public functions by name; each name must still exist."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tracer_target_is_callable(monkeypatch):
    # A function deleted or renamed in src/ would otherwise break only the
    # benchmark's traced run, which no test runs.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    targets = workloads.make_tracer().targets
    assert targets
    for target in targets:
        assert callable(getattr(target.owner, target.attr, None)), target.name
