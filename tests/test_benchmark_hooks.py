"""The benchmark calls and traces public names of src/; each must still exist."""

import ast
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


def test_every_module_attribute_the_benchmark_reads_exists():
    # The timed runs also read names such as dataset.SamplingPolicy, cli.EXIT_OK
    # and optim.LossHistory. perfbench/ is read here, never imported or edited.
    modules = {"cli", "dataset", "model", "numerics", "optim", "synthgen"}
    read = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                read.add((node.value.id, node.attr))
    assert ("cli", "build_parser") in read and ("optim", "LossHistory") in read
    missing = [f"{mod}.{attr}" for mod, attr in sorted(read)
               if not hasattr(importlib.import_module(f"gripforecast.{mod}"), attr)]
    assert missing == []
