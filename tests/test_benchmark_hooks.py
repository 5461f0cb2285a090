"""The benchmark calls and traces public names of src/; each must still exist."""

import ast
import importlib
from pathlib import Path

from gripforecast import model, optim
from gripforecast.dataset import align_handover, apply_norm, extract_samples, fit_norm_stats
from gripforecast.synthgen import generate_dataset

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


def test_train_calls_the_traced_epoch_and_batch_hooks(monkeypatch):
    # The tracer starts an epoch on each optim.batch_indices call and a batch
    # on each model.backward_batch call, so train must make exactly those
    # calls, through the module attributes the tracer replaces.
    raw = [s for r in generate_dataset(1, 2, 3) for s in extract_samples(align_handover(r))]
    norm = fit_norm_stats(raw)
    batches, backward_calls = [], []
    real_batches, real_backward = optim.batch_indices, model.backward_batch

    def counting_batches(*args):
        batches.append(real_batches(*args))
        return batches[-1]

    def counting_backward(*args):
        backward_calls.append(len(batches))
        return real_backward(*args)

    monkeypatch.setattr(optim, "batch_indices", counting_batches)
    monkeypatch.setattr(model, "backward_batch", counting_backward)
    cfg = optim.TrainConfig(epochs=3, batch_size=8, hidden=3)
    optim.train([apply_norm(s, norm) for s in raw], [], cfg, norm)
    assert len(batches) == cfg.epochs
    assert backward_calls == [epoch for epoch, b in enumerate(batches, start=1) for _ in b]
