"""Span recording from outside the program.

The traced run replaces public attributes of the gripforecast modules
(`gripforecast.model.backward_batch`, `gripforecast.optim.adam_step`, ...)
with wrappers that record a span around each call, and puts the originals
back afterwards. Nothing in the package knows it is being traced. Spans are
kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None  # index into Tracer.spans
    request: str | None  # tick index for stream, "epoch.batch" for training
    shape: tuple[int, int] | None  # (T, B) for model spans

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Target:
    """One attribute to wrap: `owner.attr` is recorded as span `name`.

    `shape` maps the call's positional arguments to (T, B); `before` runs
    ahead of each call (used to advance request ids).
    """

    owner: Any
    attr: str
    name: str
    shape: Callable[[tuple], tuple[int, int]] | None = None
    before: Callable[[tuple], None] | None = None


class Tracer:
    enabled = True

    def __init__(self, targets: list[Target], clock: Callable[[], float] = time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.spans: list[Span] = []
        self.request: str | None = None
        self._stack: list[int] = []

    @property
    def current(self) -> Span | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def open(self, name: str, shape: tuple[int, int] | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), None, parent, self.request, shape))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Adds a finished leaf span under whatever span is open now."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, start, end, parent, self.request, None))

    def _wrap(self, target: Target, original: Callable) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            if target.before is not None:
                target.before(args)
            index = self.open(target.name, target.shape(args) if target.shape else None)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wraps every target for the duration of the block."""
        originals = []
        try:
            for target in self.targets:
                original = vars(target.owner)[target.attr]
                originals.append((target, original))
                setattr(target.owner, target.attr, self._wrap(target, original))
            yield
        finally:
            for target, original in reversed(originals):
                setattr(target.owner, target.attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": span.name,
                                     "start": span.start, "end": span.end,
                                     "parent": span.parent, "request": span.request,
                                     "shape": span.shape}) + "\n")


class NullTracer:
    """Stands in for Tracer in the timed run: installs nothing."""

    enabled = False
    request = None

    def installed(self):
        return contextlib.nullcontext()


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, []), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.seconds - covered)
    return out
