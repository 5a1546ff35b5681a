"""Spans recorded from the benchmark's side of each call into gasprover.

The tracer keeps its spans in memory. Hooks replace a module attribute or a
class method that the package looks up by name at call time with a wrapper
that opens a span around the original; ``installed`` puts the originals back
when the traced pass ends, so untraced passes run the package as it is.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    case: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.case: int | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(name, self.clock(), parent, self.case)
        self._open.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._open.pop()

    def innermost(self) -> str | None:
        return self.spans[self._open[-1]].name if self._open else None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children never overlap each other.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass(frozen=True)
class Hook:
    """Wrap ``module:Attr.path`` in spans named ``layer``.

    ``note(span, args, result)`` may record counts of the call on the span.
    """

    layer: str
    target: str
    note: Callable | None = None


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _wrap(tracer: Tracer, hook: Hook, fn):
    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        # A layer calling into itself stays inside its outermost span.
        if tracer.innermost() == hook.layer:
            return fn(*args, **kwargs)
        with tracer.span(hook.layer) as span:
            result = fn(*args, **kwargs)
            if hook.note is not None:
                hook.note(span, args, result)
        return result

    return hooked


@contextlib.contextmanager
def installed(tracer: Tracer, hooks: list[Hook]):
    """Install every hook whose target exists; yield the layers hooked.

    A missing target is reported on stderr and skipped, so a renamed or
    deleted function only takes its layer's metrics out of the report.
    """
    undo = []
    layers = set()
    try:
        for hook in hooks:
            try:
                owner, attr, fn = _resolve(hook.target)
            except (ImportError, AttributeError):
                print(f"warning: hook target {hook.target} not found; "
                      f"{hook.layer} is traced without it", file=sys.stderr)
                continue
            setattr(owner, attr, _wrap(tracer, hook, fn))
            undo.append((owner, attr, fn))
            layers.add(hook.layer)
        yield layers
    finally:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)
