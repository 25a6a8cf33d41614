"""Span recorder that wraps handgeo's public functions from outside the package.

A span is (name, start, end, parent, op, attrs): `perf_counter` seconds, the
index of the enclosing span (-1 at the top), the operation id it belongs to
(-1 for set-up) and a small dict of counts read from the call's arguments or
result. Spans stay in memory until `write` dumps them once, as JSON lines.

`Tracer.installed()` replaces every attribute of every loaded ``handgeo.*``
module that refers to a traced function -- the name each module looks up at
call time -- with one wrapper per function, and puts the originals back on
exit, also when the traced code raises.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator

#: Per-function hook: (args, kwargs, result or None, exception or None) -> attrs.
Observer = Callable[[tuple, dict, object, BaseException | None], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, targets: dict[Callable, tuple[str, Observer | None]]):
        """`targets` maps each original function to (span name, observer)."""
        self.targets = targets
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record.attrs
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, name: str, observe: Observer | None) -> Callable:
        # wraps() keeps the signature visible, which the observers bind against.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    attrs["error"] = type(exc).__name__
                    if observe:
                        attrs.update(observe(args, kwargs, None, exc))
                    raise
                if observe:
                    attrs.update(observe(args, kwargs, result, None))
                return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        wrappers = {fn: self._wrap(fn, name, obs) for fn, (name, obs) in self.targets.items()}
        patched: list[tuple[object, str, Callable]] = []
        try:
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "handgeo" and not mod_name.startswith("handgeo."):
                    continue
                for attr, value in list(vars(module).items()):
                    if isinstance(value, types.FunctionType) and value in wrappers:
                        patched.append((module, attr, value))
                        setattr(module, attr, wrappers[value])
            yield
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
