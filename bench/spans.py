"""In-memory span recorder that traces corrlab from outside the package.

A :class:`Tracer` wraps public corrlab functions at their module boundary:
while a ``with tracer.patched(targets):`` block is open, every corrlab module
attribute bound to a target function is replaced by a timing wrapper, and the
originals are restored on exit.  Nothing under ``src/`` knows it is traced.

Spans are kept in memory and written out once, when the run ends.  Each span
records its name, start, end, the span that caused it (per thread, so calls
made by the claims thread pool nest under their own ``evaluate_claim``), and
a few attributes read from the call's arguments.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence


@dataclass(frozen=True)
class Target:
    """One function to trace.

    ``module``/``attr`` name the defining module and function; ``span`` is
    the span name (defaults to ``<module without corrlab.>.<attr>``);
    ``attrs`` maps the call's arguments to span attributes.  An attribute
    named ``key`` (a kind label or claim id) is appended to the metric name.
    """

    module: str
    attr: str
    span: str = ""
    attrs: Callable[..., dict] | None = None

    @property
    def name(self) -> str:
        return self.span or f"{self.module.removeprefix('corrlab.')}.{self.attr}"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    segment: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def metric(self) -> str:
        key = self.attrs.get("key")
        return f"{self.name}.{key}" if key else self.name


class Tracer:
    """Collects spans from patched corrlab functions, segment by segment."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.segment = ""
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        name = target.name
        attrs_fn = target.attrs

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            segment = self.segment
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = attrs_fn(*args, **kwargs) if attrs_fn else {}
                self.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), segment, attrs)
                )

        return traced

    @contextmanager
    def patched(self, targets: Sequence[Target]) -> Iterator[None]:
        """Route every corrlab binding of each target through a span wrapper."""
        saved = []
        try:
            for target in targets:
                original = getattr(sys.modules[target.module], target.attr)
                wrapper = self._wrap(original, target)
                for mod in list(sys.modules.values()):
                    modname = getattr(mod, "__name__", "")
                    if modname != "corrlab" and not modname.startswith("corrlab."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            yield
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def segments(self) -> list[list[Span]]:
        """Spans grouped by segment: one set-up run or one traced iteration."""
        groups: dict[str, list[Span]] = {}
        for s in self.spans:
            groups.setdefault(s.segment, []).append(s)
        return list(groups.values())

    def write(self, path: Path, workload: str, seed: int, context: dict) -> None:
        """Write the context line, then one JSON span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"context": context}, sort_keys=True) + "\n")
            for s in sorted(self.spans, key=lambda s: s.start):
                row = {
                    "id": s.id,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "thread": s.thread,
                    "segment": s.segment,
                    "workload": workload,
                    "seed": seed,
                    "attrs": s.attrs,
                }
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children run in their parent's thread, one after another, so the part of
    the parent's interval they cover is the sum of their durations.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - covered.get(s.id, 0.0) for s in spans}
