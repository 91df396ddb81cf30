"""In-memory span tracing for the traced benchmark run.

Spans are recorded around calls into the program's public functions by
wrapping them from the outside (``Tracer.install``); the program itself
is not changed.  A hook whose target no longer exists is reported as
absent and skipped.  The run is single-threaded, so one stack gives
every span its parent.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []  # name, start, end, parent (index or None)
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def install(self, owner, attr: str, name: str, counter=None) -> None:
        """Wrap ``owner.attr`` in a span called ``name``.  ``counter``,
        if given, is called with the call's arguments and returns
        (count name, n) to add."""
        func = getattr(owner, attr, None)
        if func is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def traced(*args, **kwargs):
            if counter is not None:
                key, n = counter(*args, **kwargs)
                tracer.count(key, n)
            with tracer.span(name):
                return func(*args, **kwargs)

        traced.__wrapped__ = func
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, func))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # --- reading spans back -------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self, name: str) -> list[float]:
        """Span duration minus the time covered by its direct children
        (children never overlap: the run is single-threaded)."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        return [s["end"] - s["start"] - child_time.get(i, 0.0)
                for i, s in enumerate(self.spans) if s["name"] == name]

    def descendants(self, index: int, name: str) -> int:
        """Number of spans called ``name`` below span ``index``."""
        inside = {index}
        n = 0
        for i in range(index + 1, len(self.spans)):
            if self.spans[i]["parent"] in inside:
                inside.add(i)
                n += self.spans[i]["name"] == name
        return n

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "absent": self.absent}, fh)
