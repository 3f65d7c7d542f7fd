"""In-memory spans around the module bindings each jpac layer calls.

The tracer replaces module attributes (for example ``admission.restrict``)
with wrappers that record a span per call: name, start, end, the enclosing
span and the instance being solved, plus a few counts read off the returned
value.  Nothing inside the program is instrumented; a call that reaches a
layer without going through one of these bindings is invisible, which the
completeness checks in ``run.py`` turn into a failure.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    """Span recorder; spans stay in memory until ``write`` is called."""

    def __init__(self):
        self.spans: list[dict] = []
        self.instance: int | None = None
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        """Wrapper recording one span per call of fn; attrs(result) adds fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "instance": self.instance,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, bindings):
        """Patch (module, attribute, span name, attrs) bindings; restore on exit."""
        originals = []
        try:
            for module, attribute, name, attrs in bindings:
                fn = getattr(module, attribute)
                originals.append((module, attribute, fn))
                setattr(module, attribute, self.wrap(name, fn, attrs))
            yield self
        finally:
            for module, attribute, fn in reversed(originals):
                setattr(module, attribute, fn)

    def named(self, name, spans=None):
        return [s for s in (self.spans if spans is None else spans) if s["name"] == name]

    def children(self):
        """Map span id -> list of direct child spans."""
        kids = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                kids[span["parent"]].append(span)
        return kids

    def descendants(self, span, kids=None):
        kids = self.children() if kids is None else kids
        out, todo = [], list(kids[span["id"]])
        while todo:
            child = todo.pop()
            out.append(child)
            todo.extend(kids[child["id"]])
        return out

    def self_time(self, span, kids=None):
        """Duration minus the time covered by direct children (calls nest, never overlap)."""
        kids = self.children() if kids is None else kids
        covered = sum(c["end"] - c["start"] for c in kids[span["id"]])
        return (span["end"] - span["start"]) - covered

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def duration(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans)
