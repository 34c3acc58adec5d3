"""Span tracing applied from outside the SDX package.

The benchmark never edits ``src/``: instead, for a traced run it
replaces selected public methods on the classes of each layer with thin
wrappers that open a span (name, layer, start, end, parent span, run
id) and restores the originals afterwards. Spans are kept in memory and
written out once the run ends.

Methods that fire far too often to keep one record per call (flow-table
lookups, border-router route installs, Adj-RIB-In applies) are *hot*:
they are folded into per-name aggregates — calls, total seconds — and
into their parent span's child time, so self time stays exact without
holding millions of records.

A layer's self time is the sum, over its spans, of each span's duration
minus the durations of its direct children (hot children included).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_clock = time.perf_counter


@dataclass
class Span:
    """One traced call of a wrapped method."""

    span_id: int
    name: str
    layer: str
    start: float
    parent: Optional[int]
    run_id: int
    end: float = 0.0
    tags: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall-clock seconds between entry and return."""
        return self.end - self.start


@dataclass(frozen=True)
class Probe:
    """A method to wrap: ``cls.method`` reported as ``layer``/``name``.

    ``tag``, when given, maps ``(args, result)`` to extra span tags.
    ``size``, on a hot probe, maps ``args`` to the size of the call's
    input; each call then also records ``(size, seconds, parent name)``.
    """

    cls: type
    method: str
    layer: str
    hot: bool = False
    tag: Optional[Callable[[tuple, Any], Dict[str, Any]]] = None
    size: Optional[Callable[[tuple], int]] = None

    @property
    def name(self) -> str:
        """The span name: ``Class.method``."""
        return f"{self.cls.__name__}.{self.method}"


class Tracer:
    """Collects spans from wrapped methods for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.run_id = 0
        self._stack: List[Span] = []
        self._patched: List[Tuple[type, str, Any]] = []
        #: name -> [calls, total seconds] for hot methods.
        self.hot: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        #: parent span id -> layer -> seconds spent in hot children.
        self.hot_child: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        #: hot span name -> its layer.
        self.hot_layers: Dict[str, str] = {}
        #: hot span name -> (input size, seconds, parent span name) per call.
        self.sized: Dict[str, List[Tuple[int, float, Optional[str]]]] = (
            defaultdict(list))

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def install(self, probes: Iterable[Probe]) -> None:
        """Wrap every probe's method until :meth:`uninstall`."""
        for probe in probes:
            original = probe.cls.__dict__[probe.method]
            if probe.hot:
                self.hot_layers[probe.name] = probe.layer
            wrapper = (self._hot_wrapper(probe, original) if probe.hot
                       else self._wrapper(probe, original))
            self._patched.append((probe.cls, probe.method, original))
            setattr(probe.cls, probe.method, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped method."""
        while self._patched:
            cls, method, original = self._patched.pop()
            setattr(cls, method, original)

    @contextlib.contextmanager
    def wrapping(self, probes: Iterable[Probe]):
        """Wrap ``probes`` for the duration of a ``with`` block."""
        self.install(probes)
        try:
            yield self
        finally:
            self.uninstall()

    def _wrapper(self, probe: Probe, original):
        name, layer, tag = probe.name, probe.layer, probe.tag
        stack, spans = self._stack, self.spans

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, layer, 0.0,
                        stack[-1].span_id if stack else None, self.run_id)
            spans.append(span)
            stack.append(span)
            span.start = _clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = _clock()
                stack.pop()
            if tag is not None:
                span.tags.update(tag(args, result))
            return result

        return traced

    def _hot_wrapper(self, probe: Probe, original):
        name, layer, size = probe.name, probe.layer, probe.size
        stack, hot, hot_child = self._stack, self.hot, self.hot_child
        sized = self.sized[name]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            began = _clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = _clock() - began
                entry = hot[name]
                entry[0] += 1
                entry[1] += elapsed
                if stack:
                    hot_child[stack[-1].span_id][layer] += elapsed
                if size is not None:
                    sized.append((size(args), elapsed,
                                  stack[-1].name if stack else None))

        return traced

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def children_by_layer(self) -> Dict[int, Dict[str, float]]:
        """Seconds of direct children per span id, split by layer."""
        children: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for span in self.spans:
            if span.parent is not None:
                children[span.parent][span.layer] += span.duration
        for span_id, by_layer in self.hot_child.items():
            for layer, seconds in by_layer.items():
                children[span_id][layer] += seconds
        return children

    def self_time(self, span: Span,
                  children: Dict[int, Dict[str, float]]) -> float:
        """``span``'s duration minus its direct children's."""
        return span.duration - sum(children[span.span_id].values())

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per layer: traced calls and self seconds."""
        children = self.children_by_layer()
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0})
        for span in self.spans:
            row = table[span.layer]
            row["calls"] += 1
            row["self_s"] += self.self_time(span, children)
        for name, (calls, seconds) in self.hot.items():
            row = table[self.hot_layers[name]]
            row["calls"] += calls
            row["self_s"] += seconds
        return dict(table)

    def write(self, path, workload: str, seed: int) -> None:
        """Write spans, then hot aggregates, as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"workload": workload, "seed": seed,
                                  "spans": len(self.spans)}) + "\n")
            for span in self.spans:
                out.write(json.dumps({
                    "id": span.span_id, "name": span.name,
                    "layer": span.layer, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "run": span.run_id, **({"tags": span.tags}
                                           if span.tags else {})}) + "\n")
            for name, (calls, seconds) in sorted(self.hot.items()):
                out.write(json.dumps({
                    "aggregate": name, "layer": self.hot_layers[name],
                    "calls": calls, "total_s": seconds}) + "\n")
