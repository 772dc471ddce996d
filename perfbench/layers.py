"""Spans around calls into the program's layers, for the traced run.

The program is not changed: ``Tracer.install`` swaps each public entry
point below for a wrapper that records a span (name, query id, start,
end, parent) and restores the originals on ``uninstall``.  A span's
self time is its duration minus the time its child spans cover.
``Matcher.finditer`` is a generator, so its span is the time spent
inside the generator's own steps, not the consumer's loop body.

Spans and counters are kept in memory and summarized per query by the
workloads (``workloads.py``).
"""

from __future__ import annotations

import functools
import os
import time
from typing import Any, Callable, Dict, List, Optional

clock = time.perf_counter


class Span:
    __slots__ = ("name", "query", "start", "end", "child", "parent")

    def __init__(self, name: str, query: Optional[int], start: float,
                 parent: Optional["Span"]):
        self.name = name
        self.query = query
        self.start = start
        self.end = start
        self.child = 0.0
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.query: Optional[int] = None
        self.fired: Dict[str, int] = {}
        #: name -> accumulators filled by wrappers (chars, bytes, ids)
        self.counters: Dict[str, float] = {}
        self.candidates: Dict[int, List[int]] = {}
        self._restore: List[Callable[[], None]] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, self.query, clock(), parent)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child += span.duration
        self.spans.append(span)
        self.fired[span.name] = self.fired.get(span.name, 0) + 1

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    # -- wrappers -----------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, value)
        self._restore.append(lambda: setattr(owner, attr, original))

    def wrap(self, owner: Any, attr: str, name: str,
             after: Optional[Callable[..., None]] = None) -> None:
        """Record a span around every call of ``owner.attr``."""
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        static = isinstance(raw, staticmethod)
        func = raw.__func__ if static else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self._patch(owner, attr, staticmethod(wrapper) if static
                    else wrapper)

    def wrap_generator(self, owner: type, attr: str, name: str) -> None:
        """Span = time inside the generator's steps, closed at its end."""
        func = owner.__dict__[attr]
        tracer = self

        @functools.wraps(func)
        def wrapper(matcher, text, start=0):
            inner = func(matcher, text, start)
            busy = 0.0
            scanned = start
            query = tracer.query
            first = clock()
            try:
                while True:
                    began = clock()
                    try:
                        span = next(inner)
                    except StopIteration:
                        busy += clock() - began
                        scanned = len(text)
                        return
                    busy += clock() - began
                    scanned = span[1]
                    yield span
            finally:
                inner.close()
                record = Span(name, query, first, None)
                record.end = first + busy
                tracer.spans.append(record)
                tracer.fired[name] = tracer.fired.get(name, 0) + 1
                tracer.add("confirm_chars", scanned - start)

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


def install(tracer: Tracer) -> None:
    """Wrap every public layer entry point the workloads reach."""
    from repro.corpus.store import DiskCorpus
    from repro.engine import executor, factory, free
    from repro.index import builder, ingest, serialize
    from repro.index.ingest import IngestCorpus, IngestDirectory, IngestIndex
    from repro.plan.logical import LogicalPlan
    from repro.plan.physical import PhysicalPlan
    from repro.regex.matcher import Matcher

    def keep_candidates(result, *args, **kwargs):
        if result is not None and tracer.query is not None:
            tracer.candidates.setdefault(tracer.query, []).extend(result)

    def count_image(result, index, path, *args, **kwargs):
        tracer.add("image_bytes", os.path.getsize(path))

    tracer.wrap(LogicalPlan, "from_pattern", "plan.logical")
    tracer.wrap(PhysicalPlan, "compile", "plan.physical")
    tracer.wrap(Matcher, "__init__", "regex.matcher.compile")
    tracer.wrap(Matcher, "prefilter_rejects", "regex.matcher.prefilter")
    tracer.wrap_generator(Matcher, "finditer", "regex.matcher.finditer")
    # execute_plan is bound by name in the engine module too.
    tracer.wrap(free, "execute_plan", "engine.executor.execute_plan",
                after=keep_candidates)
    tracer.wrap(executor, "execute_plan", "engine.executor.execute_plan")
    tracer.wrap(DiskCorpus, "get", "corpus.store.get")
    tracer.wrap(IngestCorpus, "get", "corpus.store.get")
    tracer.wrap(IngestIndex, "candidates", "index.ingest.candidates",
                after=keep_candidates)
    # build_multigram_index calls MultigramIndexBuilder.build.
    tracer.wrap(builder.MultigramIndexBuilder, "build",
                "index.builder.build",
                after=lambda index, builder_, corpus, *a, **k: tracer.add(
                    "build_chars", corpus.total_chars))
    tracer.wrap(serialize, "save_index", "index.serialize.save")
    tracer.wrap(ingest, "save_index", "index.serialize.save",
                after=count_image)
    # load_any_index calls serialize.load_index; wrap the outer call.
    tracer.wrap(factory, "load_any_index", "index.serialize.open")
    tracer.wrap(ingest, "load_index", "index.serialize.open")
    tracer.wrap(IngestDirectory, "add", "index.ingest.add")
    tracer.wrap(IngestDirectory, "seal", "index.ingest.seal")
    tracer.wrap(IngestDirectory, "maybe_compact", "index.ingest.compact",
                after=lambda merges, *a, **k: tracer.add("merges", merges))
