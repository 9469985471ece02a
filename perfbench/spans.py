"""In-memory span tracing installed from outside the engine.

Spans are recorded by wrapping public functions at the layer boundaries
under the names their callers look up (``repro.core.gqbe.neighborhood_graph``,
``repro.lattice.exploration.extend_with_edge``, ...), never by editing the
engine.  Each span records its name, thread, start, end and parent; the
spans of one request share the id of the outermost span on their thread.
A layer's self time is its span's duration minus the time its child spans
cover.  Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time

_clock = time.perf_counter


class Tracer:
    """Collects spans and per-layer counters for one process."""

    def __init__(self) -> None:
        # (span_id, parent_id, request_id, name, thread, start, end)
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        #: Batch join-memo arenas created while traced (their hit counters
        #: are read when the run ends).
        self.arenas: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def reset(self) -> None:
        """Drop what was recorded so far (set-up and warm-up)."""
        self.spans.clear()
        self.counts.clear()
        self.arenas.clear()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, name: str) -> list:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        # [id, parent, request, name, start]
        frame = [
            span_id,
            parent[0] if parent else None,
            parent[2] if parent else span_id,
            name,
            _clock(),
        ]
        stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = _clock()
        self._stack().pop()
        span_id, parent, request, name, start = frame
        span = (span_id, parent, request, name, threading.get_ident(), start, end)
        with self._lock:
            self.spans.append(span)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a version that records a span.

        ``on_result(tracer, result)`` may add counters from the return
        value.  Coroutine functions get an ``async`` wrapper.
        """
        original = getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                frame = tracer._open(name)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer._close(frame)
                if on_result is not None:
                    on_result(tracer, result)
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                frame = tracer._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(frame)
                if on_result is not None:
                    on_result(tracer, result)
                return result

        setattr(owner, attr, wrapper)

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child_time: dict[int, float] = {}
        for span_id, parent, _req, _name, _thread, start, end in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, dict] = {}
        for span_id, _parent, _req, name, _thread, start, end in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = end - start
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time.get(span_id, 0.0)
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line (the raw trace)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


def install_engine_wrappers(tracer: Tracer) -> None:
    """Wrap the query pipeline's layer boundaries (graph, discovery,
    lattice, storage joins and the batch join memo)."""
    import repro.core.gqbe as gqbe
    import repro.lattice.exploration as exploration

    tracer.wrap(
        gqbe,
        "neighborhood_graph",
        "graph.neighborhood",
        lambda t, r: t.count("graph.neighborhood_edges", r.graph.num_edges),
    )
    tracer.wrap(
        gqbe,
        "discover_maximal_query_graph",
        "discovery.mqg",
        lambda t, r: t.count("discovery.mqg_edges", r.num_edges),
    )
    tracer.wrap(gqbe, "merge_maximal_query_graphs", "discovery.merge")

    def note_exploration(t: Tracer, result) -> None:
        stats = result.statistics
        t.count("lattice.explorations")
        t.count("lattice.nodes_evaluated", stats.nodes_evaluated)
        t.count("lattice.null_nodes", stats.null_nodes)

    tracer.wrap(exploration.BestFirstExplorer, "run", "lattice.explore", note_exploration)
    tracer.wrap(exploration.AnswerAccumulator, "record", "lattice.record")

    def note_join(t: Tracer, relation) -> None:
        t.count("storage.join_calls")
        if relation is not None:
            t.count("storage.join_rows", relation.num_rows)

    tracer.wrap(exploration, "extend_with_edge", "storage.join", note_join)
    tracer.wrap(exploration, "evaluate_query_edges", "storage.join", note_join)

    # The batch arena is created inside ``query_batch``; keep every one so
    # its hit counters can be read after the run.
    arena_class = gqbe.JoinMemoArena

    def make_arena(*args, **kwargs):
        arena = arena_class(*args, **kwargs)
        tracer.arenas.append(arena)
        return arena

    gqbe.JoinMemoArena = make_arena


def memo_hits(tracer: Tracer) -> int:
    """Total hits over every batch join-memo arena created while traced."""
    total = 0
    for arena in tracer.arenas:
        stats = arena.stats()
        total += sum(value for key, value in stats.items() if key.endswith("_hits"))
    return total
