"""Outside-in spans: the benchmark wraps each layer's public functions.

A span records its name, start, end, parent and run id; spans stay in
memory until the run ends.  A call that returns a generator is timed over
its full consumption: its span opens at the call, closes when the
generator is exhausted or closed, and its *busy* time sums only the
intervals spent inside the generator, so the consumer's own work between
items is not charged to it.  Self time is busy time minus the busy time of
direct children.  Each thread keeps its own parent stack.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: (module, attribute, span name).  Names are looked up where the caller
#: resolves them, so a function imported into ``repro.core.extmce`` is
#: patched there; functions imported at call time are patched on their
#: package.  The parallel driver's overrides are deliberately not listed:
#: tree build and lift inside ``ParallelExtMCE`` run on worker processes
#: that are not traced.
FUNCTIONS = (
    ("repro.core.extmce", "extract_hstar_graph", "core.hstar"),
    ("repro.core.extmce", "extract_lstar_graph", "core.lstar"),
    ("repro.core.extmce", "estimate_tree_size", "core.estimate"),
    ("repro.core.extmce", "build_clique_tree", "core.tree_build"),
    ("repro.core.extmce", "build_clique_tree_from_cliques", "core.tree_build"),
    ("repro.core.extmce", "compute_core_plus_max_cliques", "core.lift"),
    ("repro.reduce", "reduce_graph", "reduce"),
    ("repro.kernel", "maximal_cliques_bitset", "kernel"),
    ("repro.kernel", "subproblem_bitset", "kernel"),
    ("repro.live.store", "build_index", "index.build"),
    ("repro.live.ingest", "insert_edge_deltas", "live.deltas"),
    ("repro.live.ingest", "delete_edge_deltas", "live.deltas"),
)

#: (module, class, method, span name).
METHODS = (
    ("repro.storage.partitions", "HnbPartitionStore", "build", "storage.partition_build"),
    ("repro.storage.diskgraph", "DiskGraph", "rewrite_without", "storage.rewrite"),
    ("repro.live.store", "LiveCliqueStore", "apply_deltas", "live.apply"),
    ("repro.live.store", "LiveCliqueStore", "compact", "live.compact"),
    ("repro.dynamic.maintainer", "HStarMaintainer", "insert_edge", "dynamic.update"),
    ("repro.dynamic.maintainer", "HStarMaintainer", "delete_edge", "dynamic.update"),
)

NAME, START, END, PARENT, BUSY = range(5)


class Tracer:
    """In-memory span recorder with function and method patching."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        record = [name, time.perf_counter(), None, stack[-1] if stack else None, 0.0]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        return index

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        record = self.spans[index]
        stack = self._stack()
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            record[END] = time.perf_counter()
            record[BUSY] = record[END] - record[START]

    def _traced_generator(self, index: int, generator):
        record = self.spans[index]
        stack = self._stack()
        try:
            while True:
                resumed = time.perf_counter()
                stack.append(index)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    record[BUSY] += time.perf_counter() - resumed
                yield item
        finally:
            generator.close()
            record[END] = time.perf_counter()

    def wrap(self, function, name: str, observe=None):
        """``function`` inside a span; ``observe(args, result)`` sees each
        plain (non-generator) result."""
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            record = tracer.spans[index]
            stack = tracer._stack()
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                record[BUSY] = time.perf_counter() - record[START]
            if inspect.isgenerator(result):
                return tracer._traced_generator(index, result)
            record[END] = record[START] + record[BUSY]
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = function
        return traced

    # -- patching -------------------------------------------------------------
    def install(self, observers: dict | None = None) -> None:
        """Patch every listed function and method; ``observers`` maps a
        span name to an ``observe`` callback (see :meth:`wrap`)."""
        observers = observers or {}
        for module_name, attribute, name in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            self._restore.append((module, attribute, original))
            setattr(module, attribute, self.wrap(original, name, observers.get(name)))
        for module_name, class_name, attribute, name in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[attribute]
            self._restore.append((cls, attribute, original))
            if isinstance(original, classmethod):
                setattr(cls, attribute, classmethod(self.wrap(original.__func__, name)))
            else:
                setattr(cls, attribute, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- summaries ------------------------------------------------------------
    def _has_ancestor(self, record: list, name: str) -> bool:
        parent = record[PARENT]
        while parent is not None:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: busy seconds, self seconds, calls, and the busy
        seconds of the spans not nested in a span of the same name."""
        children: dict[int, float] = {}
        for record in self.spans:
            if record[PARENT] is not None:
                children[record[PARENT]] = children.get(record[PARENT], 0.0) + record[BUSY]
        table: dict[str, dict[str, float]] = {}
        for index, record in enumerate(self.spans):
            row = table.setdefault(
                record[NAME], {"busy": 0.0, "self": 0.0, "calls": 0, "outer": 0.0}
            )
            row["busy"] += record[BUSY]
            row["self"] += record[BUSY] - children.get(index, 0.0)
            row["calls"] += 1
            if not self._has_ancestor(record, record[NAME]):
                row["outer"] += record[BUSY]
        return table

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (run id, name, times, parent)."""
        with path.open("w") as out:
            for index, record in enumerate(self.spans):
                out.write(json.dumps({
                    "run": self.run_id, "id": index, "name": record[NAME],
                    "start": record[START], "end": record[END],
                    "parent": record[PARENT], "busy": record[BUSY],
                }) + "\n")
