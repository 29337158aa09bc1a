"""External-memory conversion of raw edge lists into DiskGraph files.

The paper assumes ``G`` already sits on disk as adjacency lists sorted by
vertex id.  Real datasets arrive as unordered edge lists that may exceed
memory themselves, so this module provides the classic external-memory
build: edges are normalised into directed ``(vertex, neighbor)`` pairs,
sorted in memory-bounded runs spilled to disk, k-way merged, deduplicated,
and grouped into adjacency records — all with bounded memory and
sequential I/O, metered through the same accounting as everything else.
"""

from __future__ import annotations

import heapq
import itertools
import struct
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.errors import StorageError
from repro.storage.diskgraph import DiskGraph
from repro.storage.iostats import IOStats
from repro.storage.memory import MemoryModel
from repro.storage.pagestore import PageStore

_PAIR = struct.Struct("<QQ")

#: Default cap on in-memory directed pairs per sort run (2 units each).
DEFAULT_RUN_PAIRS = 1 << 18


def edge_list_to_disk_graph(
    edges: Iterable[tuple[int, int]],
    path: str | Path,
    workdir: str | Path,
    run_pairs: int = DEFAULT_RUN_PAIRS,
    io_stats: IOStats | None = None,
    memory: MemoryModel | None = None,
    isolated_vertices: Iterable[int] = (),
) -> DiskGraph:
    """Build a sorted-adjacency DiskGraph from an unordered edge iterable.

    Parameters
    ----------
    edges:
        ``(u, v)`` pairs; duplicates and both orientations are tolerated,
        self-loops are rejected (a clique never contains one).
    path:
        Destination DiskGraph file.
    workdir:
        Directory for the temporary sort runs (removed on success).
    run_pairs:
        Maximum directed pairs held in memory per sort run — the external
        sort's memory bound.  Each undirected edge contributes two pairs.
    isolated_vertices:
        Vertices to register even when no edge mentions them (edge lists
        cannot express isolated vertices, but the paper's singleton rule
        needs them, Section 4.3).
    io_stats:
        Shared I/O counters; runs and the output are metered against it.
    memory:
        Memory model charged with the in-memory run buffer.
    """
    if run_pairs < 2:
        raise StorageError(f"run_pairs must be at least 2, got {run_pairs}")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    stats = io_stats if io_stats is not None else IOStats()

    runs = _spill_sorted_runs(edges, workdir, run_pairs, stats, memory)
    try:
        merged = _merge_runs(runs)
        records = _group_records(merged, sorted(set(isolated_vertices)))
        return DiskGraph.from_records(path, records, io_stats=stats)
    finally:
        for run in runs:
            run.delete()


def _spill_sorted_runs(
    edges: Iterable[tuple[int, int]],
    workdir: Path,
    run_pairs: int,
    stats: IOStats,
    memory: MemoryModel | None,
) -> list[PageStore]:
    """Phase 1: sort directed pairs in bounded chunks, spill each run."""
    runs: list[PageStore] = []
    buffer: list[tuple[int, int]] = []
    if memory is not None:
        memory.allocate(2 * run_pairs, label="external sort run buffer")

    def flush() -> None:
        if not buffer:
            return
        buffer.sort()
        run = PageStore(workdir / f"sort_run_{len(runs):05d}.bin", stats)
        run.write_all(
            struct.pack(f"<{2 * len(buffer)}Q", *itertools.chain.from_iterable(buffer))
        )
        runs.append(run)
        buffer.clear()

    try:
        for u, v in edges:
            if u == v:
                raise StorageError(f"self-loop on vertex {u} is not allowed")
            if u < 0 or v < 0:
                raise StorageError(f"vertex ids must be non-negative: ({u}, {v})")
            buffer.append((u, v))
            buffer.append((v, u))
            if len(buffer) >= run_pairs:
                flush()
        flush()
    finally:
        if memory is not None:
            memory.release(2 * run_pairs, label="external sort run buffer")
    return runs


def _scan_pairs(run: PageStore) -> Iterator[tuple[int, int]]:
    """Stream one run's sorted pairs.

    Each chunk's whole-pair prefix is decoded by one ``iter_unpack``; a
    pair split across chunks is carried into the next one.
    """
    pending = b""
    for chunk in run.scan_chunks():
        data = pending + chunk if pending else chunk
        usable = len(data) - (len(data) % _PAIR.size)
        yield from _PAIR.iter_unpack(memoryview(data)[:usable])
        pending = data[usable:]
    if pending:
        raise StorageError(f"run file {run.path} has a truncated pair record")


def _merge_runs(runs: list[PageStore]) -> Iterator[tuple[int, int]]:
    """Phase 2: k-way merge of the sorted runs, dropping duplicates."""
    merged = heapq.merge(*(_scan_pairs(run) for run in runs))
    previous: tuple[int, int] | None = None
    for pair in merged:
        if pair != previous:
            yield pair
            previous = pair


def _group_records(
    pairs: Iterator[tuple[int, int]],
    isolated: list[int] | None = None,
) -> Iterator[tuple[int, list[int], int]]:
    """Phase 3: fold sorted unique pairs into per-vertex records,
    weaving in zero-degree records for the (sorted) isolated vertices."""
    pending_isolated = list(isolated) if isolated else []
    position = 0
    current_vertex: int | None = None
    neighbors: list[int] = []

    def drain_isolated_below(bound: int | None):
        nonlocal position
        while position < len(pending_isolated) and (
            bound is None or pending_isolated[position] < bound
        ):
            yield pending_isolated[position], [], 0
            position += 1

    for vertex, neighbor in pairs:
        if vertex != current_vertex:
            if current_vertex is not None:
                yield current_vertex, neighbors, len(neighbors)
            yield from drain_isolated_below(vertex)
            # The vertex may also appear in the isolated list; skip it.
            if position < len(pending_isolated) and pending_isolated[position] == vertex:
                position += 1
            current_vertex = vertex
            neighbors = []
        neighbors.append(neighbor)
    if current_vertex is not None:
        yield current_vertex, neighbors, len(neighbors)
    yield from drain_isolated_below(None)


def edge_list_file_to_disk_graph(
    edge_list_path: str | Path,
    path: str | Path,
    workdir: str | Path,
    run_pairs: int = DEFAULT_RUN_PAIRS,
    io_stats: IOStats | None = None,
    memory: MemoryModel | None = None,
) -> DiskGraph:
    """Convert a ``u v`` text edge list file (see
    :mod:`repro.storage.edgelist`) into a DiskGraph with bounded memory."""
    from repro.storage.edgelist import read_edge_list

    return edge_list_to_disk_graph(
        read_edge_list(edge_list_path),
        path,
        workdir,
        run_pairs=run_pairs,
        io_stats=io_stats,
        memory=memory,
    )
