"""Disk-resident adjacency-list graph with sequential-scan access.

This is the ``G`` that ExtMCE reads: records sorted by vertex id, one per
vertex, streamed start-to-end.  The paper's algorithm touches it in exactly
three ways, all provided here:

* a full sequential scan (Algorithm 1's single pass, Section 4.2.3's
  partition-building pass);
* a rewrite dropping a vertex set and its incident edges (Algorithm 3,
  Line 15: "Remove ``G_H*`` (or ``G_L*``) from ``G``");
* targeted adjacency loads for a known vertex subset, implemented as one
  sequential pass rather than per-vertex seeks, which is the
  external-memory discipline the paper insists on.

Integrity: new files are written in format v2 (``HSTARGR2``), which adds
a CRC32 to every record; a flipped bit on disk is reported as a typed
:class:`~repro.errors.CorruptDataError` at scan time instead of flowing
into the clique stream as a wrong neighbor list.  v1 files open and scan
unchanged.  ``verify_checksums=False`` skips the check (for metered runs
where the CRC cost would distort timings); residual rewrites inherit the
source graph's verify setting and fault plan.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import CorruptDataError, StorageError, StorageFormatError
from repro.graph.adjacency import AdjacencyGraph
from repro.storage.format import (
    FILE_MAGIC,
    FILE_MAGIC_V2,
    NEIGHBOR_STRUCTS,
    RECORD_HEADER,
    VertexRecord,
    checksum_mismatch,
    count_checksum_failure,
    count_verified,
    decode_record,
    encode_record,
    record_size,
)
from repro.storage.iostats import IOStats
from repro.storage.pagestore import PageStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan

_COUNTS = struct.Struct("<QQ")
_CRC = struct.Struct("<I")


def _pack_counts(num_vertices: int, num_edges: int, checksum: bool) -> bytes:
    """The header's count block, with a trailing CRC32 in format v2."""
    counts = _COUNTS.pack(num_vertices, num_edges)
    if not checksum:
        return counts
    return counts + _CRC.pack(zlib.crc32(counts))
_HEADER_BYTES_V1 = len(FILE_MAGIC) + _COUNTS.size
#: The v2 header appends a CRC32 over the vertex/edge counts, so a
#: corrupted header block fails typed instead of yielding a wrong size.
_HEADER_BYTES_V2 = _HEADER_BYTES_V1 + _CRC.size


class DiskGraph:
    """An undirected graph stored on disk as sorted adjacency records."""

    def __init__(
        self,
        store: PageStore,
        num_vertices: int,
        num_edges: int,
        checksummed: bool = True,
        verify_checksums: bool = True,
    ) -> None:
        self._store = store
        self._num_vertices = num_vertices
        self._num_edges = num_edges
        self._checksummed = checksummed
        self._verify = verify_checksums

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | Path,
        graph: AdjacencyGraph,
        io_stats: IOStats | None = None,
        fault_plan: "FaultPlan | None" = None,
        verify_checksums: bool = True,
    ) -> "DiskGraph":
        """Write an in-memory graph to ``path`` and return a handle.

        Vertex ids must be non-negative integers (enforced by the record
        codec).  Original degrees are captured from the graph as given.
        """
        records = (
            (v, sorted(graph.neighbors(v)), graph.degree(v))
            for v in sorted(graph.vertices())
        )
        return cls.from_records(
            path, records, io_stats=io_stats,
            fault_plan=fault_plan, verify_checksums=verify_checksums,
        )

    @classmethod
    def from_records(
        cls,
        path: str | Path,
        records: Iterable[tuple[int, list[int], int]],
        io_stats: IOStats | None = None,
        fault_plan: "FaultPlan | None" = None,
        verify_checksums: bool = True,
        checksum: bool = True,
    ) -> "DiskGraph":
        """Stream ``(vertex, sorted neighbors, original degree)`` records.

        Records must arrive in ascending vertex order; counts are patched
        into the header after the stream ends so nothing is buffered.
        ``checksum=False`` writes the legacy v1 layout (no per-record
        CRC) for compatibility tooling.
        """
        store = PageStore(path, io_stats, fault_plan=fault_plan)
        magic = FILE_MAGIC_V2 if checksum else FILE_MAGIC
        store.write_all(magic + _pack_counts(0, 0, checksum))
        num_vertices = 0
        directed_degree_total = 0
        previous_vertex = -1
        buffer = bytearray()
        for vertex, neighbors, original_degree in records:
            if vertex <= previous_vertex:
                raise StorageError(
                    f"records out of order: vertex {vertex} after {previous_vertex}"
                )
            previous_vertex = vertex
            num_vertices += 1
            directed_degree_total += len(neighbors)
            buffer += encode_record(vertex, neighbors, original_degree, checksum)
            if len(buffer) >= 1 << 20:
                store.append(bytes(buffer))
                buffer.clear()
        if buffer:
            store.append(bytes(buffer))
        if directed_degree_total % 2 != 0:
            raise StorageError("adjacency records are not symmetric: odd degree total")
        num_edges = directed_degree_total // 2
        store.patch(len(magic), _pack_counts(num_vertices, num_edges, checksum))
        return cls(
            store, num_vertices, num_edges,
            checksummed=checksum, verify_checksums=verify_checksums,
        )

    @classmethod
    def open(
        cls,
        path: str | Path,
        io_stats: IOStats | None = None,
        fault_plan: "FaultPlan | None" = None,
        verify_checksums: bool = True,
    ) -> "DiskGraph":
        """Open an existing graph file, validating its header.

        Accepts both the checksummed v2 format and legacy v1 files.
        """
        store = PageStore(path, io_stats, fault_plan=fault_plan)
        header = store.read_at(0, _HEADER_BYTES_V1)
        magic = header[: len(FILE_MAGIC)]
        if magic not in (FILE_MAGIC, FILE_MAGIC_V2):
            raise StorageFormatError(f"{path} is not a DiskGraph file")
        counts = header[len(magic) :]
        num_vertices, num_edges = _COUNTS.unpack(counts)
        checksummed = magic == FILE_MAGIC_V2
        if checksummed and verify_checksums:
            (stored,) = _CRC.unpack(store.read_at(_HEADER_BYTES_V1, _CRC.size))
            computed = zlib.crc32(counts)
            if stored != computed:
                count_checksum_failure()
                raise CorruptDataError(
                    f"header checksum mismatch in {path}: "
                    f"stored {stored:#010x}, computed {computed:#010x}"
                )
        return cls(
            store, num_vertices, num_edges,
            checksummed=checksummed,
            verify_checksums=verify_checksums,
        )

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        """Backing file path."""
        return self._store.path

    @property
    def io_stats(self) -> IOStats:
        """I/O counters for this graph's storage stack."""
        return self._store.io_stats

    @property
    def fault_plan(self) -> "FaultPlan | None":
        """The fault plan threaded through this graph's stores, if any."""
        return self._store.fault_plan

    @property
    def num_vertices(self) -> int:
        """Number of vertex records."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (the paper's ``|G|``)."""
        return self._num_edges

    @property
    def size_pages(self) -> int:
        """On-disk size in accounting pages."""
        return self._store.size_pages()

    @property
    def header_bytes(self) -> int:
        """Byte offset of the first vertex record."""
        return _HEADER_BYTES_V2 if self._checksummed else _HEADER_BYTES_V1

    @property
    def page_store(self) -> PageStore:
        """The underlying metered page store (for buffer-pool layering)."""
        return self._store

    @property
    def format_version(self) -> int:
        """On-disk format: 2 for checksummed records, 1 for legacy."""
        return 2 if self._checksummed else 1

    @property
    def verify_checksums(self) -> bool:
        """Whether v2 record checksums are verified on read."""
        return self._verify

    @verify_checksums.setter
    def verify_checksums(self, value: bool) -> None:
        self._verify = bool(value)

    def record_nbytes(self, degree: int) -> int:
        """On-disk size of a record with ``degree`` neighbors, this format."""
        return record_size(degree, checksum=self._checksummed)

    def decode_one(self, buffer: bytes, offset: int = 0) -> tuple[VertexRecord, int]:
        """Decode one record in this graph's format (verify per setting)."""
        return decode_record(
            buffer, offset, checksum=self._checksummed, verify=self._verify
        )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def scan(self) -> Iterator[VertexRecord]:
        """Stream all records in vertex order (one metered sequential scan).

        Each chunk is decoded in place: the header and the neighbor block
        are unpacked straight from the chunk buffer with compiled structs,
        and a v2 record's CRC32 is computed over a memoryview slice, so no
        record is copied before it becomes a :class:`VertexRecord`.  Only
        the partial record at a chunk's end is carried into the next one.
        Verified records are counted once per chunk, in a ``finally``, so
        a consumer that stops early is still counted exactly.
        """
        self._store.io_stats.record_scan()
        trailer = _CRC.size if self._checksummed else 0
        verify = self._checksummed and self._verify
        unpack_header = RECORD_HEADER.unpack_from
        unpack_crc = _CRC.unpack_from
        neighbor_structs = NEIGHBOR_STRUCTS
        crc32 = zlib.crc32
        new_record = tuple.__new__
        pending = bytearray()
        to_skip = self.header_bytes  # the file header precedes the records
        for chunk in self._store.scan_chunks():
            pending += chunk
            offset = min(to_skip, len(pending))
            to_skip -= offset
            available = len(pending)
            verified = 0
            view = memoryview(pending)
            try:
                while offset + 16 <= available:
                    vertex, degree, original_degree = unpack_header(pending, offset)
                    body_end = offset + 16 + 8 * degree
                    record_end = body_end + trailer
                    if record_end > available:
                        break
                    neighbors = neighbor_structs[degree].unpack_from(pending, offset + 16)
                    if verify:
                        verified += 1
                        (stored,) = unpack_crc(pending, body_end)
                        computed = crc32(view[offset:body_end])
                        if stored != computed:
                            raise checksum_mismatch(vertex, stored, computed)
                    offset = record_end
                    yield new_record(VertexRecord, (vertex, original_degree, neighbors))
            finally:
                view.release()  # the buffer cannot shrink while exported
                if verified:
                    count_verified(verified)
            del pending[:offset]
        if pending:
            raise StorageFormatError(f"{len(pending)} trailing bytes after final record")

    def load_adjacency(self, vertices: Iterable[int]) -> dict[int, tuple[int, ...]]:
        """Adjacency lists for a vertex subset, via one sequential pass."""
        wanted = set(vertices)
        found: dict[int, tuple[int, ...]] = {}
        for record in self.scan():
            if record.vertex in wanted:
                found[record.vertex] = record.neighbors
                if len(found) == len(wanted):
                    break
        return found

    def original_degrees(self, vertices: Iterable[int]) -> dict[int, int]:
        """Original-graph degrees for a vertex subset (one pass)."""
        wanted = set(vertices)
        found: dict[int, int] = {}
        for record in self.scan():
            if record.vertex in wanted:
                found[record.vertex] = record.original_degree
                if len(found) == len(wanted):
                    break
        return found

    def rewrite_without(self, removed: Iterable[int], new_path: str | Path) -> "DiskGraph":
        """Write the residual graph after deleting a vertex set.

        Removes every vertex in ``removed`` and all incident edges — the
        per-recursion shrink step of Algorithm 3 — in one sequential read
        of this file and one sequential write of the new one.  Original
        degrees, the verify setting and any fault plan carry over.
        """
        return DiskGraph.from_records(
            new_path, without_vertices(self.scan(), set(removed)),
            io_stats=self.io_stats, fault_plan=self.fault_plan,
            verify_checksums=self._verify,
        )

    def to_adjacency_graph(self) -> AdjacencyGraph:
        """Materialise the whole graph in memory (tests and baselines)."""
        graph = AdjacencyGraph()
        for record in self.scan():
            graph.add_vertex(record.vertex)
            for u in record.neighbors:
                graph.add_edge(record.vertex, u)
        return graph

    def delete(self) -> None:
        """Remove the backing file."""
        self._store.delete()

    def __repr__(self) -> str:
        return (
            f"DiskGraph(path={str(self.path)!r}, n={self._num_vertices}, "
            f"m={self._num_edges})"
        )


def without_vertices(
    records: Iterable[VertexRecord], removed: set[int]
) -> Iterator[tuple[int, tuple[int, ...] | list[int], int]]:
    """The residual-graph records of ``records`` after deleting ``removed``.

    Drops every removed vertex's record and every edge into the removed
    set, keeping original degrees; the output feeds
    :meth:`DiskGraph.from_records`.  This is the one survivor filter of
    Algorithm 3's shrink step, shared by :meth:`DiskGraph.rewrite_without`
    and the fused partition pass of
    :meth:`repro.storage.partitions.HnbPartitionStore.build`, so both
    write byte-identical residuals.
    """
    for record in records:
        vertex, original_degree, neighbors = record
        if vertex in removed:
            continue
        if not removed.isdisjoint(neighbors):
            neighbors = [u for u in neighbors if u not in removed]
        yield vertex, neighbors, original_degree
