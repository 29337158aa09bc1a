"""Binary record layout for on-disk adjacency lists.

One record per vertex::

    vertex id        uint64
    current degree   uint32   (degree in the *residual* graph)
    original degree  uint32   (degree in the graph as first written)
    neighbors        current-degree x uint64
    crc32            uint32   (format v2 only; over header + neighbors)

The original degree is persisted because the paper's recursion needs it
long after the residual graph has shed edges: a singleton ``{v}`` is a
maximal clique of ``G`` only when ``d(v) = 0`` *in the original graph*
(Section 4.3).  Keeping it in the record preserves the external-memory
discipline — no in-memory map over all of ``V`` is required.

Format v2 (magic ``HSTARGR2``) appends a CRC32 to every record so a
flipped bit on disk surfaces as a typed
:class:`~repro.errors.CorruptDataError` instead of a silently wrong
neighbor list.  v1 files (``HSTARGR1``) remain readable — they simply
carry no checksums to verify.
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple, Sequence

from repro import metrics
from repro.errors import CorruptDataError, StorageFormatError

#: Record header: vertex id, current degree, original degree.
RECORD_HEADER = struct.Struct("<QII")
_CRC = struct.Struct("<I")

#: Integrity counters: verified records and detected CRC mismatches.
_CHECKSUM_METRICS = metrics.bound(
    lambda registry: {
        "verified": registry.counter(
            "repro_storage_records_verified_total",
            "records whose CRC32 was checked on read",
        ),
        "failures": registry.counter(
            "repro_storage_checksum_failures_total",
            "record CRC32 mismatches detected on read",
        ),
    }
)

#: Magic bytes identifying a format-v1 DiskGraph file (no checksums).
FILE_MAGIC = b"HSTARGR1"

#: Magic bytes identifying a format-v2 DiskGraph file (per-record CRC32).
FILE_MAGIC_V2 = b"HSTARGR2"


class _StructCache(dict):
    """``cache[n]`` is a compiled :class:`struct.Struct` for ``n`` items.

    Degrees repeat heavily across a graph, so compiling each layout once
    turns every neighbor-block pack/unpack into a single C call without a
    format-string build.  Bounded by the number of distinct degrees.
    """

    def __init__(self, template: str) -> None:
        super().__init__()
        self._template = template

    def __missing__(self, count: int) -> struct.Struct:
        compiled = self[count] = struct.Struct(self._template.format(count))
        return compiled


#: Little-endian ``count x uint64`` neighbor blocks, by count (shared with
#: the partition spill codec in :mod:`repro.storage.partitions`).
NEIGHBOR_STRUCTS = _StructCache("<{}Q")

#: Header plus neighbor block of a whole record, by degree.
_RECORD_STRUCTS = _StructCache("<QII{}Q")


class VertexRecord(NamedTuple):
    """A decoded on-disk adjacency record.

    Decode loops build it with ``tuple.__new__(VertexRecord, (...))``,
    which skips the NamedTuple constructor's Python-level argument
    handling on the per-record path.
    """

    vertex: int
    original_degree: int
    neighbors: tuple[int, ...]

    @property
    def degree(self) -> int:
        """Degree in the residual graph (length of the stored list)."""
        return len(self.neighbors)


def encode_record(
    vertex: int,
    neighbors: Sequence[int],
    original_degree: int,
    checksum: bool = False,
) -> bytes:
    """Serialise one vertex record (format v2 when ``checksum`` is set).

    Raises :class:`~repro.errors.StorageFormatError` for ids that do not
    fit the fixed-width layout.
    """
    try:
        packed = _RECORD_STRUCTS[len(neighbors)].pack(
            vertex, len(neighbors), original_degree, *neighbors
        )
    except struct.error as exc:
        if vertex < 0:
            raise StorageFormatError(
                f"vertex ids must be non-negative, got {vertex}"
            ) from None
        if original_degree < 0:
            raise StorageFormatError(
                f"original degree must be non-negative, got {original_degree}"
            ) from None
        raise StorageFormatError(
            f"record for vertex {vertex} failed to encode: {exc}"
        ) from exc
    if not checksum:
        return packed
    return packed + _CRC.pack(zlib.crc32(packed))


def decode_record(
    buffer: bytes,
    offset: int = 0,
    checksum: bool = False,
    verify: bool = True,
) -> tuple[VertexRecord, int]:
    """Decode one record at ``offset``; return it and the next offset.

    ``checksum`` selects the format-v2 layout (trailing CRC32);
    ``verify`` controls whether a v2 checksum is actually checked.
    Raises :class:`~repro.errors.StorageFormatError` on truncation and
    :class:`~repro.errors.CorruptDataError` on a CRC mismatch.
    """
    end = offset + RECORD_HEADER.size
    if end > len(buffer):
        raise StorageFormatError("truncated record header")
    vertex, degree, original_degree = RECORD_HEADER.unpack_from(buffer, offset)
    body_end = end + 8 * degree
    if body_end > len(buffer):
        raise StorageFormatError(
            f"truncated record body for vertex {vertex}: "
            f"need {8 * degree} bytes, have {len(buffer) - end}"
        )
    neighbors = NEIGHBOR_STRUCTS[degree].unpack_from(buffer, end)
    if checksum:
        crc_end = body_end + _CRC.size
        if crc_end > len(buffer):
            raise StorageFormatError(f"truncated record checksum for vertex {vertex}")
        if verify:
            count_verified(1)
            (stored,) = _CRC.unpack_from(buffer, body_end)
            computed = zlib.crc32(memoryview(buffer)[offset:body_end])
            if stored != computed:
                raise checksum_mismatch(vertex, stored, computed)
        body_end = crc_end
    return tuple.__new__(VertexRecord, (vertex, original_degree, neighbors)), body_end


def count_verified(records: int) -> None:
    """Add ``records`` to ``repro_storage_records_verified_total``.

    Decode loops count locally and report once per chunk, keeping the
    metric lookup off the per-record path.
    """
    _CHECKSUM_METRICS()["verified"].inc(records)


def checksum_mismatch(vertex: int, stored: int, computed: int) -> CorruptDataError:
    """Count a record CRC mismatch and return the typed error to raise."""
    count_checksum_failure()
    return CorruptDataError(
        f"checksum mismatch for vertex {vertex}: "
        f"stored {stored:#010x}, computed {computed:#010x}"
    )


def count_checksum_failure() -> None:
    """Count a checksum failure detected outside the record codec.

    Used by :meth:`repro.storage.diskgraph.DiskGraph.open` for header CRC
    mismatches, so ``repro_storage_checksum_failures_total`` covers every
    integrity check in the stack.
    """
    _CHECKSUM_METRICS()["failures"].inc()


def record_size(degree: int, checksum: bool = False) -> int:
    """Size in bytes of a record with the given current degree."""
    return RECORD_HEADER.size + 8 * degree + (_CRC.size if checksum else 0)
