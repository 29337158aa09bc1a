"""The in-place decode loop of ``DiskGraph.scan``.

A scan decodes each 64-page chunk in place and carries only the partial
record at a chunk's end into the next chunk.  These tests pin the cases
that loop has to get right: records that straddle a chunk boundary,
damage in the middle of a chunk, a truncated tail, the v1 layout, an
early-closed scan's verified count, and the partition spill codec.
"""

import pytest

from repro.errors import CorruptDataError, StorageFormatError
from repro.graph.adjacency import AdjacencyGraph
from repro.metrics import counter_value
from repro.storage.diskgraph import DiskGraph
from repro.storage.pagestore import _SCAN_CHUNK_BYTES
from repro.storage.partitions import (
    encode_partition_record,
    parse_partition_records,
)

from tests.helpers import seeded_gnp


def adjacency_of(graph):
    return {v: tuple(sorted(graph.neighbors(v))) for v in sorted(graph.vertices())}


def record_offsets(disk):
    """Byte offset and size of every record, in file order."""
    offsets = []
    offset = disk.header_bytes
    for record in disk.scan():
        size = disk.record_nbytes(record.degree)
        offsets.append((record.vertex, offset, size))
        offset += size
    return offsets


def verified(snapshot):
    return counter_value(snapshot, "repro_storage_records_verified_total")


def failures(snapshot):
    return counter_value(snapshot, "repro_storage_checksum_failures_total")


@pytest.fixture
def many_records(tmp_path):
    """A graph several scan chunks long (~2,000 records of ~300 bytes)."""
    graph = seeded_gnp(2000, 0.02, seed=11)
    disk = DiskGraph.create(tmp_path / "g.bin", graph)
    assert disk.path.stat().st_size > 2 * _SCAN_CHUNK_BYTES
    return graph, disk


def flip(path, position, mask=0xFF):
    raw = bytearray(path.read_bytes())
    raw[position] ^= mask
    path.write_bytes(bytes(raw))


class TestChunkBoundaries:
    def test_records_straddling_chunk_boundaries_decode(self, many_records):
        graph, disk = many_records
        straddling = [
            vertex for vertex, offset, size in record_offsets(disk)
            if offset // _SCAN_CHUNK_BYTES != (offset + size - 1) // _SCAN_CHUNK_BYTES
        ]
        assert straddling  # the fixture really crosses chunk boundaries
        assert {r.vertex: r.neighbors for r in disk.scan()} == adjacency_of(graph)

    def test_record_larger_than_a_chunk(self, tmp_path):
        # Vertex 0's record spans more than one whole chunk.
        hub_degree = _SCAN_CHUNK_BYTES // 8 + 100
        graph = AdjacencyGraph.from_edges((0, v) for v in range(1, hub_degree + 1))
        disk = DiskGraph.create(tmp_path / "hub.bin", graph)
        assert disk.record_nbytes(hub_degree) > _SCAN_CHUNK_BYTES
        records = list(disk.scan())
        assert records[0].vertex == 0
        assert records[0].neighbors == tuple(range(1, hub_degree + 1))
        assert [r.vertex for r in records] == list(range(hub_degree + 1))

    def test_header_split_across_chunks(self, tmp_path):
        # A perfect matching: every v2 record is 28 bytes, so record
        # headers fall across chunk boundaries at known places.
        graph = AdjacencyGraph.from_edges((2 * i, 2 * i + 1) for i in range(10_000))
        disk = DiskGraph.create(tmp_path / "matching.bin", graph)
        crossing = [
            vertex for vertex, offset, _ in record_offsets(disk)
            if offset < _SCAN_CHUNK_BYTES < offset + 16
        ]
        assert crossing
        assert {r.vertex: r.neighbors for r in disk.scan()} == adjacency_of(graph)


class TestDamageMidChunk:
    @pytest.mark.parametrize(
        "where",
        ["vertex_id", "degree", "original_degree", "body", "crc"],
    )
    def test_flipped_byte_raises_typed_and_counts(
        self, many_records, live_metrics, where
    ):
        _, disk = many_records
        offsets = record_offsets(disk)
        # A record in the middle of the first chunk, well clear of both
        # the file header and the chunk boundary.
        index = next(
            i for i, (_, offset, _) in enumerate(offsets)
            if offset > _SCAN_CHUNK_BYTES // 2
        )
        _, offset, size = offsets[index]
        assert offset + size < _SCAN_CHUNK_BYTES
        position = {
            "vertex_id": offset,
            "degree": offset + 8,
            "original_degree": offset + 12,
            "body": offset + 16 + 3,
            "crc": offset + size - 2,
        }[where]
        # The degree flip is kept small (+/-1) so the damaged record still
        # fits in the file and the CRC, not the length check, catches it.
        flip(disk.path, position, mask=0x01 if where == "degree" else 0xFF)
        baseline_failures = failures(live_metrics.snapshot())
        baseline_verified = verified(live_metrics.snapshot())

        yielded = []
        with pytest.raises(CorruptDataError):
            for record in DiskGraph.open(disk.path).scan():
                yielded.append(record.vertex)
        snapshot = live_metrics.snapshot()
        assert len(yielded) == index  # every record before the damage
        assert failures(snapshot) == baseline_failures + 1
        # Every record that was checked is counted, the damaged one too.
        assert verified(snapshot) == baseline_verified + index + 1

    def test_truncated_tail_is_format_error(self, many_records):
        _, disk = many_records
        raw = disk.path.read_bytes()
        disk.path.write_bytes(raw[:-5])
        with pytest.raises(StorageFormatError):
            list(DiskGraph.open(disk.path).scan())

    def test_truncated_mid_header_is_format_error(self, tmp_path):
        graph = seeded_gnp(40, 0.2, seed=3)
        disk = DiskGraph.create(tmp_path / "g.bin", graph)
        _, offset, _ = record_offsets(disk)[-1]
        disk.path.write_bytes(disk.path.read_bytes()[: offset + 10])
        with pytest.raises(StorageFormatError):
            list(DiskGraph.open(disk.path).scan())


class TestLayoutsAndCounting:
    def test_v1_scan_matches_graph_and_verifies_nothing(
        self, tmp_path, live_metrics
    ):
        graph = seeded_gnp(1500, 0.02, seed=4)
        records = (
            (v, sorted(graph.neighbors(v)), graph.degree(v))
            for v in sorted(graph.vertices())
        )
        v1 = DiskGraph.from_records(tmp_path / "v1.bin", records, checksum=False)
        assert v1.format_version == 1
        assert v1.path.stat().st_size > _SCAN_CHUNK_BYTES
        decoded = list(v1.scan())
        assert {r.vertex: r.neighbors for r in decoded} == adjacency_of(graph)
        assert [r.original_degree for r in decoded] == [r.degree for r in decoded]
        assert verified(live_metrics.snapshot()) == 0

    def test_every_record_verified_on_a_full_scan(self, many_records, live_metrics):
        _, disk = many_records
        list(disk.scan())
        assert verified(live_metrics.snapshot()) == disk.num_vertices

    @pytest.mark.parametrize("stop_after", [1, 17, 1500])
    def test_early_closed_scan_counts_exactly_what_it_yielded(
        self, many_records, live_metrics, stop_after
    ):
        _, disk = many_records
        scan = disk.scan()
        yielded = [next(scan) for _ in range(stop_after)]
        scan.close()
        assert len(yielded) == stop_after
        assert verified(live_metrics.snapshot()) == stop_after


class TestPartitionRecordDamage:
    @pytest.fixture
    def blob(self):
        return b"".join(
            encode_partition_record(v, list(range(v + 1, v + 1 + v % 7)))
            for v in range(50)
        )

    @pytest.mark.parametrize("cut", [1, 4, 8, 20])
    def test_truncation_is_format_error(self, blob, cut):
        with pytest.raises(StorageFormatError):
            parse_partition_records(blob[:-cut])

    @pytest.mark.parametrize("field_offset", [0, 12, 16])
    def test_flipped_byte_mid_stream_is_corrupt(self, blob, live_metrics, field_offset):
        # Record 30 (degree 2): vertex id, stored CRC, first neighbor.
        offset = sum(16 + 8 * (v % 7) for v in range(30))
        damaged = bytearray(blob)
        damaged[offset + field_offset] ^= 0xFF
        with pytest.raises(CorruptDataError):
            parse_partition_records(bytes(damaged))
        assert failures(live_metrics.snapshot()) == 1
