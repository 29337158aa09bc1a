"""Wire-protocol behavior under injected network faults.

The ``"net"`` fault site arms the serving tier's socket paths: the
accept loop (``accept``, honours ``accept_stall``) and the per-reply
write path (``write:<peer>``, honours ``conn_reset`` / ``partial_line``
/ ``slow_write``).  The invariant pinned here is the issue's acceptance
line: *for every request on a surviving connection the server sends
exactly one reply*, and a connection the plan kills surfaces client-side
as a typed :class:`~repro.errors.ServiceUnavailableError` — never a
hang, never a duplicate or interleaved reply.
"""

import json
import socket
import threading
import time

import pytest

from repro import metrics
from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.errors import ServiceUnavailableError
from repro.faults import FaultPlan, FaultRule
from repro.index import CliqueIndex, build_index
from repro.service import (
    CliqueQueryClient,
    CliqueQueryEngine,
    CliqueQueryServer,
    RetryPolicy,
)

from tests.helpers import seeded_gnp


@pytest.fixture()
def fresh_registry():
    previous = metrics.get_registry()
    registry = metrics.MetricsRegistry()
    metrics.set_registry(registry)
    yield registry
    metrics.set_registry(previous)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    graph = seeded_gnp(30, 0.3, seed=7)
    cliques = sorted(tuple(sorted(c)) for c in set(tomita_maximal_cliques(graph)))
    directory = tmp_path_factory.mktemp("netfaults") / "idx"
    build_index(cliques, directory)
    return graph, cliques, directory


def _serving(directory, fault_plan=None, **kw):
    index = CliqueIndex(directory)
    engine = CliqueQueryEngine(index)
    server = CliqueQueryServer(engine, fault_plan=fault_plan, **kw).start()
    return index, server


def _net_plan(kind, *, path=None, firings=1, probability=1.0, latency=0.05, seed=5):
    return FaultPlan(
        [
            FaultRule(
                operation="net",
                kind=kind,
                probability=probability,
                max_firings=firings,
                path_contains=path,
                latency_seconds=latency,
            )
        ],
        seed=seed,
    )


class TestConnectionReset:
    def test_mid_reply_reset_is_typed_and_next_connection_survives(
        self, corpus, fresh_registry
    ):
        _graph, cliques, directory = corpus
        index, server = _serving(
            directory, fault_plan=_net_plan("conn_reset", path="write")
        )
        try:
            host, port = server.address
            no_retry = CliqueQueryClient(
                host, port, timeout_seconds=5.0,
                retry_policy=RetryPolicy(max_attempts=1),
            )
            with pytest.raises(ServiceUnavailableError):
                no_retry.stats()
            no_retry.close()
            # The fault budget is spent: a fresh connection gets exactly
            # one clean reply per request.
            with CliqueQueryClient(host, port, timeout_seconds=5.0) as client:
                assert client.stats().result["num_cliques"] == len(cliques)
            assert metrics.counter_value(
                fresh_registry.snapshot(), "repro_server_net_faults_total"
            ) == 1
        finally:
            server.stop()
            index.close()

    def test_retrying_client_recovers_transparently(self, corpus):
        _graph, cliques, directory = corpus
        index, server = _serving(
            directory, fault_plan=_net_plan("conn_reset", path="write")
        )
        try:
            host, port = server.address
            client = CliqueQueryClient(
                host, port, timeout_seconds=5.0,
                retry_policy=RetryPolicy(max_attempts=3, base_sleep=0.01),
            )
            # First attempt is reset mid-write; the retry reconnects and
            # the answer is correct — the caller never sees the fault.
            assert client.stats().result["num_cliques"] == len(cliques)
            client.close()
        finally:
            server.stop()
            index.close()


class TestPartialLine:
    def test_truncated_reply_never_parses_as_an_answer(self, corpus):
        """A reply cut mid-line must surface as a transport error, not a
        short-but-valid JSON answer (the classic torn-write hazard)."""
        _graph, _cliques, directory = corpus
        index, server = _serving(
            directory, fault_plan=_net_plan("partial_line", path="write")
        )
        try:
            host, port = server.address
            with socket.create_connection((host, port), timeout=5.0) as sock:
                sock.sendall(b'{"id": 1, "op": "top_k_largest", "args": {"k": 5}}\n')
                handle = sock.makefile("rb")
                try:
                    data = handle.readline()
                except OSError:  # the reset may arrive before any bytes
                    data = b""
            # Either nothing or a prefix without the newline terminator:
            # in both cases the JSON-lines framing rejects it.
            assert not data.endswith(b"\n") or data == b""
        finally:
            server.stop()
            index.close()


class TestSlowLoris:
    def test_slow_write_still_delivers_exactly_one_full_reply(self, corpus):
        _graph, cliques, directory = corpus
        index, server = _serving(
            directory,
            fault_plan=_net_plan("slow_write", path="write", latency=0.02),
        )
        try:
            host, port = server.address
            with CliqueQueryClient(host, port, timeout_seconds=10.0) as client:
                started = time.monotonic()
                reply = client.stats()
                elapsed = time.monotonic() - started
            assert reply.result["num_cliques"] == len(cliques)
            assert elapsed >= 0.02  # the trickle really happened
        finally:
            server.stop()
            index.close()

    def test_slow_peer_does_not_block_other_connections(self, corpus):
        """While one reply trickles out, a second connection is served."""
        _graph, cliques, directory = corpus
        index, server = _serving(
            directory,
            fault_plan=_net_plan("slow_write", path="write", latency=0.1),
        )
        try:
            host, port = server.address
            slow_done = threading.Event()

            def slow_one():
                with CliqueQueryClient(host, port, timeout_seconds=15.0) as c:
                    c.stats()
                slow_done.set()

            thread = threading.Thread(target=slow_one)
            thread.start()
            time.sleep(0.05)  # let the slow write start trickling
            started = time.monotonic()
            with CliqueQueryClient(host, port, timeout_seconds=5.0) as fast:
                assert fast.stats().result["num_cliques"] == len(cliques)
            assert time.monotonic() - started < 2.0
            thread.join(timeout=15.0)
            assert slow_done.is_set()
        finally:
            server.stop()
            index.close()


class TestDrainDuringSlowWrite:
    def test_drain_waits_for_an_admitted_reply_still_being_written(self, corpus):
        """drain() never closes a socket under an admitted, unwritten reply.

        ``slow_write`` trickles the reply out in eight paced chunks.  The
        first byte on the client proves the engine has answered and the
        write is under way; only then does drain() start.  The request
        must still hold its admission slot, and drain() must wait for the
        rest of the line before it disconnects.
        """
        _graph, cliques, directory = corpus
        index, server = _serving(
            directory,
            fault_plan=_net_plan("slow_write", path="write", latency=1.0),
        )
        try:
            host, port = server.address
            with socket.create_connection((host, port), timeout=10.0) as sock:
                sock.sendall(b'{"id": 1, "op": "stats", "args": {}}\n')
                first = sock.recv(1)
                assert first
                assert server.in_flight == 1
                assert server.drain(10.0) is True
                rest = sock.makefile("rb").readline()
            reply = json.loads(first + rest)
            assert reply["ok"] is True
            assert reply["result"]["num_cliques"] == len(cliques)
            assert server.in_flight == 0
        finally:
            server.stop()
            index.close()

    def test_direct_engine_respond_releases_its_slot(self, corpus):
        """Callers without a socket get the reply and keep no slot."""
        _graph, cliques, directory = corpus
        with CliqueIndex(directory) as index:
            server = CliqueQueryServer(CliqueQueryEngine(index), max_in_flight=1)
            for request_id in (1, 2):
                reply = json.loads(server.engine_respond(
                    json.dumps({"id": request_id, "op": "stats"}).encode()
                ))
                assert reply["ok"] is True, reply
                assert reply["result"]["num_cliques"] == len(cliques)
                assert server.in_flight == 0
            server.server_close()


class TestAcceptStall:
    def test_stalled_accept_delays_but_serves(self, corpus):
        _graph, cliques, directory = corpus
        index, server = _serving(
            directory,
            fault_plan=_net_plan("accept_stall", path="accept", latency=0.3),
        )
        try:
            host, port = server.address
            started = time.monotonic()
            with CliqueQueryClient(host, port, timeout_seconds=10.0) as client:
                assert client.stats().result["num_cliques"] == len(cliques)
            assert time.monotonic() - started >= 0.3
        finally:
            server.stop()
            index.close()


class TestOneReplyPerRequest:
    def test_mixed_fault_storm_yields_exactly_one_reply_per_survivor(self, corpus):
        """Drive many requests through a probabilistic reset/slow plan and
        account for every one: a request either errors at the transport
        (typed) or gets exactly one reply with its own id — never zero,
        never two."""
        _graph, cliques, directory = corpus
        plan = FaultPlan(
            [
                FaultRule(
                    operation="net", kind="conn_reset", probability=0.2,
                    max_firings=None, path_contains="write",
                ),
                FaultRule(
                    operation="net", kind="slow_write", probability=0.2,
                    max_firings=None, path_contains="write",
                    latency_seconds=0.01,
                ),
            ],
            seed=17,
        )
        index, server = _serving(directory, fault_plan=plan)
        try:
            host, port = server.address
            answered = 0
            reset = 0
            for request_id in range(40):
                with socket.create_connection((host, port), timeout=5.0) as sock:
                    sock.sendall(
                        json.dumps(
                            {"id": request_id, "op": "stats", "args": {}}
                        ).encode() + b"\n"
                    )
                    handle = sock.makefile("rb")
                    try:
                        line = handle.readline()
                    except OSError:
                        line = b""
                    if not line.endswith(b"\n"):
                        reset += 1
                        continue
                    reply = json.loads(line)
                    assert reply["id"] == request_id
                    assert reply["ok"] is True
                    assert reply["result"]["num_cliques"] == len(cliques)
                    answered += 1
                    # No second line may ever arrive for this request.
                    sock.settimeout(0.1)
                    try:
                        extra = handle.readline()
                    except (TimeoutError, OSError):
                        extra = b""
                    assert extra == b"", f"duplicate reply for {request_id}: {extra!r}"
            assert answered + reset == 40
            assert answered > 0, "the storm killed every connection"
            assert reset > 0, "the plan never fired; the test is vacuous"
        finally:
            server.stop()
            index.close()
