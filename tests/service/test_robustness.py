"""Serving-tier overload safety: admission, bounded lines, drain, client
backoff and the circuit breaker.

Each test pins one behavior from the robustness issue: requests past the
admission limit are *shed* with a typed reply (never queued unboundedly),
oversized/malformed request lines get bounded typed errors on a surviving
connection, ``health``/``ready`` bypass admission, drain finishes
in-flight work and refuses new work, a slow subscription consumer is
disconnected instead of blocking the store's writer, and the client
turns dead peers into typed errors, retries idempotent queries with
backoff, and fails fast once its breaker trips.
"""

import json
import socket
import threading
import time

import pytest

from repro import metrics
from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.errors import (
    CircuitOpenError,
    ServerOverloadedError,
    ServiceUnavailableError,
)
from repro.index import CliqueIndex, build_index
from repro.service import (
    CircuitBreaker,
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
    graph = seeded_gnp(30, 0.3, seed=11)
    cliques = sorted(tuple(sorted(c)) for c in set(tomita_maximal_cliques(graph)))
    directory = tmp_path_factory.mktemp("robust") / "idx"
    build_index(cliques, directory)
    return graph, cliques, directory


class _GatedEngine(CliqueQueryEngine):
    """An engine whose queries block on a gate — deterministic overload."""

    def __init__(self, index, gate, **kwargs):
        super().__init__(index, **kwargs)
        self._gate = gate

    def query(self, op, timeout_seconds=None, **args):
        self._gate.wait(10.0)
        return super().query(op, timeout_seconds=timeout_seconds, **args)


def _raw_request(host, port, payload, timeout=5.0):
    """One request on a throwaway socket; returns the decoded reply."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(json.dumps(payload).encode() + b"\n")
        handle = sock.makefile("rb")
        line = handle.readline()
    return json.loads(line)


def _no_retry_client(host, port, **kw):
    return CliqueQueryClient(
        host, port, timeout_seconds=5.0,
        retry_policy=RetryPolicy(max_attempts=1), **kw,
    )


class TestAdmissionControl:
    def test_excess_requests_are_shed_with_retry_after(self, corpus, fresh_registry):
        _graph, _cliques, directory = corpus
        gate = threading.Event()
        with CliqueIndex(directory) as index:
            engine = _GatedEngine(index, gate)
            server = CliqueQueryServer(
                engine, max_in_flight=2, retry_after_ms=75.0
            ).start()
            host, port = server.address
            try:
                replies = []
                lock = threading.Lock()

                def one(request_id):
                    reply = _raw_request(
                        host, port,
                        {"id": request_id, "op": "stats", "args": {}},
                    )
                    with lock:
                        replies.append(reply)

                threads = [
                    threading.Thread(target=one, args=(i,)) for i in range(6)
                ]
                for thread in threads:
                    thread.start()
                # Wait until the admission slots are saturated, then let
                # the admitted pair finish.
                deadline = time.monotonic() + 5.0
                while server.in_flight < 2 and time.monotonic() < deadline:
                    time.sleep(0.005)
                while True:
                    with lock:
                        if len(replies) >= 4:
                            break
                    assert time.monotonic() < deadline, "sheds never arrived"
                    time.sleep(0.005)
                gate.set()
                for thread in threads:
                    thread.join(timeout=10.0)
                shed = [r for r in replies if r.get("overloaded")]
                ok = [r for r in replies if r.get("ok")]
                assert len(replies) == 6
                assert len(ok) == 2, replies
                assert len(shed) == 4
                for reply in shed:
                    assert reply["ok"] is False
                    assert reply["retry_after_ms"] == 75.0
                assert metrics.counter_value(
                    fresh_registry.snapshot(), "repro_server_shed_total"
                ) == 4
            finally:
                gate.set()
                server.stop()

    def test_health_and_ready_bypass_admission(self, corpus):
        _graph, _cliques, directory = corpus
        gate = threading.Event()
        with CliqueIndex(directory) as index:
            engine = _GatedEngine(index, gate)
            server = CliqueQueryServer(engine, max_in_flight=1).start()
            host, port = server.address
            try:
                blocker = threading.Thread(
                    target=_raw_request,
                    args=(host, port, {"id": 1, "op": "stats", "args": {}}),
                )
                blocker.start()
                deadline = time.monotonic() + 5.0
                while server.in_flight < 1 and time.monotonic() < deadline:
                    time.sleep(0.005)
                health = _raw_request(host, port, {"id": 2, "op": "health"})
                ready = _raw_request(host, port, {"id": 3, "op": "ready"})
                assert health["ok"] and health["result"]["status"] == "ok"
                assert health["result"]["in_flight"] == 1
                assert health["result"]["max_in_flight"] == 1
                assert ready["ok"] and ready["result"]["ready"] is True
            finally:
                gate.set()
                blocker.join(timeout=10.0)
                server.stop()

    def test_client_raises_typed_overload_with_hint(self, corpus):
        _graph, _cliques, directory = corpus
        gate = threading.Event()
        with CliqueIndex(directory) as index:
            engine = _GatedEngine(index, gate)
            server = CliqueQueryServer(
                engine, max_in_flight=1, retry_after_ms=30.0
            ).start()
            host, port = server.address
            try:
                blocker = threading.Thread(
                    target=_raw_request,
                    args=(host, port, {"id": 1, "op": "stats", "args": {}}),
                )
                blocker.start()
                deadline = time.monotonic() + 5.0
                while server.in_flight < 1 and time.monotonic() < deadline:
                    time.sleep(0.005)
                with _no_retry_client(host, port) as client:
                    with pytest.raises(ServerOverloadedError) as info:
                        client.stats()
                assert info.value.retry_after_ms == 30.0
            finally:
                gate.set()
                blocker.join(timeout=10.0)
                server.stop()


class TestBoundedRequests:
    def _serving(self, directory, **kw):
        index = CliqueIndex(directory)
        engine = CliqueQueryEngine(index)
        server = CliqueQueryServer(engine, **kw).start()
        return index, server

    def test_oversized_line_gets_typed_error_and_connection_survives(
        self, corpus, fresh_registry
    ):
        _graph, _cliques, directory = corpus
        index, server = self._serving(directory, max_request_bytes=512)
        host, port = server.address
        try:
            with socket.create_connection((host, port), timeout=5.0) as sock:
                handle = sock.makefile("rb")
                sock.sendall(b'{"id": 1, "op": "stats", "args": {"x": "'
                             + b"A" * 4096 + b'"}}\n')
                reply = json.loads(handle.readline())
                assert reply["ok"] is False
                assert "512" in reply["error"]
                # Same connection, valid follow-up: still answered.
                sock.sendall(b'{"id": 2, "op": "stats", "args": {}}\n')
                reply = json.loads(handle.readline())
                assert reply["ok"] is True and reply["id"] == 2
            assert metrics.counter_value(
                fresh_registry.snapshot(),
                "repro_server_oversized_requests_total",
            ) == 1
        finally:
            server.stop()
            index.close()

    def test_malformed_json_gets_bounded_typed_error(self, corpus):
        _graph, _cliques, directory = corpus
        index, server = self._serving(directory)
        host, port = server.address
        try:
            with socket.create_connection((host, port), timeout=5.0) as sock:
                handle = sock.makefile("rb")
                for bad in (b"not json at all\n", b'[1, 2, 3]\n', b'"string"\n'):
                    sock.sendall(bad)
                    reply = json.loads(handle.readline())
                    assert reply["ok"] is False
                    assert isinstance(reply["error"], str)
                sock.sendall(b'{"id": 9, "op": "stats", "args": {}}\n')
                assert json.loads(handle.readline())["ok"] is True
        finally:
            server.stop()
            index.close()


class TestGracefulDrain:
    def test_drain_finishes_in_flight_and_sheds_new(self, corpus):
        _graph, _cliques, directory = corpus
        gate = threading.Event()
        with CliqueIndex(directory) as index:
            engine = _GatedEngine(index, gate)
            server = CliqueQueryServer(engine, max_in_flight=4).start()
            host, port = server.address
            in_flight_reply = {}

            def slow():
                in_flight_reply.update(_raw_request(
                    host, port, {"id": 1, "op": "stats", "args": {}},
                    timeout=15.0,
                ))

            worker = threading.Thread(target=slow)
            worker.start()
            deadline = time.monotonic() + 5.0
            while server.in_flight < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            # Open a second connection BEFORE drain stops the listener, and
            # wait for a probe reply on it: connect() returns once the
            # kernel has queued the connection, which may still be before
            # the serve loop accepts it and starts its handler.
            straggler = socket.create_connection((host, port), timeout=5.0)
            straggler_lines = straggler.makefile("rb")
            straggler.sendall(b'{"id": 0, "op": "health", "args": {}}\n')
            assert json.loads(straggler_lines.readline())["ok"] is True
            drained = {}

            def drain():
                drained["clean"] = server.drain(10.0)

            drainer = threading.Thread(target=drain)
            drainer.start()
            deadline = time.monotonic() + 5.0
            while not server.draining and time.monotonic() < deadline:
                time.sleep(0.005)
            try:
                straggler.sendall(b'{"id": 2, "op": "stats", "args": {}}\n')
                reply = json.loads(straggler_lines.readline())
                assert reply["ok"] is False
                assert reply["overloaded"] is True and reply["draining"] is True
            finally:
                straggler.close()
            gate.set()
            worker.join(timeout=10.0)
            drainer.join(timeout=15.0)
            assert drained["clean"] is True
            assert in_flight_reply.get("ok") is True, in_flight_reply
            # The listener is gone: new connections are refused.
            with pytest.raises(OSError):
                socket.create_connection((host, port), timeout=1.0)

    def test_drain_with_no_traffic_is_immediate(self, corpus):
        _graph, _cliques, directory = corpus
        with CliqueIndex(directory) as index:
            server = CliqueQueryServer(CliqueQueryEngine(index)).start()
            started = time.monotonic()
            assert server.drain(5.0) is True
            assert time.monotonic() - started < 2.0


class TestClientResilience:
    def test_dead_port_raises_unavailable_not_hang(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        started = time.monotonic()
        with pytest.raises(ServiceUnavailableError):
            CliqueQueryClient("127.0.0.1", port, timeout_seconds=0.5)
        assert time.monotonic() - started < 5.0

    def test_unresponsive_server_times_out_typed(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        try:
            client = CliqueQueryClient(
                host, port, timeout_seconds=0.3,
                retry_policy=RetryPolicy(max_attempts=2, base_sleep=0.01),
            )
            started = time.monotonic()
            with pytest.raises(ServiceUnavailableError):
                client.stats()
            assert time.monotonic() - started < 5.0
            client.close()
        finally:
            listener.close()

    def test_retry_reconnects_after_server_restart(self, corpus):
        """A request that hits a dead connection retries onto a live one."""
        _graph, cliques, directory = corpus
        index = CliqueIndex(directory)
        engine = CliqueQueryEngine(index)
        server = CliqueQueryServer(engine).start()
        host, port = server.address
        client = CliqueQueryClient(
            host, port, timeout_seconds=5.0,
            retry_policy=RetryPolicy(max_attempts=3, base_sleep=0.01),
        )
        try:
            assert client.stats().result["num_cliques"] == len(cliques)
            # Kill every live connection server-side; the client's next
            # request sees the dead socket and transparently reconnects.
            with server._handlers_lock:
                handlers = list(server._handlers)
            for handler in handlers:
                handler.disconnect()
            time.sleep(0.05)
            assert client.stats().result["num_cliques"] == len(cliques)
        finally:
            client.close()
            server.stop()
            index.close()


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_sleep=0.1, multiplier=2.0, max_sleep=0.5, jitter=0.0)
        assert policy.sleep_before(1) == pytest.approx(0.1)
        assert policy.sleep_before(2) == pytest.approx(0.2)
        assert policy.sleep_before(3) == pytest.approx(0.4)
        assert policy.sleep_before(4) == pytest.approx(0.5)  # capped

    def test_server_hint_overrides_computed_base(self):
        policy = RetryPolicy(base_sleep=1.0, jitter=0.0)
        assert policy.sleep_before(1, hint_ms=25.0) == pytest.approx(0.025)

    def test_jitter_spreads_the_herd(self):
        policy = RetryPolicy(base_sleep=0.1, jitter=0.5)
        draws = {policy.sleep_before(1) for _ in range(32)}
        assert len(draws) > 1
        assert all(0.05 <= d <= 0.15 for d in draws)


class TestCircuitBreaker:
    def test_trips_after_threshold_and_half_opens(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_seconds=0.1)
        breaker.before_request()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.before_request()
        time.sleep(0.15)
        breaker.before_request()  # the half-open probe slot
        assert breaker.state == "half_open"
        # A second caller while the probe is out still fails fast.
        with pytest.raises(CircuitOpenError):
            breaker.before_request()
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.before_request()

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_seconds=0.05)
        breaker.record_failure()
        assert breaker.state == "open"
        time.sleep(0.08)
        breaker.before_request()
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.before_request()

    def test_breaker_fails_fast_without_network(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_seconds=60.0)
        with pytest.raises(ServiceUnavailableError):
            CliqueQueryClient(
                "127.0.0.1", port, timeout_seconds=0.3, breaker=breaker
            )
        assert breaker.state == "open"
        started = time.monotonic()
        with pytest.raises(CircuitOpenError):
            CliqueQueryClient(
                "127.0.0.1", port, timeout_seconds=30.0, breaker=breaker
            )
        assert time.monotonic() - started < 0.2  # no connect attempt

    def test_overload_sheds_do_not_trip_the_breaker(self, corpus):
        _graph, _cliques, directory = corpus
        gate = threading.Event()
        with CliqueIndex(directory) as index:
            engine = _GatedEngine(index, gate)
            server = CliqueQueryServer(engine, max_in_flight=1).start()
            host, port = server.address
            try:
                blocker = threading.Thread(
                    target=_raw_request,
                    args=(host, port, {"id": 1, "op": "stats", "args": {}}),
                )
                blocker.start()
                deadline = time.monotonic() + 5.0
                while server.in_flight < 1 and time.monotonic() < deadline:
                    time.sleep(0.005)
                breaker = CircuitBreaker(failure_threshold=2)
                client = _no_retry_client(host, port, breaker=breaker)
                for _ in range(5):
                    with pytest.raises(ServerOverloadedError):
                        client.stats()
                assert breaker.state == "closed"
                client.close()
            finally:
                gate.set()
                blocker.join(timeout=10.0)
                server.stop()


class TestSlowConsumer:
    def test_overflowing_event_queue_disconnects_the_consumer(
        self, tmp_path, fresh_registry
    ):
        from repro.live import LiveCliqueStore
        from repro.live.deltas import CliqueDelta

        store = LiveCliqueStore.initialize(tmp_path / "store")
        engine = CliqueQueryEngine(store)
        server = CliqueQueryServer(engine, event_queue_limit=4).start()
        host, port = server.address
        client = _no_retry_client(host, port)
        try:
            client.subscribe(1)
            with server._handlers_lock:
                (handler,) = server._handlers
            # Prime one event so the sender thread exists (its lazy start
            # takes the write lock, which we are about to hold).
            store.apply_deltas([CliqueDelta("add", (1, 99))])
            deadline = time.monotonic() + 5.0
            while handler._sender is None and time.monotonic() < deadline:
                time.sleep(0.005)
            assert handler._sender is not None
            # Jam the sender (it blocks on the write lock mid-send), then
            # push past the queue limit: the store's writer must never
            # block — the slow consumer is disconnected instead.
            with handler._write_lock:
                for n in range(12):
                    store.apply_deltas(
                        [CliqueDelta("add", (1, 100 + n))]
                    )
            deadline = time.monotonic() + 5.0
            while not handler._closing and time.monotonic() < deadline:
                time.sleep(0.01)
            assert handler._closing, "slow consumer was never disconnected"
            assert metrics.counter_value(
                fresh_registry.snapshot(),
                "repro_server_slow_consumer_disconnects_total",
            ) >= 1
        finally:
            client.close()
            server.stop()
            store.close()
