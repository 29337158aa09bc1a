"""The serving process: a live clique store behind ``CliqueQueryServer``.

Started by the load generator (``serve.py``) as its own process.  It
bootstraps the live store from an edge list, serves it over TCP, prints
``READY <port>`` and, on ``GO``, applies a paced insert/delete edge
stream through ``LiveIngestor`` with threshold compaction.  On ``STOP``
it finishes the stream, writes a JSON result (write latencies, layer
counters, the final clique set) and exits.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import add_repro_to_path, report_summary  # noqa: E402

add_repro_to_path()

from repro import (  # noqa: E402
    AdjacencyGraph,
    CliqueQueryEngine,
    CliqueQueryServer,
    DiskGraph,
    ExtMCE,
    ExtMCEConfig,
    HStarMaintainer,
    LiveCliqueStore,
    LiveIngestor,
    metrics,
)

import oracle  # noqa: E402
from batch import yardstick  # noqa: E402
from spans import Tracer  # noqa: E402


def bootstrap(graph: AdjacencyGraph, directory: Path, tracer=None) -> tuple[LiveCliqueStore, dict]:
    """ExtMCE over a disk snapshot, then generation 0 (``bootstrap_live_store``'s steps)."""
    directory.mkdir(parents=True)
    started = time.perf_counter()
    disk = DiskGraph.create(directory / "bootstrap.bin", graph)
    algo = ExtMCE(disk, ExtMCEConfig(workdir=directory / "work"))
    if tracer is None:
        cliques = [tuple(sorted(clique)) for clique in algo.enumerate_cliques()]
    else:
        with tracer.span("core.extmce"):
            cliques = [tuple(sorted(clique)) for clique in algo.enumerate_cliques()]
    enumerated = time.perf_counter()
    store = LiveCliqueStore.initialize(directory / "store", cliques)
    finished = time.perf_counter()
    generation = directory / "store" / store.generation
    return store, {
        "extmce_s": enumerated - started,
        "pipeline_s": finished - started,
        "index_bytes": sum(f.stat().st_size for f in generation.iterdir()),
        "traced": tracer is not None,
        **report_summary(algo.report),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--edges", type=Path, required=True)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--late-setups", type=int, default=0,
                        help="untraced: set-ups to time after the stream")
    parser.add_argument("--writes", type=Path, required=True)
    parser.add_argument("--write-rate", type=float, required=True)
    parser.add_argument("--compact-threshold", type=int, required=True)
    parser.add_argument("--mix", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", type=Path, help="traced: write spans here")
    args = parser.parse_args(argv)

    # Traced, set-up 0 (which also pays the process warm-up) and set-up 1
    # run untraced and the rest traced: set-up 1 against the traced ones
    # gives the tracing overhead of the bootstrap pipeline.
    tracer = Tracer(f"server-{args.workdir.name}") if args.trace else None
    edges = [tuple(map(int, line.split())) for line in args.edges.read_text().splitlines()]
    graph = AdjacencyGraph.from_edges(edges)
    adjacency = oracle.adjacency_of(edges)
    setup_samples, pipelines = [], []

    def set_up(directory: Path, traced: bool) -> tuple[LiveCliqueStore, CliqueQueryServer]:
        """One set-up, timed: bootstrap, generation 0, its engine and a
        listening server."""
        started = time.perf_counter()
        store, pipeline = bootstrap(graph, directory, tracer if traced else None)
        engine = CliqueQueryEngine(store, cache_entries=1024)
        server = CliqueQueryServer(engine, host="127.0.0.1", port=0)
        server.start()
        setup_samples.append(time.perf_counter() - started)
        # The yardstick right after the pipeline it divides, so a slow
        # spell of the shared host slows both.
        _, (pipeline["yardstick_s"],) = yardstick([adjacency], min_seconds=0.3, min_repeats=1)
        pipelines.append(pipeline)
        return store, server

    # Set-up is repeated and its median reported; the last store serves.
    store = server = None
    for attempt in range(args.setups):
        if server is not None:
            server.stop()
            store.close()
        first_traced = min(2, args.setups - 1)
        traced = tracer is not None and attempt >= first_traced
        if traced and attempt == first_traced:
            tracer.install()
            metrics.enable()
        store, server = set_up(args.workdir / f"setup{attempt}", traced)
    for attempt in range(args.setups - 1):
        shutil.rmtree(args.workdir / f"setup{attempt}", ignore_errors=True)

    maintainer = HStarMaintainer(graph)
    ingestor = LiveIngestor(maintainer, store)
    compactor = store.start_compactor(tail_threshold=args.compact_threshold)
    writes = json.loads(args.writes.read_text())
    setup_spans = tracer.table() if tracer is not None else {}
    print(f"READY {server.address[1]}", flush=True)

    latencies: list[float] = []
    write_errors: list[str] = []
    tail_max = 0
    try:
        if sys.stdin.readline().strip() != "GO":
            return 2
        go = time.perf_counter()
        for i, (op, u, v) in enumerate(writes):
            due = go + i / args.write_rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                ingestor.apply_event((i, op, u, v))
            except Exception as exc:  # every failed write is counted, never fatal
                write_errors.append(f"write {i} ({op} {u} {v}) failed: {exc!r}")
            latencies.append(time.perf_counter() - due)
            tail_max = max(tail_max, store.tail_length)
        sys.stdin.readline()  # STOP
        if tracer is None:
            # More set-ups at the end of the run: the shared host runs fast
            # and slow spells of seconds, and samples taken only at the
            # start of a run all land in the same spell.
            for late in range(args.late_setups):
                extra_store, extra_server = set_up(args.workdir / f"late{late}", False)
                extra_server.stop()
                extra_store.close()
                shutil.rmtree(args.workdir / f"late{late}", ignore_errors=True)
        result = {
            "setup_samples": setup_samples,
            "pipelines": pipelines,
            "write_latencies": latencies,
            "write_errors": write_errors,
            "compactions": compactor.compactions,
            "compaction_errors": compactor.errors,
            "tail_max": tail_max,
            "edges_applied": ingestor.report.edges_applied,
            "deltas_emitted": ingestor.report.deltas_emitted,
        }
        if tracer is not None:
            result["layers"] = layer_summary(tracer, store, args.mix)
            result["layers"]["setup_spans"] = setup_spans
        result["live_cliques"] = sorted(store.live_cliques())
        args.result.write_text(json.dumps(result))
        if tracer is not None and args.spans is not None:
            tracer.write(args.spans)
    finally:
        server.stop()
        compactor.stop()
        store.close()
        if tracer is not None:
            tracer.uninstall()
    return 0


def layer_summary(tracer: Tracer, store: LiveCliqueStore, mix_path: Path) -> dict:
    """Span table plus serving figures of this process (traced runs only)."""
    snapshot = metrics.get_registry().snapshot()
    hits = metrics.counter_value(snapshot, "repro_service_cache_hits_total")
    misses = metrics.counter_value(snapshot, "repro_service_cache_misses_total")
    # The same read mix, in-process: what is left of read latency without
    # the wire and the server threads.
    engine = CliqueQueryEngine(store, cache_entries=1024)
    samples, errors = [], 0
    for op, request in json.loads(mix_path.read_text()):
        started = time.perf_counter()
        try:
            engine.query(op, **request)
        except Exception:  # counted, so a failing engine cannot pass unseen
            errors += 1
        samples.append(time.perf_counter() - started)
    return {
        "spans": tracer.table(),
        "engine_p50_us": statistics.median(samples) * 1e6,
        "engine_errors": errors,
        "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }


if __name__ == "__main__":
    sys.exit(main())
