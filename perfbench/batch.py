"""The batch stage: edge list -> DiskGraph -> reduce -> ExtMCE -> committed index.

Every pipeline run is checked for set equality against the benchmark's
own oracle, and the oracle's run time is the ``overhead_ratio``
denominator.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
from common import report_summary
from workloads import write_edge_list


@dataclass(frozen=True)
class BatchConfig:
    workers: int
    reduction: str
    #: Conversion time each set-up round spends at least (seconds).
    setup_seconds: float
    min_repeats: int


@dataclass
class GraphRun:
    """One pipeline run over one graph."""

    pipeline_s: float
    extmce_s: float
    index_s: float
    report: dict
    yardstick_s: float
    index_bytes: int
    parallel: dict
    mismatches: int


def convert(edge_list: Path, target: Path, workdir: Path, tracer=None) -> float:
    """Edge-list file -> on-disk ``DiskGraph``; returns the seconds taken."""
    from repro.storage.convert import edge_list_file_to_disk_graph

    workdir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    if tracer is None:
        edge_list_file_to_disk_graph(edge_list, target, workdir)
    else:
        with tracer.span("storage.convert"):
            edge_list_file_to_disk_graph(edge_list, target, workdir)
    return time.perf_counter() - started


def run_pipeline(disk_path: Path, workdir: Path, config: BatchConfig,
                 expected: set, adjacency: dict, tracer=None) -> GraphRun:
    """One run from the on-disk graph to a committed index, bracketed by
    the yardstick on the same graph (its mean over a run just before and
    one just after, so a slow spell of the host slows both sides)."""
    from repro import DiskGraph, ExtMCE, ExtMCEConfig, ParallelExtMCE, build_index

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    disk = DiskGraph.open(disk_path)
    driver = ParallelExtMCE if config.workers > 1 else ExtMCE
    algo = driver(disk, ExtMCEConfig(
        workdir=workdir / "mce", workers=config.workers, reduction=config.reduction,
    ))
    _, (before_s,) = yardstick([adjacency], min_seconds=0.05, min_repeats=1)
    started = time.perf_counter()
    if tracer is None:
        cliques = list(algo.enumerate_cliques())
        enumerated = time.perf_counter()
        index = build_index(cliques, workdir / "index")
    else:
        with tracer.span("core.extmce"):
            cliques = list(algo.enumerate_cliques())
        enumerated = time.perf_counter()
        with tracer.span("index.build"):
            index = build_index(cliques, workdir / "index")
    finished = time.perf_counter()
    _, (after_s,) = yardstick([adjacency], min_seconds=0.05, min_repeats=1)
    produced = [tuple(sorted(clique)) for clique in cliques]
    parallel = {}
    if config.workers > 1:
        parallel = {
            "payload_bytes": algo.payload_bytes_total,
            "shm_bytes": algo.shm_bytes_total,
            "tasks_split": algo.tasks_split_total,
            "tasks_stolen": algo.tasks_stolen_total,
            "spooled_chunks": algo.spooled_chunks_total,
            "retries": algo.executor_stats.chunk_retries,
        }
    return GraphRun(
        pipeline_s=finished - started,
        extmce_s=enumerated - started,
        index_s=finished - enumerated,
        report=report_summary(algo.report),
        yardstick_s=(before_s + after_s) / 2,
        index_bytes=index.total_bytes,
        parallel=parallel,
        mismatches=oracle.diff(expected, produced),
    )


def yardstick(adjacencies: list[dict], min_seconds: float,
              min_repeats: int) -> tuple[list[set], list[float]]:
    """The oracle's clique sets and each graph's median in-memory run time.

    The whole set is run again until ``min_repeats`` rounds and
    ``min_seconds`` of oracle time have passed.
    """
    times: list[list[float]] = [[] for _ in adjacencies]
    cliques: list[set] = [set() for _ in adjacencies]
    total = 0.0
    while len(times[0]) < min_repeats or total < min_seconds:
        for i, adjacency in enumerate(adjacencies):
            started = time.perf_counter()
            cliques[i] = oracle.maximal_cliques(adjacency)
            taken = time.perf_counter() - started
            times[i].append(taken)
            total += taken
    return cliques, [statistics.median(samples) for samples in times]


def run_batch(workdir: Path, graphs: list[list[tuple[int, int]]], config: BatchConfig,
              seconds: float, tracer=None, observers=None) -> dict:
    """Set up every graph, then run the whole set through the pipeline.

    Untraced, passes repeat until ``seconds`` have passed (at least
    ``min_repeats``).  Traced, a pass with ``tracer`` installed runs between
    two untraced passes; against their mean it gives the tracing overhead
    (the first pass in a process also pays the warm-up).  A set-up round
    (every graph converted again, until ``config.setup_seconds`` of
    conversion time) runs before the first pass and after each pass, so
    the set-up samples fall in the different spells of a shared host.
    """
    workdir.mkdir(parents=True)
    inputs = []
    for i, edges in enumerate(graphs):
        path = workdir / f"graph{i}.txt"
        write_edge_list(path, edges)
        inputs.append(path)
    # Keep the benchmark's own tables (inputs, then oracle cliques) out of
    # the garbage-collection passes of the yardstick and of the program.
    gc.collect()
    gc.freeze()
    adjacencies = [oracle.adjacency_of(edges) for edges in graphs]
    expected, _ = yardstick(adjacencies, min_seconds=0.0, min_repeats=1)

    gc.collect()
    gc.freeze()
    setup_samples: list[float] = []

    def setup_round() -> None:
        spent = 0.0
        while True:
            sample = sum(
                convert(path, workdir / f"graph{i}.bin", workdir / "convert", tracer)
                for i, path in enumerate(inputs)
            )
            setup_samples.append(sample)
            spent += sample
            if spent >= config.setup_seconds:
                return

    def one_pass(active_tracer=None) -> list[GraphRun]:
        return [
            run_pipeline(workdir / f"graph{i}.bin", workdir / f"run{i}", config,
                         expected[i], adjacencies[i], active_tracer)
            for i in range(len(graphs))
        ]

    passes: list[list[GraphRun]] = []
    traced_pass = phase_timers = None
    started = time.perf_counter()
    setup_round()
    if tracer is None:
        while len(passes) < config.min_repeats or (
            (time.perf_counter() - started) * (len(passes) + 1) / len(passes) <= seconds
        ):
            passes.append(one_pass())
            setup_round()
    else:
        passes.append(one_pass())
        setup_round()
        from repro import metrics

        # The program's own phase timers, on for the traced pass only.
        metrics.enable()
        tracer.install(observers)
        try:
            traced_pass = one_pass(tracer)
        finally:
            tracer.uninstall()
            phase_timers = metrics.get_registry().snapshot()
            metrics.disable()
        setup_round()
        passes.append(one_pass())
        setup_round()
    return {
        "setup_samples": setup_samples,
        "passes": passes,
        "traced_pass": traced_pass,
        "phase_timers": phase_timers,
        "expected": expected,
    }
