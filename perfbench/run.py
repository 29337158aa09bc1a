"""The repository benchmark: three workloads through the ExtMCE pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload powerlaw_batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a traced
run and prints the per-layer metrics.  Every run checks the program's
output against the benchmark's oracle, writes its envelope and raw
samples (and, traced, its spans) under ``.perfbench_out/``, and prints
one JSON object as its last line.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracle  # noqa: E402
import workloads  # noqa: E402
from batch import BatchConfig, run_batch, yardstick  # noqa: E402
from common import (  # noqa: E402
    ROOT,
    WORK_ROOT,
    MissingProgram,
    add_repro_to_path,
    stop_helper_processes,
    tail_percentile,
)
from serve import StageConfig, run_stage  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import COMMUNITY_PANEL, POWERLAW_VERTICES, SERVE_VERTICES  # noqa: E402

WORKLOADS = ("powerlaw_batch", "community_lift", "serve_live")
#: Samples per tail-latency window (p99 then has ten samples beyond it).
WINDOW = 1000
#: ``serve_live`` set-ups before the serving stage, and again after it.
SERVE_SETUPS = 5
OUT_ROOT = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "overhead_ratio": "x",
    "peak_memory_units": "units",
    "io_pages": "pages",
    "ok_rate": "ratio",
}

PER_LAYER_UNITS = {
    "storage.convert_s": "s",
    "storage.partition_build_s": "s",
    "storage.rewrite_s": "s",
    "storage.pages_read": "pages",
    "storage.pages_written": "pages",
    "storage.scans": "count",
    "reduce.s": "s",
    "reduce.vertices_removed_frac": "ratio",
    "reduce.edges_removed_frac": "ratio",
    "core.hstar_s": "s",
    "core.lstar_s": "s",
    "core.estimate_s": "s",
    "core.steps": "count",
    "core.tree_build_s": "s",
    "core.lift_s": "s",
    "core.tree_nodes": "count",
    "core.hashtable_peak": "count",
    "core.emit_ratio": "ratio",
    "core.driver_self_s": "s",
    "kernel.s": "s",
    "kernel.calls": "count",
    "parallel.payload_bytes": "bytes",
    "parallel.shm_bytes": "bytes",
    "parallel.tasks_split": "count",
    "parallel.tasks_stolen": "count",
    "parallel.spooled_chunks": "count",
    "parallel.retries": "count",
    "index.build_s": "s",
    "index.bytes": "bytes",
    "service.engine_p50_us": "us",
    "service.cache_hit_rate": "ratio",
    "service.shed": "count",
    "service.read_p50_ms": "ms",
    "service.read_p99_ms": "ms",
    "service.read_max_qps": "1/s",
    "live.apply_s": "s",
    "dynamic.update_s": "s",
    "live.deltas_per_update": "ratio",
    "live.compactions": "count",
    "live.compact_s": "s",
    "live.tail_max": "count",
    "live.write_p99_ms": "ms",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
    "trace.phase_gap": "ratio",
}

#: Phases the program's own ``repro_mce_phase_seconds`` timers share with
#: the benchmark's spans (compared on traced runs).
PHASE_SPANS = {
    "tree_build": "core.tree_build",
    "lift": "core.lift",
    "partition_build": "storage.partition_build",
    "residual_rewrite": "storage.rewrite",
}


def envelope(seed: int, trace: bool, seconds: int) -> dict:
    """Where and on what a result was measured."""
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_at_start": os.getloadavg(),
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "started_unix": time.time(),
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
#: The shortened configuration the self-tests run: small inputs, short stages.
SMOKE_STAGE = StageConfig(read_rate=200, read_seconds=1, write_rate=50,
                          compact_threshold=20, rung_seconds=0.2)


def batch_workload(name: str, workdir: Path, seed: int, seconds: int, tracer,
                   smoke: bool = False) -> dict:
    if name == "powerlaw_batch":
        graphs = [workloads.powerlaw_batch_inputs(seed, 1500 if smoke else POWERLAW_VERTICES)]
        config = BatchConfig(workers=2, reduction="off", setup_seconds=1.0, min_repeats=3)
    else:
        graphs = workloads.community_lift_inputs(seed, (1, 7) if smoke else COMMUNITY_PANEL)
        # A pass takes 7-18 s as the shared host's speed swings: two passes
        # at least, a third only while ``--seconds`` allows, which keeps a
        # run under about 45 s in slow spells.
        config = BatchConfig(workers=1, reduction="full", setup_seconds=0.5, min_repeats=2)
    if smoke:
        config = replace(config, setup_seconds=0.0, min_repeats=1)
    observers, reductions = {}, []
    if tracer is not None:

        def on_reduce(args, result):
            graph = args[0]
            reductions.append((
                result.map.vertices_removed / max(graph.num_vertices, 1),
                result.map.edges_removed / max(graph.num_edges, 1),
            ))

        observers["reduce"] = on_reduce
    batch = run_batch(workdir / "batch", graphs, config, seconds, tracer, observers)
    return {"batch": batch, "reductions": reductions}


def serve_workload(workdir: Path, seed: int, tracer, server_spans: Path | None,
                   smoke: bool = False) -> dict:
    edges = workloads.serve_live_inputs(seed, 600 if smoke else SERVE_VERTICES)
    (cliques,), _ = yardstick([oracle.adjacency_of(edges)], min_seconds=0.0, min_repeats=1)
    # The read ladder (``service.read_max_qps``) is a per-layer figure, so
    # only a traced run climbs it.
    stage = StageConfig(read_rate=200, read_seconds=16, write_rate=100,
                        compact_threshold=800, rung_seconds=1.0, setups=SERVE_SETUPS,
                        late_setups=SERVE_SETUPS, ladder=tracer is not None)
    if smoke:
        stage = replace(SMOKE_STAGE, setups=2, ladder=tracer is not None)
    served = run_stage(workdir / "serve", edges, cliques, stage, seed, tracer is not None,
                       spans_path=server_spans)
    return {"stage": served}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def windowed_p99(latencies: list[float]) -> float:
    """Split the samples (in due order) into as many equal consecutive
    windows of at least ``WINDOW`` samples as they fill, take each window's
    p99 (ten or more samples beyond it) and report the median: a stall of
    the shared host hits one window, a stall of the program hits each."""
    count = max(1, len(latencies) // WINDOW)
    size = len(latencies) // count
    windows = [latencies[i * size:(i + 1) * size] for i in range(count - 1)]
    windows.append(latencies[(count - 1) * size:])
    return statistics.median(tail_percentile(w)[1] for w in windows)


def stage_outcomes(stage: dict) -> tuple[int, int, list[str]]:
    """Attempted and failed outcomes of a serving stage (wrong, failed,
    shed or timed-out reads, failed writes, the final set check, errors of
    the server's compactor and in-process engine), and verdict lines."""
    server = stage["server"]
    fixed = stage["fixed"]
    phases = [{"attempted": fixed.attempted, "failed": fixed.failed, "wrong": fixed.wrong,
               "shed": fixed.shed, "wrong_reads": fixed.wrong_reads[:5]}] + stage["rungs"]
    attempted, failed, wrong, shed = (
        sum(phase[key] for phase in phases) for key in ("attempted", "failed", "wrong", "shed"))
    verdicts = [f"reads: {attempted} attempted, {failed} failed "
                f"({wrong} wrong against the oracle, {shed} shed)"]
    for phase in phases:
        verdicts += phase["wrong_reads"]
    attempted += stage["writes"] + 1
    failed += len(server["write_errors"]) + (0 if stage["final_ok"] else 1)
    verdicts.append(f"writes: {stage['writes']} attempted, "
                    f"{len(server['write_errors'])} failed")
    verdicts += server["write_errors"][:5]
    verdicts.append("final live clique set == oracle of the final graph: "
                    + ("yes" if stage["final_ok"] else "NO"))
    # A compaction or an in-process engine query that raised is a failure
    # of the run even when every answer the client saw was right.
    compaction_errors = server["compaction_errors"]
    engine_errors = server.get("layers", {}).get("engine_errors", 0)
    failed += compaction_errors + engine_errors
    verdicts.append(f"server: {server['compactions']} compactions, "
                    f"{compaction_errors} compaction errors, "
                    f"{engine_errors} in-process engine errors")
    verdicts.append(f"unbounded latencies: read p50 {statistics.median(fixed.latencies) * 1000.0:.3f}"
                    f" ms, read p99 {windowed_p99(fixed.latencies) * 1000.0:.3f} ms, "
                    f"write p99 {windowed_p99(server['write_latencies']) * 1000.0:.3f} ms")
    if stage["rungs"]:
        verdicts.append("read ladder (reads/s, p99 ms, passed): " + ", ".join(
            f"{r['rate']} {r['p99_ms']:.1f} {'yes' if r['passed'] else 'no'}"
            for r in stage["rungs"]))
    return attempted, failed, verdicts


def end_to_end(raw: dict) -> tuple[dict, int, int, list[str]]:
    """End-to-end metric values, attempted, failed, and oracle verdict
    lines.  Any failure makes the run incorrect."""
    values: dict[str, float] = {}
    if "batch" in raw:
        batch = raw["batch"]
        passes = batch["passes"]
        runs = [run for one in passes + [batch["traced_pass"] or []] for run in one]
        attempted = len(runs)
        failed = sum(1 for run in runs if run.mismatches)
        verdicts = [f"pipeline runs: {len(runs)}; clique set == oracle: "
                    + ("yes" if not failed else f"NO ({failed} differ)")]
        values["setup_s"] = statistics.median(batch["setup_samples"])
        values["pipeline_s"] = statistics.median(sum(r.pipeline_s for r in one) for one in passes)
        values["overhead_ratio"] = statistics.median(
            sum(r.extmce_s for r in one) / sum(r.yardstick_s for r in one) for one in passes
        )
        values["peak_memory_units"] = statistics.median(
            max(r.report["peak_memory_units"] for r in one) for one in passes
        )
        values["io_pages"] = statistics.median(
            sum(r.report["pages_read"] + r.report["pages_written"] for r in one)
            for one in passes
        )
    else:
        stage = raw["stage"]
        attempted, failed, verdicts = stage_outcomes(stage)
        server = stage["server"]
        pipelines = server["pipelines"]
        values["setup_s"] = statistics.median(server["setup_samples"])
        values["pipeline_s"] = statistics.median(p["pipeline_s"] for p in pipelines)
        values["overhead_ratio"] = statistics.median(
            p["extmce_s"] / p["yardstick_s"] for p in pipelines)
        values["peak_memory_units"] = statistics.median(p["peak_memory_units"] for p in pipelines)
        values["io_pages"] = statistics.median(
            p["pages_read"] + p["pages_written"] for p in pipelines)
    values["ok_rate"] = 1.0 - failed / attempted
    return values, attempted, failed, verdicts


def span_layers(table: dict, per: int = 1) -> dict:
    """Layer timings from a span table, divided over ``per`` pipelines."""

    def busy(span: str, key: str = "busy") -> float:
        return table.get(span, {}).get(key, 0.0) / per

    extmce = busy("core.extmce")
    return {
        "storage.partition_build_s": busy("storage.partition_build"),
        "storage.rewrite_s": busy("storage.rewrite"),
        "reduce.s": busy("reduce"),
        "core.hstar_s": busy("core.hstar"),
        "core.lstar_s": busy("core.lstar"),
        "core.estimate_s": busy("core.estimate"),
        "core.tree_build_s": busy("core.tree_build"),
        "core.lift_s": busy("core.lift"),
        "core.driver_self_s": busy("core.extmce", "self"),
        "kernel.s": busy("kernel", "outer"),
        "kernel.calls": busy("kernel", "calls"),
        "index.build_s": busy("index.build"),
        "trace.coverage": 1.0 - busy("core.extmce", "self") / extmce if extmce else 0.0,
    }


def report_layers(reports: list[dict]) -> dict:
    """Layer counts summed over the ``report_summary`` dicts of one pass."""
    emitted = sum(r["emitted"] for r in reports)
    suppressed = sum(r["suppressed"] for r in reports)
    return {
        "storage.pages_read": sum(r["pages_read"] for r in reports),
        "storage.pages_written": sum(r["pages_written"] for r in reports),
        "storage.scans": sum(r["scans"] for r in reports),
        "core.steps": sum(r["steps"] for r in reports),
        "core.tree_nodes": sum(r["tree_nodes"] for r in reports),
        "core.hashtable_peak": max(r["hashtable_peak"] for r in reports),
        "core.emit_ratio": emitted / max(emitted + suppressed, 1),
    }


def phase_timer_gaps(table: dict, snapshot: dict) -> tuple[float, list[str]]:
    """Compare ``repro_mce_phase_seconds`` (a metrics snapshot taken right
    after the traced pass) with the matching spans."""
    gaps, notes = [], []
    for phase, span in PHASE_SPANS.items():
        timer = sum(
            entry["sum"] for entry in snapshot["metrics"]
            if entry["name"] == "repro_mce_phase_seconds"
            and entry["labels"].get("phase") == phase
        )
        spanned = table.get(span, {}).get("busy", 0.0)
        if spanned > 0:
            gaps.append(abs(timer - spanned) / spanned)
        notes.append(f"phase {phase}: program timer {timer:.4f} s, benchmark span {spanned:.4f} s")
    return max(gaps, default=0.0), notes


def per_layer(raw: dict, tracer) -> tuple[dict, list[str]]:
    """Per-layer metric values of a traced run, and notes on the trace.

    A layer the workload does not exercise reads 0.
    """
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    notes = []
    if "batch" in raw:
        batch = raw["batch"]
        table = tracer.table()
        traced = batch["traced_pass"]
        values.update(span_layers(table))
        values.update(report_layers([run.report for run in traced]))
        values["storage.convert_s"] = (
            table.get("storage.convert", {}).get("busy", 0.0) / len(batch["setup_samples"]))
        if raw["reductions"]:
            values["reduce.vertices_removed_frac"] = statistics.mean(
                v for v, _ in raw["reductions"])
            values["reduce.edges_removed_frac"] = statistics.mean(
                e for _, e in raw["reductions"])
        for key in ("payload_bytes", "shm_bytes", "tasks_split", "tasks_stolen",
                    "spooled_chunks", "retries"):
            values[f"parallel.{key}"] = sum(run.parallel.get(key, 0) for run in traced)
        values["index.bytes"] = sum(run.index_bytes for run in traced)
        values["trace.overhead"] = sum(r.pipeline_s for r in traced) / statistics.mean(
            sum(r.pipeline_s for r in one) for one in batch["passes"]) - 1.0
        values["trace.phase_gap"], gap_notes = phase_timer_gaps(table, batch["phase_timers"])
        notes += gap_notes
        pipeline = sum(r.pipeline_s for r in traced)
        notes.append(f"traced pipeline {pipeline:.3f} s: lift {values['core.lift_s'] / pipeline:.1%}, "
                     f"tree build {values['core.tree_build_s'] / pipeline:.1%}, "
                     f"reduce {values['reduce.s'] / pipeline:.1%}, "
                     f"storage {(values['storage.partition_build_s'] + values['storage.rewrite_s']) / pipeline:.1%}, "
                     f"driver self {values['core.driver_self_s'] / pipeline:.1%}")
    else:
        values.update(serving_layers(raw["stage"]))
        layers = raw["stage"]["server"]["layers"]
        pipelines = raw["stage"]["server"]["pipelines"]
        traced = [p for p in pipelines if p["traced"]]
        untraced = [p for p in pipelines if not p["traced"]][1:] or pipelines[:1]
        values.update(span_layers(layers["setup_spans"], len(traced)))
        values.update(report_layers(traced[-1:]))
        values["index.bytes"] = traced[-1]["index_bytes"]
        values["trace.overhead"] = (
            statistics.median(p["pipeline_s"] for p in traced)
            / statistics.median(p["pipeline_s"] for p in untraced) - 1.0)
        notes.append("core, storage and index layers: the bootstrap pipeline, per set-up")
    notes.append(f"spans cover {values['trace.coverage']:.1%} of ExtMCE wall time; "
                 f"{values['core.driver_self_s']:.3f} s is driver self time")
    return values, notes


def serving_layers(stage: dict) -> dict:
    """The service, live and dynamic layers of a traced serving stage."""
    server = stage["server"]
    layers = server["layers"]
    spans = layers["spans"]
    fixed = stage["fixed"]
    return {
        "service.engine_p50_us": layers["engine_p50_us"],
        "service.cache_hit_rate": layers["cache_hit_rate"],
        "service.shed": fixed.shed + sum(r["shed"] for r in stage["rungs"]),
        "service.read_p50_ms": statistics.median(fixed.latencies) * 1000.0,
        "service.read_p99_ms": windowed_p99(fixed.latencies) * 1000.0,
        "service.read_max_qps": stage["max_qps"],
        "live.apply_s": (spans.get("live.deltas", {}).get("busy", 0.0)
                         + spans.get("live.apply", {}).get("busy", 0.0)),
        "dynamic.update_s": spans.get("dynamic.update", {}).get("self", 0.0),
        "live.deltas_per_update": server["deltas_emitted"] / max(server["edges_applied"], 1),
        "live.compactions": server["compactions"],
        "live.compact_s": spans.get("live.compact", {}).get("busy", 0.0),
        "live.tail_max": server["tail_max"],
        "live.write_p99_ms": windowed_p99(server["write_latencies"]) * 1000.0,
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: int, trace: bool, smoke: bool = False) -> dict:
    """Run one workload; ``smoke`` shrinks inputs and stages (self-tests)."""
    workdir = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    info = envelope(seed, trace, seconds)
    tracer = Tracer(f"{name}-seed{seed}-{os.getpid()}") if trace else None
    OUT_ROOT.mkdir(exist_ok=True)
    stem = OUT_ROOT / f"{name}-seed{seed}-trace{int(trace)}"
    server_spans = stem.with_name(stem.name + ".server-spans.jsonl") if trace else None
    try:
        if name == "serve_live":
            raw = serve_workload(workdir, seed, tracer, server_spans, smoke)
        else:
            raw = batch_workload(name, workdir, seed, seconds, tracer, smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values, attempted, failed, verdicts = end_to_end(raw)
    notes: list[str] = []
    if trace:
        values, notes = per_layer(raw, tracer)
        units = PER_LAYER_UNITS
    else:
        units = END_TO_END_UNITS
    if tracer is not None and tracer.spans:
        tracer.write(stem.with_name(stem.name + ".spans.jsonl"))
    stem.with_name(stem.name + ".json").write_text(json.dumps({
        "envelope": info,
        "workload": name,
        "attempted": attempted,
        "failed": failed,
        "verdicts": verdicts,
        "notes": notes,
        "metrics": values,
        "raw": raw_samples(raw),
    }, indent=1, default=str))
    return {
        "name": name, "values": values, "units": units, "attempted": attempted,
        "failed": failed, "correct": failed == 0,
        "verdicts": verdicts, "notes": notes, "envelope": info,
    }


def raw_samples(raw: dict) -> dict:
    """Per-run raw samples kept in the result file."""
    if "batch" in raw:
        batch = raw["batch"]
        return {
            "setup_s": batch["setup_samples"],
            "passes": [
                [{"pipeline_s": r.pipeline_s, "extmce_s": r.extmce_s, "index_s": r.index_s,
                  "yardstick_s": r.yardstick_s, **r.report, "mismatches": r.mismatches}
                 for r in one]
                for one in batch["passes"]
            ],
        }
    stage = raw["stage"]
    server = stage["server"]
    return {
        "setup_s": server["setup_samples"],
        "pipelines": server["pipelines"],
        "read_latencies_s": stage["fixed"].latencies,
        "read_lateness_s": stage["fixed"].lateness,
        "ladder": stage["rungs"],
        "write_latencies_s": server["write_latencies"],
        "compactions": server["compactions"],
        "ready_s": stage["ready_s"],
    }


def report(result: dict) -> None:
    print(f"== {result['name']}  (nproc {result['envelope']['nproc']}, "
          f"python {result['envelope']['python']}, numpy {result['envelope']['numpy']}, "
          f"load {result['envelope']['loadavg_at_start'][0]:.2f}, "
          f"sha {result['envelope']['git_sha'][:12]})")
    for metric, value in result["values"].items():
        print(f"  {metric:<28} {value:>14.6g} {result['units'][metric]}")
    error_rate = result["failed"] / result["attempted"]
    print(f"  error_rate {error_rate:.6f} ({result['failed']} of {result['attempted']})")
    for line in result["verdicts"] + result["notes"]:
        print(f"  {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        add_repro_to_path()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names]
    finally:
        stop_helper_processes()
    for result in results:
        report(result)
    if len(results) == 1:
        metrics = {
            key: {"value": value, "unit": results[0]["units"][key]}
            for key, value in results[0]["values"].items()
        }
    else:
        metrics = {
            f"{result['name']}/{key}": {"value": value, "unit": result["units"][key]}
            for result in results for key, value in result["values"].items()
        }
    print(json.dumps({
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
