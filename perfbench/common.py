"""Paths and small statistics shared by the benchmark's modules."""

from __future__ import annotations

import math
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Scratch space for one run; lives inside the checkout and is removed at exit.
WORK_ROOT = ROOT / ".perfbench_work"


class MissingProgram(RuntimeError):
    """The checkout holds the benchmark but not the program it measures."""


def add_repro_to_path() -> None:
    """Import ``repro`` from this checkout's sources, never from elsewhere."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources at {source / 'repro'}")
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))


def stop_helper_processes() -> None:
    """Stop and wait for the processes ``multiprocessing`` leaves behind.

    The parallel engine starts the shared-memory resource tracker, which
    otherwise outlives this process by however long it takes to notice
    the closed pipe; any pool worker not yet reaped is joined too.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest of p50/p90/p99 that has at least ten samples beyond it,
    as ``(percentile, value)``."""
    ordered = sorted(values)
    chosen = (50.0, percentile(ordered, 50.0))
    for p in (90.0, 99.0):
        if len(ordered) * (1.0 - p / 100.0) >= 10:
            chosen = (p, percentile(ordered, p))
    return chosen


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def report_summary(report) -> dict:
    """The figures of one ``ExtMCEReport`` the benchmark reports."""
    steps = report.steps
    return {
        "peak_memory_units": report.peak_memory_units,
        "pages_read": report.pages_read,
        "pages_written": report.pages_written,
        "scans": report.sequential_scans,
        "steps": len(steps),
        "tree_nodes": sum(step.tree_nodes for step in steps),
        "hashtable_peak": max((step.hashtable_entries for step in steps), default=0),
        "emitted": sum(step.cliques_emitted for step in steps),
        "suppressed": sum(step.cliques_suppressed for step in steps),
    }
