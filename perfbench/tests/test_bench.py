"""Self-tests of the benchmark (run: ``python3 -m pytest -q perfbench/tests``)."""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracle  # noqa: E402
import workloads  # noqa: E402
from common import add_repro_to_path  # noqa: E402

add_repro_to_path()

import run  # noqa: E402
from batch import BatchConfig, run_pipeline  # noqa: E402
from serve import StageConfig, check_read, draw_reads, make_plan  # noqa: E402


def digest(edges) -> str:
    return hashlib.sha256("".join(f"{u} {v}\n" for u, v in edges).encode()).hexdigest()


@pytest.mark.parametrize("inputs", [
    lambda seed: [workloads.powerlaw_batch_inputs(seed)],
    workloads.community_lift_inputs,
    lambda seed: [workloads.serve_live_inputs(seed)],
])
def test_same_seed_gives_byte_identical_inputs(inputs):
    first = [digest(edges) for edges in inputs(7)]
    assert first == [digest(edges) for edges in inputs(7)]
    assert first != [digest(edges) for edges in inputs(8)]


def test_metric_tables_match_benchmark_json():
    import json

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_oracle_matches_a_known_graph():
    adjacency = oracle.adjacency_of([(0, 1), (1, 2), (0, 2), (2, 3)])
    assert oracle.maximal_cliques(adjacency) == {(0, 1, 2), (2, 3)}


def tampered(kind: str):
    """``ExtMCE.enumerate_cliques`` with one clique dropped or one added."""
    from repro import ExtMCE

    original = ExtMCE.enumerate_cliques

    def enumerate_cliques(self):
        cliques = list(original(self))
        if kind == "drop":
            cliques.pop()
        else:
            cliques.append(frozenset(sorted(cliques[0])[:-1]))  # not maximal
        yield from cliques

    return enumerate_cliques


@pytest.mark.parametrize("kind", ["drop", "add"])
def test_tampered_stream_is_counted(tmp_path, monkeypatch, kind):
    from repro import ExtMCE
    from repro.storage.convert import edge_list_file_to_disk_graph

    edges = workloads.powerlaw_cluster_edges(300, 3, 0.5, seed=1)
    workloads.write_edge_list(tmp_path / "g.txt", edges)
    edge_list_file_to_disk_graph(tmp_path / "g.txt", tmp_path / "g.bin", tmp_path / "convert")
    adjacency = oracle.adjacency_of(edges)
    expected = oracle.maximal_cliques(adjacency)
    config = BatchConfig(workers=1, reduction="off", setup_seconds=0.0, min_repeats=1)
    honest = run_pipeline(tmp_path / "g.bin", tmp_path / "honest", config, expected, adjacency)
    assert honest.mismatches == 0
    monkeypatch.setattr(ExtMCE, "enumerate_cliques", tampered(kind))
    broken = run_pipeline(tmp_path / "g.bin", tmp_path / "broken", config, expected, adjacency)
    assert broken.mismatches == 1
    raw = {"batch": {"passes": [[broken]], "traced_pass": None, "setup_samples": [1.0]}}
    values, attempted, failed, _ = run.end_to_end(raw)
    assert failed == 1
    assert values["ok_rate"] == 1.0 - 1 / attempted


@pytest.mark.parametrize("field", ["compaction_errors", "write_errors", "engine_errors"])
def test_server_errors_are_counted(field):
    stage = stub_stage()
    assert run.stage_outcomes(stage)[1] == 0
    if field == "write_errors":
        stage["server"][field] = ["write 0 (delete 1 2) failed: OSError()"]
    elif field == "engine_errors":
        stage["server"]["layers"] = {"engine_errors": 1}
    else:
        stage["server"][field] = 1
    assert run.stage_outcomes(stage)[1] == 1


def test_wrong_read_answers_are_rejected():
    edges = workloads.powerlaw_cluster_edges(400, 3, 0.5, seed=2)
    cliques = oracle.maximal_cliques(oracle.adjacency_of(edges))
    plan = make_plan(edges, cliques, StageConfig(100, 1, 20, 10, 0.1), seed=2)
    checked = [read for read in draw_reads(plan, 400) if read[2] is not None]
    assert checked
    for op, _args, expected in checked:
        if op == "clique":
            assert check_read(plan, op, expected, list(expected))
            assert not check_read(plan, op, expected, list(expected)[:-1])
        elif op != "top_k_largest":
            assert check_read(plan, op, expected, list(range(expected)))
            assert not check_read(plan, op, expected, list(range(expected + 1)))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_configuration_runs_end_to_end(name):
    for trace in (False, True):
        result = run.run_workload(name, seed=3, seconds=1, trace=trace, smoke=True)
        assert result["correct"] and result["failed"] == 0
        expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
        assert set(result["values"]) == set(expected)


def test_no_helper_process_outlives_a_run():
    import multiprocessing
    from multiprocessing import resource_tracker

    from common import stop_helper_processes

    run.run_workload("powerlaw_batch", seed=3, seconds=1, trace=False, smoke=True)
    tracker = resource_tracker._resource_tracker
    assert tracker._pid is not None  # the parallel engine started it
    pid = tracker._pid
    stop_helper_processes()
    assert tracker._pid is None and not multiprocessing.active_children()
    assert not Path(f"/proc/{pid}").exists()


def stub_stage():
    """A serving stage with nothing to count."""
    from serve import Phase

    return {
        "fixed": Phase([0.001], [0.0], 0, 0, 0, 1.0),
        "rungs": [],
        "writes": 0,
        "final_ok": True,
        "server": {"write_errors": [], "write_latencies": [0.001],
                   "compactions": 0, "compaction_errors": 0},
    }
