"""End-to-end tests for ExtMCE (Algorithm 3, Theorem 5).

The golden invariant: on any graph, ExtMCE's output equals the in-memory
oracle's — soundness (no non-maximal or duplicate cliques) and
completeness (nothing missing).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.core.extmce import ExtMCE, ExtMCEConfig
from repro.core.result import CliqueCollector
from repro.errors import MemoryBudgetExceeded
from repro.graph.adjacency import AdjacencyGraph
from repro.storage.diskgraph import DiskGraph
from repro.storage.memory import MemoryModel

from tests.helpers import cliques_of, figure1_graph, seeded_gnp, small_graphs


def run_extmce(graph, tmp_path, seed=0, **config_kwargs):
    disk = DiskGraph.create(tmp_path / "input.bin", graph)
    config = ExtMCEConfig(workdir=tmp_path / "work", seed=seed, **config_kwargs)
    algo = ExtMCE(disk, config)
    emissions = list(algo.enumerate_cliques())
    return emissions, algo


class TestGoldenEquivalence:
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(small_graphs(), st.integers(0, 100))
    def test_matches_oracle_on_arbitrary_graphs(self, tmp_path, g, seed):
        emissions, _ = run_extmce(g, tmp_path, seed=seed)
        assert len(emissions) == len(set(emissions)), "duplicate emission"
        assert cliques_of(emissions) == cliques_of(tomita_maximal_cliques(g))

    def test_figure1(self, tmp_path):
        g = figure1_graph()
        emissions, _ = run_extmce(g, tmp_path)
        assert cliques_of(emissions) == cliques_of(tomita_maximal_cliques(g))

    def test_medium_random(self, tmp_path, medium_random):
        emissions, _ = run_extmce(medium_random, tmp_path)
        assert cliques_of(emissions) == cliques_of(tomita_maximal_cliques(medium_random))

    def test_scale_free(self, tmp_path):
        from repro.generators import powerlaw_cluster_graph

        g = powerlaw_cluster_graph(400, 4, 0.7, seed=12)
        emissions, _ = run_extmce(g, tmp_path)
        assert cliques_of(emissions) == cliques_of(tomita_maximal_cliques(g))

    @pytest.mark.parametrize("seed", range(5))
    def test_seed_independence_of_result(self, tmp_path, seed):
        g = seeded_gnp(45, 0.2, seed=3)
        emissions, _ = run_extmce(g, tmp_path, seed=seed)
        assert cliques_of(emissions) == cliques_of(tomita_maximal_cliques(g))


class TestEdgeCases:
    def test_empty_graph(self, tmp_path):
        emissions, _ = run_extmce(AdjacencyGraph(), tmp_path)
        assert emissions == []

    def test_all_isolated_vertices(self, tmp_path):
        g = AdjacencyGraph.from_edges([], vertices=range(4))
        emissions, _ = run_extmce(g, tmp_path)
        assert cliques_of(emissions) == {frozenset({v}) for v in range(4)}

    def test_single_edge(self, tmp_path):
        g = AdjacencyGraph.from_edges([(0, 1)])
        emissions, _ = run_extmce(g, tmp_path)
        assert cliques_of(emissions) == {frozenset({0, 1})}

    def test_one_big_clique(self, tmp_path):
        g = AdjacencyGraph.from_edges(
            [(u, v) for u in range(8) for v in range(u + 1, 8)]
        )
        emissions, _ = run_extmce(g, tmp_path)
        assert cliques_of(emissions) == {frozenset(range(8))}

    def test_isolated_vertex_with_positive_original_degree_not_emitted(self, tmp_path):
        # After the triangle {0,1,2} is consumed, vertex 3 (pendant on 2)
        # becomes isolated in the residual graph but must not be emitted
        # as a singleton because d_G(3) = 1.
        g = AdjacencyGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        emissions, _ = run_extmce(g, tmp_path)
        assert frozenset({3}) not in cliques_of(emissions)
        assert cliques_of(emissions) == cliques_of(tomita_maximal_cliques(g))

    def test_mixed_isolated_and_connected(self, tmp_path):
        g = AdjacencyGraph.from_edges([(0, 1), (1, 2), (0, 2)], vertices=[9, 10])
        emissions, _ = run_extmce(g, tmp_path)
        assert cliques_of(emissions) == {
            frozenset({0, 1, 2}), frozenset({9}), frozenset({10})
        }


class TestConfigurationKnobs:
    def test_generic_enumeration_matches(self, tmp_path, medium_random):
        fast, _ = run_extmce(medium_random, tmp_path, use_structure=True)
        tmp2 = tmp_path / "generic"
        tmp2.mkdir()
        slow, _ = run_extmce(medium_random, tmp2, use_structure=False)
        assert cliques_of(fast) == cliques_of(slow)

    def test_cleanup_off_still_correct(self, tmp_path, medium_random):
        emissions, _ = run_extmce(medium_random, tmp_path, hashtable_cleanup=False)
        assert cliques_of(emissions) == cliques_of(
            tomita_maximal_cliques(medium_random)
        )

    def test_memory_budget_shrinks_but_stays_correct(self, tmp_path):
        g = seeded_gnp(60, 0.25, seed=7)
        disk = DiskGraph.create(tmp_path / "input.bin", g)
        memory = MemoryModel()
        config = ExtMCEConfig(workdir=tmp_path / "w", memory_budget_units=2000)
        algo = ExtMCE(disk, config, memory=memory)
        emissions = list(algo.enumerate_cliques())
        assert cliques_of(emissions) == cliques_of(tomita_maximal_cliques(g))

    def test_impossibly_small_budget_raises(self, tmp_path):
        g = seeded_gnp(30, 0.4, seed=1)
        disk = DiskGraph.create(tmp_path / "input.bin", g)
        config = ExtMCEConfig(workdir=tmp_path / "w", memory_budget_units=2)
        with pytest.raises(MemoryBudgetExceeded):
            list(ExtMCE(disk, config).enumerate_cliques())

    def test_partition_fraction_variants(self, tmp_path, medium_random):
        for index, fraction in enumerate((0.25, 2.0)):
            sub = tmp_path / f"pf{index}"
            sub.mkdir()
            emissions, _ = run_extmce(
                medium_random, sub, partition_fraction=fraction
            )
            assert cliques_of(emissions) == cliques_of(
                tomita_maximal_cliques(medium_random)
            )


class TestReport:
    def test_report_counts_and_recursions(self, tmp_path, medium_random):
        emissions, algo = run_extmce(medium_random, tmp_path)
        report = algo.report
        assert report.total_cliques == len(emissions)
        assert report.num_recursions == len(report.steps) >= 1
        assert report.steps[0].core_size >= 1
        assert report.estimated_recursions > 0

    def test_peak_memory_recorded(self, tmp_path, medium_random):
        _, algo = run_extmce(medium_random, tmp_path)
        assert algo.report.peak_memory_units > 0
        assert algo.memory.in_use_units == 0  # everything released

    def test_io_counters_recorded(self, tmp_path, medium_random):
        _, algo = run_extmce(medium_random, tmp_path)
        assert algo.report.sequential_scans >= algo.report.num_recursions
        assert algo.report.pages_read > 0

    def test_first_step_fraction_in_unit_range(self, tmp_path, medium_random):
        _, algo = run_extmce(medium_random, tmp_path)
        assert 0.0 <= algo.report.first_step_time_fraction <= 1.0

    def test_run_with_sink(self, tmp_path, medium_random):
        disk = DiskGraph.create(tmp_path / "input.bin", medium_random)
        collector = CliqueCollector()
        algo = ExtMCE(disk, ExtMCEConfig(workdir=tmp_path / "w"))
        report = algo.run(sink=collector)
        assert len(collector.cliques) == report.total_cliques


class TestWorkdirHygiene:
    def test_input_file_never_modified(self, tmp_path, medium_random):
        disk = DiskGraph.create(tmp_path / "input.bin", medium_random)
        before = disk.path.read_bytes()
        list(ExtMCE(disk, ExtMCEConfig(workdir=tmp_path / "w")).enumerate_cliques())
        assert disk.path.read_bytes() == before

    def test_temporary_workdir_cleaned_up(self, tmp_path, medium_random):
        import glob

        disk = DiskGraph.create(tmp_path / "input.bin", medium_random)
        algo = ExtMCE(disk)  # no workdir: uses a TemporaryDirectory
        list(algo.enumerate_cliques())
        assert not glob.glob("/tmp/extmce_*/residual_*.bin")


class TestDeterminism:
    def test_same_seed_same_emission_order(self, tmp_path, medium_random):
        first, _ = run_extmce(medium_random, tmp_path / "a", seed=7)
        second, _ = run_extmce(medium_random, tmp_path / "b", seed=7)
        assert first == second  # identical order, not just identical set

    def test_reports_reproducible(self, tmp_path, medium_random):
        _, algo_a = run_extmce(medium_random, tmp_path / "a", seed=7)
        _, algo_b = run_extmce(medium_random, tmp_path / "b", seed=7)
        stats_a = [(s.core_size, s.star_edges, s.cliques_emitted) for s in algo_a.report.steps]
        stats_b = [(s.core_size, s.star_edges, s.cliques_emitted) for s in algo_b.report.steps]
        assert stats_a == stats_b


class TestScansPerStep:
    """Each step reads ``G_i`` three times: star extraction and the
    partition build's two passes, the second of which also writes the
    residual graph (no separate rewrite scan)."""

    @pytest.mark.parametrize("graph_seed", [9, 21])
    def test_three_scans_per_step(self, tmp_path, graph_seed):
        graph = seeded_gnp(150, 0.08, seed=graph_seed)
        _, algo = run_extmce(graph, tmp_path)
        report = algo.report
        assert report.num_recursions >= 3
        assert report.sequential_scans == 3 * report.num_recursions

    def test_partition_build_phase_covers_the_residual_write(self, tmp_path, live_metrics):
        graph = seeded_gnp(150, 0.08, seed=9)
        run_extmce(graph, tmp_path)
        phases = {
            entry["labels"].get("phase")
            for entry in live_metrics.snapshot()["metrics"]
            if entry["name"] == "repro_mce_phase_seconds"
        }
        assert "partition_build" in phases
        assert "residual_rewrite" not in phases
