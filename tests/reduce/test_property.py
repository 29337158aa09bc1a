"""Property tests: reduction never changes the maximal-clique stream.

The contract under test is the headline guarantee of :mod:`repro.reduce`:
for every graph and every reduction level, enumerating the reduced graph
and lifting through the reconstruction map yields *exactly* the maximal
cliques of the original graph — same set, no duplicates, no impostors.
The sweep runs well over 200 seeded graphs from every generator family
(dense communities also through ExtMCE) plus hypothesis-driven arbitrary small graphs and the classic edge-case
shapes (empty, star, complete, disconnected).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.core.extmce import ExtMCE, ExtMCEConfig
from repro.core.result import canonical_clique_order
from repro.generators import (
    defective_clique_communities,
    fringed_clique_communities,
    powerlaw_cluster_graph,
    rank_power_law_graph,
)
from repro.graph.adjacency import AdjacencyGraph
from repro.reduce import ReductionMap, reduce_graph
from repro.storage.diskgraph import DiskGraph
from tests.helpers import cliques_of, seeded_gnp, small_graphs

LEVELS = ("prune", "full")


def assert_reduction_exact(graph, level):
    """Reduced-then-lifted stream equals the reference, duplicate-free."""
    reference = canonical_clique_order(tomita_maximal_cliques(graph))
    lifted = list(tomita_maximal_cliques(graph, reduction=level))
    assert len(lifted) == len(set(lifted)), "reduction introduced duplicates"
    assert canonical_clique_order(lifted) == reference


# ---------------------------------------------------------------------------
# Seeded generator sweep: 4 families x 25+ seeds x 2 levels > 200 graphs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("seed", range(25))
def test_gnp_sweep(seed, level):
    n = 12 + (seed % 5) * 6  # 12..36 vertices
    p = 0.1 + (seed % 4) * 0.15  # 0.10..0.55
    assert_reduction_exact(seeded_gnp(n, p, seed), level)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("seed", range(25))
def test_powerlaw_sweep(seed, level):
    m = 1 + seed % 4
    graph = powerlaw_cluster_graph(30 + seed, m, 0.5, seed=seed)
    assert_reduction_exact(graph, level)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("seed", range(25))
def test_community_sweep(seed, level):
    graph = fringed_clique_communities(
        40 + 2 * seed,
        seed,
        core_fraction=0.4 + (seed % 3) * 0.2,
        community_min=4,
        community_max=8,
        defects=seed % 3,
    )
    assert_reduction_exact(graph, level)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("seed", range(8))
def test_dense_community_sweep(seed, level, tmp_path):
    """Blocks of 20-40 vertices over a background, through ExtMCE too.

    Reduction removes little here, so ExtMCE's M3 lift does nearly all
    of the work on large dense blocks.
    """
    graph = defective_clique_communities(
        90 + 15 * seed, seed, community_min=20, community_max=40, background_edges=2
    )
    assert_reduction_exact(graph, level)
    disk = DiskGraph.create(tmp_path / "graph.bin", graph)
    config = ExtMCEConfig(workdir=tmp_path, reduction=level)
    stream = list(ExtMCE(disk, config).enumerate_cliques())
    assert len(stream) == len(set(stream))
    assert canonical_clique_order(stream) == canonical_clique_order(
        tomita_maximal_cliques(graph)
    )


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("seed", range(25))
def test_rank_law_sweep(seed, level):
    exponent = -0.5 - (seed % 4) * 0.25
    graph = rank_power_law_graph(24 + seed, exponent, seed=seed)
    assert_reduction_exact(graph, level)


# ---------------------------------------------------------------------------
# Hypothesis: arbitrary small graphs
# ---------------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(graph=small_graphs())
def test_arbitrary_small_graphs(graph):
    for level in LEVELS:
        assert_reduction_exact(graph, level)


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("level", LEVELS)
class TestEdgeCases:
    def test_empty_graph(self, level):
        assert_reduction_exact(AdjacencyGraph(), level)

    def test_isolated_vertices_only(self, level):
        graph = AdjacencyGraph.from_edges([], vertices=range(7))
        assert_reduction_exact(graph, level)
        assert cliques_of(tomita_maximal_cliques(graph, reduction=level)) == {
            frozenset({v}) for v in range(7)
        }

    def test_single_edge(self, level):
        assert_reduction_exact(AdjacencyGraph.from_edges([(0, 1)]), level)

    @pytest.mark.parametrize("leaves", [1, 2, 9])
    def test_star(self, level, leaves):
        star = AdjacencyGraph.from_edges([(0, i) for i in range(1, leaves + 1)])
        assert_reduction_exact(star, level)

    @pytest.mark.parametrize("n", [3, 8, 9, 10, 13])
    def test_complete(self, level, n):
        graph = AdjacencyGraph.from_edges(
            [(u, v) for u in range(n) for v in range(u + 1, n)]
        )
        assert_reduction_exact(graph, level)
        assert cliques_of(tomita_maximal_cliques(graph, reduction=level)) == {
            frozenset(range(n))
        }

    def test_disconnected_components(self, level):
        # A triangle, a path, an isolated vertex and a K5 — all disjoint.
        edges = [(0, 1), (1, 2), (0, 2), (10, 11), (11, 12)]
        edges += [(u, v) for u in range(20, 25) for v in range(u + 1, 25)]
        graph = AdjacencyGraph.from_edges(edges, vertices=[*range(13), *range(20, 25)])
        assert_reduction_exact(graph, level)

    def test_long_path_and_cycle(self, level):
        path = AdjacencyGraph.from_edges([(i, i + 1) for i in range(12)])
        assert_reduction_exact(path, level)
        cycle = AdjacencyGraph.from_edges(
            [(i, (i + 1) % 12) for i in range(12)]
        )
        assert_reduction_exact(cycle, level)


# ---------------------------------------------------------------------------
# Map round-trip: to_spec/from_spec is lossless
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("seed", range(8))
def test_spec_round_trip(seed, level):
    graph = fringed_clique_communities(50, seed, community_min=4, community_max=8)
    rmap = reduce_graph(graph, level).map
    clone = ReductionMap.from_spec(rmap.to_spec())
    assert clone.to_spec() == rmap.to_spec()
    assert clone.peeled == rmap.peeled
    assert clone.folds == rmap.folds
    assert clone.suppressions == rmap.suppressions
    assert clone.direct == rmap.direct
    # The clone replays a stream identically.
    reduced = reduce_graph(graph, level).reduced
    stream = list(tomita_maximal_cliques(reduced))
    assert list(clone.reconstruct(stream)) == list(rmap.reconstruct(stream))
