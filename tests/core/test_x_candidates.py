"""Oracle test for Eq. (10)'s ``X``: the pivoted search against the walk.

:func:`repro.core.categories.enumerate_x_candidates` finds ``X`` as the
maximal cliques of the closure graph (see that module's note 1).  The
reference below is the direct reading of Eq. (10) it replaced: an
unpivoted walk over every core clique that still shares a periphery
vertex, in ascending member order.  Its cost grows with 2^|community|, so
it only runs on graphs small enough for it.  Both must return the same
``(C1, HNB(C1))`` list, order included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import categories
from repro.core.categories import enumerate_x_candidates
from repro.core.extmce import ExtMCE, ExtMCEConfig
from repro.core.hstar import StarGraph, extract_hstar_graph
from repro.generators import defective_clique_communities
from repro.storage.diskgraph import DiskGraph

from tests.helpers import figure1_graph, small_graphs


def walk_x_candidates(star):
    """Eq. (10) by ordered set enumeration over the core cliques."""
    for start in sorted(star.core):
        shared = star.periphery_neighbors(start)
        if not shared:
            continue
        extenders = frozenset(u for u in star.core_neighbors(start) if u > start)
        yield from _grow_x(star, frozenset((start,)), shared, extenders)


def _grow_x(star, kernel, shared, extenders):
    blockers = star.common_core_neighbors(kernel)
    if blockers and all(
        shared & star.periphery_neighbors(u) != shared for u in blockers
    ):
        yield kernel, shared
    for vertex in sorted(extenders):
        next_shared = shared & star.periphery_neighbors(vertex)
        if not next_shared:
            continue
        next_extenders = frozenset(
            u for u in extenders if u > vertex and u in star.core_neighbors(vertex)
        )
        yield from _grow_x(star, kernel | {vertex}, next_shared, next_extenders)


def assert_matches_walk(star):
    expected = list(walk_x_candidates(star))
    assert enumerate_x_candidates(star) == expected


def test_figure1():
    star = extract_hstar_graph(figure1_graph())
    assert_matches_walk(star)
    assert len(enumerate_x_candidates(star)) == 4


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.data())
def test_any_core_split_of_small_graphs(graph, data):
    """Every core subset, not only the h-vertices (the L* steps' shape)."""
    vertices = sorted(graph.vertices())
    core = data.draw(st.sets(st.sampled_from(vertices)) if vertices else st.just(set()))
    star = StarGraph(
        core=frozenset(core),
        neighbor_lists={v: frozenset(graph.neighbors(v)) for v in core},
    )
    assert_matches_walk(star)


@pytest.mark.parametrize("seed", range(6))
def test_every_step_of_dense_communities(seed, tmp_path, monkeypatch):
    """Each H*/L* step of an ExtMCE run over blocks of 10-16 vertices."""
    graph = defective_clique_communities(
        60 + 5 * seed, seed, community_min=10, community_max=16, background_edges=2
    )
    checked = []

    def checking(star):
        assert_matches_walk(star)
        checked.append(star)
        return enumerate_x_candidates(star)

    monkeypatch.setattr(categories, "enumerate_x_candidates", checking)
    disk = DiskGraph.create(tmp_path / "graph.bin", graph)
    list(ExtMCE(disk, ExtMCEConfig(workdir=tmp_path)).enumerate_cliques())
    assert len(checked) >= 2


def test_core_clique_with_no_common_periphery_is_not_a_candidate():
    """{0, 1, 2} pairwise shares periphery but HNB({0, 1, 2}) is empty.

    Core vertex 3 extends {0, 1, 2} in G_H yet has no periphery, so the
    search must drop that clique for its empty periphery, not pass it on
    because it has blockers.
    """
    edges = {0: {1, 2, 3, 10, 11}, 1: {0, 2, 3, 10}, 2: {0, 1, 3, 11}, 3: {0, 1, 2}}
    star = StarGraph(
        core=frozenset(edges),
        neighbor_lists={v: frozenset(nbrs) for v, nbrs in edges.items()},
    )
    assert_matches_walk(star)
    assert [set(kernel) for kernel, _ in enumerate_x_candidates(star)] == [
        {0}, {0, 1}, {0, 2}
    ]
