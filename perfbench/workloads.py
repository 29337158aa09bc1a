"""Benchmark-owned input generators.

The benchmark draws its inputs itself, so a change to ``repro.generators``
cannot move a workload.  The two families mirror the program's
generators of the same names (Holme–Kim powerlaw-cluster graphs and
defective-clique communities) and are pinned here, parameters included.
"""

from __future__ import annotations

import random
from pathlib import Path

Edge = tuple[int, int]

#: ``powerlaw_batch``: the paper's target shape (scale-free, clustered).
POWERLAW_VERTICES = 16_000
POWERLAW_M = 5
POWERLAW_P = 0.7

#: ``community_lift``: generator seeds of the fixed graph panel, 1-12
#: without 5.  Seed 6 (about 8 s at the parent commit, lift 99%) is the
#: slow graph, next to ten of 0.1-0.9 s.  Seed 5 (about 36 s alone) does
#: not fit the run-time budget of one benchmark run.
COMMUNITY_PANEL = (1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12)
COMMUNITY_VERTICES = 90
COMMUNITY_MIN = 20
COMMUNITY_MAX = 24
COMMUNITY_DEFECTS = 8
COMMUNITY_BACKGROUND = 2

#: ``serve_live``: the bootstrapped graph of the live store.
SERVE_VERTICES = 4_000
SERVE_M = 5
SERVE_P = 0.7


def powerlaw_cluster_edges(n: int, m: int, p: float, seed: int) -> list[Edge]:
    """Holme–Kim graph: preferential attachment plus triad formation."""
    rng = random.Random(seed)
    adjacency: list[set[int]] = [set() for _ in range(n)]
    endpoints: list[int] = []
    edges: list[Edge] = []

    def connect(u: int, v: int) -> bool:
        if u == v or v in adjacency[u]:
            return False
        adjacency[u].add(v)
        adjacency[v].add(u)
        endpoints.extend((u, v))
        edges.append((min(u, v), max(u, v)))
        return True

    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            connect(u, v)
    for vertex in range(m + 1, n):
        target = endpoints[rng.randrange(len(endpoints))]
        connect(vertex, target)
        last = target
        made, attempts = 1, 0
        while made < m and attempts < 20 * m:
            attempts += 1
            if rng.random() < p:
                candidates = sorted(adjacency[last] - adjacency[vertex] - {vertex})
                if candidates:
                    if connect(vertex, candidates[rng.randrange(len(candidates))]):
                        made += 1
                    continue
            target = endpoints[rng.randrange(len(endpoints))]
            if connect(vertex, target):
                made += 1
                last = target
    return edges


def defective_clique_communities(n: int, seed: int) -> list[Edge]:
    """Near-clique blocks of 20-24 vertices over a preferential background."""
    rng = random.Random(seed)
    edges: set[Edge] = set()
    start = 0
    while start < n:
        size = min(rng.randint(COMMUNITY_MIN, COMMUNITY_MAX), n - start)
        members = range(start, start + size)
        block = [(a, b) for i, a in enumerate(members) for b in members[i + 1:]]
        removed = set(rng.sample(block, min(COMMUNITY_DEFECTS, len(block))))
        edges.update(edge for edge in block if edge not in removed)
        start += size
    urn = list(range(n))
    for v in range(n):
        for _ in range(COMMUNITY_BACKGROUND):
            u = rng.choice(urn)
            if u != v:
                edges.add((min(u, v), max(u, v)))
            urn.append(v)
    return sorted(edges)


def spread_ids(edges: list[Edge], num_vertices: int, seed: int, offset: int = 0) -> list[Edge]:
    """Relabel ids by a seeded, strictly increasing map starting past ``offset``.

    The graph and the relative order of its ids are unchanged, so the
    program does the same work; only the input bytes depend on the seed.
    """
    rng = random.Random(seed)
    label, current = [], offset
    for _ in range(num_vertices):
        current += rng.randint(1, 8)
        label.append(current)
    return [(label[u], label[v]) for u, v in edges]


def powerlaw_batch_inputs(seed: int, vertices: int = POWERLAW_VERTICES) -> list[Edge]:
    return powerlaw_cluster_edges(vertices, POWERLAW_M, POWERLAW_P, seed)


def community_lift_inputs(seed: int, panel: tuple[int, ...] = COMMUNITY_PANEL) -> list[list[Edge]]:
    """The panel, each graph in its own id range (their union is served)."""
    return [
        spread_ids(
            defective_clique_communities(COMMUNITY_VERTICES, base),
            COMMUNITY_VERTICES,
            seed * 1000 + base,
            offset=slot * 8 * COMMUNITY_VERTICES,
        )
        for slot, base in enumerate(panel)
    ]


def serve_live_inputs(seed: int, vertices: int = SERVE_VERTICES) -> list[Edge]:
    return powerlaw_cluster_edges(vertices, SERVE_M, SERVE_P, seed)


def write_edge_list(path: Path, edges: list[Edge]) -> None:
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
