"""The benchmark's own yardstick and oracle: in-memory pivoted Bron–Kerbosch.

Kept apart from ``repro.baselines`` on purpose: the denominator of
``overhead_ratio`` and the set-equality check must not move when the
program moves, and must not share a bug with it.
"""

from __future__ import annotations

from collections.abc import Iterable

Clique = tuple[int, ...]


def adjacency_of(edges: Iterable[tuple[int, int]]) -> dict[int, set[int]]:
    adjacency: dict[int, set[int]] = {}
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    return adjacency


def maximal_cliques(adjacency: dict[int, set[int]]) -> set[Clique]:
    """Every maximal clique, as sorted tuples (Tomita's max-pivot rule)."""
    out: set[Clique] = set()

    def expand(current: list[int], candidates: set[int], excluded: set[int]) -> None:
        if not candidates:
            if not excluded:
                out.add(tuple(sorted(current)))
            return
        pivot = max(candidates | excluded, key=lambda u: len(candidates & adjacency[u]))
        for v in list(candidates - adjacency[pivot]):
            neighbors = adjacency[v]
            current.append(v)
            expand(current, candidates & neighbors, excluded & neighbors)
            current.pop()
            candidates.discard(v)
            excluded.add(v)

    expand([], set(adjacency), set())
    return out


def cliques_containing(cliques: Iterable[Clique]) -> dict[int, int]:
    """Vertex -> number of maximal cliques holding it."""
    counts: dict[int, int] = {}
    for clique in cliques:
        for v in clique:
            counts[v] = counts.get(v, 0) + 1
    return counts


def diff(expected: set[Clique], produced: list[Clique]) -> int:
    """Cliques missing, extra or repeated in ``produced``; 0 when exact."""
    seen = set(produced)
    return len(expected ^ seen) + (len(produced) - len(seen))
