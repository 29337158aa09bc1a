"""Algorithm 2: lifting H*-max-cliques to H+-max-cliques (Section 4.2).

An H*-max-clique is maximal only *locally* in ``G_H*``.  The paper proves
(Theorem 2) that the maximal cliques of ``G_H+`` containing at least one
core vertex — the H+-max-cliques — are maximal in the whole graph ``G``,
and computes them from ``T_H*`` in three disjoint categories:

* ``M1`` (Lemma 4): cliques of core vertices only — the members of ``M_H``
  with no common periphery neighbor.
* ``M2`` (Lemma 5): ``C1 ∪ C2`` where ``C1 ∈ M_H`` has common periphery
  neighbors and ``C2`` is a maximal clique of the subgraph induced by
  ``HNB(C1)`` (fetched from the on-disk h-neighbor partitions).
* ``M3`` (Lemma 6): ``C1 ∪ C2`` where ``C1`` is a *non-maximal* core
  clique from the candidate set ``X`` of Eq. (10) and ``C2 ∈ EXT(C1)``
  per Eq. (11).

Two implementation notes, both verified against brute force by the tests:

1. Eq. (10)'s ``X`` is the set of maximal cliques of an in-memory
   *closure graph* ``B``: core plus periphery, the star graph's edges,
   and every periphery pair made adjacent (so no periphery-periphery edge
   is ever read from disk).  For a non-empty core clique ``C`` the
   cliques of ``B`` with core part ``C`` are ``C ∪ Q`` with
   ``Q ⊆ HNB(C)``; one is maximal iff ``Q = HNB(C)`` and no common core
   neighbor ``u`` of ``C`` has ``HNB(C) ⊆ nb(u)``.  That is Eq. (10)'s
   subsumption condition ("no proper superset with the same ``HNB``") in
   one-vertex form: ``HNB`` is antitone, so if a larger superset had
   equal ``HNB``, any one-vertex extension inside it would too.  Hence
   ``X`` = the maximal cliques of ``B`` whose core part ``C`` is
   non-empty, has non-empty ``HNB`` and is not maximal in ``G_H``.  They
   come from a pivoted (Tomita) search split per core vertex ``v`` as in
   ParMCE: ``v`` is the smallest core member, later core neighbors are
   candidates, earlier ones excluded.  Only core neighbors sharing a
   periphery vertex with ``v`` take part; periphery neighbors of ``v``
   with equal core neighbors are true twins and share one bit; cliques
   without a periphery vertex are dropped.  The work follows the
   maximal cliques of each subproblem (``X``, the ``M2`` kernels and the
   dropped ones), not the ``2^|community|`` core sub-cliques that share a
   periphery vertex.  Each subproblem's pairs are
   sorted by ``sorted(C)`` — the order of an ordered set enumeration over
   core cliques — so the ``M3`` work items, and with them the clique
   stream, are the same as a direct walk of Eq. (10) would give.
2. Eq. (11)'s two maximality clauses are exactly "no core vertex extends
   ``C1 ∪ C2``": a periphery extension is impossible because ``C2`` is
   already maximal within ``HNB(C1)``, so the direct neighborhood test
   against the star graph's lists decides membership.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import Protocol

from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.graph.adjacency import AdjacencyGraph
from repro.core.hstar import StarGraph
from repro.kernel.bitmce import cliques_of_masks

Clique = frozenset


class PeripheryAdjacency(Protocol):
    """Provider of induced subgraphs among periphery vertices.

    Satisfied by :class:`~repro.storage.partitions.HnbPartitionStore`
    (disk-backed, the paper's Section 4.2.3 machinery) and by
    :class:`InMemoryPeripheryAdjacency` (tests, dynamic maintenance).
    """

    def induced_subgraph(self, vertices: Iterable[int]) -> AdjacencyGraph:
        """Subgraph induced on ``vertices`` by periphery-periphery edges."""
        ...  # pragma: no cover - protocol


class InMemoryPeripheryAdjacency:
    """Periphery adjacency served from an in-memory graph."""

    def __init__(self, graph: AdjacencyGraph) -> None:
        self._graph = graph

    def induced_subgraph(self, vertices: Iterable[int]) -> AdjacencyGraph:
        """Delegate to :meth:`AdjacencyGraph.induced_subgraph`."""
        return self._graph.induced_subgraph(vertices)


@dataclass
class CategorizedCliques:
    """The three disjoint H+-max-clique categories of Section 4.2.2."""

    m1: list[Clique] = field(default_factory=list)
    m2: list[Clique] = field(default_factory=list)
    m3: list[Clique] = field(default_factory=list)

    def all_cliques(self) -> Iterator[Clique]:
        """Iterate ``M1 ∪ M2 ∪ M3`` — the full ``M_H+`` (Theorem 3)."""
        yield from self.m1
        yield from self.m2
        yield from self.m3

    @property
    def total(self) -> int:
        """``|M_H+|``."""
        return len(self.m1) + len(self.m2) + len(self.m3)


#: Phase-2 strategy: maps the ordered distinct ``HNB`` sets to the maximal
#: cliques of their induced periphery subgraphs.  The default is the serial
#: loop of :func:`resolve_hnb_cliques`; :class:`repro.parallel.driver.
#: ParallelExtMCE` injects a fan-out over a worker pool.
HnbResolver = Callable[
    [list[Clique], PeripheryAdjacency], dict[Clique, list[Clique]]
]


def collect_lift_items(
    star: StarGraph,
    core_maximal: set[Clique],
) -> tuple[list[Clique], list[tuple[Clique, Clique]], list[tuple[Clique, Clique]]]:
    """Phase 1 of Algorithm 2: the in-memory work items.

    Returns ``(m1, m2_items, m3_items)`` without touching the disk: ``M1``
    is final already (Lemma 4); the item lists pair each kernel with its
    ``HNB`` set for the disk-backed phases (Lemmas 5-6).
    """
    m1: list[Clique] = []
    m2_items: list[tuple[Clique, Clique]] = []
    for kernel in sorted(core_maximal, key=sorted):
        shared = star.common_periphery(kernel)
        if not shared:
            m1.append(kernel)
        else:
            m2_items.append((kernel, shared))
    m3_items = list(enumerate_x_candidates(star))
    return m1, m2_items, m3_items


def ordered_distinct_hnb(
    items: Iterable[tuple[Clique, Clique]],
    periphery_adjacency: PeripheryAdjacency,
) -> list[Clique]:
    """The distinct ``HNB`` sets of ``items`` in resolution order.

    Sets are grouped by covering partition so each spill file is loaded
    once per batch (the locality the paper gets from ordering h-neighbor
    leaves by DFS traversal, Section 4.2.3); adjacency providers without
    partitions fall back to a plain lexicographic order.  The order is a
    pure function of the work items — never of worker count — which is
    what keeps parallel runs byte-identical to serial ones.
    """
    distinct = {shared for _, shared in items}
    partition_key = getattr(periphery_adjacency, "partitions_for", None)
    if partition_key is not None:
        return sorted(distinct, key=lambda s: (sorted(partition_key(s)), sorted(s)))
    return sorted(distinct, key=sorted)


def resolve_hnb_cliques(
    ordered: list[Clique],
    periphery_adjacency: PeripheryAdjacency,
    kernel: str = "set",
) -> dict[Clique, list[Clique]]:
    """Phase 2 of Algorithm 2, serial strategy: ``maxCL(G[HNB])`` per set.

    ``kernel`` selects the enumeration hot path (see :mod:`repro.kernel`);
    the per-set clique lists are identical either way.
    """
    max_cliques_of: dict[Clique, list[Clique]] = {}
    for shared in ordered:
        induced = periphery_adjacency.induced_subgraph(shared)
        max_cliques_of[shared] = list(tomita_maximal_cliques(induced, kernel=kernel))
    return max_cliques_of


class _PeripheryMaskIndex:
    """Bitmask view of periphery adjacency for the M3 maximality test.

    Periphery vertices get bit positions on first sight; each blocker's
    periphery neighborhood is masked once and cached, turning Eq. (11)'s
    ``C2 ⊆ nb(u)`` checks from per-element hash probes into one ``&``.
    """

    def __init__(self, star: StarGraph) -> None:
        self._star = star
        self._bit_of: dict[int, int] = {}
        self._neighbor_masks: dict[int, int] = {}

    def mask_of(self, vertices: Iterable[int]) -> int:
        bit_of = self._bit_of
        mask = 0
        for vertex in vertices:
            bit = bit_of.get(vertex)
            if bit is None:
                bit = 1 << len(bit_of)
                bit_of[vertex] = bit
            mask |= bit
        return mask

    def blocker_mask(self, u: int) -> int:
        mask = self._neighbor_masks.get(u)
        if mask is None:
            mask = self.mask_of(self._star.periphery_neighbors(u))
            self._neighbor_masks[u] = mask
        return mask


def assemble_categories(
    star: StarGraph,
    m1: list[Clique],
    m2_items: list[tuple[Clique, Clique]],
    m3_items: list[tuple[Clique, Clique]],
    max_cliques_of: dict[Clique, list[Clique]],
    kernel: str = "set",
) -> CategorizedCliques:
    """Phase 3 of Algorithm 2: combine kernels with their extensions.

    With ``kernel="bitset"`` the M3 maximality test runs on cached
    periphery bitmasks (one subset comparison per blocker) instead of
    per-element ``frozenset`` containment; the selected cliques are
    identical.
    """
    from repro.kernel import validate_kernel

    masks = (
        _PeripheryMaskIndex(star) if validate_kernel(kernel) == "bitset" else None
    )
    result = CategorizedCliques(m1=list(m1))
    for core_clique, shared in m2_items:
        for extension in max_cliques_of[shared]:
            result.m2.append(core_clique | extension)
    for core_clique, shared in m3_items:
        blockers = star.common_core_neighbors(core_clique)
        for extension in max_cliques_of[shared]:
            if masks is not None:
                extension_mask = masks.mask_of(extension)
                if any(
                    extension_mask & masks.blocker_mask(u) == extension_mask
                    for u in blockers
                ):
                    continue
            elif _extendable_by_core(star, blockers, extension):
                continue
            result.m3.append(core_clique | extension)
    return result


def compute_core_plus_max_cliques(
    star: StarGraph,
    core_maximal: set[Clique],
    periphery_adjacency: PeripheryAdjacency,
    resolver: HnbResolver | None = None,
    kernel: str = "set",
) -> CategorizedCliques:
    """Compute ``M_H+ = M1 ∪ M2 ∪ M3`` (Algorithm 2).

    Parameters
    ----------
    star:
        The current step's star graph (``G_H*`` or ``G_L*``).
    core_maximal:
        ``M_H``: the maximal cliques of the core graph, as returned by
        :func:`~repro.core.clique_tree.build_clique_tree`.
    periphery_adjacency:
        Access to edges among periphery vertices (on disk in the real
        algorithm; the star graph does not store them).
    resolver:
        Optional phase-2 strategy override (see :data:`HnbResolver`);
        defaults to the serial :func:`resolve_hnb_cliques`.
    kernel:
        Enumeration kernel for phase 2 and the M3 maximality tests
        (``"set"`` or ``"bitset"``); the output is identical either way.
        A custom ``resolver`` is responsible for its own kernel choice.
    """
    m1, m2_items, m3_items = collect_lift_items(star, core_maximal)
    ordered = ordered_distinct_hnb(m2_items + m3_items, periphery_adjacency)
    if resolver is not None:
        max_cliques_of = resolver(ordered, periphery_adjacency)
    else:
        max_cliques_of = resolve_hnb_cliques(ordered, periphery_adjacency, kernel=kernel)
    return assemble_categories(
        star, m1, m2_items, m3_items, max_cliques_of, kernel=kernel
    )


def enumerate_x_candidates(star: StarGraph) -> list[tuple[Clique, Clique]]:
    """Enumerate the set ``X`` of Eq. (10) as ``(C1, HNB(C1))`` pairs.

    ``X`` holds the non-maximal core cliques with common periphery
    neighbors that are not subsumed by a one-vertex extension with the
    same ``HNB``.  They are found as maximal cliques of the closure graph
    by one pivoted search per core vertex (note 1 of the module
    docstring) and returned sorted by ``sorted(C1)``.
    """
    core = star.core
    neighbor_lists = star.neighbor_lists
    outside_of = {v: neighbor_lists[v] - core for v in core}
    candidates: list[tuple[Clique, Clique]] = []
    for v in sorted(core):
        outside = outside_of[v]
        if not outside:
            continue
        neighbors = neighbor_lists[v] & core
        # local: v's core neighbors sharing a periphery vertex with v; no
        # other core vertex can join a clique of X together with v.
        local = sorted(w for w in neighbors if not outside.isdisjoint(outside_of[w]))
        if not local:
            # The only candidate is {v} itself, in X iff v has a core
            # neighbor (is not maximal in G_H).
            if neighbors:
                candidates.append((frozenset((v,)), outside))
            continue
        owners: dict[int, list[int]] = {}
        for w in local:
            for u in outside & outside_of[w]:
                owners.setdefault(u, []).append(w)
        # Periphery neighbors of v with the same core neighbors in local
        # are true twins of the subproblem: one bit per twin class.
        keys = dict.fromkeys(tuple(key) for key in owners.values())
        if len(owners) < len(outside):
            keys[()] = None  # periphery neighbors of v alone
        # Bits 0..width-1 are the local core vertices in ascending order,
        # then one bit per twin class.
        width = len(local)
        position = {w: b for b, w in enumerate(local)}
        periphery = ((1 << len(keys)) - 1) << width
        adjacency = [0] * (width + len(keys))
        for b, w in enumerate(local):
            for x in position.keys() & neighbor_lists[w]:
                adjacency[b] |= 1 << position[x]
        for t, key in enumerate(keys, start=width):
            bit = 1 << t
            key_mask = 0
            for w in key:
                key_mask |= 1 << position[w]
                adjacency[position[w]] |= bit
            adjacency[t] = key_mask | (periphery ^ bit)
        earlier = (1 << bisect_left(local, v)) - 1
        everything = (1 << len(adjacency)) - 1
        kernels = []
        for clique in cliques_of_masks(adjacency, everything ^ earlier, earlier):
            if max(clique) < width:
                continue  # no periphery vertex: HNB(C1) is empty
            kernel = [v, *sorted(local[b] for b in clique if b < width)]
            # C1 is in X only if it is not maximal in G_H.
            if neighbors.intersection(*(neighbor_lists[w] for w in kernel[1:])):
                kernels.append(kernel)
        kernels.sort()
        for kernel in kernels:
            # HNB(C1) as the walk over ascending members builds it.
            shared = outside
            for w in kernel[1:]:
                shared = shared & outside_of[w]
            candidates.append((frozenset(kernel), shared))
    return candidates


def _extendable_by_core(
    star: StarGraph,
    blockers: Iterable[int],
    extension: Clique,
) -> bool:
    """Whether some core vertex is adjacent to all of ``C1 ∪ C2``.

    ``blockers`` are the core vertices already known to be adjacent to all
    of ``C1``; the candidate is non-maximal exactly when one of them also
    covers the periphery extension ``C2``.
    """
    return any(extension <= star.periphery_neighbors(u) for u in blockers)
