"""Generalized partition matroid, matching matroid, and their intersection.

The intersection drives every "matching with per-group coverage lower
bounds" query in the library: a matching with ``|V(M) ∩ V_i| >= q_i`` for
all groups exists exactly when the two matroids share an independent set
of size ``sum(q_i)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .errors import InputError, InvariantError
from .graphs import Graph, Matching, coverable, coverage_rank, max_matching


@dataclass(frozen=True)
class PartitionQuota:
    """Disjoint vertex groups with per-group quotas."""

    groups: tuple[frozenset[int], ...]
    quotas: tuple[int, ...]

    def __post_init__(self):
        if len(self.groups) != len(self.quotas):
            raise InputError("groups and quotas must align")
        seen: set[int] = set()
        for grp, q in zip(self.groups, self.quotas):
            if seen & grp:
                raise InputError("groups must be pairwise disjoint")
            seen |= grp
            if not (0 <= q <= len(grp)):
                raise InputError(f"quota {q} out of range for group of size {len(grp)}")

    @property
    def rank(self) -> int:
        return sum(self.quotas)

    def indep(self, x: frozenset[int]) -> bool:
        return all(len(x & grp) <= q for grp, q in zip(self.groups, self.quotas))


class MatchingMatroid:
    """Independence oracle: a vertex set is independent when some matching
    covers it.  Answers come from :func:`~ntumatch.graphs.coverage_rank`."""

    def __init__(self, g: Graph):
        self.g = g

    def indep(self, x: frozenset[int]) -> bool:
        return coverage_rank(self.g, x) == len(x)


def matroid_intersection_max(
    indep_a: Callable[[frozenset], bool],
    indep_b: Callable[[frozenset], bool],
    ground: Iterable[int],
    seed: frozenset = frozenset(),
) -> frozenset:
    """Maximum-cardinality common independent set, by exchange-graph
    augmentation with BFS shortest paths and lowest-id tie-breaking."""
    ground_t = tuple(sorted(set(ground)))
    current: set = set(seed)
    if not current <= set(ground_t):
        raise InputError("seed is not a subset of the ground set")
    if current:
        cur_f = frozenset(current)
        if not indep_a(cur_f) or not indep_b(cur_f):
            raise InputError("seed is not independent in both matroids")

    memo_a: dict[frozenset, bool] = {}
    memo_b: dict[frozenset, bool] = {}

    def a(s: frozenset) -> bool:
        r = memo_a.get(s)
        if r is None:
            r = indep_a(s)
            memo_a[s] = r
        return r

    def b(s: frozenset) -> bool:
        r = memo_b.get(s)
        if r is None:
            r = indep_b(s)
            memo_b[s] = r
        return r

    while True:
        cur = frozenset(current)
        outside = [y for y in ground_t if y not in current]
        sources = [y for y in outside if a(cur | {y})]
        sinks = {y for y in outside if b(cur | {y})}
        if not sources or not sinks:
            break
        direct = sorted(set(sources) & sinks)
        if direct:
            current.add(direct[0])
            continue
        # BFS over the exchange digraph:
        #   y in I  -> z not in I   when I - y + z independent in A
        #   z not in I -> y in I    when I - y + z independent in B
        parent: dict[int, Optional[int]] = {s: None for s in sources}
        queue = deque(sources)
        found = None
        inside = sorted(current)
        while queue and found is None:
            x = queue.popleft()
            if x in current:
                nxts = [
                    z
                    for z in outside
                    if z not in parent and a(cur - {x} | {z})
                ]
            else:
                nxts = [
                    y
                    for y in inside
                    if y not in parent and b(cur - {y} | {x})
                ]
            for z in nxts:
                parent[z] = x
                if z not in current and z in sinks:
                    found = z
                    break
                queue.append(z)
        if found is None:
            break
        path = []
        node: Optional[int] = found
        while node is not None:
            path.append(node)
            node = parent[node]
        for v in path:
            if v in current:
                current.remove(v)
            else:
                current.add(v)
        nxt_f = frozenset(current)
        if not (a(nxt_f) and b(nxt_f)):
            raise InvariantError("augmentation produced a dependent set")
    return frozenset(current)


def _union_ranks(g: Graph, groups: tuple[frozenset[int], ...]) -> list[int]:
    """Coverage rank of every union of groups, indexed by bitmask."""
    ranks = [0] * (1 << len(groups))
    for mask in range(1, len(ranks)):
        union = frozenset().union(
            *(grp for i, grp in enumerate(groups) if mask >> i & 1)
        )
        ranks[mask] = coverage_rank(g, union)
    return ranks


def quota_feasible(g: Graph, pq: PartitionQuota) -> bool:
    """Feasibility of the coverage lower bounds, without a witness.

    By matroid-intersection duality specialised to a partition matroid, a
    matching with ``|V(M) ∩ V_i| >= q_i`` exists iff every union of groups
    can be covered to the extent of its summed quotas.  It reads all 2^k
    union ranks, so it serves as the independent reference for
    :func:`matching_with_lower_bounds`, which decides by the intersection.
    """
    if len(pq.groups) > 20:
        raise InputError("quota_feasible supports at most 20 groups")
    return all(
        sum(q for i, q in enumerate(pq.quotas) if mask >> i & 1) <= rank
        for mask, rank in enumerate(_union_ranks(g, pq.groups))
    )


def matching_with_lower_bounds(g: Graph, pq: PartitionQuota) -> Optional[Matching]:
    """A matching meeting every per-group coverage quota, or None.

    Vertices outside all groups are unconstrained.  A maximum common
    independent set of the matching matroid and the partition matroid of
    the groups with positive quotas decides: the quotas can be met exactly
    when it reaches their sum, and then
    :func:`~ntumatch.graphs.coverable` extends it to a matching.  The
    intersection starts from a maximum matching's coverage trimmed to the
    quotas.
    """
    active = [
        (grp, q) for grp, q in zip(pq.groups, pq.quotas) if q > 0
    ]
    if not active:
        return Matching(())
    groups = tuple(grp for grp, _ in active)
    quotas = tuple(q for _, q in active)
    pq_active = PartitionQuota(groups, quotas)

    base = max_matching(g)
    seed: set[int] = set()
    for grp, q in zip(groups, quotas):
        seed.update(sorted(grp & base.covered)[:q])

    common = matroid_intersection_max(
        pq_active.indep,
        MatchingMatroid(g).indep,
        set().union(*groups),
        seed=frozenset(seed),
    )
    if len(common) < pq_active.rank:
        return None
    witness = coverable(g, common)
    if witness is None:
        raise InvariantError("common independent set is not coverable")
    return witness
