"""Reference matroid intersection for the coverage-quota tests.

A generic maximum common independent set of two matroids given by
independence oracles, the matching matroid (a vertex set is independent
when some matching covers it), and the partition-matroid duality test of
coverage quotas.  The library decides coverage quotas with one greedy
coverage search on padded adjacency rows instead; these stay here as
independent algorithms that tests compare it against.  The union-rank
table by augmenting searches, depth first over the masks, is the
reference for the one the library reads off a Gallai–Edmonds
decomposition.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Optional

from ntumatch.errors import InputError, InvariantError
from ntumatch.graphs import Graph, _augment, _Labels, _max_match, coverage_rank
from ntumatch.matroids import PartitionQuota, _union_ranks


def quota_feasible(g: Graph, pq: PartitionQuota) -> bool:
    """Feasibility of the coverage lower bounds, without a witness.

    By matroid-intersection duality specialised to a partition matroid, a
    matching with ``|V(M) ∩ V_i| >= q_i`` exists iff every union of groups
    can be covered to the extent of its summed quotas.  It reads all 2^k
    union ranks, so it serves as the independent reference for
    :func:`~ntumatch.matroids.matching_with_lower_bounds`, which decides by
    padded adjacency rows.
    """
    if len(pq.groups) > 20:
        raise InputError("quota_feasible supports at most 20 groups")
    return all(
        sum(q for i, q in enumerate(pq.quotas) if mask >> i & 1) <= rank
        for mask, rank in enumerate(_union_ranks(g, pq.groups))
    )


def union_ranks_by_search(g: Graph, groups: tuple[frozenset[int], ...]) -> list[int]:
    """Coverage rank of every union of groups, indexed by bitmask.

    The greedy of :func:`~ntumatch.graphs.coverage_rank`, depth first over
    the masks: a vertex outside the union has a pendant ``n + v``, and a
    mask searches only from the joining group's exposed vertices, starting
    from the match array its parent's subtree left (a basis of ``y``
    extends greedily to one of ``y ∪ V_j``).  That array covers a basis of
    the parent's union, as augmenting paths end at pendants and uncover no
    vertex of a union; only the pendant rows are restored on the way back.
    """
    n = g.n
    bad = [v for grp in groups for v in grp if not 0 <= v < n]
    if bad:
        raise InputError(f"vertex {bad[0]} out of range")
    padded = [row + (n + v,) for v, row in enumerate(g.adj)] + [(v,) for v in range(n)]
    adj = list(padded)
    match = list(_max_match(g)) + [-1] * n
    labels = _Labels(2 * n)
    rows = [sorted(grp) for grp in groups]
    ranks = [0] * (1 << len(groups))

    def grow(mask: int, low: int) -> None:
        for j in range(low, len(rows)):
            child = mask | 1 << j
            ranks[child] = ranks[mask] + len(rows[j])
            for v in rows[j]:
                adj[v] = g.adj[v]
                if match[v] == n + v:
                    match[v] = match[n + v] = -1
            ranks[child] -= _augment(adj, match, rows[j], labels)
            grow(child, j + 1)
            for v in rows[j]:
                adj[v] = padded[v]

    grow(0, 0)
    return ranks


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

