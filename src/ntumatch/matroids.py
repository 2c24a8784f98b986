"""Matchings with per-group coverage lower bounds.

Every "matching with ``|V(M) ∩ V_i| >= q_i`` for all groups" query in the
library is one :func:`~ntumatch.graphs.coverable` call on a padded graph:
each group with a positive quota gains ``|V_i| - q_i`` fresh vertices joined
to all of ``V_i``, and the quotas can be met exactly when some matching of
the padded graph covers every grouped vertex (the deficiency gadget behind
the Tutte–Berge formula; Lovász & Plummer, *Matching Theory*, ch. 3).
:func:`quota_feasible` decides the same question by partition-matroid
duality and serves as the independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InputError
from .graphs import Graph, Matching, _Labels, _blossom_search, _max_match, coverable


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


def _union_ranks(g: Graph, groups: tuple[frozenset[int], ...]) -> list[int]:
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
            for v in rows[j]:
                if match[v] == -1:
                    ranks[child] -= not _blossom_search(adj, match, v, labels, augment=True)
                    labels.clear()
            grow(child, j + 1)
            for v in rows[j]:
                adj[v] = padded[v]

    grow(0, 0)
    return ranks


def quota_feasible(g: Graph, pq: PartitionQuota) -> bool:
    """Feasibility of the coverage lower bounds, without a witness.

    By matroid-intersection duality specialised to a partition matroid, a
    matching with ``|V(M) ∩ V_i| >= q_i`` exists iff every union of groups
    can be covered to the extent of its summed quotas.  It reads all 2^k
    union ranks, so it serves as the independent reference for
    :func:`matching_with_lower_bounds`, which decides by a padded graph.
    """
    if len(pq.groups) > 20:
        raise InputError("quota_feasible supports at most 20 groups")
    return all(
        sum(q for i, q in enumerate(pq.quotas) if mask >> i & 1) <= rank
        for mask, rank in enumerate(_union_ranks(g, pq.groups))
    )


def matching_with_lower_bounds(g: Graph, pq: PartitionQuota) -> Optional[Matching]:
    """A matching meeting every per-group coverage quota, or None.

    Vertices outside all groups are unconstrained.  Each group with a
    positive quota gets ``|V_i| - q_i`` fresh padding vertices joined to all
    of ``V_i``, and one :func:`~ntumatch.graphs.coverable` call on that
    padded graph asks for a matching covering every such group.  Forward,
    a matching meeting the quotas leaves at most ``|V_i| - q_i`` vertices of
    ``V_i`` exposed, and the padding vertices take them; backward, dropping
    the padding edges from a covering matching leaves at most
    ``|V_i| - q_i`` vertices of each ``V_i`` exposed.
    """
    for grp in pq.groups:
        for v in grp:
            # an out-of-range id would alias a padding vertex
            if not (0 <= v < g.n):
                raise InputError(f"vertex {v} out of range")
    edges = list(g.edges)
    targets: set[int] = set()
    n = g.n
    for grp, q in zip(pq.groups, pq.quotas):
        if q == 0:
            continue
        targets |= grp
        for pad in range(n, n + len(grp) - q):
            edges.extend((v, pad) for v in grp)
        n += len(grp) - q
    if not targets:
        return Matching(())
    witness = coverable(Graph(n, edges), targets)
    if witness is None:
        return None
    # edges are stored as (low, high), so a padding vertex is always second
    return Matching((u, v) for u, v in witness.edges if v < g.n)
