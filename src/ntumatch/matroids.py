"""Matchings with per-group coverage lower bounds.

Every "matching with ``|V(M) ∩ V_i| >= q_i`` for all groups" query in the
library is one greedy coverage search on padded adjacency rows, building no
graph: each group with a positive quota gains ``|V_i| - q_i`` fresh vertices
joined to all of ``V_i``, and the quotas can be met exactly when some
matching of the padded rows covers every grouped vertex (the deficiency
gadget behind the Tutte–Berge formula; Lovász & Plummer, *Matching Theory*,
ch. 3).  The union coverage ranks of the groups feed the const frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InputError, InvariantError
from .graphs import Graph, Matching, _augment, _cover, _Labels, _max_match


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
            ranks[child] -= _augment(adj, match, rows[j], labels)
            grow(child, j + 1)
            for v in rows[j]:
                adj[v] = padded[v]

    grow(0, 0)
    return ranks


def _quota_matching(
    g: Graph, within: frozenset[int], groups: tuple[frozenset[int], ...], quotas: tuple[int, ...]
) -> Optional[Matching]:
    """A matching of ``g[within]`` covering ``quotas[i]`` vertices of each
    ``groups[i]`` (a subset of ``within``), or None.

    The padded graph of :func:`matching_with_lower_bounds` as rows: ``g``'s
    rows cut to ``within``, then each group's padding vertices from
    ``len(g.adj)`` upward.  A maximum matching of them, by searches from
    ``within`` and the padding in ascending id order (no other id has an
    edge), seeds the greedy of :func:`~ntumatch.graphs.coverable` over the
    targets.
    """
    targets = frozenset().union(*(grp for grp, q in zip(groups, quotas) if q))
    if not targets:
        return Matching(())
    n = len(g.adj)
    adj: list = [()] * n
    for v in within:
        adj[v] = [w for w in g.adj[v] if w in within]
    for grp, q in zip(groups, quotas):
        if q:
            row = sorted(grp)
            for v in row:
                adj[v] += range(len(adj), len(adj) + len(row) - q)
            adj += [row] * (len(row) - q)
    match = [-1] * len(adj)
    _augment(adj, match, [*sorted(within), *range(n, len(adj))], _Labels(len(adj)))
    if _cover(adj, match, targets, stop=True):
        return None
    if -1 in map(match.__getitem__, targets):
        raise InvariantError("greedy witness does not cover the requested set")
    # real vertices have the lowest ids, so an edge of two of them is low-high
    return Matching((v, match[v]) for v in range(n) if v < match[v] < n)


def matching_with_lower_bounds(g: Graph, pq: PartitionQuota) -> Optional[Matching]:
    """A matching meeting every per-group coverage quota, or None.

    Vertices outside all groups are unconstrained.  Each group with a
    positive quota gets ``|V_i| - q_i`` fresh padding vertices joined to all
    of ``V_i``, and a matching of that padded graph covering every such
    group is sought (:func:`_quota_matching`).  Forward, a matching meeting
    the quotas leaves at most ``|V_i| - q_i`` vertices of ``V_i`` exposed,
    and the padding vertices take them; backward, dropping the padding
    edges from a covering matching leaves at most ``|V_i| - q_i`` vertices
    of each ``V_i`` exposed.
    """
    for grp in pq.groups:
        for v in grp:
            # an out-of-range id would alias a padding vertex
            if not (0 <= v < g.n):
                raise InputError(f"vertex {v} out of range")
    return _quota_matching(g, frozenset(range(g.n)), pq.groups, pq.quotas)
