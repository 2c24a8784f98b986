"""Matchings with per-group coverage lower bounds.

Every "matching with ``|V(M) ∩ V_i| >= q_i`` for all groups" query in the
library is one greedy coverage search on padded adjacency rows, building no
graph: each group with a positive quota gains ``|V_i| - q_i`` fresh vertices
joined to all of ``V_i``, and the quotas can be met exactly when some
matching of the padded rows covers every grouped vertex (the deficiency
gadget behind the Tutte–Berge formula; Lovász & Plummer, *Matching Theory*,
ch. 3).  The coverage ranks of every union of groups, which bound the
const frontier, are read off one Gallai–Edmonds decomposition of the
graph: a union's rank is its size less the odd components inside it that
no cut vertex can be matched to (:func:`_union_ranks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InputError, InvariantError
from .graphs import Graph, Matching, _augment, _blossom_search, _cover, _Labels, _max_match


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


def _odd_components(g: Graph) -> list[tuple[list[int], list[int]]]:
    """The odd components of ``g``'s Gallai–Edmonds decomposition, by least
    vertex, each as its sorted vertices and its sorted neighbours outside it.

    Their union ``D`` holds the vertices some maximum matching leaves
    exposed: the even vertices of one reach search from each vertex the
    memoised maximum matching exposes.  A component's outside neighbours
    are cut vertices, as ``D`` splits into the components of ``G[D]``.
    """
    match = _max_match(g)
    labels = _Labels(g.n)
    inside = [False] * g.n
    for root in range(g.n):
        if match[root] == -1:
            for v in _blossom_search(g.adj, match, root, labels, augment=False):
                inside[v] = True
            labels.clear()
    comps = []
    for s in range(g.n):
        if inside[s]:
            inside[s] = False
            comp = [s]
            for v in comp:  # a FIFO queue: the loop sees what it appends
                for w in g.adj[v]:
                    if inside[w]:
                        inside[w] = False
                        comp.append(w)
            members = set(comp)
            cut = {w for v in comp for w in g.adj[v]} - members
            comps.append((sorted(comp), sorted(cut)))
    return comps


def _claim(cuts: list[list[int]], owner: list[int], root: int) -> bool:
    """An augmenting search from component ``root`` in the bipartite graph
    that joins component ``c`` to the cut vertices ``cuts[c]``, where
    ``owner[a]`` is the component cut vertex ``a`` is matched to, or -1.
    Flips the path it finds.  Breadth first over a list, so a path may run
    through every cut vertex without recursion.
    """
    via: dict[int, int] = {}  # cut vertex: the component that reached it
    entry: dict[int, int] = {}  # component: its matched cut vertex
    queue = [root]
    for c in queue:
        for a in cuts[c]:
            if a in via:
                continue
            via[a] = c
            o = owner[a]
            if o == -1:
                while True:
                    c = owner[a] = via[a]
                    if c == root:
                        return True
                    a = entry[c]
            entry[o] = a
            queue.append(o)
    return False


def _union_ranks(g: Graph, groups: tuple[frozenset[int], ...]) -> list[int]:
    """Coverage rank of every union of groups, indexed by bitmask.

    Read off one Gallai–Edmonds decomposition (Lovász & Plummer, *Matching
    Theory*, ch. 3): with ``D`` the vertices some maximum matching exposes
    and ``A`` the cut set around it, every maximum matching matches ``A``
    into distinct odd components of ``G[D]``, each component
    near-perfectly, and the rest perfectly.  The components are
    factor-critical, so one that ``A`` leaves unmatched may expose any of
    its vertices, and the sets of components ``A`` can match are the
    independent sets of a transversal matroid (Edmonds & Fulkerson, 1965).
    Hence ``r(X) = |X| - |F| + ν_B(F)``, with ``F`` the components inside
    ``X`` and ``ν_B`` the size of a maximum matching of them to adjacent
    cut vertices.  A component lies inside a union when its players do
    (never when it has an ungrouped vertex), so ``|F| - ν_B(F)`` depends
    only on the players that components touch.  Their masks are walked
    depth first: a child augments the bipartite matching from each
    component inside it whose highest player joins it, and the owners of
    the cut vertices are restored on the way back.
    """
    n = g.n
    bad = [v for grp in groups for v in grp if not 0 <= v < n]
    if bad:
        raise InputError(f"vertex {bad[0]} out of range")
    who = [-1] * n
    for j, grp in enumerate(groups):
        for v in grp:
            who[v] = j
    comps = _odd_components(g)
    slot = {a: i for i, a in enumerate(sorted({a for _, cut in comps for a in cut}))}
    # tops[j]: (player mask, index in cuts) of the components whose highest
    # player is j; cuts[c] holds c's cut vertices as indices into owner
    tops: list[list[tuple[int, int]]] = [[] for _ in groups]
    cuts = []
    touched = 0
    for members, cut in comps:
        mask = 0
        for v in members:
            if who[v] == -1:
                break
            mask |= 1 << who[v]
        else:
            touched |= mask
            tops[mask.bit_length() - 1].append((mask, len(cuts)))
            cuts.append([slot[a] for a in cut])
    players = [j for j in range(len(groups)) if touched >> j & 1]
    owner = [-1] * len(slot)
    lack = [0] * (1 << len(groups))  # |F| - ν_B(F), on masks of touched players

    def grow(mask: int, low: int) -> None:
        saved = owner[:]
        for i in range(low, len(players)):
            j = players[i]
            child = mask | 1 << j
            fails = lack[mask]
            for inner, c in tops[j]:
                if inner | child == child:
                    # most components find a free cut vertex with no search
                    for a in cuts[c]:
                        if owner[a] == -1:
                            owner[a] = c
                            break
                    else:
                        fails += not (cuts[c] and _claim(cuts, owner, c))
            lack[child] = fails
            if i + 1 < len(players):
                grow(child, i + 1)
            owner[:] = saved

    grow(0, 0)
    ranks = [0]
    for size in map(len, groups):
        ranks += [r + size for r in ranks]
    return [r - lack[w & touched] for w, r in enumerate(ranks)]


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
