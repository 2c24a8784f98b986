"""Brute-force references for graph, coalition, frontier and couples
structure tests.

The graph helpers the library no longer calls live here as references:
induced subgraphs, the perfect-matching test, alternating reach from one
root, the cut set and odd components of a deficient part, the
Gallai–Edmonds decomposition, and the augmenting loop that runs a blossom
search from every exposed root, with no greedy first step.
Alternating reach, coverable sets, connected coalitions, alternating-path
triples and delta structures, each by enumerating matchings, subsets or
simple alternating paths (explicit stacks, no recursion), independent of
the algorithms the tests compare them against.  Hard caps raise
:class:`~ntumatch.errors.ResourceLimitError` instead of truncating.  The
const frontier's reference is the lattice walk that preceded its exact
lower bounds, which recurses once per player.  The core oracle's
references are the pairwise test of its disjoint-edge masks and its
phases before the subset recurrence and the per-vector scan: a
deduplicating walk over covered-vertex masks (on the matching walk that
scanned every later edge per frame and copied the chosen tuple per push),
every coalition's table scanned from all achievable vectors, and the
blocking pass that tries every coalition in order against the vectors no
earlier one blocked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional

from ntumatch.errors import InputError, InvariantError, ResourceLimitError
from ntumatch.exhaustive import all_matchings
from ntumatch.games import DEFAULT_BUDGET, Instance
from ntumatch.graphs import (
    Graph,
    Matching,
    _blossom_search,
    _Labels,
    _match_array,
    _max_match,
    max_matching,
)
from ntumatch.matroids import _union_ranks


def augment_by_search(adj, match, roots, labels: _Labels, stop: bool = False) -> int:
    """``graphs._augment`` as one augmenting search from each of ``roots``
    still exposed when its turn comes, with no greedy step; returns how
    many failed, stopping at the first failure when ``stop`` is set."""
    failed = 0
    for root in roots:
        if match[root] == -1:
            failed += not _blossom_search(adj, match, root, labels, augment=True)
            labels.clear()
            if stop and failed:
                break
    return failed


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``keep`` with dense relabeling.

    Returns the subgraph and ``to_old`` such that ``to_old[new_id]`` is the
    original id.
    """
    to_old = tuple(sorted(set(keep)))
    for v in to_old:
        if not (0 <= v < g.n):
            raise InputError(f"vertex {v} out of range")
    to_new = {v: i for i, v in enumerate(to_old)}
    edges = [
        (to_new[u], to_new[v])
        for u, v in g.edges
        if u in to_new and v in to_new
    ]
    return Graph(len(to_old), edges), to_old


def perfect_matching_exists(g: Graph) -> tuple[bool, Optional[Matching]]:
    """Whether every vertex can be covered, with a witness when true."""
    m = max_matching(g)
    if 2 * m.size == g.n:
        return True, m
    return False, None


def alternating_reach(g: Graph, m: Matching, root: int) -> frozenset[int]:
    """The vertices reachable from the exposed ``root`` by alternating
    paths that end with a matching edge, ``root`` itself included, with
    blossom handling (correct on non-bipartite graphs)."""
    m.validate_for(g)
    match = _match_array(g.n, m)
    if not (0 <= root < g.n):
        raise InputError(f"root {root} out of range")
    if match[root] != -1:
        raise InputError(f"root {root} is covered by the matching")
    return frozenset(_blossom_search(g.adj, match, root, _Labels(g.n), augment=False))


def cut_and_components(adj, exposable) -> tuple[frozenset[int], tuple[frozenset[int], ...]]:
    """The cut set (outside neighbourhood) of the deficient part
    ``exposable`` of a graph given by adjacency rows, and the odd
    components the part induces, ordered by least vertex."""
    cut = frozenset(u for v in exposable for u in adj[v] if u not in exposable)
    comps: list[frozenset[int]] = []
    seen: set[int] = set()
    for v in sorted(exposable):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in exposable and y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        if len(comp) % 2 == 0:
            raise InvariantError("even-sized component in the deficient part")
        comps.append(frozenset(comp))
    return cut, tuple(comps)


@dataclass(frozen=True)
class GallaiEdmonds:
    """Structure of a graph relative to its maximum matchings.

    ``cut_set`` separates the even part from the odd components; every
    odd component is hypomatchable; every maximum matching exposes exactly
    ``len(odd_components) - len(cut_set)`` vertices, all in distinct odd
    components.
    """

    cut_set: frozenset[int]
    even_part: frozenset[int]
    odd_components: tuple[frozenset[int], ...]
    witness: Matching


def gallai_edmonds(g: Graph) -> GallaiEdmonds:
    """Decomposition into cut set, even part, and hypomatchable components.

    The odd components collect exactly the vertices exposed by at least one
    maximum matching; the cut set is their outside neighborhood.
    """
    m = max_matching(g)
    match = _match_array(g.n, m)
    exposable: set[int] = set()
    labels = _Labels(g.n)
    for root in range(g.n):
        if match[root] == -1:
            exposable.update(_blossom_search(g.adj, match, root, labels, augment=False))
            labels.clear()
    cut, comps = cut_and_components(g.adj, exposable)
    if len(comps) - len(cut) != g.n - 2 * m.size:
        raise InvariantError("deficiency identity violated")
    return GallaiEdmonds(
        cut_set=cut,
        even_part=frozenset(range(g.n)) - exposable - cut,
        odd_components=comps,
        witness=m,
    )


def coverable_sets_brute(g: Graph, cap: int = DEFAULT_BUDGET) -> set[frozenset[int]]:
    """The covered vertex set of every matching, the empty matching's empty
    set included; a set is coverable when it lies inside one of them."""
    return {m.covered for m in all_matchings(g, cap)}


def connected_coalitions_brute(contacts: list[int]) -> list[tuple[int, ...]]:
    """Every coalition whose players are connected through ``contacts``
    (bit ``j`` of ``contacts[i]`` set when players ``i`` and ``j`` touch),
    by size then lexicographically: all subsets, each checked by a search
    over its members."""
    out = []
    for size in range(1, len(contacts) + 1):
        for coalition in combinations(range(len(contacts)), size):
            want = 0
            for i in coalition:
                want |= 1 << i
            reached = todo = 1 << coalition[0]
            while todo:
                low = todo & -todo
                todo ^= low
                new = contacts[low.bit_length() - 1] & want & ~reached
                reached |= new
                todo |= new
            if reached == want:
                out.append(coalition)
    return out


def frontier_walk_reference(inst: Instance) -> tuple[tuple[int, ...], ...]:
    """The component-wise maximal achievable utility vectors, sorted.

    Walks the capped product lattice one player at a time: coordinate i is
    capped by its size, by 2ν minus the prefix sum and by the slack of every
    union of players whose highest index is i, and floored only by what the
    later players' sizes can no longer make up, so the walk may reach dead
    ends at any level; the leaves are sorted at the end.
    """
    sizes = [len(p) for p in inst.players]
    m = inst.num_players
    total = sum(w != -1 for w in _max_match(inst.graph))
    ranks = _union_ranks(inst.graph, inst.players)
    load = [0] * (1 << m)
    suffix_caps = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix_caps[i] = suffix_caps[i + 1] + sizes[i]
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def rec(acc: int):
        i = len(prefix)
        if i == m:
            out.append(tuple(prefix))
            return
        lo, hi = 1 << i, 2 << i
        below = load[:lo]
        cap = min(sizes[i], total - acc, *map(int.__sub__, ranks[lo:hi], below))
        for xi in range(max(0, total - acc - suffix_caps[i + 1]), cap + 1):
            load[lo:hi] = [v + xi for v in below]
            prefix.append(xi)
            rec(acc + xi)
            prefix.pop()

    rec(0)
    out.sort()
    return tuple(out)


def even_reach_brute(g: Graph, m: Matching, root: int, cap: int = 2_000_000) -> frozenset[int]:
    """Vertices reachable from ``root`` by a simple alternating path ending
    with a matching edge, by DFS (explicit stack) over all alternating
    paths."""
    partner = m.partner_map()
    if root in partner:
        raise InputError("root is covered")
    reached = {root}
    steps = 0
    stack = [(root, frozenset((root,)))]
    while stack:
        v, visited = stack.pop()
        for w in g.adj[v]:
            steps += 1
            if steps > cap:
                raise ResourceLimitError("alternating-path enumeration exceeded cap")
            if w in visited:
                continue
            # unmatched edge v-w, then w must continue on its matched edge
            if partner.get(v) == w:
                continue
            x = partner.get(w)
            if x is None or x in visited:
                continue
            reached.add(x)
            stack.append((x, visited | {w, x}))
    return frozenset(reached)


def alternating_triples_brute(cg, cap: int = 2_000_000) -> set[tuple[int, int, int]]:
    """All (end player, end player, traversed player) path patterns.

    Enumerates, by DFS with an explicit stack, every simple alternating
    path that starts and ends with a player edge; records
    ``(first, last, through)`` for each interior player, both end orders.
    """
    out: set[tuple[int, int, int]] = set()
    pairs = cg.pairs
    e_adj = [set(cg.inst.graph.adj[v]) for v in range(cg.inst.graph.n)]
    player_of = cg.player_of
    steps = 0
    # (players along the path, tip vertex just past a player edge, visited)
    stack = []
    for p, (u, v) in enumerate(pairs):
        stack.append(((p,), v, frozenset((u, v))))
        stack.append(((p,), u, frozenset((u, v))))
    while stack:
        seq_players, tip, visited = stack.pop()
        if len(seq_players) >= 2:
            a, c = seq_players[0], seq_players[-1]
            for b in seq_players[1:-1]:
                out.add((a, c, b))
                out.add((c, a, b))
        for w in e_adj[tip]:
            steps += 1
            if steps > cap:
                raise ResourceLimitError("path enumeration exceeded cap")
            if w in visited:
                continue
            pw = player_of[w]
            u, v = pairs[pw]
            other = v if w == u else u
            if other in visited:
                continue
            stack.append((seq_players + (pw,), other, visited | {w, other}))
    return out


def delta_triples_brute(cg, cap: int = 4_000_000) -> set[tuple[frozenset, int]]:
    """All realizable (cycle player pair, path-end player) patterns.

    A structure is an odd cycle that alternates except at one vertex ``v``
    plus an alternating path from ``v`` that starts with ``v``'s player
    edge, is vertex-disjoint from the cycle apart from ``v``, and ends with
    a player edge; recorded as every unordered pair of cycle players with
    the path's end player.  Cycles and paths are both walked by DFS with
    explicit stacks.
    """
    if cg.inst.graph.n > 14:
        raise InputError("delta-structure enumeration is limited to n <= 14")
    out: set[tuple[frozenset, int]] = set()
    pairs = cg.pairs
    e_adj = [set(cg.inst.graph.adj[v]) for v in range(cg.inst.graph.n)]
    player_of = cg.player_of
    steps = 0

    def mate(x: int) -> int:
        x1, x2 = pairs[player_of[x]]
        return x2 if x == x1 else x1

    def paths_from(v: int, banned: frozenset, cycle_players: tuple[int, ...]):
        """Alternating paths from v starting with v's player edge."""
        nonlocal steps
        other = mate(v)
        if other in banned:
            return
        cycle_pairs = [
            frozenset((pa, pb))
            for i, pa in enumerate(cycle_players)
            for pb in cycle_players[i + 1:]
        ]
        # (tip vertex just past a player edge, that edge's player, visited)
        stack = [(other, player_of[v], frozenset((v, other)))]
        while stack:
            tip, end_player, visited = stack.pop()
            for pair in cycle_pairs:
                out.add((pair, end_player))
            for w in e_adj[tip]:
                steps += 1
                if steps > cap:
                    raise ResourceLimitError("delta enumeration exceeded cap")
                if w in visited or w in banned:
                    continue
                nxt = mate(w)
                if nxt in visited or nxt in banned:
                    continue
                stack.append((nxt, player_of[w], visited | {w, nxt}))

    for v in range(cg.inst.graph.n):
        # odd cycles through v alternating except at v: leave v on a
        # non-player edge to w, take w's player edge, and repeat until a
        # non-player edge closes the cycle back at v
        stack = []
        for w in sorted(e_adj[v]):
            nxt = mate(w)
            if nxt not in (v, w):
                stack.append((nxt, frozenset((v, w, nxt)), (player_of[w],)))
        while stack:
            tip, visited, players = stack.pop()
            if v in e_adj[tip]:
                paths_from(v, visited - {v}, players)
            for w in e_adj[tip]:
                steps += 1
                if steps > cap:
                    raise ResourceLimitError("delta enumeration exceeded cap")
                if w in visited:
                    continue
                nxt = mate(w)
                if nxt in visited or nxt == w:
                    continue
                stack.append((nxt, visited | {w, nxt}, players + (player_of[w],)))
    return out


def oracle_delta_path(cg, a: int, b: int, c: int) -> bool:
    """Definitional test used only in validation; enumerates the game's
    structures afresh on every call."""
    return (frozenset((a, b)), c) in delta_triples_brute(cg)


def pareto_maximal_reference(vectors) -> list[tuple[int, ...]]:
    """Pareto-maximal members of a set of equal-length vectors, ascending.

    A vector can only be dominated by one that is lexicographically
    larger, and then by a maximal one; so in descending order each vector
    is checked against the maxima found so far.
    """
    maxima: list[tuple[int, ...]] = []
    for v in sorted(vectors, reverse=True):
        if not any(all(a >= b for a, b in zip(w, v)) for w in maxima):
            maxima.append(v)
    maxima.reverse()
    return maxima


def disjoint_reference(edges) -> list[int]:
    """Per edge, the bitmask of the edges that share no vertex with it, by
    testing every pair of edges."""
    return [sum(1 << k for k, f in enumerate(edges) if {u, v}.isdisjoint(f)) for u, v in edges]


def matching_masks_reference(g: Graph, cap: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every matching of ``g`` as ``(covered-vertex bitmask, chosen edge
    indices)``, exactly once, in include/exclude order, exclude first.

    A stack frame ``(i, mask, chosen)`` stands for every matching that
    extends ``chosen`` by edges from index ``i`` on: the first of them
    adds nothing, and the rest include some later free edge ``j``, the
    largest ``j`` first, which is why the frames are pushed in ascending
    ``j``.  Raises a resource error as soon as more than ``cap`` matchings
    would be emitted.
    """
    emask = [(1 << u) | (1 << v) for u, v in g.edges]
    stack = [(0, 0, ())]
    count = 0
    while stack:
        i, mask, chosen = stack.pop()
        count += 1
        if count > cap:
            raise ResourceLimitError(f"matching enumeration exceeded cap of {cap}")
        yield mask, chosen
        for j in range(i, len(emask)):
            if not mask & emask[j]:
                stack.append((j + 1, mask | emask[j], chosen + (j,)))


def first_by_vector_reference(inst, cap: int) -> dict[tuple[int, ...], tuple[int, tuple[int, ...]]]:
    """The single pass: utility vector -> (touched-player bitmask, chosen
    edge indices of the first matching in ``all_matchings`` order that
    achieves it).

    The vector depends on the covered set only, so repeated covered sets
    are skipped before any vector is computed.
    """
    pmasks = [sum(1 << v for v in p) for p in inst.players]
    seen: set[int] = set()
    first: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    for mask, chosen in matching_masks_reference(inst.graph, cap):
        if mask in seen:
            continue
        seen.add(mask)
        vec = tuple([(mask & pm).bit_count() for pm in pmasks])
        if vec not in first:
            touched = sum(1 << i for i, k in enumerate(vec) if k)
            first[vec] = (touched, chosen)
    return first


def coalition_maxima_reference(first: dict, m_players: int) -> Iterator[tuple[tuple[int, ...], list]]:
    """``(coalition, its Pareto-maximal vectors)`` per coalition, smallest
    coalitions first, then lexicographically; each maximal vector is
    projected onto the coalition (ascending) and paired with the full
    utility vector it projects from.

    A matching lies in the coalition's induced subgraph iff the players it
    touches are a subset of the coalition.  Those vectors are zero outside
    the coalition, so projecting them keeps both dominance and order, and
    only the maximal ones are projected.  One table is built at a time.
    """
    for size in range(1, m_players + 1):
        for coalition in combinations(range(m_players), size):
            outside = ~sum(1 << i for i in coalition)
            inside = [vec for vec, (touched, _) in first.items() if not touched & outside]
            yield coalition, [
                (tuple(vec[i] for i in coalition), vec) for vec in pareto_maximal_reference(inside)
            ]


def _witness_reference(table: list, proj: tuple[int, ...], strong: bool) -> Optional[tuple[int, ...]]:
    """Full vector of the first maximal vector in ``table`` that blocks the
    projected utility ``proj``; strong blocks need every member strictly
    better, weak ones need nobody worse and somebody better.

    Comparing against maximal vectors only is exhaustive: any blocking
    vector is dominated by a maximal one, which then blocks too.
    """
    for w, vec in table:
        if strong:
            if all(a > b for a, b in zip(w, proj)):
                return vec
        elif w != proj and all(a >= b for a, b in zip(w, proj)):
            return vec
    return None


def blocked_reference(maxima, vectors, strong: bool) -> dict:
    """Utility vector -> (first coalition in ``maxima`` order that blocks
    it, its witness vector), for every blocked vector.

    Coalitions go in order over the vectors not blocked yet, and none is
    built once every vector is blocked; vectors with the same projection
    onto a coalition share its verdict.
    """
    hits: dict[tuple[int, ...], tuple] = {}
    pending = list(vectors)
    for coalition, table in maxima:
        verdict: dict[tuple[int, ...], Optional[tuple[int, ...]]] = {}
        rest = []
        for u in pending:
            proj = tuple([u[i] for i in coalition])
            if proj not in verdict:
                verdict[proj] = _witness_reference(table, proj, strong)
            if verdict[proj] is None:
                rest.append(u)
            else:
                hits[u] = (coalition, verdict[proj])
        pending = rest
        if not pending:
            break
    return hits
