"""Ground-truth engine: exhaustive enumeration on small instances.

Everything here is deliberately brute force and independent of the
polynomial algorithms it validates.  Hard caps raise
:class:`~ntumatch.errors.ResourceLimitError` instead of truncating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import InputError, ResourceLimitError
from .graphs import Graph, Matching

DEFAULT_CAP = 10_000_000


def all_matchings(g: Graph, cap: int = DEFAULT_CAP) -> Iterator[Matching]:
    """Every matching of ``g`` (including the empty one), exactly once.

    Recursive include/exclude over edges in ascending order; aborts with a
    resource error as soon as more than ``cap`` matchings would be emitted.
    """
    edges = g.edges
    n_edges = len(edges)
    count = 0

    def rec(i: int, used: set[int], chosen: list[tuple[int, int]]):
        nonlocal count
        if i == n_edges:
            count += 1
            if count > cap:
                raise ResourceLimitError(
                    f"matching enumeration exceeded cap of {cap}"
                )
            yield Matching(chosen)
            return
        u, v = edges[i]
        yield from rec(i + 1, used, chosen)
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
            chosen.append((u, v))
            yield from rec(i + 1, used, chosen)
            chosen.pop()
            used.remove(u)
            used.remove(v)

    yield from rec(0, set(), [])


def count_matchings(g: Graph, cap: int = DEFAULT_CAP) -> int:
    return sum(1 for _ in all_matchings(g, cap))


def coverable_sets_brute(g: Graph, cap: int = DEFAULT_CAP) -> set[frozenset[int]]:
    """All maximal covered vertex sets, one per matching (not down-closed)."""
    return {m.covered for m in all_matchings(g, cap)}


def even_reach_brute(g: Graph, m: Matching, root: int, cap: int = 2_000_000) -> frozenset[int]:
    """Vertices reachable from ``root`` by a simple alternating path ending
    with a matching edge, by DFS over all alternating paths."""
    partner = m.partner_map()
    if root in partner:
        raise InputError("root is covered")
    reached = {root}
    steps = 0

    def dfs(v: int, visited: set[int]):
        nonlocal steps
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
            dfs(x, visited | {w, x})

    dfs(root, {root})
    return frozenset(reached)


# ---------------------------------------------------------------------------
# cores by definition


def _pareto_maximal(vectors: set[tuple[int, ...]]) -> list[tuple[int, ...]]:
    out = []
    for v in vectors:
        if not any(w != v and all(a >= b for a, b in zip(w, v)) for w in vectors):
            out.append(v)
    return sorted(out)


@dataclass(frozen=True)
class CoalitionTable:
    """Achievable utility patterns of one coalition's induced subgraph."""

    coalition: tuple[int, ...]
    maximal: tuple[tuple[int, ...], ...]
    representatives: dict  # maximal vector -> Matching in original ids


def coalition_tables(inst, cap: int = DEFAULT_CAP) -> dict[tuple[int, ...], CoalitionTable]:
    """Per-coalition Pareto-maximal achievable utility vectors."""
    from itertools import combinations

    from .graphs import induced_subgraph

    g = inst.graph
    m_players = len(inst.players)
    tables: dict[tuple[int, ...], CoalitionTable] = {}
    for size in range(1, m_players + 1):
        for coalition in combinations(range(m_players), size):
            verts = sorted(set().union(*(inst.players[i] for i in coalition)))
            sub, to_old = induced_subgraph(g, verts)
            vecs: dict[tuple[int, ...], Matching] = {}
            for m in all_matchings(sub, cap):
                covered_old = {to_old[v] for v in m.covered}
                vec = tuple(
                    len(inst.players[i] & covered_old) for i in coalition
                )
                if vec not in vecs:
                    vecs[vec] = Matching(
                        (to_old[u], to_old[v]) for u, v in m.edges
                    )
            maximal = _pareto_maximal(set(vecs))
            tables[coalition] = CoalitionTable(
                coalition=coalition,
                maximal=tuple(maximal),
                representatives={v: vecs[v] for v in maximal},
            )
    return tables


def _blocks(table: CoalitionTable, u: tuple[int, ...], kind: str) -> Optional[tuple[int, ...]]:
    """First maximal coalition vector that blocks utility ``u`` (projected).

    Comparing against maximal vectors only is exhaustive: any blocking
    vector is dominated by a maximal one, which then blocks too.
    """
    proj = tuple(u[i] for i in table.coalition)
    for w in table.maximal:
        if kind == "strong":
            if all(a >= b + 1 for a, b in zip(w, proj)):
                return w
        elif w != proj and all(a >= b for a, b in zip(w, proj)):
            return w
    return None


@dataclass(frozen=True)
class OracleCoreResult:
    """Definitional core computation on a small instance."""

    kind: str  # which core was tested: "weak" or "strong"
    in_core: dict  # utility vector -> representative Matching
    blocked: dict  # utility vector -> (representative, coalition, witness)

    @property
    def empty(self) -> bool:
        return not self.in_core


def oracle_core(inst, kind: str, cap: int = DEFAULT_CAP) -> OracleCoreResult:
    """All in-core utility vectors with representatives, by full enumeration.

    A matching is in the weak core when no coalition strongly blocks it and
    in the strong core when no coalition weakly blocks it; membership only
    depends on the utility vector, so vectors are deduplicated.
    """
    if kind not in ("weak", "strong"):
        raise InputError("kind must be 'weak' or 'strong'")
    if len(inst.players) > 20:
        raise ResourceLimitError("oracle_core guard: more than 20 players")
    block_kind = "strong" if kind == "weak" else "weak"
    reps: dict[tuple[int, ...], Matching] = {}
    for m in all_matchings(inst.graph, cap):
        vec = tuple(len(p & m.covered) for p in inst.players)
        if vec not in reps:
            reps[vec] = m
    tables = coalition_tables(inst, cap)
    in_core: dict[tuple[int, ...], Matching] = {}
    blocked: dict[tuple[int, ...], tuple] = {}
    for vec in sorted(reps):
        hit = None
        for coalition in sorted(tables, key=lambda c: (len(c), c)):
            w = _blocks(tables[coalition], vec, block_kind)
            if w is not None:
                hit = (reps[vec], coalition, tables[coalition].representatives[w])
                break
        if hit is None:
            in_core[vec] = reps[vec]
        else:
            blocked[vec] = hit
    return OracleCoreResult(kind=kind, in_core=in_core, blocked=blocked)


# ---------------------------------------------------------------------------
# couples structures by definition


def alternating_triples_brute(cg, cap: int = 2_000_000) -> set[tuple[int, int, int]]:
    """All (end player, end player, traversed player) path patterns.

    Enumerates every simple alternating path that starts and ends with a
    player edge; records ``(first, last, through)`` for each interior
    player, both end orders.
    """
    out: set[tuple[int, int, int]] = set()
    pairs = cg.pairs
    e_adj = [set(cg.original_edge_adj[v]) for v in range(cg.inst.graph.n)]
    player_of = cg.player_of
    steps = 0

    def extend(seq_players: list[int], tip: int, visited: set[int]):
        nonlocal steps
        # tip: current end vertex, just finished a player edge
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
            extend(seq_players + [pw], other, visited | {w, other})

    for p, (u, v) in enumerate(pairs):
        extend([p], v, {u, v})
        extend([p], u, {u, v})
    return out


def delta_triples_brute(cg, cap: int = 4_000_000) -> set[tuple[frozenset, int]]:
    """All realizable (cycle player pair, path-end player) patterns.

    A structure is an odd cycle that alternates except at one vertex ``v``
    plus an alternating path from ``v`` that starts with ``v``'s player
    edge, is vertex-disjoint from the cycle apart from ``v``, and ends with
    a player edge; recorded as every unordered pair of cycle players with
    the path's end player.
    """
    if cg.inst.graph.n > 14:
        raise InputError("delta-structure enumeration is limited to n <= 14")
    out: set[tuple[frozenset, int]] = set()
    pairs = cg.pairs
    e_adj = [set(cg.original_edge_adj[v]) for v in range(cg.inst.graph.n)]
    player_of = cg.player_of
    steps = 0

    def paths_from(v: int, banned: set[int], cycle_players: list[int]):
        """Alternating paths from v starting with v's player edge."""
        nonlocal steps
        pv = player_of[v]
        u1, u2 = pairs[pv]
        other = u2 if v == u1 else u1
        if other in banned:
            return

        def walk(tip: int, players_on_path: list[int], visited: set[int]):
            nonlocal steps
            end_player = players_on_path[-1]
            for a, b in (
                (pa, pb)
                for i, pa in enumerate(cycle_players)
                for pb in cycle_players[i + 1:]
            ):
                out.add((frozenset((a, b)), end_player))
            for w in e_adj[tip]:
                steps += 1
                if steps > cap:
                    raise ResourceLimitError("delta enumeration exceeded cap")
                if w in visited or w in banned:
                    continue
                pw = player_of[w]
                x1, x2 = pairs[pw]
                nxt = x2 if w == x1 else x1
                if nxt in visited or nxt in banned:
                    continue
                walk(nxt, players_on_path + [pw], visited | {w, nxt})

        walk(other, [pv], {v, other})

    def cycles_from(v: int):
        """Odd cycles through v alternating except at v."""
        nonlocal steps

        def walk(tip: int, need_pair: bool, visited: set[int], players: list[int]):
            nonlocal steps
            if need_pair:
                pw = player_of[tip]
                x1, x2 = pairs[pw]
                nxt = x2 if tip == x1 else x1
                if nxt in visited:
                    return
                walk(nxt, False, visited | {nxt}, players + [pw])
            else:
                # close the cycle back to v with a non-player edge
                if v in e_adj[tip] and len(players) >= 1:
                    paths_from(v, visited - {v}, players)
                for w in e_adj[tip]:
                    steps += 1
                    if steps > cap:
                        raise ResourceLimitError("delta enumeration exceeded cap")
                    if w in visited:
                        continue
                    walk(w, True, visited | {w}, players)

        for w in sorted(e_adj[v]):
            walk(w, True, {v, w}, [])

    for v in range(cg.inst.graph.n):
        cycles_from(v)
    return out


def oracle_delta_path(cg, a: int, b: int, c: int) -> bool:
    """Definitional test used only in validation; cached per game."""
    cache = cg.caches.setdefault("delta_brute", {})
    if "triples" not in cache:
        cache["triples"] = delta_triples_brute(cg)
    return (frozenset((a, b)), c) in cache["triples"]
