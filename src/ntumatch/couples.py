"""Games where every player owns exactly two vertices.

Each player's vertex pair acts as an artificial *player edge*; the player
edges together form a perfect matching that real edges alternate with.
Membership tests, the always-successful weak-core construction, and the
strong-core existence machinery all reduce to perfect-matching and
alternating-reachability queries on graphs derived from that union.

A real edge parallel to a player edge forms a two-edge alternating cycle
through that player; it is the only place the parallelism matters, and it
is special-cased.  Everywhere else a parallel copy can only ever be used
in the real-edge role, so the simple-graph union is faithful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Optional

from .errors import InputError, InvariantError
from .games import BlockCertificate, Instance, MembershipResult, utility
from .graphs import Graph, Matching, _blossom_search, gallai_edmonds, max_matching
from .matroids import PartitionQuota, matching_with_lower_bounds


@dataclass(frozen=True, eq=False)
class CouplesGame:
    """A partitioned matching game with all players of size exactly two.

    ``inst`` is the (possibly padded) instance; ``original`` the input it
    came from.  Padding adds one isolated vertex to each size-1 player, so
    matchings and verdicts transfer back unchanged.
    """

    inst: Instance
    original: Instance
    pairs: tuple[tuple[int, int], ...]
    padded_vertices: frozenset[int]
    caches: dict = field(default_factory=dict)

    @cached_property
    def player_of(self) -> dict[int, int]:
        return self.inst.player_of

    @cached_property
    def partner(self) -> dict[int, int]:
        d: dict[int, int] = {}
        for u, v in self.pairs:
            d[u] = v
            d[v] = u
        return d

    @cached_property
    def parallel_players(self) -> frozenset[int]:
        return frozenset(
            i for i, pr in enumerate(self.pairs) if pr in self.inst.graph.edge_set
        )

    @cached_property
    def union(self) -> "_Union":
        return _Union.of_game(self)

    @property
    def num_players(self) -> int:
        return len(self.pairs)


def normalize(inst: Instance) -> CouplesGame:
    """Pad size-1 players with a fresh isolated vertex each.

    Players of size three or more are out of this solver's scope.
    """
    for i, p in enumerate(inst.players):
        if len(p) > 2:
            raise InputError(
                f"player {i} has {len(p)} vertices; the couples solver needs "
                "sizes at most 2 (use the enumeration or oracle paths)"
            )
    n = inst.graph.n
    players: list[frozenset[int]] = []
    padded: list[int] = []
    for p in inst.players:
        if len(p) == 2:
            players.append(p)
        else:
            players.append(p | {n})
            padded.append(n)
            n += 1
    if padded:
        graph = Graph(n, inst.graph.edges)
        padded_inst = Instance(graph, tuple(players))
    else:
        padded_inst = inst
    pairs = []
    for p in padded_inst.players:
        u, v = sorted(p)
        pairs.append((u, v))
    return CouplesGame(
        inst=padded_inst,
        original=inst,
        pairs=tuple(pairs),
        padded_vertices=frozenset(padded),
    )


# ---------------------------------------------------------------------------
# the union-graph query kernel


def _without(row: tuple[int, ...], x: int) -> tuple[int, ...]:
    return tuple(w for w in row if w != x)


class _Union:
    """The union of real and player edges on original vertex ids, possibly
    restricted to a vertex set, with the player edges inside it as the
    base matching.

    Built once per game (and once per restriction).  A query masks a
    shallow copy of the adjacency, replacing only the rows its deletions
    touch, and augments from the base matching without the deleted player
    edges.  It may also add ``fresh`` new vertices, with ids ``len(adj)``,
    ``len(adj) + 1``, ..., which start exposed and may be endpoints of
    extra edges.  Deleting k player edges or vertices and adding f fresh
    vertices leaves at most 2k + f exposed vertices, so a query runs at
    most 2k + f blossom searches, and it stops at the first root that
    cannot be matched.
    """

    __slots__ = ("cg", "adj", "base", "inside", "exposed")

    def __init__(self, cg: "CouplesGame", adj, base, inside, exposed):
        self.cg = cg
        self.adj = adj
        self.base = base
        self.inside = inside  # None: every vertex
        self.exposed = exposed

    @classmethod
    def of_game(cls, cg: "CouplesGame") -> "_Union":
        g = cg.inst.graph
        rows = [list(r) for r in g.adj]
        base = [-1] * g.n
        for u, v in cg.pairs:
            base[u], base[v] = v, u
            if (u, v) not in g.edge_set:
                rows[u].append(v)
                rows[v].append(u)
        adj = tuple(tuple(sorted(r)) for r in rows)
        return cls(cg, adj, tuple(base), None, ())

    def restrict(self, verts) -> "_Union":
        """The same union restricted to ``verts``; vertices whose partner
        lies outside are exposed by the base matching."""
        inside = frozenset(verts)
        adj = [()] * len(self.adj)
        base = [-1] * len(self.adj)
        for v in inside:
            adj[v] = tuple(w for w in self.adj[v] if w in inside)
            if self.base[v] in inside:
                base[v] = self.base[v]
        exposed = tuple(sorted(v for v in inside if base[v] == -1))
        return _Union(self.cg, tuple(adj), tuple(base), inside, exposed)

    def has(self, v: int) -> bool:
        return self.inside is None or v in self.inside

    def _mask(self, drop_players, drop_vertices, extra_edges, fresh):
        n = len(self.adj)
        adj = [*self.adj, *[()] * fresh]
        match = [*self.base, *[-1] * fresh]
        exposed = {*self.exposed, *range(n, n + fresh)}
        real = self.cg.inst.graph.edge_set
        for p in drop_players:
            u, v = self.cg.pairs[p]
            if match[u] != v:
                continue  # not inside the view
            match[u] = match[v] = -1
            exposed.update((u, v))
            if (u, v) not in real:
                adj[u] = _without(adj[u], v)
                adj[v] = _without(adj[v], u)
        gone = set()
        for x in drop_vertices:
            if not self.has(x) or x in gone:
                continue
            gone.add(x)
            y = match[x]
            if y != -1:
                match[x] = match[y] = -1
                exposed.add(y)
            exposed.discard(x)
            for w in adj[x]:
                adj[w] = _without(adj[w], x)
            adj[x] = ()
        for a, b in extra_edges:
            for v in (a, b):
                if not (0 <= v < n + fresh and (v >= n or self.has(v))) or v in gone:
                    raise InvariantError("extra edge endpoint outside the view")
            if b not in adj[a]:
                adj[a] = tuple(sorted((*adj[a], b)))
                adj[b] = tuple(sorted((*adj[b], a)))
        return adj, match, sorted(exposed)

    def augment(self, drop_players=(), drop_vertices=(), extra_edges=(), missing=0, fresh=0):
        """Delete players' edges and vertices, add ``fresh`` vertices and
        the extra edges, and augment the surviving player edges until at
        most ``missing`` vertices of the view stay exposed.

        Returns ``(match, base)`` as partner arrays (-1 for exposed) of the
        matching found and of the masked base matching, whose symmetric
        difference is the augmenting paths taken; None when no matching
        of the view leaves at most ``missing`` vertices exposed.  A root
        whose search fails stays exposed under every later augmentation,
        so each failure is final.
        """
        adj, match, exposed = self._mask(drop_players, drop_vertices, extra_edges, fresh)
        base = list(match)
        left = len(exposed)
        failed = 0
        for root in exposed:
            if left <= missing:
                break
            if match[root] != -1:
                continue
            if _blossom_search(adj, match, root, augment=True):
                left -= 2
            else:
                failed += 1
                if failed > missing:
                    return None
        return match, base

    def reach(self, root: int, drop_players=()) -> frozenset[int]:
        """Vertices even-reachable from the exposed ``root`` by alternating
        paths over the base matching without the given players' edges."""
        adj, match, _ = self._mask(drop_players, (), (), 0)
        if not self.has(root) or match[root] != -1:
            raise InvariantError(f"reach root {root} is not an exposed vertex of the view")
        used, _ = _blossom_search(adj, match, root, augment=False)
        return frozenset(i for i, hit in enumerate(used) if hit)


# ---------------------------------------------------------------------------
# symmetric-difference structures


def _labeled_delta(found, base):
    """Edges of the symmetric difference of two partner arrays, labeled
    'e' (found side: real edges) or 'p' (base side: player edges)."""
    out = []
    for x, (y, z) in enumerate(zip(found, base)):
        if y == z:
            continue
        if y > x:
            out.append((x, y, "e"))
        if z > x:
            out.append((x, z, "p"))
    return out


def _delta_components(labeled):
    """Split labeled difference edges into path/cycle components."""
    adj: dict[int, list[tuple[int, str]]] = {}
    for u, v, lab in labeled:
        adj.setdefault(u, []).append((v, lab))
        adj.setdefault(v, []).append((u, lab))
    used: set[tuple[int, int]] = set()

    def key(x: int, y: int) -> tuple[int, int]:
        return (x, y) if x < y else (y, x)

    def walk(start: int):
        seq_edges = []
        cur = start
        while True:
            nxt = None
            for w, lab in sorted(adj[cur]):
                if key(cur, w) not in used:
                    nxt = (w, lab)
                    break
            if nxt is None:
                return seq_edges, cur
            w, lab = nxt
            used.add(key(cur, w))
            seq_edges.append((cur, w, lab))
            cur = w

    comps = []
    for s in sorted(v for v in adj if len(adj[v]) == 1):
        if all(key(s, w) in used for w, _ in adj[s]):
            continue
        edges_seq, end = walk(s)
        comps.append({"edges": edges_seq, "cycle": False, "ends": (s, end)})
    for s in sorted(adj):
        if all(key(s, w) in used for w, _ in adj[s]):
            continue
        edges_seq, end = walk(s)
        comps.append({"edges": edges_seq, "cycle": end == s, "ends": (s, end)})
    return comps


def _certificate(cg: CouplesGame, labeled, kind: str, challenged: tuple[int, ...]) -> BlockCertificate:
    """Turn an alternating blocking structure into a validated certificate."""
    players = sorted(
        {cg.player_of[u] for u, v, lab in labeled if lab == "p"}
    )
    witness = Matching((u, v) for u, v, lab in labeled if lab == "e")
    cert = BlockCertificate(tuple(players), witness, kind)
    cert.validate(cg.inst, challenged)
    return cert


# ---------------------------------------------------------------------------
# alternating cycles


def _cycle_labeled_edges(cg: CouplesGame, p: int, view: Optional[_Union] = None):
    """The labeled edges of one alternating cycle through player ``p``'s
    edge within the view (default: the whole union), or None."""
    view = cg.union if view is None else view
    u, v = cg.pairs[p]
    if (u, v) in cg.inst.graph.edge_set:
        if view.has(u) and view.has(v):
            return [(u, v, "e"), (u, v, "p")]
        return None
    found = view.augment(drop_players=(p,))
    if found is None:
        return None
    comps = _delta_components(_labeled_delta(*found))
    target = None
    for comp in comps:
        if any(u in e[:2] for e in comp["edges"]):
            target = comp
            break
    if target is None or target["cycle"]:
        raise InvariantError("cycle extraction failed")
    if set(target["ends"]) != {u, v}:
        raise InvariantError("cycle path does not connect the player's vertices")
    return [*target["edges"], (u, v, "p")]


def on_alternating_cycle(cg: CouplesGame, p: int) -> bool:
    """Whether some alternating cycle passes through player ``p``'s edge:
    after deleting that edge, the union graph keeps a perfect matching."""
    if not (0 <= p < cg.num_players):
        raise InputError(f"player {p} out of range")
    if p in cg.parallel_players:
        return True
    return cg.union.augment(drop_players=(p,)) is not None


def _pair_path_labeled(cg: CouplesGame, p: int, q: int, view: Optional[_Union] = None):
    """One alternating path whose end player edges are ``p`` and ``q``
    (full edges included), as labeled edges, or None.

    Valid only when neither player edge lies on an alternating cycle in the
    same view; callers establish that first.
    """
    view = cg.union if view is None else view
    found = view.augment(drop_players=(p, q), missing=2)
    if found is None:
        return None
    comps = _delta_components(_labeled_delta(*found))
    pset, qset = set(cg.pairs[p]), set(cg.pairs[q])
    paths = [c for c in comps if not c["cycle"] and set(c["ends"]) <= pset | qset]
    if len(paths) != 1:
        raise InvariantError("expected exactly one augmenting path between the pair")
    comp = paths[0]
    ends = set(comp["ends"])
    if not (len(ends & pset) == 1 and len(ends & qset) == 1):
        raise InvariantError("path endpoints do not split across the two players")
    return [*comp["edges"], (*cg.pairs[p], "p"), (*cg.pairs[q], "p")]


# ---------------------------------------------------------------------------
# membership


def weak_membership(cg: CouplesGame, m: Matching) -> MembershipResult:
    """Weak-core test: restricted to players with at most one covered
    vertex, no player edge may lie on an alternating cycle, and no two
    uncovered players may be joined by an alternating path."""
    m.validate_for(cg.inst.graph)
    u = utility(cg.inst, m)
    low = [i for i, ui in enumerate(u) if ui <= 1]
    view = cg.union.restrict(x for i in low for x in cg.pairs[i])
    for i in low:
        labeled = _cycle_labeled_edges(cg, i, view)
        if labeled is not None:
            return MembershipResult(False, _certificate(cg, labeled, "strong", u))
    zero = [i for i in low if u[i] == 0]
    for i, j in combinations(zero, 2):
        labeled = _pair_path_labeled(cg, i, j, view)
        if labeled is not None:
            return MembershipResult(False, _certificate(cg, labeled, "strong", u))
    return MembershipResult(True, None)


def strong_membership(cg: CouplesGame, m: Matching) -> MembershipResult:
    """Strong-core test on the full union graph.

    (a) no player with an uncovered vertex sits on an alternating cycle;
    (b) no alternating path joins an uncovered player to a player with at
    most one covered vertex; (c) no alternating path carries three players
    with exactly one covered vertex.  (b) and (c) presuppose (a).
    """
    m.validate_for(cg.inst.graph)
    u = utility(cg.inst, m)
    low = [i for i, ui in enumerate(u) if ui <= 1]
    for i in low:
        labeled = _cycle_labeled_edges(cg, i)
        if labeled is not None:
            return MembershipResult(False, _certificate(cg, labeled, "weak", u))
    for i, j in combinations(low, 2):
        if min(u[i], u[j]) != 0:
            continue
        labeled = _pair_path_labeled(cg, i, j)
        if labeled is not None:
            return MembershipResult(False, _certificate(cg, labeled, "weak", u))
    ones = [i for i in low if u[i] == 1]
    for i, j, k in combinations(ones, 3):
        labeled = _triple_path_labeled(cg, i, j, k)
        if labeled is not None:
            return MembershipResult(False, _certificate(cg, labeled, "weak", u))
    return MembershipResult(True, None)


def _triple_path_labeled(cg: CouplesGame, p: int, q: int, r: int):
    """One alternating path through all three player edges, or None.

    Deleting the three edges must leave a matching exposing exactly two
    vertices; with no alternating cycles through the three players, the
    difference with the surviving player edges consists of exactly two
    augmenting pieces that splice with the deleted edges into one path.
    """
    found = cg.union.augment(drop_players=(p, q, r), missing=2)
    if found is None:
        return None
    comps = _delta_components(_labeled_delta(*found))
    special = {x for pl in (p, q, r) for x in cg.pairs[pl]}
    paths = [c for c in comps if not c["cycle"] and set(c["ends"]) <= special]
    if len(paths) != 2:
        raise InvariantError("expected exactly two augmenting pieces for a triple")
    labeled = [e for c in paths for e in c["edges"]]
    for pl in (p, q, r):
        labeled.append((*cg.pairs[pl], "p"))
    degree: dict[int, int] = {}
    for a, b, _ in labeled:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    if sum(1 for d in degree.values() if d == 1) != 2:
        raise InvariantError("triple splice did not form a single path")
    return labeled


# ---------------------------------------------------------------------------
# weak-core construction


def weak_construct(cg: CouplesGame) -> Matching:
    """A weak-core matching; always succeeds for couples.

    Repeatedly finds an alternating cycle among the surviving players
    (scanning player edges in ascending index), keeps its real edges, and
    deletes its vertices; the result seeds a maximum matching that covers
    everything kept.  Deleting vertices never creates new alternating
    cycles, so a single ascending scan suffices.
    """
    alive = set(range(cg.num_players))
    chosen: list[tuple[int, int]] = []
    view = cg.union
    for p in range(cg.num_players):
        if p not in alive:
            continue
        labeled = _cycle_labeled_edges(cg, p, view)
        if labeled is None:
            continue
        cycle_players = {cg.player_of[a] for a, b, lab in labeled if lab == "p"}
        chosen.extend((a, b) for a, b, lab in labeled if lab == "e")
        alive -= cycle_players
        view = cg.union.restrict(x for i in alive for x in cg.pairs[i])
    return max_matching(cg.inst.graph, seed_matching=Matching(chosen))


# ---------------------------------------------------------------------------
# strong-core existence machinery


def _cycle_free_set(cg: CouplesGame) -> frozenset[int]:
    if "kset" not in cg.caches:
        cg.caches["kset"] = frozenset(
            p for p in range(cg.num_players) if not on_alternating_cycle(cg, p)
        )
    return cg.caches["kset"]


def ordered_triple_path_exists(cg: CouplesGame, a: int, b: int, c: int) -> bool:
    """Whether an alternating path ends at players ``a`` and ``c`` and
    traverses ``b``.

    One kernel query: delete the three player edges, add a fresh vertex s
    joined to both of ``a``'s vertices and a fresh t joined to both of
    ``c``'s, and ask for a perfect matching.  s and t each take one tip,
    and the rest is a perfect matching of the union without the three
    player edges and those two tips; because ``b`` is on no alternating
    cycle, the augmenting pieces can only splice into one path through
    ``b``.
    """
    _require_cycle_free(cg, (a, b, c))
    s = len(cg.union.adj)
    t = s + 1
    tips = [(s, x) for x in cg.pairs[a]] + [(t, y) for y in cg.pairs[c]]
    return cg.union.augment(drop_players=(a, b, c), extra_edges=tips, fresh=2) is not None


def _require_cycle_free(cg: CouplesGame, players) -> None:
    if len(set(players)) != len(players):
        raise InputError("players must be distinct")
    kset = _cycle_free_set(cg)
    if kset.issuperset(players):
        return
    for p in players:
        if not (0 <= p < cg.num_players):
            raise InputError(f"player {p} out of range")
        if p not in kset:
            raise InputError(f"player {p} lies on an alternating cycle")


def _delta_context(cg: CouplesGame, a_pl: int) -> dict:
    """Per-player context for the composite-structure tests: the union
    graph without ``a_pl``'s edge, its decomposition, the entry edge of
    each odd component, and lazy reach sets from the freed vertices."""
    ctx_cache = cg.caches.setdefault("delta_ctx", {})
    if a_pl in ctx_cache:
        return ctx_cache[a_pl]
    g0 = Graph(
        cg.inst.graph.n,
        [*cg.inst.graph.edges, *(pr for i, pr in enumerate(cg.pairs) if i != a_pl)],
    )
    ge = gallai_edmonds(g0)
    if len(ge.odd_components) - len(ge.cut_set) != 2:
        raise InvariantError("deleting a cycle-free player edge must leave deficiency 2")
    comp_of: dict[int, int] = {}
    for j, comp in enumerate(ge.odd_components):
        for v in comp:
            comp_of[v] = j
    au, av = cg.pairs[a_pl]
    ca, cb = comp_of.get(au), comp_of.get(av)
    if ca is None or cb is None or ca == cb:
        raise InvariantError("freed vertices must land in distinct odd components")
    entry: dict[int, tuple[int, int]] = {}
    for s in sorted(ge.cut_set):
        t = cg.partner[s]
        j = comp_of.get(t)
        if j is None or j in (ca, cb) or j in entry:
            raise InvariantError("entry edges must pair cut vertices with distinct components")
        entry[j] = (s, t)
    if set(entry) != set(range(len(ge.odd_components))) - {ca, cb}:
        raise InvariantError("every side component must have exactly one entry edge")
    ctx = {
        "player": a_pl,
        "comp_of": comp_of,
        "comps": ge.odd_components,
        "entry": entry,
        "free_comp": {au: ca, av: cb},
        "reach": {},
    }
    ctx_cache[a_pl] = ctx
    return ctx


def _ctx_reach(cg: CouplesGame, ctx: dict, root: int) -> frozenset[int]:
    if root not in ctx["reach"]:
        ctx["reach"][root] = cg.union.reach(root, drop_players=(ctx["player"],))
    return ctx["reach"][root]


def _position(cg: CouplesGame, ctx: dict, pl: int):
    u, v = cg.pairs[pl]
    cu = ctx["comp_of"].get(u)
    cv = ctx["comp_of"].get(v)
    if cu is not None and cu == cv:
        return ("inside", cu)
    for s, t in ((u, v), (v, u)):
        j = ctx["comp_of"].get(t)
        if j is not None and ctx["entry"].get(j) == (s, t):
            return ("entry", j)
    return None


def delta_path_exists(cg: CouplesGame, a: int, b: int, c: int) -> bool:
    """Whether an odd alternating cycle through players ``a`` and ``b``
    extends, from a shared vertex, by an alternating path ending at ``c``.

    Implements the two-case decision: delete ``a``'s player edge, take the
    decomposition of the rest, and test path pieces with modified-graph
    perfect-matching and reachability queries.  The roles of ``a`` and
    ``b`` are exchangeable.
    """
    _require_cycle_free(cg, (a, b, c))
    memo = cg.caches.setdefault("delta_memo", {})
    key = (a, b, c)
    if key in memo:
        return memo[key]
    result = _delta_path_decide(cg, a, b, c)
    memo[key] = result
    return result


def _delta_path_decide(cg: CouplesGame, a: int, b: int, c: int) -> bool:
    ctx = _delta_context(cg, a)
    pos_b = _position(cg, ctx, b)
    pos_c = _position(cg, ctx, c)
    if pos_b is None or pos_c is None:
        return False
    i = pos_b[1]
    j = pos_c[1]
    if i == j:
        return False
    au, av = cg.pairs[a]
    free_comps = {ctx["free_comp"][au], ctx["free_comp"][av]}
    if j in free_comps:
        return False
    sj, sj_in = ctx["entry"][j]
    sj_pl = cg.player_of[sj]
    if i in free_comps:
        # the cycle closes inside the component freed by one of a's
        # vertices; the path to c leaves from the other vertex
        a_near = au if ctx["free_comp"][au] == i else av
        a_far = av if a_near == au else au
        cu, cv = cg.pairs[c]
        if not ({cu, cv} & _ctx_reach(cg, ctx, a_far)):
            return False
        return cg.union.augment(
            drop_players=(a, b, sj_pl),
            drop_vertices=(a_far, sj_in),
            extra_edges=((a_near, sj),),
        ) is not None
    # both b and c sit in side components: need two disjoint alternating
    # paths from a's vertices to the two entries, a through-path across
    # b's component, and a tail inside c's component
    si, si_in = ctx["entry"][i]
    si_pl = cg.player_of[si]
    if cg.union.augment(
        drop_players=(a, si_pl, sj_pl),
        drop_vertices=(si_in, sj_in),
        extra_edges=((si, sj),),
    ) is None:
        return False
    if b == si_pl:
        if si not in cg.union.reach(sj, drop_players=(a, sj_pl)):
            return False
    elif cg.union.augment(
        drop_players=(a, b, si_pl, sj_pl),
        drop_vertices=(au, av, si, sj_in),
        extra_edges=((si_in, sj),),
    ) is None:
        return False
    if c == sj_pl:
        return True
    tail = cg.union.restrict(ctx["comps"][j]).reach(sj_in)
    return not tail.isdisjoint(cg.pairs[c])


@dataclass(frozen=True)
class StrongCoreStructure:
    """Player sets controlling strong-core existence.

    ``cycle_free``: players whose edge lies on no alternating cycle.
    ``path_isolated``: cycle-free players with no alternating path to any
    other cycle-free player.  ``delta_closed``: players for which every
    through-path to two cycle-free players yields a composite structure.
    ``pair_transitive``: the delta-closed players whose pair relation is
    transitive; its pair graph splits into cliques.
    """

    cycle_free: frozenset[int]
    path_isolated: frozenset[int]
    delta_closed: frozenset[int]
    pair_transitive: frozenset[int]
    pair_edges: frozenset[tuple[int, int]]
    cliques: tuple[frozenset[int], ...]


def strong_core_structure(cg: CouplesGame) -> StrongCoreStructure:
    """Compute the player sets the strong-core characterization needs."""
    cache = cg.caches.get("structure")
    if cache is not None:
        return cache
    kset = _cycle_free_set(cg)
    korder = sorted(kset)
    path_between: dict[frozenset[int], bool] = {}
    for p, q in combinations(korder, 2):
        path_between[frozenset((p, q))] = _pair_path_labeled(cg, p, q) is not None
    isolated = frozenset(
        p
        for p in korder
        if not any(path_between[frozenset((p, q))] for q in korder if q != p)
    )
    closed: set[int] = set()
    for b in korder:
        ok = True
        for a, c in combinations([p for p in korder if p != b], 2):
            # an a...b...c path contains an alternating a...b path and an
            # alternating b...c path, so pairs without one rule it out
            if not (path_between[frozenset((a, b))] and path_between[frozenset((b, c))]):
                continue
            if not ordered_triple_path_exists(cg, a, b, c):
                continue
            if not (delta_path_exists(cg, a, b, c) or delta_path_exists(cg, c, b, a)):
                ok = False
                break
        if ok:
            closed.add(b)
    pair_edges: set[tuple[int, int]] = set()
    for x, y in combinations(sorted(closed), 2):
        if any(
            delta_path_exists(cg, x, y, z)
            for z in korder
            if z not in (x, y)
        ):
            pair_edges.add((x, y))
    transitive: set[int] = set()
    for a in sorted(closed):
        mates = [
            b
            for b in sorted(closed)
            if b != a and tuple(sorted((a, b))) in pair_edges
        ]
        if all(
            tuple(sorted((b, c))) in pair_edges
            for b, c in combinations(mates, 2)
        ):
            transitive.add(a)
    star_edges = frozenset(
        e for e in pair_edges if e[0] in transitive and e[1] in transitive
    )
    cliques: list[frozenset[int]] = []
    left = set(transitive)
    adj: dict[int, set[int]] = {p: set() for p in transitive}
    for x, y in star_edges:
        adj[x].add(y)
        adj[y].add(x)
    while left:
        s = min(left)
        comp = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        left -= comp
        for x, y in combinations(sorted(comp), 2):
            if (x, y) not in star_edges:
                raise InvariantError(
                    "pair-graph component is not a clique; components are "
                    "always cliques, so this signals a bug"
                )
        cliques.append(frozenset(comp))
    cliques.sort(key=min)
    structure = StrongCoreStructure(
        cycle_free=kset,
        path_isolated=isolated,
        delta_closed=frozenset(closed),
        pair_transitive=frozenset(transitive),
        pair_edges=star_edges,
        cliques=tuple(cliques),
    )
    cg.caches["structure"] = structure
    return structure


def strong_core_quotas(cg: CouplesGame) -> PartitionQuota:
    """Coverage quotas characterizing strong-core matchings: full coverage
    for every player outside the transitive set, all-but-one coverage for
    every pair clique, nothing for isolated singletons."""
    s = strong_core_structure(cg)
    groups: list[frozenset[int]] = []
    quotas: list[int] = []
    for p in range(cg.num_players):
        if p not in s.pair_transitive:
            groups.append(frozenset(cg.pairs[p]))
            quotas.append(2)
    for clique in s.cliques:
        if len(clique) == 1 and next(iter(clique)) in s.path_isolated:
            continue
        verts = frozenset(x for p in clique for x in cg.pairs[p])
        groups.append(verts)
        quotas.append(len(verts) - 1)
    return PartitionQuota(tuple(groups), tuple(quotas))


def strong_core_solve(cg: CouplesGame) -> Optional[Matching]:
    """A strong-core matching, or None when the strong core is empty.

    One coverage-quota feasibility problem decides everything: the quota
    system from :func:`strong_core_quotas` is satisfiable exactly when the
    strong core is non-empty, and any witness is a member.
    """
    pq = strong_core_quotas(cg)
    return matching_with_lower_bounds(cg.inst.graph, pq)
