"""Games where every player owns exactly two vertices.

Each player's vertex pair acts as an artificial *player edge*; the player
edges together form a perfect matching that real edges alternate with.
Membership tests and the always-successful weak-core construction reduce
to perfect-matching and alternating-reachability queries on the union of
real and player edges, and one kernel, :class:`_Union`, answers them.  One
extractor, :func:`_structure`, turns a kernel answer into the blocking
cycle or path a certificate needs.

Membership and the weak construction ask only the queries that can find
something.  The degree-one rule (:class:`_Peel`) finds players whose edge
every perfect matching of the view uses, and those lie on no alternating
cycle; an alternating path never leaves a connected component, so pairs
and triples spread over two components are never asked about.

The strong-core existence machinery works per cycle-free player: one scan
finds these players with at most one kernel query each, and the search
trees of a query that finds no cycle give the Gallai–Edmonds context of
the union without that player's edge.  Contracting the context's odd
components gives a component digraph.  Pair paths are lookups in it and
ordered triples lookups in its dominator tree; only the free-component and
through-path pieces of the composite-structure test stay kernel queries.

A real edge parallel to a player edge forms a two-edge alternating cycle
through that player.  The kernel keeps the real edge when a query deletes
the player edge, so it matches the two vertices directly and yields that
cycle like any other; everywhere else a parallel copy can only ever be
used in the real-edge role, so the simple-graph union is faithful.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Optional

from .errors import InputError, InvariantError
from .games import BLOCK_KIND, BlockCertificate, Instance, MembershipResult, utility
from .graphs import Graph, Matching, _blossom_search, _Labels, max_matching
from .matroids import PartitionQuota, matching_with_lower_bounds


@dataclass(frozen=True, eq=False)
class CouplesGame:
    """A partitioned matching game with all players of size exactly two.

    ``inst`` is the (possibly padded) instance.  Padding adds one isolated
    vertex to each size-1 player, so matchings and verdicts transfer back
    unchanged.
    """

    inst: Instance
    pairs: tuple[tuple[int, int], ...]

    @cached_property
    def player_of(self) -> dict[int, int]:
        return self.inst.player_of

    @cached_property
    def union(self) -> "_Union":
        return _Union.of_game(self)

    @cached_property
    def contexts(self) -> dict[int, "_DeltaContext"]:
        """Every cycle-free player's context, in ascending player order,
        from one :func:`_scan`."""
        return _scan(self)

    @cached_property
    def cycle_free(self) -> frozenset[int]:
        """Players whose edge lies on no alternating cycle: those that
        have a context."""
        return frozenset(self.contexts)

    @cached_property
    def forced(self) -> frozenset[int]:
        """Players the degree-one rule peels off the union without a
        parallel real edge; none lies on an alternating cycle
        (:class:`_Peel`)."""
        return frozenset(_Peel(self.union).forced)

    @cached_property
    def structure(self) -> "StrongCoreStructure":
        return _build_structure(self)

    @property
    def num_players(self) -> int:
        return len(self.pairs)


def normalize(inst: Instance) -> CouplesGame:
    """Pad size-1 players with a fresh isolated vertex each.

    Players of size three or more are out of this solver's scope.
    """
    g = inst.graph
    n = g.n
    pairs: list[tuple[int, int]] = []
    for i, p in enumerate(inst.players):
        if len(p) == 2:
            u, v = p
            pairs.append((u, v) if u < v else (v, u))
        elif len(p) == 1:
            pairs.append((*p, n))  # the fresh vertex is the largest id
            n += 1
        else:
            raise InputError(
                f"player {i} has {len(p)} vertices; the couples solver needs "
                "sizes at most 2 (use the enumeration or oracle paths)"
            )
    if n > g.n:
        # the same edges on more vertices: the checked parts carry over
        graph = Graph._trusted(n, g.edges, g.adj + ((),) * (n - g.n), g.edge_set)
        players = tuple(p if len(p) == 2 else frozenset(e) for p, e in zip(inst.players, pairs))
        inst = Instance._trusted(graph, players)
    return CouplesGame(inst=inst, pairs=tuple(pairs))


# ---------------------------------------------------------------------------
# the union-graph query kernel


def _without(row: tuple[int, ...], x: int) -> tuple[int, ...]:
    return tuple(w for w in row if w != x)


class _Union:
    """The union of real and player edges on original vertex ids, with the
    player edges as the base matching, minus the vertices of whole players.

    Built once per game and never written after: a query (:meth:`_query`)
    copies the adjacency and base matching, applies its deletions to the
    copies and hands them to its caller, so queries share nothing and a
    view may be queried from several threads at once.  :meth:`augment`
    augments the copied base matching without the deleted player edges,
    one blossom search per exposed root, clearing its labels after each
    search so a search costs its tree; it stops at the first root that
    cannot be matched.  A kept view (:meth:`without`) is such a copy with
    its vertex deletions kept; it deletes whole players only, so its base
    matching is perfect on the vertices it keeps, and a vertex is in the
    view exactly when the base matches it.

    A view holds the game's ``pairs``, ``player_of`` table and set of real
    edges, never the game, which caches its union: with no reference back,
    a game and everything it holds are freed by reference counting.
    """

    __slots__ = ("pairs", "player_of", "real", "adj", "base")

    def __init__(self, pairs, player_of, real, adj, base):
        self.pairs = pairs
        self.player_of = player_of
        self.real = real
        self.adj = adj
        self.base = base

    @classmethod
    def of_game(cls, cg: "CouplesGame") -> "_Union":
        g = cg.inst.graph
        adj = list(g.adj)
        base = [-1] * g.n
        for u, v in cg.pairs:
            base[u], base[v] = v, u
            if (u, v) not in g.edge_set:  # only these rows gain an entry
                adj[u] = tuple(sorted((*adj[u], v)))
                adj[v] = tuple(sorted((*adj[v], u)))
        return cls(cg.pairs, cg.player_of, g.edge_set, tuple(adj), tuple(base))

    def without(self, verts) -> "_Union":
        """The same union with the vertices ``verts`` of whole players
        deleted too; deleting part of a player is a fault."""
        adj, base, exposed = self._query((), verts)
        if exposed:
            raise InvariantError(
                f"a kept view deletes whole players; vertex {exposed[0]} lost its partner"
            )
        return _Union(self.pairs, self.player_of, self.real, tuple(adj), tuple(base))

    def has(self, v: int) -> bool:
        return self.base[v] != -1

    def _query(self, drop_players, drop_vertices):
        """``(adj, base, exposed)``: copies of the view's rows and base
        matching with the players' edges and the vertices deleted, and the
        vertices the masked base leaves exposed, ascending.  The caller
        owns all three.  ``drop_vertices`` is read once, so it may be any
        iterable."""
        adj = list(self.adj)
        base = list(self.base)
        exposed = set()
        real = self.real
        for p in drop_players:
            u, v = self.pairs[p]
            if base[u] != v:
                continue  # not inside the view
            base[u] = base[v] = -1
            exposed.update((u, v))
            if (u, v) not in real:
                adj[u] = _without(adj[u], v)
                adj[v] = _without(adj[v], u)
        gone = set()
        for x in drop_vertices:
            if not 0 <= x < len(adj):  # a negative id would wrap round
                raise InvariantError(f"deleted vertex {x} is outside the graph")
            if self.has(x):
                gone.add(x)
        touched = set()
        for x in gone:
            y = base[x]
            if y != -1:
                base[x] = base[y] = -1
                exposed.add(y)
            exposed.discard(x)
            touched.update(adj[x])
            adj[x] = ()
        for w in touched - gone:
            adj[w] = tuple(z for z in adj[w] if z not in gone)
        return adj, base, sorted(exposed)

    def augment(self, drop_players=(), drop_vertices=(), missing=0):
        """Delete players' edges and vertices, and augment the surviving
        player edges until at most ``missing`` vertices of the view stay
        exposed.

        Returns None when no matching of the view leaves at most
        ``missing`` vertices exposed, else ``(match, base)``: partner
        arrays (-1 for exposed) of the matching found and of the masked
        base matching, whose symmetric difference is the augmenting paths
        taken.  A root whose search fails stays exposed under every later
        augmentation, so each failure is final.
        """
        adj, base, exposed = self._query(drop_players, drop_vertices)
        match = list(base)
        labels = _Labels(len(adj))
        left = len(exposed)
        failed = 0
        for root in exposed:
            if left <= missing:
                break
            if match[root] != -1:
                continue
            if _blossom_search(adj, match, root, labels, augment=True):
                left -= 2
            else:
                failed += 1
                if failed > missing:
                    return None
            labels.clear()
        return match, base


class _Peel:
    """The degree-one rule on a view, whose base matching is perfect on
    the vertices it keeps (Karp & Sipser, "Maximum matchings in sparse
    random graphs", 1981; Lovász & Plummer, *Matching Theory*, ch. 5).

    A vertex whose only neighbour left is its partner is matched to it in
    every perfect matching, so the pair is peeled off and the rule applied
    again.  Unless the pair is also a real edge, deleting that player's
    edge isolates the vertex once the pairs peeled before it are matched
    to each other, so no alternating cycle passes through the player: it
    is *forced*, and its cycle query would return None.  A leaf whose pair
    is also a real edge sits on a two-edge cycle; it is peeled, not
    forced.  Peeling only deletes, so what ends up peeled does not depend
    on the order, and :meth:`drop` goes on from a smaller view to where a
    fresh peel of it would end.

    ``deg`` counts, per vertex, its neighbours that are neither deleted
    nor peeled; it is 0 for deleted and peeled vertices.  A peel reads
    the rows, pairs and real edges of the view it holds, never the game.
    """

    __slots__ = ("view", "deg", "forced")

    def __init__(self, view: _Union):
        self.view = view
        self.deg = [len(row) for row in view.adj]
        self.forced: set[int] = set()
        for x in range(len(self.deg)):
            if self.deg[x] == 1:
                self._remove([self._leaf(x)])

    def drop(self, verts) -> None:
        """Deletes the vertices of whole players, as :meth:`_Union.without`
        does, and peels onward from their neighbours."""
        live = [x for x in verts if self.deg[x]]
        for x in live:
            self.deg[x] = 0
        self._remove(live)

    def _leaf(self, x: int) -> int:
        """Peels the leaf ``x`` and its partner, which it returns."""
        view = self.view
        y = view.base[x]
        self.deg[x] = self.deg[y] = 0
        p = view.player_of[x]
        if view.pairs[p] not in view.real:
            self.forced.add(p)
        return y

    def _remove(self, gone: list[int]) -> None:
        """Takes the vertices in ``gone``, whose degrees are already 0,
        off their neighbours' degrees, peeling every leaf that leaves."""
        adj, deg = self.view.adj, self.deg
        while gone:
            for w in adj[gone.pop()]:
                if deg[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        gone.append(self._leaf(w))


def _in_one_component(cg: CouplesGame, view: _Union, players: list[int], size: int):
    """The ``size``-subsets of ``players`` whose edges lie in one connected
    component of the view, in the order of ``combinations(players, size)``.

    An alternating path never leaves its component.  Cycle-free players
    spread over two components leave at least two vertices exposed in
    each, because neither component keeps a perfect matching without its
    players' edges, so a query that allows two finds nothing.
    One search of the view labels the components when the first subset is
    asked for; each player is then combined with the later players of its
    own component only.
    """
    label = [-1] * len(view.adj)
    for s in range(len(view.adj)):
        if label[s] == -1:
            label[s] = s
            stack = [s]
            while stack:
                for w in view.adj[stack.pop()]:
                    if label[w] == -1:
                        label[w] = s
                        stack.append(w)
    groups: dict[int, list[int]] = {}
    for p in players:
        groups.setdefault(label[cg.pairs[p][0]], []).append(p)
    taken = dict.fromkeys(groups, 0)
    for p in players:
        c = label[cg.pairs[p][0]]
        taken[c] += 1
        for rest in combinations(groups[c][taken[c] :], size - 1):
            yield (p, *rest)


# ---------------------------------------------------------------------------
# blocking structures


def _structure(cg: CouplesGame, players: tuple[int, ...], view: _Union, missing: int):
    """The blocking structure a kernel answer carries, as labeled edges
    ('e' for real edges, 'p' for player edges), or None.

    Deletes the players' edges and augments until at most ``missing``
    vertices of the view stay exposed.  The view's base matching is
    perfect, so the augmenting paths start at the deleted player edges'
    ends, and walking from each of them finds every piece; cycles of the
    difference never touch such a vertex.
    With the deleted player edges added back, one player must give one
    alternating cycle and two or three players one alternating path;
    anything else is a fault.  For two or three players this holds only
    when none of their edges lies on an alternating cycle in the view;
    callers establish that first.
    """
    found = view.augment(drop_players=players, missing=missing)
    if found is None:
        return None
    match, base = found
    labeled = [(*cg.pairs[p], "p") for p in players]
    walked: set[int] = set()
    for start in sorted(x for p in players for x in cg.pairs[p]):
        if match[start] == -1 or start in walked:
            continue
        x = start
        while True:
            y = match[x]
            labeled.append((x, y, "e"))
            x = base[y]
            if x == -1:
                break
            labeled.append((y, x, "p"))
        walked.add(y)
    nbrs: dict[int, list[int]] = {}
    for x, y, _ in labeled:
        nbrs.setdefault(x, []).append(y)
        nbrs.setdefault(y, []).append(x)
    reached = {labeled[0][0]}
    stack = [labeled[0][0]]
    while stack:
        for y in nbrs[stack.pop()]:
            if y not in reached:
                reached.add(y)
                stack.append(y)
    ends = 0 if len(players) == 1 else 2
    degrees = sorted(len(ys) for ys in nbrs.values())
    if len(reached) != len(nbrs) or degrees != [1] * ends + [2] * (len(nbrs) - ends):
        raise InvariantError("blocking structure is not one alternating cycle or path")
    return labeled


def _verdict(
    cg: CouplesGame, structures, kind: str, challenged: tuple[int, ...]
) -> MembershipResult:
    """In the core unless one of the lazily found structures blocks; the
    first blocking one becomes a validated certificate."""
    labeled = next((found for found in structures if found is not None), None)
    if labeled is None:
        return MembershipResult(True, None)
    players = sorted(
        {cg.player_of[u] for u, v, lab in labeled if lab == "p"}
    )
    witness = Matching((u, v) for u, v, lab in labeled if lab == "e")
    cert = BlockCertificate(tuple(players), witness, kind)
    cert.validate(cg.inst, challenged)
    return MembershipResult(False, cert)


# ---------------------------------------------------------------------------
# membership


def weak_membership(cg: CouplesGame, m: Matching) -> MembershipResult:
    """Weak-core test: with the fully covered players deleted, no player
    edge may lie on an alternating cycle, and no two uncovered players may
    be joined by an alternating path.

    The cycle query is skipped for players the view's peel forces, and the
    path query for pairs in different components of the view."""
    u = utility(cg.inst, m)
    low = [i for i, ui in enumerate(u) if ui <= 1]
    view = cg.union.without(x for i, ui in enumerate(u) if ui == 2 for x in cg.pairs[i])
    forced = _Peel(view).forced
    zero = [i for i in low if u[i] == 0]
    structures = chain(
        (_structure(cg, (i,), view, 0) for i in low if i not in forced),
        (_structure(cg, pair, view, 2) for pair in _in_one_component(cg, view, zero, 2)),
    )
    return _verdict(cg, structures, BLOCK_KIND["weak"], u)


def strong_membership(cg: CouplesGame, m: Matching) -> MembershipResult:
    """Strong-core test on the full union graph.

    (a) no player with an uncovered vertex sits on an alternating cycle;
    (b) no alternating path joins an uncovered player to a player with at
    most one covered vertex; (c) no alternating path carries three players
    with exactly one covered vertex.  (b) and (c) presuppose (a).

    (a) skips the players the union's peel forces, and (b) and (c) the
    groups that span two components of the union.
    """
    u = utility(cg.inst, m)
    low = [i for i, ui in enumerate(u) if ui <= 1]
    ones = [i for i in low if u[i] == 1]
    structures = chain(
        (_structure(cg, (i,), cg.union, 0) for i in low if i not in cg.forced),
        (
            _structure(cg, (i, j), cg.union, 2)
            for i, j in _in_one_component(cg, cg.union, low, 2)
            if min(u[i], u[j]) == 0
        ),
        (
            _structure(cg, triple, cg.union, 2)
            for triple in _in_one_component(cg, cg.union, ones, 3)
        ),
    )
    return _verdict(cg, structures, BLOCK_KIND["strong"], u)


# ---------------------------------------------------------------------------
# weak-core construction


def weak_construct(cg: CouplesGame) -> Matching:
    """A weak-core matching; always succeeds for couples.

    Repeatedly finds an alternating cycle among the surviving players
    (scanning player edges in ascending index), keeps its real edges, and
    deletes its vertices; the result seeds a maximum matching that covers
    everything kept.  Deleting vertices never creates new alternating
    cycles, so a single ascending scan suffices.  One peel, kept up to date
    as cycles are deleted, skips the query of every player it forces.
    """
    chosen: list[tuple[int, int]] = []
    view = cg.union
    peel = _Peel(view)
    for p in range(cg.num_players):
        if not view.has(cg.pairs[p][0]) or p in peel.forced:
            continue
        labeled = _structure(cg, (p,), view, 0)
        if labeled is None:
            continue
        chosen.extend((a, b) for a, b, lab in labeled if lab == "e")
        gone = [x for a, b, lab in labeled if lab == "p" for x in (a, b)]
        view = view.without(gone)
        peel.drop(gone)
    return max_matching(cg.inst.graph, seed_matching=Matching(chosen))


# ---------------------------------------------------------------------------
# strong-core existence machinery


@dataclass(frozen=True)
class _DeltaContext:
    """The union without one cycle-free player's edge, by what the
    structure reads of its Gallai–Edmonds decomposition (:func:`_trees`):
    the odd component each vertex of the deficient part lies in, the two
    free components that hold the player's freed vertices, the entry edge
    (cut vertex, its partner) of every side component, and per freed
    vertex the side components whose entry vertex it reaches.

    Every odd component is factor-critical and is entered only by its
    entry edge, so alternating paths from the freed vertices are paths of
    the component digraph, x → y when a vertex of x is adjacent to y's
    entry cut vertex, and vertex-disjoint ones use disjoint components.
    ``top`` is that digraph's :func:`_tops` table; the digraph itself and
    the components' vertex sets are not kept.
    """

    comp_of: dict[int, int]
    free: tuple[int, int]
    entry: dict[int, tuple[int, int]]
    entered: dict[int, frozenset[int]]
    top: tuple[int, ...]


def _scan(cg: CouplesGame) -> dict[int, _DeltaContext]:
    """Every cycle-free player's context, in ascending player order: one
    kernel query per player, in ascending order, except those on a cycle
    an earlier query found.

    With p's edge deleted only p's two vertices are exposed, so the
    augmenting search of :func:`_trees` finds an alternating cycle through
    p and every player with a vertex on its path, or fails and p is
    cycle-free.  A later cycle never passes a cycle-free player, so every
    player that gets a context keeps it.
    """
    on_cycle = [False] * cg.num_players
    contexts: dict[int, _DeltaContext] = {}
    for p, (au, av) in enumerate(cg.pairs):
        if on_cycle[p]:
            continue
        adj, base, _ = cg.union._query((p,), ())
        found = _trees(adj, base, au, av)
        if isinstance(found, list):  # an augmenting path
            for x in found:
                on_cycle[cg.player_of[x]] = True
        else:
            contexts[p] = _context(cg, p, *found)
    return contexts


def _trees(adj, match, au: int, av: int):
    """On a query's arrays with the player edge ``au``–``av`` deleted: the
    augmenting path from ``au`` when there is one, else the player's
    Gallai–Edmonds decomposition as ``(reach, cut, comps)``.

    A failed augmenting search met no exposed vertex, so its tree is the
    reach tree of ``au``, and a reach search from ``av`` on the same arrays
    grows the other.  A Hungarian tree has no edge between even vertices of
    different blossoms, so the blossoms of the two trees are the odd
    components, ordered by least vertex, and the odd vertices that no
    blossom absorbed are the cut.
    """
    first = _Labels(len(adj))
    path = _blossom_search(adj, match, au, first, augment=True)
    if path:
        return path
    second = _Labels(len(adj))
    _blossom_search(adj, match, av, second, augment=False)
    reach = {au: frozenset(first.even), av: frozenset(second.even)}
    comps: dict[int, frozenset[int]] = {}
    cut: set[int] = set()
    for labels in (first, second):
        blossoms: dict[int, list[int]] = {}
        for x in labels.even:
            blossoms.setdefault(labels.base[x], []).append(x)
        for members in blossoms.values():
            comps[min(members)] = frozenset(members)
        cut.update(x for x in labels.odd if not labels.used[x])
    return reach, cut, tuple(comps[k] for k in sorted(comps))


def _context(cg: CouplesGame, a_pl: int, reach, cut, comps) -> _DeltaContext:
    """The context of the cycle-free ``a_pl`` from its decomposition."""
    au, av = cg.pairs[a_pl]
    if len(comps) - len(cut) != 2:
        raise InvariantError("deleting a cycle-free player edge must leave deficiency 2")
    comp_of: dict[int, int] = {}
    for j, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = j
    ca, cb = comp_of[au], comp_of[av]
    if ca == cb:
        raise InvariantError("freed vertices must land in distinct odd components")
    base = cg.union.base
    entry: dict[int, tuple[int, int]] = {}
    arcs: list[set[int]] = [set() for _ in comps]
    for s in sorted(cut):
        t = base[s]
        j = comp_of.get(t)
        if j is None or j in (ca, cb) or j in entry:
            raise InvariantError("entry edges must pair cut vertices with distinct components")
        entry[j] = (s, t)
        # a cut vertex is outside the deficient part, which holds both of
        # a_pl's vertices, so deleting a_pl's edge left its row as it was
        for w in cg.union.adj[s]:
            x = comp_of.get(w)
            if x is not None and x != j:
                arcs[x].add(j)
    if set(entry) != set(range(len(comps))) - {ca, cb}:
        raise InvariantError("every side component must have exactly one entry edge")
    entered = {x: frozenset(j for j, (_, t) in entry.items() if t in reach[x]) for x in (au, av)}
    return _DeltaContext(comp_of, (ca, cb), entry, entered, _tops(arcs, (ca, cb)))


def _tops(arcs, free: tuple[int, int]) -> tuple[int, ...]:
    """Per component, its ancestor just below a super source s in the
    dominator tree of the component digraph with s joined to both free
    components, or -1 when no path reaches it.

    By Menger, paths from s into i and j can be vertex-disjoint past s
    exactly when no vertex but s dominates both, that is, when their tops
    differ.  The tree is the iterative intersection of Cooper, Harvey and
    Kennedy ("A Simple, Fast Dominance Algorithm", 2001) over a BFS
    numbering from s: a dominator lies on every shortest path, so it gets
    a smaller number.
    """
    s = len(arcs)
    num = [-1] * s + [0]
    num[free[0]], num[free[1]] = 1, 2
    order = list(free)
    preds: list[list[int]] = [[] for _ in arcs]
    for x in order:
        for y in arcs[x]:
            preds[y].append(x)
            if num[y] == -1:
                order.append(y)
                num[y] = len(order)
    idom = [-1] * s + [s]
    idom[free[0]] = idom[free[1]] = s
    changed = True
    while changed:
        changed = False
        for y in order[2:]:
            new = -1
            for x in preds[y]:
                if idom[x] == -1:
                    continue  # not reached by the pass yet
                if new == -1:
                    new = x
                while x != new:  # their nearest common ancestor so far
                    while num[x] > num[new]:
                        x = idom[x]
                    while num[new] > num[x]:
                        new = idom[new]
            if idom[y] != new:
                idom[y] = new
                changed = True
    top = [-1] * s
    for x in order:
        top[x] = x if idom[x] == s else top[idom[x]]
    return tuple(top)


def _joined(ctx: _DeltaContext, i: Optional[int], j: Optional[int]) -> bool:
    """Whether the context player's two freed vertices have vertex-disjoint
    alternating paths into components ``i`` and ``j``."""
    return i is not None and j is not None and -1 != ctx.top[i] != ctx.top[j] != -1


def _delta_path_decide(
    cg: CouplesGame, ctx: _DeltaContext, a: int, b: int, i: Optional[int], j: Optional[int]
) -> bool:
    """Whether an odd alternating cycle through the cycle-free players
    ``a`` and ``b`` extends, from a shared vertex, by an alternating path
    ending at a player ``c``, given ``a``'s context and the components
    ``i`` and ``j`` that ``b``'s and ``c``'s edges hold or enter (None
    when there is none).  The roles of ``a`` and ``b`` are exchangeable.

    Only the entry edge enters a side component, so a reach set holds it
    whole or misses it, as its entry vertex decides, and the answer
    depends on ``c`` only through ``j``.  Each piece is one
    perfect-matching query on deletions: joining the two vertices left
    exposed besides ``b``'s by an edge would never help, since deleting
    them instead leaves only ``b``'s two vertices exposed, and matching
    those would close an alternating cycle through the cycle-free ``b``.
    """
    if i is None or j is None or i == j or j in ctx.free:
        return False
    au, av = cg.pairs[a]
    sj, sj_in = ctx.entry[j]
    if i in ctx.free:
        # the cycle closes inside the component freed by one of a's
        # vertices; the path to c leaves from the other vertex
        a_far = av if ctx.free[0] == i else au
        if j not in ctx.entered[a_far]:
            return False
        players, verts = (a, b, cg.player_of[sj]), (a_far, sj_in)
    else:
        # both b and c sit in side components: need two disjoint
        # alternating paths from a's vertices to the two entries and a
        # through-path across b's component; the tail to c inside c's
        # component always exists, because an odd Gallai–Edmonds component
        # is factor-critical, so its entry vertex reaches all of it
        if not _joined(ctx, i, j):
            return False
        # when b's edge is i's entry edge, si is b's own vertex, and the
        # query asks for an alternating path from sj ending in b's edge
        si = ctx.entry[i][0]
        players = (a, b, cg.player_of[si], cg.player_of[sj])
        verts = (au, av, si, sj_in)
    return cg.union.augment(drop_players=players, drop_vertices=verts) is not None


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
    """The player sets the strong-core characterization needs, computed
    once per game."""
    return cg.structure


def _build_structure(cg: CouplesGame) -> StrongCoreStructure:
    """The structure from every cycle-free player's component digraph.

    Two cycle-free players are joined by an alternating path iff one's
    edge holds or enters a component of the other's context, so pair
    paths are lookups; ordered triples a...b...c are those whose a and c
    hang below different tops of b's dominator tree, the only pairs the
    delta-closed test visits.  The kernel answers only the free-component
    and through-path pieces of :func:`_delta_path_decide`, which depend
    on the third player only through its component, so the pair-edge
    test tries once each component that passes its entered-set or top
    check.
    """
    kset = cg.cycle_free
    korder = sorted(kset)
    ctxs = cg.contexts
    # where[b][p] is the component of b's context that p's edge holds or
    # enters, for every cycle-free p != b with one, in ascending p; it
    # exists exactly when an alternating path joins p to b.  Such a p has
    # a vertex t in one of b's components, so one pass over those vertices
    # finds them all: p's edge holds t's component or enters it at t.  b's
    # own vertices lie in the two distinct free components, so b is never
    # one.
    base, player_of = cg.union.base, cg.player_of
    where: dict[int, dict[int, int]] = {}
    for b, ctx in ctxs.items():
        comp_of, entry = ctx.comp_of, ctx.entry
        row = {}
        for t, j in comp_of.items():
            s = base[t]
            if comp_of.get(s) == j or entry.get(j) == (s, t):
                row[player_of[t]] = j
        where[b] = {p: row[p] for p in sorted(kset.intersection(row))}
    isolated = frozenset(p for p in korder if not where[p])
    closed: set[int] = set()
    for b in korder:
        top = ctxs[b].top  # a...b...c exists iff a and c have different tops
        groups: dict[int, list[int]] = {}
        for p, j in where[b].items():
            if top[j] != -1:
                groups.setdefault(top[j], []).append(p)
        if all(
            _delta_path_decide(cg, ctxs[a], a, b, where[a].get(b), where[a].get(c))
            or _delta_path_decide(cg, ctxs[c], c, b, where[c].get(b), where[c].get(a))
            for group, other in combinations(groups.values(), 2)
            for a in group
            for c in other
        ):
            closed.add(b)
    pair_edges: set[tuple[int, int]] = set()
    for x in sorted(closed):
        # of the side components x's cycle-free partners hold or enter,
        # only those _delta_path_decide does not reject at once: for y in
        # a free component, those whose entry x's far vertex reaches; for
        # y in a side component, those under another top
        ctx = ctxs[x]
        sides = sorted(set(where[x].values()) - set(ctx.free))
        far = {  # the far vertex of the free component of x's u is x's v
            i: [j for j in sides if j in ctx.entered[f]]
            for i, f in zip(ctx.free, reversed(cg.pairs[x]))
        }
        groups: dict[int, list[int]] = {}
        for j in sides:
            if ctx.top[j] != -1:
                groups.setdefault(ctx.top[j], []).append(j)
        for y, i in where[x].items():
            if y < x or y not in closed or (i not in far and ctx.top[i] == -1):
                continue
            tries = far[i] if i in far else chain.from_iterable(
                js for t, js in groups.items() if t != ctx.top[i]
            )
            if any(_delta_path_decide(cg, ctx, x, y, i, j) for j in tries):
                pair_edges.add((x, y))
    mates: dict[int, set[int]] = {p: set() for p in closed}
    for x, y in pair_edges:
        mates[x].add(y)
        mates[y].add(x)
    transitive = frozenset(
        a
        for a in closed
        if all((b, c) in pair_edges for b, c in combinations(sorted(mates[a]), 2))
    )
    star_edges = frozenset(e for e in pair_edges if transitive.issuperset(e))
    # each player's clique is itself plus its transitive mates; the
    # distinct such sets sum to the transitive set's size exactly when
    # every component of its pair graph is a clique
    cliques = sorted({frozenset({p, *(mates[p] & transitive)}) for p in transitive}, key=min)
    if sum(map(len, cliques)) != len(transitive):
        raise InvariantError(
            "pair-graph component is not a clique; components are "
            "always cliques, so this signals a bug"
        )
    return StrongCoreStructure(
        cycle_free=kset,
        path_isolated=isolated,
        delta_closed=frozenset(closed),
        pair_transitive=transitive,
        pair_edges=star_edges,
        cliques=tuple(cliques),
    )


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
