"""Direct forms of couples-engine steps that tests compare the library against.

``on_alternating_cycle``, ``ordered_triple_path_exists`` and
``delta_path_exists`` ask the three structural questions of the couples
characterisation one player, pair or triple at a time.  No engine asks
them so: the library reads the cycle-free set off one scan and answers
every pair and triple inside ``strong_core_structure``.
``delta_context`` and ``component`` look up one player's context and one
edge's component in it, as those predicates need them.

``ordered_triple_by_tips`` deletes the three player edges plus one tip
vertex of each end player and asks the union kernel for a perfect matching,
once per tip pair (up to four queries).  ``ordered_triple_one_query`` asks
once, on an explicit graph with two added vertices s and t joined to the
end players' tips.  The library answers each triple from the middle
player's component digraph instead.

``second_reach_by_flow`` answers the two-disjoint-paths question of a
component digraph by a node-split unit flow and one residual search; the
library reads it off the digraph's dominator tree instead.

``delta_context_by_graph`` builds the union without one player's edge as
an explicit ``Graph`` and decomposes it with ``gallai_edmonds``.
``cycle_free_by_player`` asks the kernel one cycle query per player, and
``delta_context_by_reach`` builds a cycle-free player's context from two
``reach`` queries and a component search over their union;
``component_digraph_by_reach`` returns the component digraph that the
same construction builds and the library's context does not keep.  The
library reads the cycle-free set and every context off one scan, one
kernel query per player at most, whose failed cycle search is the first
reach tree.

``reach`` is the kernel's alternating-reach query, one search on the
arrays a view's ``_query`` returns; the library no longer asks it.

``augment_by_copies`` and ``reach_by_copies`` answer kernel queries on
copies of a view's adjacency and base matching masked by ``masked``, with
fresh label arrays per search, written apart from the kernel's own
deletion code so the two check each other.  Only these copies can add
edges.

``weak_construct_by_player``, ``weak_membership_by_query`` and
``strong_membership_by_query`` ask the kernel one cycle query per player
and one path query per pair or triple.  The library skips the cycle query
of every player the degree-one peel forces, and the path query of every
group whose players lie in different components of the view.

``delta_path_by_added_edges`` decides a composite structure per player c:
it tests c's pair against a reach set it asks for itself, joins two
exposed vertices by an added edge, and answers the case where b's edge
enters b's component by a reach query from c's entry.  The library
decides per component of c, with one deletion query and no added edge.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Optional

from ntumatch import Graph, Matching, max_matching, utility
from ntumatch.couples import (
    CouplesGame,
    _delta_path_decide,
    _DeltaContext,
    _joined,
    _structure,
    _tops,
    _Union,
    _verdict,
    _without,
)
from ntumatch.errors import InputError, InvariantError
from ntumatch.games import BLOCK_KIND
from ntumatch.graphs import _blossom_search, _Labels

from exhaustive_reference import cut_and_components, gallai_edmonds


def on_alternating_cycle(cg: CouplesGame, p: int) -> bool:
    """Whether some alternating cycle passes through player ``p``'s edge:
    after deleting that edge, the union graph keeps a perfect matching."""
    if not (0 <= p < cg.num_players):
        raise InputError(f"player {p} out of range")
    return cg.union.augment(drop_players=(p,)) is not None


def require_cycle_free(cg: CouplesGame, players) -> None:
    """An input error unless ``players`` are distinct cycle-free players."""
    if len(set(players)) != len(players):
        raise InputError("players must be distinct")
    kset = cg.cycle_free
    if kset.issuperset(players):
        return
    for p in players:
        if not (0 <= p < cg.num_players):
            raise InputError(f"player {p} out of range")
        if p not in kset:
            raise InputError(f"player {p} lies on an alternating cycle")


def delta_context(cg: CouplesGame, a_pl: int) -> _DeltaContext:
    """The context of the cycle-free ``a_pl``, built by ``couples._scan``."""
    if a_pl not in cg.cycle_free:
        raise InvariantError(f"player {a_pl} lies on an alternating cycle and has no context")
    return cg.contexts[a_pl]


def ordered_triple_path_exists(cg: CouplesGame, a: int, b: int, c: int) -> bool:
    """Whether an alternating path ends at players ``a`` and ``c`` and
    traverses ``b``.

    With ``b``'s edge deleted, such a path is two vertex-disjoint
    alternating paths from ``b``'s freed vertices, one ending at ``a``'s
    edge and one at ``c``'s: two disjoint paths of ``b``'s component
    digraph into the distinct components that hold or are entered by
    ``a``'s and ``c``'s edges.
    """
    require_cycle_free(cg, (a, b, c))
    ctx = delta_context(cg, b)
    return _joined(ctx, component(cg, ctx, a), component(cg, ctx, c))


def delta_path_exists(cg: CouplesGame, a: int, b: int, c: int) -> bool:
    """Whether an odd alternating cycle through players ``a`` and ``b``
    extends, from a shared vertex, by an alternating path ending at ``c``.

    Implements the two-case decision: delete ``a``'s player edge, take the
    decomposition of the rest, and test path pieces with ``a``'s component
    digraph and one modified-graph perfect-matching query.  The roles of
    ``a`` and ``b`` are exchangeable.
    """
    require_cycle_free(cg, (a, b, c))
    ctx = delta_context(cg, a)
    return _delta_path_decide(cg, ctx, a, b, component(cg, ctx, b), component(cg, ctx, c))


def component(cg: CouplesGame, ctx: _DeltaContext, pl: int) -> Optional[int]:
    """The odd component that holds player ``pl``'s edge or is entered by
    it, or None.  It is not None exactly when an alternating path joins
    ``pl`` to the context's player."""
    u, v = cg.pairs[pl]
    for s, t in ((u, v), (v, u)):
        j = ctx.comp_of.get(t)
        if j is not None and (ctx.comp_of.get(s) == j or ctx.entry.get(j) == (s, t)):
            return j
    return None


def reach(view: _Union, root: int, drop_players=(), drop_vertices=()) -> frozenset[int]:
    """Vertices even-reachable from the exposed ``root`` by alternating
    paths over the view's base matching without the given players' edges
    and vertices, searched on the arrays of one kernel query."""
    adj, base, _ = view._query(drop_players, drop_vertices)
    if not (0 <= root < len(adj) and view.has(root)) or base[root] != -1:
        raise InvariantError(f"reach root {root} is not an exposed vertex of the view")
    return frozenset(_blossom_search(adj, base, root, _Labels(len(adj)), augment=False))


def cycle_free_by_player(cg: CouplesGame) -> frozenset[int]:
    """Players whose edge lies on no alternating cycle, one kernel query
    each."""
    return frozenset(p for p in range(cg.num_players) if not on_alternating_cycle(cg, p))


def weak_construct_by_player(cg: CouplesGame) -> Matching:
    """``weak_construct`` with one cycle query per surviving player."""
    chosen: list[tuple[int, int]] = []
    view = cg.union
    for p in range(cg.num_players):
        if not view.has(cg.pairs[p][0]):
            continue
        labeled = _structure(cg, (p,), view, 0)
        if labeled is None:
            continue
        chosen.extend((a, b) for a, b, lab in labeled if lab == "e")
        view = view.without(x for a, b, lab in labeled if lab == "p" for x in (a, b))
    return max_matching(cg.inst.graph, seed_matching=Matching(chosen))


def weak_membership_by_query(cg: CouplesGame, m: Matching):
    """``weak_membership`` with one cycle query per low player and one
    path query per pair of uncovered players."""
    u = utility(cg.inst, m)
    low = [i for i, ui in enumerate(u) if ui <= 1]
    view = cg.union.without(x for i, ui in enumerate(u) if ui == 2 for x in cg.pairs[i])
    zero = [i for i in low if u[i] == 0]
    structures = chain(
        (_structure(cg, (i,), view, 0) for i in low),
        (_structure(cg, pair, view, 2) for pair in combinations(zero, 2)),
    )
    return _verdict(cg, structures, BLOCK_KIND["weak"], u)


def strong_membership_by_query(cg: CouplesGame, m: Matching):
    """``strong_membership`` with one cycle query per low player and one
    path query per candidate pair and triple."""
    u = utility(cg.inst, m)
    low = [i for i, ui in enumerate(u) if ui <= 1]
    ones = [i for i in low if u[i] == 1]
    structures = chain(
        (_structure(cg, (i,), cg.union, 0) for i in low),
        (
            _structure(cg, (i, j), cg.union, 2)
            for i, j in combinations(low, 2)
            if min(u[i], u[j]) == 0
        ),
        (_structure(cg, triple, cg.union, 2) for triple in combinations(ones, 3)),
    )
    return _verdict(cg, structures, BLOCK_KIND["strong"], u)


def _decompose_by_reach(cg: CouplesGame, a_pl: int):
    """The reach sets of ``a_pl``'s two vertices with its edge deleted,
    the odd component of each deficient vertex, the entry edge of every
    side component and the component digraph."""
    au, av = cg.pairs[a_pl]
    reached = {x: reach(cg.union, x, drop_players=(a_pl,)) for x in (au, av)}
    adj, _, _ = cg.union._query((a_pl,), ())
    cut, comps = cut_and_components(adj, reached[au] | reached[av])
    if len(comps) - len(cut) != 2:
        raise InvariantError("deleting a cycle-free player edge must leave deficiency 2")
    comp_of: dict[int, int] = {}
    for j, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = j
    ca, cb = comp_of[au], comp_of[av]
    if ca == cb:
        raise InvariantError("freed vertices must land in distinct odd components")
    partner = {x: y for pr in cg.pairs for x, y in (pr, pr[::-1])}
    entry: dict[int, tuple[int, int]] = {}
    arcs: list[set[int]] = [set() for _ in comps]
    for s in sorted(cut):
        t = partner[s]
        j = comp_of.get(t)
        if j is None or j in (ca, cb) or j in entry:
            raise InvariantError("entry edges must pair cut vertices with distinct components")
        entry[j] = (s, t)
        for w in cg.union.adj[s]:
            x = comp_of.get(w)
            if x is not None and x != j:
                arcs[x].add(j)
    if set(entry) != set(range(len(comps))) - {ca, cb}:
        raise InvariantError("every side component must have exactly one entry edge")
    return reached, comp_of, (ca, cb), entry, tuple(map(frozenset, arcs))


def delta_context_by_reach(cg: CouplesGame, a_pl: int) -> _DeltaContext:
    """The context of the cycle-free ``a_pl``: the reach sets of its two
    vertices with its edge deleted, whose union is the deficient part, and
    the cut set and odd components of that part, kept as the library
    keeps them."""
    reached, comp_of, free, entry, arcs = _decompose_by_reach(cg, a_pl)
    entered = {
        x: frozenset(j for j, (_, t) in entry.items() if t in r) for x, r in reached.items()
    }
    return _DeltaContext(comp_of, free, entry, entered, _tops(arcs, free))


def component_digraph_by_reach(cg: CouplesGame, a_pl: int) -> tuple[frozenset[int], ...]:
    """The component digraph of ``a_pl``'s context, built as
    ``delta_context_by_reach`` builds it: x → y when a vertex of x is
    adjacent to y's entry cut vertex."""
    return _decompose_by_reach(cg, a_pl)[4]


def masked(view: _Union, drop_players=(), drop_vertices=(), extra_edges=()):
    """The view's adjacency rows and base matching, copied, with the
    query's deletions and extra edges applied, and the exposed vertices in
    ascending order."""
    n = len(view.adj)
    adj = list(view.adj)
    match = list(view.base)
    exposed = set()
    for p in drop_players:
        u, v = view.pairs[p]
        if match[u] != v:
            continue  # not inside the view
        match[u] = match[v] = -1
        exposed.update((u, v))
        if (u, v) not in view.real:
            adj[u] = _without(adj[u], v)
            adj[v] = _without(adj[v], u)
    gone = {x for x in drop_vertices if view.has(x)}
    touched = set()
    for x in gone:
        y = match[x]
        if y != -1:
            match[x] = match[y] = -1
            exposed.add(y)
        exposed.discard(x)
        touched.update(adj[x])
        adj[x] = ()
    for w in touched - gone:
        adj[w] = tuple(z for z in adj[w] if z not in gone)
    for a, b in extra_edges:
        for v in (a, b):
            if not (0 <= v < n and view.has(v)) or v in gone:
                raise InvariantError("extra edge endpoint outside the view")
        if b not in adj[a]:
            adj[a] = tuple(sorted((*adj[a], b)))
            adj[b] = tuple(sorted((*adj[b], a)))
    return adj, match, sorted(exposed)


def augment_by_copies(view: _Union, drop_players=(), drop_vertices=(), extra_edges=(), missing=0):
    """``(match, base)`` as the kernel's ``augment`` finds them, or None."""
    adj, match, exposed = masked(view, drop_players, drop_vertices, extra_edges)
    base = list(match)
    left = len(exposed)
    failed = 0
    for root in exposed:
        if left <= missing:
            break
        if match[root] != -1:
            continue
        if _blossom_search(adj, match, root, _Labels(len(adj)), augment=True):
            left -= 2
        else:
            failed += 1
            if failed > missing:
                break
    return (match, base) if failed <= missing else None


def reach_by_copies(view: _Union, root: int, drop_players=()) -> frozenset[int]:
    """The kernel's ``reach`` answer."""
    adj, match, _ = masked(view, drop_players)
    if not view.has(root) or match[root] != -1:
        raise InvariantError(f"reach root {root} is not an exposed vertex of the view")
    return frozenset(_blossom_search(adj, match, root, _Labels(len(adj)), augment=False))


def delta_path_by_added_edges(cg: CouplesGame, a: int, b: int, c: int, tally=None) -> bool:
    """Whether an odd alternating cycle through players ``a`` and ``b``
    extends, from a shared vertex, by an alternating path ending at ``c``.

    ``tally``, a ``Counter`` when given, counts the queries made: "free"
    and "side" for the added-edge queries, "entered" for the reach query
    of the case where ``b``'s edge enters ``b``'s component.
    """
    require_cycle_free(cg, (a, b, c))
    ctx = delta_context(cg, a)
    i, j = component(cg, ctx, b), component(cg, ctx, c)
    if i is None or j is None or i == j or j in ctx.free:
        return False
    au, av = cg.pairs[a]
    sj, sj_in = ctx.entry[j]
    sj_pl = cg.player_of[sj]
    if i in ctx.free:
        # the cycle closes inside the component freed by one of a's
        # vertices; the path to c leaves from the other vertex
        a_near = au if ctx.comp_of[au] == i else av
        a_far = av if a_near == au else au
        if reach(cg.union, a_far, drop_players=(a,)).isdisjoint(cg.pairs[c]):
            return False
        _count(tally, "free")
        return augment_by_copies(
            cg.union,
            drop_players=(a, b, sj_pl),
            drop_vertices=(a_far, sj_in),
            extra_edges=((a_near, sj),),
        ) is not None
    # both b and c sit in side components: two disjoint alternating paths
    # from a's vertices to the two entries and a through-path across b's
    # component; the tail to c inside its factor-critical component exists
    if not _joined(ctx, i, j):
        return False
    si, si_in = ctx.entry[i]
    si_pl = cg.player_of[si]
    if b == si_pl:
        _count(tally, "entered")
        return si in reach_by_copies(cg.union, sj, drop_players=(a, sj_pl))
    _count(tally, "side")
    return augment_by_copies(
        cg.union,
        drop_players=(a, b, si_pl, sj_pl),
        drop_vertices=(au, av, si, sj_in),
        extra_edges=((si_in, sj),),
    ) is not None


def _count(tally, key: str) -> None:
    if tally is not None:
        tally[key] += 1


def ordered_triple_by_tips(cg: CouplesGame, a: int, b: int, c: int) -> bool:
    """Whether an alternating path ends at players ``a`` and ``c`` and
    traverses ``b``: some choice of tips x of ``a`` and y of ``c`` leaves a
    perfect matching once x, y and the three player edges are deleted."""
    require_cycle_free(cg, (a, b, c))
    for x in cg.pairs[a]:
        for y in cg.pairs[c]:
            if cg.union.augment(drop_players=(a, b, c), drop_vertices=(x, y)) is not None:
                return True
    return False


def ordered_triple_one_query(cg: CouplesGame, a: int, b: int, c: int) -> bool:
    """The same question as one perfect-matching test: the real edges and
    every player edge but the three, plus a vertex s joined to both of
    ``a``'s vertices and a vertex t joined to both of ``c``'s.  s and t
    each take one tip, and because ``b`` is on no alternating cycle, the
    rest can only splice into one path through ``b``."""
    require_cycle_free(cg, (a, b, c))
    n = cg.inst.graph.n
    s, t = n, n + 1
    kept = [pr for i, pr in enumerate(cg.pairs) if i not in (a, b, c)]
    g = Graph(
        n + 2,
        [
            *cg.inst.graph.edges,
            *kept,
            *((s, x) for x in cg.pairs[a]),
            *((t, y) for y in cg.pairs[c]),
        ],
    )
    return 2 * max_matching(g, seed_matching=Matching(kept)).size == g.n


def delta_context_by_graph(cg: CouplesGame, a: int):
    """Odd components and cut set of the union of the real edges and every
    player edge but ``a``'s."""
    g = Graph(
        cg.inst.graph.n,
        [*cg.inst.graph.edges, *(pr for i, pr in enumerate(cg.pairs) if i != a)],
    )
    ge = gallai_edmonds(g)
    return ge.odd_components, ge.cut_set


def second_reach_by_flow(free: tuple[int, int], arcs, target: int) -> frozenset[int]:
    """The components y for which the component digraph ``arcs`` has two
    vertex-disjoint paths from the two ``free`` components, one ending in
    ``target`` and one in y (Menger: a unit-capacity flow of 2).

    Routes one unit from the free components to ``target`` with node
    capacity 1 (each node split into an in- and an out-node), then
    searches the residual network once: y qualifies exactly when its
    out-node is reachable.  Empty when no path reaches ``target``.
    """
    prev = {f: None for f in free}
    queue = list(free)
    for x in queue:
        if x == target:
            break
        for y in arcs[x]:
            if y not in prev:
                prev[y] = x
                queue.append(y)
    seen_out: set[int] = set()
    if target in prev:
        # the unit's path, as flow arcs before[y] -> y and x -> after[x]
        before: dict[int, int] = {}
        y = target
        while prev[y] is not None:
            before[y] = prev[y]
            y = prev[y]
        start = y
        after = {x: y for y, x in before.items()}
        on_path = {start, *before}
        seen_in = {f for f in free if f != start}
        stack = [(f, False) for f in seen_in]
        while stack:
            v, out = stack.pop()
            if out:
                steps = [(y, False) for y in arcs[v] if after.get(v) != y]
                if v in on_path:
                    steps.append((v, False))  # back through v's saturated node
            elif v in before:
                steps = [(before[v], True)]  # back along the flow arc into v
            else:
                # off the path: no arc enters the path's free start
                steps = [(v, True)]
            for w, w_out in steps:
                seen = seen_out if w_out else seen_in
                if w not in seen:
                    seen.add(w)
                    stack.append((w, w_out))
    return frozenset(seen_out)
