"""Undirected graphs, general-graph maximum matching, and structure queries.

Vertices are dense ids ``0..n-1`` throughout.  The matching engine is an
augmenting-path search with blossom contraction; vertices are scanned in
ascending id order and adjacency lists are sorted, so every result is
deterministic and reproducible.  The augmenting loop matches a root to an
exposed neighbour without a search when it has one, with the result the
search would give.

All values are immutable after construction and safe to share across
threads.  The module keeps no global state: a graph's maximum matching
(the seed of its coverage queries) is memoised on the ``Graph``, so it
lives and dies with it.  Concurrent first use may compute the same
deterministic value twice, which is safe.

A search labels vertices in a :class:`_Labels` its caller owns.  Each
function here, and each couples kernel query (``couples._Union``), makes
one per call and clears it after every search, so a search costs the tree
it grows rather than the whole graph.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from .errors import InputError, InvariantError


def _norm_edge(e) -> tuple[int, int]:
    u, v = e
    if u == v:
        raise InputError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def _loop_error(first) -> Optional[InputError]:
    """The error for the first self-loop of ``first`` (normalised edges in
    the order given), or None when there is none."""
    for u, v in first:
        if u == v:
            return InputError(f"self-loop at vertex {u}")
    return None


class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    No self-loops, no parallel edges.  Hashable and comparable by value.
    The private slot ``_match`` memoises, on first use, a maximum matching
    (as a match array) that seeds every coverage query; it takes no part in
    equality.
    """

    __slots__ = ("n", "edges", "edge_set", "adj", "_hash", "_match")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InputError("vertex count must be non-negative")
        first = {(u, v) if u < v else (v, u): None for u, v in edges}
        es = sorted(first)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in es:
            if u == v or u < 0 or v >= n:
                raise _loop_error(first) or InputError(f"edge ({u},{v}) out of range for n={n}")
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.edges = tuple(es)
        self.edge_set = frozenset(es)
        # sorted edges append each row's smaller neighbours, ascending,
        # before its larger ones, so every row is sorted already
        self.adj = tuple(map(tuple, adj))
        self._hash = hash((n, self.edges))
        self._match: Optional[tuple[int, ...]] = None

    @classmethod
    def _trusted(cls, n: int, edges: tuple, adj: tuple, edge_set=None) -> "Graph":
        """The graph the public constructor would build, from parts its
        caller has checked and built: ``edges`` distinct in-range pairs,
        smaller endpoint first, strictly ascending, as a tuple of tuples;
        ``adj`` their rows, each a sorted tuple; ``edge_set`` their
        frozenset, made here when not given.  Nothing is checked."""
        g = cls.__new__(cls)
        g.n = n
        g.edges = edges
        g.edge_set = frozenset(edges) if edge_set is None else edge_set
        g.adj = adj
        g._hash = hash((n, edges))
        g._match = None
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge((u, v)) in self.edge_set

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


class Matching:
    """A set of pairwise vertex-disjoint edges plus its covered vertex set."""

    __slots__ = ("edges", "edge_set", "covered", "_hash")

    def __init__(self, edges: Iterable[tuple[int, int]] = ()):
        first = {(u, v) if u < v else (v, u): None for u, v in edges}
        es = sorted(first)
        seen: set[int] = set()
        for u, v in es:
            if u == v or u in seen or v in seen:
                raise _loop_error(first) or InputError(
                    f"edges are not vertex-disjoint at ({u},{v})"
                )
            seen.add(u)
            seen.add(v)
        self.edges = tuple(es)
        self.edge_set = frozenset(es)
        self.covered = frozenset(seen)
        self._hash = hash(self.edges)

    @property
    def size(self) -> int:
        return len(self.edges)

    def partner_map(self) -> dict[int, int]:
        d: dict[int, int] = {}
        for u, v in self.edges:
            d[u] = v
            d[v] = u
        return d

    def validate_for(self, g: Graph) -> None:
        for e in self.edges:
            if e not in g.edge_set:
                raise InputError(f"matching edge {e} is not a graph edge")

    def __eq__(self, other):
        return isinstance(other, Matching) and self.edges == other.edges

    def __hash__(self):
        return self._hash

    def __iter__(self):
        return iter(self.edges)

    def __len__(self):
        return len(self.edges)

    def __repr__(self):
        return f"Matching({list(self.edges)})"


def _match_array(n: int, m: Matching) -> list[int]:
    match = [-1] * n
    for u, v in m.edges:
        match[u] = v
        match[v] = u
    return match


def _lca(match, base, parent, a, b):
    marked = set()
    v = a
    while True:
        v = base[v]
        marked.add(v)
        if match[v] == -1:
            break
        v = parent[match[v]]
    v = b
    while True:
        v = base[v]
        if v in marked:
            return v
        v = parent[match[v]]


def _mark_path(match, base, parent, marked, v, b, child):
    while base[v] != b:
        marked.add(base[v])
        marked.add(base[match[v]])
        parent[v] = child
        child = match[v]
        v = parent[match[v]]


class _Labels:
    """Blossom-search labels for vertices ``0..n-1``: ``parent`` (-1 when
    unset), ``base`` (the base of the vertex's blossom, the vertex itself
    outside one) and ``used`` (even in the search tree).

    A search starts from blank labels and records the vertices it labels in
    ``even`` (its queue, in scan order) and ``odd``.  The caller owns the
    object, reads the tree, then calls :meth:`clear` before the next
    search.  Clearing resets only the vertices the tree touched, or, when
    the tree covered more than a quarter of the graph, allocates fresh
    arrays, which is cheaper there than a Python-level reset.  Not
    thread-safe: one search at a time per object.
    """

    __slots__ = ("parent", "base", "used", "even", "odd")

    def __init__(self, n: int):
        self.parent = [-1] * n
        self.base = list(range(n))
        self.used = [False] * n
        self.even: list[int] = []
        self.odd: list[int] = []

    def clear(self) -> None:
        n = len(self.used)
        if 4 * (len(self.even) + len(self.odd)) > n:
            self.parent = [-1] * n
            self.base = list(range(n))
            self.used = [False] * n
            return
        parent, base, used = self.parent, self.base, self.used
        for v in self.even:
            parent[v] = -1
            base[v] = v
            used[v] = False
        for v in self.odd:
            parent[v] = -1


def _blossom_search(adj, match, root, labels: _Labels, augment: bool):
    """Edmonds search from an exposed root over blank ``labels``.

    With ``augment`` True, flips the matching along the first augmenting
    path found and returns the path's vertices, the ``match`` entries it
    changed (a non-empty list), or False when there is none.  Otherwise
    explores exhaustively and returns the even vertices in scan order;
    ``labels.parent`` then allows path reconstruction.  Either way the tree
    stays in ``labels`` until the caller clears it.  The search costs the
    tree it grows: the queue is the list of even vertices, and a blossom
    relabels only its own members (kept per base) in ascending order, the
    order a scan of every vertex would find them in.
    """
    parent, base, used = labels.parent, labels.base, labels.used
    even = labels.even = [root]
    odd = labels.odd = []
    members: dict[int, list[int]] = {}
    used[root] = True
    for v in even:  # a FIFO queue: the loop sees what the search appends
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                cur = _lca(match, base, parent, v, to)
                marked: set[int] = set()
                _mark_path(match, base, parent, marked, v, cur, to)
                _mark_path(match, base, parent, marked, to, cur, v)
                marked.discard(cur)  # its members are even with base cur already
                inner = sorted(x for b in marked for x in members.pop(b, (b,)))
                members.setdefault(cur, [cur]).extend(inner)
                for i in inner:
                    base[i] = cur
                    if not used[i]:
                        used[i] = True
                        even.append(i)
            elif parent[to] == -1:
                parent[to] = v
                odd.append(to)
                if match[to] == -1:
                    if augment:
                        path = []
                        u = to
                        while u != -1:
                            pv = parent[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            path += (u, pv)
                            u = ppv
                        return path
                    # reach mode: an exposed vertex is a dead end (it has no
                    # matched edge to continue on and can never turn even)
                else:
                    w = match[to]
                    if not used[w]:
                        used[w] = True
                        even.append(w)
    if augment:
        return False
    return even


def max_matching(g: Graph, seed_matching: Optional[Matching] = None) -> Matching:
    """Maximum-cardinality matching; never uncovers a seed-covered vertex.

    Augmenting paths only join two exposed vertices, so everything the seed
    covers stays covered while the matching grows to maximum size.
    """
    if seed_matching is not None:
        seed_matching.validate_for(g)
        match = _match_array(g.n, seed_matching)
    else:
        match = [-1] * g.n
    _augment(g.adj, match, range(g.n), _Labels(g.n))
    return Matching((v, match[v]) for v in range(g.n) if match[v] > v)


def _augment(adj, match, roots, labels: _Labels, stop: bool = False) -> int:
    """One augmenting search from each of ``roots``, in order, still exposed
    when its turn comes; returns how many failed, stopping at the first
    failure when ``stop`` is set.

    A root with an exposed neighbour is matched to the first one in its
    row, and a root with an empty row fails, both without a search.  The
    search would do the same: it scans the root's row first and augments
    at the first exposed neighbour it meets, since no blossom formed in
    that row relabels an exposed vertex.
    """
    failed = 0
    for root in roots:
        if match[root] != -1:
            continue
        row = adj[root]
        for w in row:
            if match[w] == -1:
                match[root] = w
                match[w] = root
                break
        else:
            if row:
                failed += not _blossom_search(adj, match, root, labels, augment=True)
                labels.clear()
            else:
                failed += 1
            if stop and failed:
                break
    return failed


def _max_match(g: Graph) -> tuple[int, ...]:
    """The match array of the maximum matching memoised on ``g``."""
    if g._match is None:
        g._match = tuple(_match_array(g.n, max_matching(g)))
    return g._match


def _matching_number(g: Graph, keep: frozenset[int]) -> int:
    """Size of a maximum matching of ``g[keep]``, building no graph: the
    memoised matching's edges inside ``keep``, grown by one search from each
    exposed vertex over rows cut to ``keep``."""
    seed = _max_match(g)
    adj: list = [()] * g.n
    match = [-1] * g.n
    for v in keep:
        adj[v] = [w for w in g.adj[v] if w in keep]
        if seed[v] in keep:
            match[v] = seed[v]
    _augment(adj, match, keep, _Labels(g.n))
    return (g.n - match.count(-1)) // 2


def _cover(adj, match: list[int], y: frozenset[int], stop: bool) -> int:
    """The greedy of :func:`coverable` on rows ``adj`` from their maximum
    matching ``match``, which it extends by the pendants and flips in
    place; returns the failed-root count, ending at the first failure if
    ``stop`` is set."""
    for v in y:
        if not (0 <= v < len(adj)):
            raise InputError(f"vertex {v} out of range")
    roots = [v for v in sorted(y) if match[v] == -1]
    if not roots:
        return 0
    adj = list(adj)
    for v in range(len(adj)):
        if adj[v] and v not in y:  # no path reaches an edgeless vertex
            adj[v] = (*adj[v], len(adj))
            adj.append((v,))
            match.append(-1)
    return _augment(adj, match, roots, _Labels(len(adj)), stop)


def coverable(g: Graph, x: Iterable[int]) -> Optional[Matching]:
    """A matching covering all of ``x``, or None.

    Greedy augmentation from a maximum matching of ``g``: every vertex
    outside ``x`` gets a fresh pendant partner, one augmenting search runs
    from each exposed vertex of ``x`` in ascending order, and the witness
    drops the pendant edges.  Coverable sets are the independent sets of
    the matching matroid, whose bases are the covered sets ``C`` of maximum
    matchings.  If ``(C & x) + r`` is coverable, circuit exchange gives
    ``u`` in ``C - x`` with ``C - u + r`` a basis: an even alternating path
    from ``r`` to ``u``, which ``u``'s pendant extends to an augmenting
    path.  As the matching of ``g`` stays maximum, every augmenting path is
    of that kind and adds just ``r``, so the greedy is exact and a failed
    root stays failed.  A seed that is not maximum breaks this.
    """
    xset = frozenset(x)
    match = list(_max_match(g))
    if _cover(g.adj, match, xset, stop=True):
        return None
    witness = Matching((v, match[v]) for v in range(g.n) if v < match[v] < g.n)
    if not xset <= witness.covered:
        raise InvariantError("greedy witness does not cover the requested set")
    return witness


def coverage_rank(g: Graph, y: Iterable[int]) -> int:
    """Largest number of vertices of ``y`` a single matching can cover: its
    rank in the matching matroid, ``|y|`` minus the roots that fail in the
    greedy of :func:`coverable`."""
    y = frozenset(y)
    return len(y) - _cover(g.adj, list(_max_match(g)), y, stop=False)


def bipartition(g: Graph) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """A 2-coloring of the graph, or None if it has an odd cycle."""
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in g.adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return (
        frozenset(v for v in range(g.n) if color[v] == 0),
        frozenset(v for v in range(g.n) if color[v] == 1),
    )
