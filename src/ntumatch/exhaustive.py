"""Ground-truth engine: exhaustive enumeration on small instances.

Everything here is deliberately brute force and independent of the
polynomial algorithms it validates.  Hard caps raise
:class:`~ntumatch.errors.ResourceLimitError` instead of truncating.  No
enumerator recurses, so none depends on Python's recursion limit.

Matchings are enumerated by iterative include/exclude walks; ``Matching``
objects are built only where a caller asks for one.  The core oracle walks
the whole graph's matchings once, coding each utility vector as an integer,
and ``cap`` counts every matching of that walk.  Coalition C's table is the
maxima of the vectors touching exactly C and of every C - {i}'s table.  The
oracle decides on vectors and builds a matching only in ``OracleCoreResult.realize``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import ge, gt, itemgetter
from typing import Iterator, Optional

from .errors import InputError, ResourceLimitError
from .games import BLOCK_KIND, DEFAULT_BUDGET, ENUMERATION_PLAYER_GUARD
from .graphs import Graph, Matching


def _disjoint(edges) -> list[int]:
    """Per edge, the bitmask of the edges that share no vertex with it."""
    return [sum(1 << k for k, f in enumerate(edges) if {u, v}.isdisjoint(f)) for u, v in edges]


def _matching_cells(g: Graph, cap: int) -> Iterator[Optional[tuple]]:
    """Every matching of ``g``, exactly once, with no recursion, as its
    edge indices in ``(j, parent)`` cells (see :func:`_chosen`); None is
    the empty matching.

    Include/exclude over the sorted edges, exclude first.  A frame
    ``(free, cells)`` stands for every matching that extends ``cells`` by
    edges from ``free``, the bitmask of later edges disjoint from it:
    first ``cells`` itself, then those with some free edge ``j``, the
    largest ``j`` first, so frames are pushed in ascending ``j``.  Raises
    a resource error as soon as more than ``cap`` matchings would be
    emitted.
    """
    disjoint = _disjoint(g.edges)
    stack = [((1 << len(disjoint)) - 1, None)]
    pop, push = stack.pop, stack.append
    count = 0
    while stack:
        free, cells = pop()
        count += 1
        if count > cap:
            raise ResourceLimitError(f"matching enumeration exceeded cap of {cap}")
        yield cells
        while free:
            low = free & -free
            free ^= low
            j = low.bit_length() - 1
            push((free & disjoint[j], (j, cells)))


def _chosen(cells: Optional[tuple]) -> tuple[int, ...]:
    """The edge indices held in ``(j, parent)`` cells, ascending."""
    path = []
    while cells:
        j, cells = cells
        path.append(j)
    return tuple(path[::-1])


def _matching_of(g: Graph, chosen: tuple[int, ...]) -> Matching:
    edges = g.edges
    return Matching([edges[j] for j in chosen])


def all_matchings(g: Graph, cap: int = DEFAULT_BUDGET) -> Iterator[Matching]:
    """Every matching of ``g`` (including the empty one), exactly once, in
    include/exclude order over the sorted edges, exclude first; more than
    ``cap`` matchings raise a resource error."""
    for cells in _matching_cells(g, cap):
        yield _matching_of(g, _chosen(cells))


def count_matchings(g: Graph, cap: int = DEFAULT_BUDGET) -> int:
    return sum(1 for _ in _matching_cells(g, cap))


# ---------------------------------------------------------------------------
# cores by definition


def _pareto_maximal(vectors) -> list[tuple[int, ...]]:
    """Pareto-maximal members of a set of equal-length vectors, ascending.

    A vector can only be dominated by one that is lexicographically
    larger, and then by a maximal one; so in descending order each vector
    is checked against the maxima found so far.
    """
    maxima: list[tuple[int, ...]] = []
    for v in sorted(vectors, reverse=True):
        if not any(all(map(ge, w, v)) for w in maxima):
            maxima.append(v)
    maxima.reverse()
    return maxima


def _first_by_vector(inst, cap: int) -> dict[tuple[int, ...], tuple[int, tuple[int, ...]]]:
    """The single pass: vector -> (touched-player bitmask, chosen edge
    indices of the first matching in ``all_matchings`` order with it).

    The walk of :func:`_matching_cells`, inline: a frame also holds its
    vector as an integer whose base-(largest player size + 1) digit ``i``
    counts player ``i``'s matched vertices.
    """
    base = max(map(len, inst.players), default=0) + 1
    powers = [base**i for i in range(len(inst.players))]
    player_of, edges = inst.player_of, inst.graph.edges
    ecode = [powers[player_of[u]] + powers[player_of[v]] for u, v in edges]
    disjoint = _disjoint(edges)
    stack = [((1 << len(edges)) - 1, 0, None)]
    pop, push = stack.pop, stack.append
    chosen_by_code: dict = {}
    count = 0
    while stack:
        free, code, chosen = pop()
        count += 1
        if count > cap:
            raise ResourceLimitError(f"matching enumeration exceeded cap of {cap}")
        if code not in chosen_by_code:
            chosen_by_code[code] = chosen
        while free:  # ascending j, so the largest j is popped first
            low = free & -free
            free ^= low
            j = low.bit_length() - 1
            push((free & disjoint[j], code + ecode[j], (j, chosen)))
    first = {}
    for code, chosen in chosen_by_code.items():
        vec = tuple([code // pw % base for pw in powers])
        first[vec] = (sum([1 << i for i, k in enumerate(vec) if k]), _chosen(chosen))
    return first


def _coalition_maxima(first: dict, m_players: int) -> Iterator[tuple[tuple[int, ...], list]]:
    """``(coalition, its Pareto-maximal vectors)`` per coalition, smallest
    coalitions first, then lexicographically; each maximal vector is
    projected onto the coalition (ascending) and paired with the full
    utility vector it projects from.

    A matching lies in the coalition's induced subgraph iff the players it
    touches are a subset of the coalition; its vector is zero outside, so
    projecting keeps dominance and order.  One touching less than C lies
    under some C - {i}, so max(C) is the maxima of every max(C - {i}) and
    of the vectors touching exactly C; only one size's tables are kept.
    """
    own: dict[int, list] = {}
    for vec, (touched, _) in first.items():
        own.setdefault(touched, []).append(vec)
    prev = {0: own.get(0, [])}
    for size in range(1, m_players + 1):
        level = {}
        for coalition in combinations(range(m_players), size):
            cmask = sum(1 << i for i in coalition)
            found = set(own.get(cmask, ())).union(*[prev[cmask ^ 1 << i] for i in coalition])
            level[cmask] = maximal = _pareto_maximal(found)
            yield coalition, [(tuple(vec[i] for i in coalition), vec) for vec in maximal]
        prev = level


def _witness(table: list, proj: tuple[int, ...], strong: bool) -> Optional[tuple[int, ...]]:
    """Full vector of the first maximal vector in ``table`` that blocks the
    projected utility ``proj``; strong blocks need every member strictly
    better, weak ones need nobody worse and somebody better.

    Comparing against maximal vectors only is exhaustive: any blocking
    vector is dominated by a maximal one, which then blocks too.
    """
    for w, vec in table:
        if strong:
            if all(map(gt, w, proj)):
                return vec
        elif w != proj and all(map(ge, w, proj)):
            return vec
    return None


def _blocked(maxima, vectors, strong: bool) -> dict:
    """Utility vector -> (first coalition in ``maxima`` order that blocks
    it, its witness vector), for every blocked vector.

    Coalitions go in order over the vectors not blocked yet, and none is
    built once every vector is blocked; vectors with the same projection
    onto a coalition share its verdict.
    """
    hits: dict[tuple[int, ...], tuple] = {}
    pending = list(vectors)
    for coalition, table in maxima:
        get = itemgetter(*coalition)
        projs = list(map(get, pending)) if len(coalition) > 1 else [(get(u),) for u in pending]
        verdict = {proj: _witness(table, proj, strong) for proj in set(projs)}
        found = [verdict[proj] for proj in projs]
        hits.update((u, (coalition, w)) for u, w in zip(pending, found) if w is not None)
        pending = [u for u, w in zip(pending, found) if w is None]
        if not pending:
            break
    return hits


@dataclass(frozen=True)
class OracleCoreResult:
    """Definitional core computation on a small instance, on utility
    vectors: membership only depends on the vector, so a matching is built
    only when :meth:`realize` is asked for one."""

    kind: str  # which core was tested: "weak" or "strong"
    in_core: tuple  # unblocked utility vectors, ascending
    blocked: dict  # utility vector -> (coalition, witness vector)
    _graph: Graph = field(repr=False, compare=False)
    _first: dict = field(repr=False, compare=False)  # see _first_by_vector

    @property
    def empty(self) -> bool:
        return not self.in_core

    def realize(self, vec: tuple[int, ...]) -> Matching:
        """The first matching in :func:`all_matchings` order whose utility
        vector is ``vec``; a ``KeyError`` if no matching achieves it."""
        return _matching_of(self._graph, self._first[vec][1])


def oracle_core(inst, kind: str, cap: int = DEFAULT_BUDGET) -> OracleCoreResult:
    """Every achievable utility vector, in the core or blocked, by full
    enumeration.

    A matching is in the weak core when no coalition strongly blocks it and
    in the strong core when no coalition weakly blocks it; membership only
    depends on the utility vector, so vectors are deduplicated.  One pass
    over the matchings of the whole graph yields every coalition's table;
    ``cap`` bounds the number of matchings in that pass.
    """
    if kind not in BLOCK_KIND:
        raise InputError("kind must be 'weak' or 'strong'")
    if len(inst.players) > ENUMERATION_PLAYER_GUARD:
        raise ResourceLimitError(f"oracle_core guard: more than {ENUMERATION_PLAYER_GUARD} players")
    first = _first_by_vector(inst, cap)
    maxima = _coalition_maxima(first, len(inst.players))
    blocked = _blocked(maxima, first, strong=BLOCK_KIND[kind] == "strong")
    in_core = tuple(vec for vec in sorted(first) if vec not in blocked)
    return OracleCoreResult(kind, in_core, blocked, inst.graph, first)
