"""Ground-truth engine: exhaustive enumeration on small instances.

Everything here is deliberately brute force and independent of the
polynomial algorithms it validates.  Hard caps raise
:class:`~ntumatch.errors.ResourceLimitError` instead of truncating.

Matchings are enumerated by one iterative include/exclude walk that yields
covered-vertex bitmasks; ``Matching`` objects are built only where a caller
asks for one.  The core oracle makes a single pass over the whole graph's
matchings and derives every coalition's table from it: a matching lies in
the coalition's induced subgraph iff the players it touches are a subset
of the coalition.  It decides on utility vectors and realizes a vector as
a matching only through ``OracleCoreResult.realize``.  No enumerator here
recurses, so none depends on Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Optional

from .errors import InputError, ResourceLimitError
from .graphs import Graph, Matching

DEFAULT_CAP = 10_000_000


def _matching_masks(g: Graph, cap: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every matching of ``g`` as ``(covered-vertex bitmask, chosen edge
    indices)``, exactly once, with no recursion.

    The order is that of include/exclude over the sorted edges, exclude
    first.  A stack frame ``(i, mask, chosen)`` stands for every matching
    that extends ``chosen`` by edges from index ``i`` on: the first of them
    adds nothing, and the rest include some later free edge ``j``, the
    largest ``j`` first, which is why the frames are pushed in ascending
    ``j``.  Raises a resource error as soon as more than ``cap`` matchings
    would be emitted.
    """
    emask = [(1 << u) | (1 << v) for u, v in g.edges]
    n_edges = len(emask)
    stack = [(0, 0, ())]
    pop, push = stack.pop, stack.append
    count = 0
    while stack:
        i, mask, chosen = pop()
        count += 1
        if count > cap:
            raise ResourceLimitError(f"matching enumeration exceeded cap of {cap}")
        yield mask, chosen
        for j in range(i, n_edges):
            e = emask[j]
            if not mask & e:
                push((j + 1, mask | e, chosen + (j,)))


def _matching_of(g: Graph, chosen: tuple[int, ...]) -> Matching:
    edges = g.edges
    return Matching([edges[j] for j in chosen])


def all_matchings(g: Graph, cap: int = DEFAULT_CAP) -> Iterator[Matching]:
    """Every matching of ``g`` (including the empty one), exactly once.

    Include/exclude over edges in ascending order, exclude first; aborts
    with a resource error as soon as more than ``cap`` matchings would be
    emitted.
    """
    for _, chosen in _matching_masks(g, cap):
        yield _matching_of(g, chosen)


def count_matchings(g: Graph, cap: int = DEFAULT_CAP) -> int:
    return sum(1 for _ in _matching_masks(g, cap))


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
        if not any(all(a >= b for a, b in zip(w, v)) for w in maxima):
            maxima.append(v)
    maxima.reverse()
    return maxima


def _first_by_vector(inst, cap: int) -> dict[tuple[int, ...], tuple[int, tuple[int, ...]]]:
    """The single pass: utility vector -> (touched-player bitmask, chosen
    edge indices of the first matching in ``all_matchings`` order that
    achieves it).

    The vector depends on the covered set only, so repeated covered sets
    are skipped before any vector is computed.
    """
    pmasks = [sum(1 << v for v in p) for p in inst.players]
    seen: set[int] = set()
    first: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    for mask, chosen in _matching_masks(inst.graph, cap):
        if mask in seen:
            continue
        seen.add(mask)
        vec = tuple([(mask & pm).bit_count() for pm in pmasks])
        if vec not in first:
            touched = sum(1 << i for i, k in enumerate(vec) if k)
            first[vec] = (touched, chosen)
    return first


def _coalition_maxima(first: dict, m_players: int) -> Iterator[tuple[tuple[int, ...], list]]:
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
                (tuple(vec[i] for i in coalition), vec) for vec in _pareto_maximal(inside)
            ]


def _witness(table: list, proj: tuple[int, ...], strong: bool) -> Optional[tuple[int, ...]]:
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
        verdict: dict[tuple[int, ...], Optional[tuple[int, ...]]] = {}
        rest = []
        for u in pending:
            proj = tuple([u[i] for i in coalition])
            if proj not in verdict:
                verdict[proj] = _witness(table, proj, strong)
            if verdict[proj] is None:
                rest.append(u)
            else:
                hits[u] = (coalition, verdict[proj])
        pending = rest
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


def oracle_core(inst, kind: str, cap: int = DEFAULT_CAP) -> OracleCoreResult:
    """Every achievable utility vector, in the core or blocked, by full
    enumeration.

    A matching is in the weak core when no coalition strongly blocks it and
    in the strong core when no coalition weakly blocks it; membership only
    depends on the utility vector, so vectors are deduplicated.  One pass
    over the matchings of the whole graph yields every coalition's table;
    ``cap`` bounds the number of matchings in that pass.
    """
    if kind not in ("weak", "strong"):
        raise InputError("kind must be 'weak' or 'strong'")
    if len(inst.players) > 20:
        raise ResourceLimitError("oracle_core guard: more than 20 players")
    first = _first_by_vector(inst, cap)
    maxima = _coalition_maxima(first, len(inst.players))
    blocked = _blocked(maxima, first, strong=kind == "weak")
    in_core = tuple(vec for vec in sorted(first) if vec not in blocked)
    return OracleCoreResult(kind, in_core, blocked, inst.graph, first)
