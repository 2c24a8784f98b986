"""Ground-truth engine: exhaustive enumeration on small instances.

Everything here is deliberately brute force and independent of the
polynomial algorithms it validates.  Hard caps raise
:class:`~ntumatch.errors.ResourceLimitError` instead of truncating.  No
enumerator recurses, so none depends on Python's recursion limit.

Matchings are enumerated by iterative include/exclude walks; ``Matching``
objects are built only where a caller asks for one.  The core oracle walks
the whole graph's matchings once, ``cap`` counting each, and codes their
utility vectors as integers; :class:`OracleCoreResult` scans those vectors
over the groups that touch the same players, in coalition order, and
builds the whole in-core list only when it is read.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Optional

from .errors import InputError, ResourceLimitError
from .games import BLOCK_KIND, DEFAULT_BUDGET, ENUMERATION_PLAYER_GUARD
from .graphs import Graph, Matching


def _disjoint(edges) -> list[int]:
    """Per edge, the bitmask of the edges that share no vertex with it."""
    at: dict[int, int] = {}
    for k, (u, v) in enumerate(edges):
        at[u] = at.get(u, 0) | 1 << k
        at[v] = at.get(v, 0) | 1 << k
    full = (1 << len(edges)) - 1
    return [full & ~(at[u] | at[v]) for u, v in edges]


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


def _first_by_code(inst, cap: int) -> tuple[int, dict]:
    """The single pass: the codes' field width, and code -> ``(j, parent)``
    cells of the first matching in ``all_matchings`` order with that
    vector.  The walk of :func:`_matching_cells`, inline; a frame's vector
    is an integer in which player ``i``'s count fills a ``width``-bit
    field, player 0 most significant, whose top bit (guard) it never
    reaches, so integer order is tuple order.
    """
    m = len(inst.players)
    width = max(map(len, inst.players), default=0).bit_length() + 1
    unit = [1 << (m - 1 - i) * width for i in range(m)]
    player_of, edges = inst.player_of, inst.graph.edges
    ecode = [unit[player_of[u]] + unit[player_of[v]] for u, v in edges]
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
    return width, chosen_by_code


def _maxima(codes, guards: int) -> list[int]:
    """Pareto-maximal members of a set of vector codes, ascending.

    ``w`` dominates ``v`` iff ``((w | guards) - v) & guards == guards``: a
    field computes guard + w_i - v_i, which keeps its guard bit iff w_i >=
    v_i and borrows from no other field.  Only a larger code, and then a
    maximal one, can dominate, so codes are checked in descending order.
    """
    out: list[int] = []
    for v in sorted(codes, reverse=True):
        if all(((w | guards) - v) & guards != guards for w in out):
            out.append(v)
    out.reverse()
    return out


class OracleCoreResult:
    """Definitional core computation on a small instance, on vector codes
    (see :func:`_first_by_code`): membership only depends on the vector,
    so a matching is built only when :meth:`realize` asks for one.

    A matching with vector ``w`` touches T(w), the players with a nonzero
    field, and lies in coalition C's induced subgraph iff T(w) ⊆ C.

    Fact 1: the first coalition in (size, lex) order that blocks ``u`` is
    the first T(w) over achievable ``w`` with w > u on T(w) (strong
    blocks), or w >= u on T(w) and w != u there (weak blocks), as such a
    T(w) blocks ``u`` with ``w``.  If C blocks ``u`` strongly with ``w``,
    every w_i > u_i >= 0 on C, so T(w) = C.  If weakly, w_i = 0 >= u_i on
    C - T(w), so ``w`` differs from ``u`` only on T(w) ⊆ C, and T(w), no
    later than C, blocks ``u`` with ``w``.
    Fact 2: under weak blocks (the strong core) only Pareto-maximal
    vectors can be unblocked, as the grand coalition blocks any other.

    So a vector is scanned over the groups of codes by touched set, in
    coalition order, up to its first block; a group blocks iff one of its
    maxima does.  A strong block compares with u + 1 on T, which fits each
    field.
    Fact 3: the witness, the first vector in ascending order of C's table
    (the maxima of every achievable vector inside C) that blocks ``u``, is
    the first of C's group's maxima that blocks ``u``.  Every table vector
    ``w`` that blocks ``u`` has T(w) = C: a strong block lifts every member,
    and a weak block by a smaller T(w) would make T(w) block ``u``, and a
    maximum of T(w)'s group with it, so the scan would have stopped there.
    Such a ``w`` is maximal in C's group, and every maximum of C's group is
    maximal in the table, as a vector touching less of C is zero where it
    is not.  So the first blocking maximum, ascending, is kept per group and
    projection.
    Fact 4: ``best == in_core[-1]`` is the first unblocked maximum,
    descending.  Under strong blocks the unblocked vectors form an up-set
    (a block ``(C, w)`` of ``v >= u`` has w_i > v_i >= u_i on C), so a
    maximal ``v`` above the largest unblocked vector is unblocked, with a
    code no smaller; under weak blocks fact 2 applies.  So :attr:`in_core`,
    which scans every candidate, is built only when it is read.
    """

    def __init__(self, kind: str, graph: Optional[Graph], m: int, width: int, first: dict):
        self.kind = kind  # which core was tested: "weak" or "strong"
        self._graph, self._first, self._width = graph, first, width
        self._strong = BLOCK_KIND[kind] == "strong"
        self._shifts = shifts = [(m - 1 - i) * width for i in range(m)]
        ones = sum(1 << s for s in shifts)
        self._guards = guards = ones << width - 1
        groups: dict[int, list] = {}
        for c in first:
            groups.setdefault(((c | guards) - ones) & guards, []).append(c)
        self._group_maxima = maxima = {t: _maxima(group, guards) for t, group in groups.items()}
        members = {
            t: tuple(i for i, s in enumerate(shifts) if t >> s + width - 1 & 1) for t in groups if t
        }
        # per touched set: players, ones, field mask, maxima, witnesses
        self._scan = [
            (members[t], t >> width - 1, (t >> width - 1) * ((1 << width) - 1), maxima[t], {})
            for t in sorted(members, key=lambda t: (len(members[t]), members[t]))
        ]

    @cached_property
    def _maximal(self) -> list[int]:
        """The Pareto-maximal codes, ascending, from every group's maxima,
        the empty touched set's included, which the scan leaves out: its
        code 0 is an edgeless instance's only vector.  Only :attr:`best`
        and the strong core's :attr:`in_core` read them, so a
        :meth:`blocking` call does not pay for them."""
        return _maxima([w for ws in self._group_maxima.values() for w in ws], self._guards)

    @cached_property
    def in_core(self) -> tuple[tuple[int, ...], ...]:
        """Every unblocked vector, ascending; built on first read."""
        tried = sorted(self._first) if self._strong else self._maximal  # fact 2
        return tuple(self._vector(u) for u in tried if self._first_block(u) is None)

    @cached_property
    def best(self) -> Optional[tuple[int, ...]]:
        """The largest unblocked vector, or None when the core is empty."""
        u = next((u for u in reversed(self._maximal) if self._first_block(u) is None), None)
        return None if u is None else self._vector(u)

    @property
    def empty(self) -> bool:
        return self.best is None

    def _vector(self, code: int) -> tuple[int, ...]:
        low = (1 << self._width) - 1
        return tuple([code >> s & low for s in self._shifts])

    def _code(self, vec) -> int:
        """The code of ``vec``; a ``KeyError`` if no matching achieves it."""
        code = sum(x << s for x, s in zip(vec, self._shifts))
        if code not in self._first or self._vector(code) != tuple(vec):
            raise KeyError(vec)
        return code

    def _first_block(self, u: int) -> Optional[tuple[int, int]]:
        """``(k, w)``: the index in the scan of the first coalition blocking
        ``u`` and its witness code (fact 3), or None."""
        guards, strong = self._guards, self._strong
        for k, (_, ones, mask, maxima, memo) in enumerate(self._scan):
            p = (u & mask) + ones if strong else u & mask
            w = memo.get(p)
            if w is None:  # 0 when no maximum blocks: a witness lifts a field
                w = memo[p] = next(
                    (x for x in maxima if ((x | guards) - p) & guards == guards and (strong or x != p)),
                    0,
                )
            if w:
                return k, w
        return None

    def _block(self, k: int, w: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The ``k``-th coalition and the witness vector of code ``w``."""
        return self._scan[k][0], self._vector(w)

    def blocking(self, vec: tuple[int, ...]) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        """``(first coalition that blocks vec, its witness vector)``, None
        in the core; a ``KeyError`` if no matching achieves ``vec``."""
        hit = self._first_block(self._code(vec))
        return None if hit is None else self._block(*hit)

    @cached_property
    def blocked(self) -> dict:
        """Utility vector -> :meth:`blocking`, for every blocked vector,
        by coalition in (size, lex) order, then in enumeration order."""
        hits = [(hit, u) for u in self._first if (hit := self._first_block(u)) is not None]
        hits.sort(key=lambda h: h[0][0])  # stable: enumeration order within a coalition
        return {self._vector(u): self._block(*hit) for hit, u in hits}

    def realize(self, vec: tuple[int, ...]) -> Matching:
        """The first matching in :func:`all_matchings` order whose utility
        vector is ``vec``; a ``KeyError`` if no matching achieves it."""
        return _matching_of(self._graph, _chosen(self._first[self._code(vec)]))


def oracle_core(inst, kind: str, cap: int = DEFAULT_BUDGET) -> OracleCoreResult:
    """Every achievable utility vector, in the core or blocked, by full
    enumeration.

    A matching is in the weak core when no coalition strongly blocks it and
    in the strong core when no coalition weakly blocks it; membership only
    depends on the utility vector.  ``cap`` bounds the number of matchings
    in the one pass over the whole graph's matchings.
    """
    if kind not in BLOCK_KIND:
        raise InputError("kind must be 'weak' or 'strong'")
    if cap < 1:
        raise InputError(f"budget must be at least 1, got {cap}")
    if len(inst.players) > ENUMERATION_PLAYER_GUARD:
        raise ResourceLimitError(f"oracle_core guard: more than {ENUMERATION_PLAYER_GUARD} players")
    width, first = _first_by_code(inst, cap)
    return OracleCoreResult(kind, inst.graph, len(inst.players), width, first)
