"""Core computations driven by achievable utility vectors.

Membership depends only on how many vertices each player has covered, so
for few players the whole game collapses onto the component-wise maximal
achievable utility vectors: a core is non-empty exactly when some maximal
vector is unblocked.

The frontier walks the utility lattice one player at a time, bounding each
coordinate from above and below by the union coverage ranks (the projection
of a base polyhedron), all read off one Gallai–Edmonds decomposition, so no
branch is a dead end; the verdicts for the maximal vectors share one block
search, with its coalition levels, matching numbers and blocking answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import InputError, InvariantError, ResourceLimitError
from .games import (
    DEFAULT_BUDGET,
    ENUMERATION_PLAYER_GUARD,
    Instance,
    MembershipResult,
    _BlockSearch,
    utility,
)
from .graphs import Matching, _max_match
from .matroids import PartitionQuota, _union_ranks, matching_with_lower_bounds


@dataclass(frozen=True)
class AchievableFrontier:
    """Component-wise maximal achievable utility vectors, sorted."""

    maximal_vectors: tuple[tuple[int, ...], ...]


def achievable(inst: Instance, x: tuple[int, ...]) -> Optional[Matching]:
    """A matching covering at least ``x_i`` vertices of every player, or
    None; delegates to the coverage-quota solver, whose
    :class:`~ntumatch.matroids.PartitionQuota` rejects a vector of the wrong
    length or with a coordinate out of range."""
    return matching_with_lower_bounds(
        inst.graph, PartitionQuota(inst.players, tuple(x))
    )


def frontier(inst: Instance, budget: int = DEFAULT_BUDGET) -> AchievableFrontier:
    """All component-wise maximal achievable utility vectors, sorted.

    They are the bases of the polymatroid ``f(S) = rank of V_S``, each
    summing to ``f(N) = 2ν``; a prefix ``y`` extends to one iff
    ``2ν - f(N \\ W) <= y(W) <= f(W)`` for every ``W`` in the prefix (Frank
    & Tardos, Math. Programming 42, 1988).  Coordinate i checks the ``W``
    whose highest player is i against ``load[mask]``, the prefix's sum over
    ``mask``, which one slice per child extends.  Exact bounds leave no dead
    end, force the last coordinate to ``2ν`` minus the prefix sum, and let
    ascending coordinates emit the vectors in order.  The 2^m ranks come
    from :func:`~ntumatch.matroids._union_ranks`, which reads them off one
    Gallai–Edmonds decomposition of the graph instead of searching per
    union.  Every prefix the walk visits counts against ``budget``; the
    player guard bounds the rank table.
    """
    if budget < 1:
        raise InputError(f"budget must be at least 1, got {budget}")
    m = inst.num_players
    if m > ENUMERATION_PLAYER_GUARD:
        raise ResourceLimitError(f"{m} players exceeds the guard ({ENUMERATION_PLAYER_GUARD})")
    if m == 0:
        return AchievableFrontier(((),))
    total = sum(w != -1 for w in _max_match(inst.graph))
    ranks = _union_ranks(inst.graph, inst.players)
    full = (1 << m) - 1
    load = [0] * (1 << m)
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []
    visited = 0

    def rec(acc: int):
        nonlocal visited
        visited += 1
        if visited > budget:
            raise ResourceLimitError(f"frontier walk visited more than {budget} lattice nodes")
        i = len(prefix)
        if i == m - 1:
            out.append((*prefix, total - acc))
            return
        lo, hi = 1 << i, 2 << i
        below = load[:lo]
        # W = lo + k for k < lo; its complement N \ W is (full ^ lo) - k
        rest = (full ^ lo) - lo + 1
        cap = min(map(int.__sub__, ranks[lo:hi], below))
        floor = total - min(map(int.__add__, ranks[rest:rest + lo], reversed(below)))
        for xi in range(max(0, floor), cap + 1):
            load[lo:hi] = [v + xi for v in below]
            prefix.append(xi)
            rec(acc + xi)
            prefix.pop()

    rec(0)
    return AchievableFrontier(tuple(out))


@dataclass(frozen=True)
class CoreOutcome:
    vector: tuple[int, ...]
    membership: MembershipResult


def core_outcomes(
    inst: Instance, kind: str, budget: int = DEFAULT_BUDGET
) -> Iterator[CoreOutcome]:
    """Blocked/unblocked verdicts for every maximal utility vector.

    Membership reads only the vector, so none is realized here; a caller
    that wants a matching asks :func:`achievable` for it.  Vectors come in
    lexicographically decreasing order.  ``kind`` and the player guard are
    checked, and the frontier computed, before this returns; the verdicts
    come lazily.  The frontier walk and the block search each have
    ``budget`` units of work: one per lattice node, one per coalition.
    """
    search = _BlockSearch(inst, kind, budget)
    fr = frontier(inst, budget)
    return (CoreOutcome(x, search(x)) for x in reversed(fr.maximal_vectors))


def core_empty(
    inst: Instance, kind: str, budget: int = DEFAULT_BUDGET
) -> Optional[Matching]:
    """A matching in the requested core, or None when that core is empty.

    It suffices to test each maximal achievable vector: membership depends
    only on the utility vector, and every unblocked matching is dominated by
    some maximal vector that is then unblocked too.  Only the first
    unblocked vector is realized; any realization of a maximal vector is a
    maximum matching with exactly that vector.
    """
    for outcome in core_outcomes(inst, kind, budget):
        if outcome.membership.in_core:
            witness = achievable(inst, outcome.vector)
            if witness is None:
                raise InvariantError("frontier vector is not achievable")
            if utility(inst, witness) != outcome.vector:
                raise InvariantError("maximal vector realized inexactly")
            return witness
    return None
