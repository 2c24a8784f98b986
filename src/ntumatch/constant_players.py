"""Core computations driven by achievable utility vectors.

Membership depends only on how many vertices each player has covered, so
for few players the whole game collapses onto the component-wise maximal
achievable utility vectors: a core is non-empty exactly when some maximal
vector is unblocked.

The frontier walks the utility lattice one player at a time, bounding each
coordinate once by a table of prefix sums over player unions against their
coverage ranks; the verdicts for the maximal vectors share one block search,
with its coalition levels, matching numbers and blocking answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import InvariantError, ResourceLimitError
from .games import (
    Instance,
    MembershipResult,
    _BlockSearch,
    utility,
)
from .graphs import Matching, _max_match
from .matroids import PartitionQuota, _union_ranks, matching_with_lower_bounds

DEFAULT_BUDGET = 10_000_000


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
    """All component-wise maximal achievable utility vectors.

    Enumerates the capped product lattice with down-closed pruning; every
    maximal vector covers exactly twice the maximum matching size, so only
    that shell needs the full feasibility test.  ``load[mask]`` holds the
    prefix's summed coordinates over the players in ``mask``: fixing
    coordinate i bounds it once by every union whose highest player is i,
    and one slice per child extends the table to the masks below ``2^(i+1)``.
    """
    sizes = [len(p) for p in inst.players]
    lattice = 1
    for s in sizes:
        lattice *= s + 1
        if lattice > budget:
            raise ResourceLimitError(
                f"utility lattice of size > {budget} exceeds the budget"
            )
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
        # feasibility is down-closed, so coordinate i is capped by the
        # slack of every union of players whose highest index is i; the
        # floor is what the later players can no longer make up
        cap = min(sizes[i], total - acc, *map(int.__sub__, ranks[lo:hi], below))
        for xi in range(max(0, total - acc - suffix_caps[i + 1]), cap + 1):
            load[lo:hi] = [v + xi for v in below]
            prefix.append(xi)
            rec(acc + xi)
            prefix.pop()

    rec(0)
    out.sort()
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
    lexicographically decreasing order.  ``kind``, the player guard and the
    lattice budget are checked, and the frontier computed, before this
    returns; the verdicts come lazily.
    """
    search = _BlockSearch(inst, kind)
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
