"""Partitioned matching games with non-transferable utilities.

An instance is a graph plus a partition of its vertices into players; a
player's utility under a matching is how many of its vertices are covered.
This module holds the definitional machinery: utilities, blocking-coalition
search through coverage quotas, and core membership by coalition
enumeration over the coalitions that are connected in the player contact
graph.  The enumeration grows those coalitions level by level once per
search and sends a coalition to the quota solver only when its quotas fit
both the members' sizes and the matching number of its induced subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from .errors import InputError, InvariantError, ResourceLimitError
from .graphs import Graph, Matching, _matching_number
from .matroids import _quota_matching

# coalition enumeration is exponential in the player count
ENUMERATION_PLAYER_GUARD = 20
# default work cap: units of work a phase may spend before it gives up
DEFAULT_BUDGET = 10_000_000
# the kind of block each core forbids: the weak core forbids strong
# blocks, the strong core weak ones
BLOCK_KIND = {"weak": "strong", "strong": "weak"}


@dataclass(frozen=True)
class Instance:
    """A graph together with a partition of its vertices into players."""

    graph: Graph
    players: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "players", tuple(frozenset(p) for p in self.players)
        )
        seen: set[int] = set()
        for i, p in enumerate(self.players):
            if not p:
                raise InputError(f"player {i} is empty")
            if seen & p:
                raise InputError(f"player {i} overlaps another player")
            seen |= p
        if seen != set(range(self.graph.n)):
            raise InputError("players must partition the vertex set")

    @classmethod
    def _trusted(cls, graph: Graph, players: tuple, player_of=None) -> "Instance":
        """The instance the public constructor would build from checked
        parts: ``players`` a tuple of non-empty frozensets that partition
        ``0..graph.n-1``, and ``player_of``, when given, the table
        :attr:`player_of` would build.  Nothing is checked."""
        inst = cls.__new__(cls)
        object.__setattr__(inst, "graph", graph)
        object.__setattr__(inst, "players", players)
        if player_of is not None:
            inst.__dict__["player_of"] = player_of
        return inst

    @cached_property
    def player_of(self) -> dict[int, int]:
        d: dict[int, int] = {}
        for i, p in enumerate(self.players):
            for v in p:
                d[v] = i
        return d

    @property
    def num_players(self) -> int:
        return len(self.players)


@dataclass(frozen=True)
class BlockCertificate:
    """A coalition with a witness matching that blocks a challenged matching.

    ``kind`` names the blocking discipline: a ``strong`` block makes every
    coalition member strictly better off, a ``weak`` block makes everyone
    at least as well off and someone strictly better.
    """

    coalition: tuple[int, ...]
    witness: Matching
    kind: str

    def validate(self, inst: Instance, challenged: tuple[int, ...]) -> None:
        if self.kind not in ("strong", "weak"):
            raise InvariantError(f"unknown block kind {self.kind!r}")
        members = set(self.coalition)
        if not members or len(members) != len(self.coalition):
            raise InvariantError("coalition must be a non-empty set of players")
        allowed: set[int] = set()
        for i in self.coalition:
            if not (0 <= i < inst.num_players):
                raise InvariantError(f"player {i} out of range")
            allowed |= inst.players[i]
        self.witness.validate_for(inst.graph)
        if not self.witness.covered <= allowed:
            raise InvariantError("witness leaves the coalition's vertex set")
        improved = False
        for i in self.coalition:
            gain = len(inst.players[i] & self.witness.covered)
            if self.kind == "strong":
                if gain <= challenged[i]:
                    raise InvariantError(
                        f"player {i} does not strictly improve in a strong block"
                    )
                improved = True
            else:
                if gain < challenged[i]:
                    raise InvariantError(f"player {i} is worse off in a weak block")
                if gain > challenged[i]:
                    improved = True
        if not improved:
            raise InvariantError("no player strictly improves")


@dataclass(frozen=True)
class MembershipResult:
    in_core: bool
    certificate: Optional[BlockCertificate]


def utility(inst: Instance, m: Matching) -> tuple[int, ...]:
    """Per-player count of matched vertices; the sole determinant of core
    membership."""
    m.validate_for(inst.graph)
    return tuple(len(p & m.covered) for p in inst.players)


def find_block_for_coalition(
    inst: Instance,
    u: tuple[int, ...],
    coalition: tuple[int, ...],
    kind: str,
) -> Optional[Matching]:
    """A matching inside the coalition's induced subgraph that blocks
    utility vector ``u``, or None.

    A strong block needs every member above its current utility, realised
    as coverage quotas ``u_i + 1``.  A weak block is sought pivot by pivot:
    one member must improve strictly while the others keep their level.
    Each try whose quotas fit the members' sizes is one
    :func:`~ntumatch.matroids._quota_matching` call on the members' vertices.
    """
    if kind not in ("strong", "weak"):
        raise InputError("kind must be 'strong' or 'weak'")
    if len(u) != inst.num_players or not all(
        0 <= ui <= len(p) for ui, p in zip(u, inst.players)
    ):
        raise InputError("u must give every player a utility between 0 and its size")
    coalition = tuple(sorted(set(coalition)))
    if not coalition:
        raise InputError("coalition must be non-empty")
    for i in coalition:
        if not (0 <= i < inst.num_players):
            raise InputError(f"player {i} out of range")
    sizes = [len(inst.players[i]) for i in coalition]
    if kind == "strong":
        tries = [tuple(u[i] + 1 for i in coalition)]
    else:
        tries = [
            tuple(u[i] + 1 if i == pivot else u[i] for i in coalition)
            for pivot in coalition
        ]
    tries = [q for q in tries if all(qi <= s for qi, s in zip(q, sizes))]
    groups = tuple(inst.players[i] for i in coalition)
    within = frozenset().union(*groups)
    for quotas in tries:
        found = _quota_matching(inst.graph, within, groups, quotas)
        if found is not None:
            return found
    return None


class _BlockSearch:
    """Smallest-first search for a coalition blocking a utility vector.

    Coalitions come by size then lexicographically, and only those that are
    connected in the player contact graph (players adjacent when the graph
    joins them) are tried: a block by a disconnected coalition splits into
    blocks by its parts, one of which blocks on its own and comes earlier.
    A connected (s+1)-set is a connected s-set plus a contact neighbour, so
    each level is grown once, from the one before, when a search first
    reaches it.  A matching of ``G[V_S]`` covers at most ``2ν(G[V_S])``
    vertices (the ``T = S`` term of the partition-matroid duality),
    so tries whose quotas sum to more never reach
    ``find_block_for_coalition``; every weak try sums to ``Σu_S + 1``.  ν is
    kept per coalition, each verdict per (coalition, projection of ``u``).
    Every coalition a search visits counts against ``budget``, over all the
    searches of one instance.
    """

    def __init__(self, inst: Instance, kind: str, budget: int = DEFAULT_BUDGET):
        if kind not in BLOCK_KIND:
            raise InputError("kind must be 'weak' or 'strong'")
        if budget < 1:
            raise InputError(f"budget must be at least 1, got {budget}")
        if inst.num_players > ENUMERATION_PLAYER_GUARD:
            # the couples solver takes no class of three or more vertices
            hint = "; use the couples solver" if all(len(p) <= 2 for p in inst.players) else ""
            raise ResourceLimitError(
                f"{inst.num_players} players exceeds the enumeration guard "
                f"({ENUMERATION_PLAYER_GUARD}){hint}"
            )
        self.inst = inst
        self.budget, self.visited = budget, 0
        self.block_kind = BLOCK_KIND[kind]
        owner = inst.player_of
        self.contacts = [1 << i for i in range(inst.num_players)]
        for a, b in inst.graph.edges:
            self.contacts[owner[a]] |= 1 << owner[b]
            self.contacts[owner[b]] |= 1 << owner[a]
        # levels[s]: (coalition, mask, contact mask) of the connected
        # (s+1)-sets in order; an empty level ends the list
        self.levels = [[((i,), 1 << i, c) for i, c in enumerate(self.contacts)]]
        self.nus: dict[int, int] = {}
        self.verdicts: dict[tuple, Optional[Matching]] = {}

    def coalitions(self) -> Iterator[tuple[tuple[int, ...], int, int]]:
        """The entries of ``levels``, grown as the iteration reaches them."""
        levels, contacts = self.levels, self.contacts
        depth = 0
        while levels[depth]:
            yield from levels[depth]
            depth += 1
            if depth == len(levels):
                children: dict[int, tuple] = {}
                for coalition, mask, reach in levels[-1]:
                    fresh = reach & ~mask
                    while fresh:
                        low = fresh & -fresh
                        fresh ^= low
                        if mask | low not in children:
                            j = low.bit_length() - 1
                            children[mask | low] = (
                                tuple(sorted((*coalition, j))), mask | low, reach | contacts[j]
                            )
                levels.append(sorted(children.values()))

    def _nu(self, coalition: tuple[int, ...], mask: int) -> int:
        if mask not in self.nus:
            players = map(self.inst.players.__getitem__, coalition)
            self.nus[mask] = _matching_number(self.inst.graph, frozenset().union(*players))
        return self.nus[mask]

    def __call__(self, u: tuple[int, ...]) -> MembershipResult:
        inst = self.inst
        strong = self.block_kind == "strong"
        full = sum(1 << i for i, p in enumerate(inst.players) if u[i] >= len(p))
        for coalition, mask, _ in self.coalitions():
            self.visited += 1
            if self.visited > self.budget:
                raise ResourceLimitError(f"block search visited more than {self.budget} coalitions")
            # a strong try lifts every member, a weak one some member,
            # and none lifts a player at its size
            if mask & full and (strong or mask & full == mask):
                continue
            need = sum(map(u.__getitem__, coalition)) + (len(coalition) if strong else 1)
            if need > 2 * self._nu(coalition, mask):
                continue
            key = (coalition, tuple(map(u.__getitem__, coalition)))
            if key not in self.verdicts:
                self.verdicts[key] = find_block_for_coalition(inst, u, coalition, self.block_kind)
            witness = self.verdicts[key]
            if witness is not None:
                cert = BlockCertificate(coalition, witness, self.block_kind)
                cert.validate(inst, u)
                return MembershipResult(False, cert)
        return MembershipResult(True, None)


def core_membership_by_enumeration(
    inst: Instance, m: Matching, kind: str, budget: int = DEFAULT_BUDGET
) -> MembershipResult:
    """Definitional core test: try every coalition, smallest first.

    ``kind`` selects the core: the weak core forbids strongly blocking
    coalitions, the strong core forbids weakly blocking ones.  Coalitions
    are enumerated by size then lexicographically, so the returned
    certificate is deterministic; coalitions that are disconnected in the
    player contact graph are skipped, which leaves the first blocking
    coalition unchanged.  More than ``budget`` coalitions raise a resource
    error.
    """
    search = _BlockSearch(inst, kind, budget)
    return search(utility(inst, m))
