"""Deterministic instance generators: the three-player empty-core example,
the special-edge gadget, the exact-cover reductions, the satisfiability
reduction, and a seeded random generator.

Every generator emits dense vertex ids with a fixed, documented block
layout (element block, connector block, per-set blocks) and a name-to-id
map so tests can address gadget vertices symbolically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .errors import InputError, InvariantError
from .games import Instance
from .graphs import Graph, Matching, bipartition


@dataclass
class _Builder:
    n: int = 0
    edges: set = field(default_factory=set)
    players: list = field(default_factory=list)
    names: dict = field(default_factory=dict)

    def vertex(self, name: str) -> int:
        if name in self.names:
            raise InvariantError(f"duplicate vertex name {name!r}")
        v = self.n
        self.n += 1
        self.names[name] = v
        return v

    def vertices(self, *names: str) -> list[int]:
        return [self.vertex(nm) for nm in names]

    def edge(self, u: int, v: int) -> None:
        self.edges.add((u, v) if u < v else (v, u))

    def clique(self, verts) -> None:
        vs = sorted(verts)
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                self.edge(u, v)

    def player(self, verts) -> int:
        self.players.append(frozenset(verts))
        return len(self.players) - 1

    def build(self) -> Instance:
        return Instance(Graph(self.n, self.edges), tuple(self.players))


@dataclass(frozen=True)
class GeneratedInstance:
    instance: Instance
    name_map: dict
    matching: Optional[Matching] = None


def _add_three_player_block(b: _Builder, prefix: str) -> dict[str, int]:
    """Three players of seven vertices whose five cliques leave every
    maximum matching strongly blocked; the weak core of the block alone is
    empty."""
    ids: dict[str, int] = {}
    for side in ("a", "b", "c"):
        for i in range(1, 8):
            ids[f"{side}{i}"] = b.vertex(f"{prefix}{side}{i}")
    b.clique([ids["a1"], ids["c2"], ids["c3"], ids["b4"], ids["b5"]])
    b.clique([ids["b1"], ids["a2"], ids["a3"], ids["c4"], ids["c5"]])
    b.clique([ids["c1"], ids["b2"], ids["b3"], ids["a4"], ids["a5"]])
    b.clique([ids["a6"], ids["b6"], ids["c6"]])
    b.clique([ids["a7"], ids["b7"], ids["c7"]])
    for side in ("a", "b", "c"):
        b.player([ids[f"{side}{i}"] for i in range(1, 8)])
    return ids


def gen_example1() -> GeneratedInstance:
    """The 21-vertex, three-player instance with an empty weak core,
    together with one canonical maximum matching of size 8."""
    b = _Builder()
    ids = _add_three_player_block(b, "")
    inst = b.build()
    matching = Matching(
        [
            (ids["a1"], ids["c2"]),
            (ids["c3"], ids["b4"]),
            (ids["b1"], ids["a2"]),
            (ids["a3"], ids["c4"]),
            (ids["c1"], ids["b2"]),
            (ids["b3"], ids["a4"]),
            (ids["a6"], ids["b6"]),
            (ids["a7"], ids["b7"]),
        ]
    )
    matching.validate_for(inst.graph)
    return GeneratedInstance(inst, dict(b.names), matching)


def attach_special_edge(inst: Instance, u: int, v: int) -> GeneratedInstance:
    """Append one special-edge gadget between existing vertices.

    The gadget is a fresh empty-weak-core block plus a four-vertex player
    and a two-vertex player wired so that a weak-core matching must use the
    gadget's internal edges and can never route through ``u`` or ``v``.
    """
    if not (0 <= u < inst.graph.n and 0 <= v < inst.graph.n):
        raise InputError("special-edge endpoints must be existing vertices")
    b = _Builder(inst.graph.n, set(inst.graph.edges), list(inst.players))
    _special_edge(b, u, v)
    return GeneratedInstance(b.build(), dict(b.names))


def _special_edge(b: _Builder, u: int, v: int) -> None:
    """Appends the gadget of :func:`attach_special_edge` to ``b``."""
    tag = f"se{b.n}."
    ids = _add_three_player_block(b, tag)
    s1, s2, s3, s4 = b.vertices(f"{tag}s1", f"{tag}s2", f"{tag}s3", f"{tag}s4")
    t1, t2 = b.vertices(f"{tag}t1", f"{tag}t2")
    b.player([s1, s2, s3, s4])
    b.player([t1, t2])
    b.edge(s2, ids["a1"])
    b.edge(s1, t1)
    b.edge(s4, t2)
    b.edge(u, s1)
    b.edge(s4, v)
    b.edge(s2, s3)


@dataclass(frozen=True)
class X3CInstance:
    """Exact cover by 3-sets: elements ``1..elements`` and sorted triples."""

    elements: int
    sets: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.elements <= 0 or self.elements % 3 != 0:
            raise InputError("element count must be a positive multiple of 3")
        for s in self.sets:
            if len(s) != 3 or sorted(s) != list(s) or len(set(s)) != 3:
                raise InputError(f"triple {s} must be three sorted distinct elements")
            if not all(1 <= x <= self.elements for x in s):
                raise InputError(f"triple {s} out of element range")


def gen_x3c_weak(x3c: X3CInstance) -> GeneratedInstance:
    """Bipartite weak-core membership gadget for an exact-cover instance.

    The challenged matching pairs every set's first two selector vertices
    with their private partners and saturates the element chain; it sits in
    the weak core exactly when the exact cover does not exist.
    """
    n3 = x3c.elements
    b = _Builder()
    a = [b.vertex(f"a{i}") for i in range(1, n3 + 1)]
    blo: dict[tuple[int, int], int] = {}
    bhi: dict[tuple[int, int], int] = {}
    for i in range(1, n3):
        blo[(i, i + 1)] = b.vertex(f"b{i}.{i + 1}^{i}")
        bhi[(i, i + 1)] = b.vertex(f"b{i}.{i + 1}^{i + 1}")
    c: dict[tuple[int, int], int] = {}
    d: dict[tuple[int, int], int] = {}
    for j, _ in enumerate(x3c.sets, start=1):
        for l in (1, 2, 3):
            c[(j, l)] = b.vertex(f"c{j}^{l}")
        for l in (1, 2):
            d[(j, l)] = b.vertex(f"d{j}^{l}")
    matching_edges = []
    for j, triple in enumerate(x3c.sets, start=1):
        for l in (1, 2):
            b.edge(c[(j, l)], d[(j, l)])
            matching_edges.append((c[(j, l)], d[(j, l)]))
        for l, elem in enumerate(triple, start=1):
            b.edge(c[(j, l)], a[elem - 1])
    for i in range(1, n3):
        b.edge(blo[(i, i + 1)], bhi[(i, i + 1)])
        matching_edges.append((blo[(i, i + 1)], bhi[(i, i + 1)]))
    # players: element chain first, then selector/partner players per set
    b.player([a[0], blo[(1, 2)]])
    for i in range(2, n3):
        b.player([bhi[(i - 1, i)], a[i - 1], blo[(i, i + 1)]])
    b.player([bhi[(n3 - 1, n3)], a[n3 - 1]])
    for j, _ in enumerate(x3c.sets, start=1):
        b.player([c[(j, l)] for l in (1, 2, 3)])
        b.player([d[(j, l)] for l in (1, 2)])
    inst = b.build()
    _check_gadget(inst, max_class=3)
    m = Matching(matching_edges)
    m.validate_for(inst.graph)
    return GeneratedInstance(inst, dict(b.names), m)


def gen_x3c_strong(x3c: X3CInstance) -> GeneratedInstance:
    """Bipartite strong-core membership gadget for an exact-cover instance.

    The challenged matching is the unique strong-core candidate: every edge
    except the selector-to-element ones, exposing exactly the last element
    vertex.
    """
    n3 = x3c.elements
    b = _Builder()
    a = [b.vertex(f"a{i}") for i in range(1, n3 + 1)]
    x = [b.vertex(f"x{i}") for i in range(1, n3)]
    blo: dict[tuple[int, int], int] = {}
    bhi: dict[tuple[int, int], int] = {}
    ylo: dict[tuple[int, int], int] = {}
    yhi: dict[tuple[int, int], int] = {}
    for i in range(1, n3 - 1):
        blo[(i, i + 1)] = b.vertex(f"b{i}.{i + 1}^{i}")
        bhi[(i, i + 1)] = b.vertex(f"b{i}.{i + 1}^{i + 1}")
        ylo[(i, i + 1)] = b.vertex(f"y{i}.{i + 1}^{i}")
        yhi[(i, i + 1)] = b.vertex(f"y{i}.{i + 1}^{i + 1}")
    c: dict[tuple[int, int], int] = {}
    d: dict[tuple[int, int], int] = {}
    for j, _ in enumerate(x3c.sets, start=1):
        for l in (1, 2, 3):
            c[(j, l)] = b.vertex(f"c{j}^{l}")
            d[(j, l)] = b.vertex(f"d{j}^{l}")
    matching_edges = []
    for j, triple in enumerate(x3c.sets, start=1):
        for l in (1, 2, 3):
            b.edge(c[(j, l)], d[(j, l)])
            matching_edges.append((c[(j, l)], d[(j, l)]))
        for l, elem in enumerate(triple, start=1):
            b.edge(c[(j, l)], a[elem - 1])
    for i in range(1, n3):
        b.edge(x[i - 1], a[i - 1])
        matching_edges.append((x[i - 1], a[i - 1]))
    for i in range(1, n3 - 1):
        b.edge(blo[(i, i + 1)], bhi[(i, i + 1)])
        matching_edges.append((blo[(i, i + 1)], bhi[(i, i + 1)]))
        b.edge(ylo[(i, i + 1)], yhi[(i, i + 1)])
        matching_edges.append((ylo[(i, i + 1)], yhi[(i, i + 1)]))
    b.player([a[0], blo[(1, 2)]])
    b.player([x[0], ylo[(1, 2)]])
    for i in range(2, n3 - 1):
        b.player([bhi[(i - 1, i)], a[i - 1], blo[(i, i + 1)]])
        b.player([yhi[(i - 1, i)], x[i - 1], ylo[(i, i + 1)]])
    b.player([bhi[(n3 - 2, n3 - 1)], a[n3 - 2], a[n3 - 1]])
    b.player([yhi[(n3 - 2, n3 - 1)], x[n3 - 2]])
    for j, _ in enumerate(x3c.sets, start=1):
        b.player([c[(j, l)] for l in (1, 2, 3)])
        b.player([d[(j, l)] for l in (1, 2, 3)])
    inst = b.build()
    _check_gadget(inst, max_class=3)
    m = Matching(matching_edges)
    m.validate_for(inst.graph)
    exposed = set(range(inst.graph.n)) - m.covered
    if exposed != {a[n3 - 1]}:
        raise InvariantError("challenged matching must expose exactly the last element")
    return GeneratedInstance(inst, dict(b.names), m)


def _check_gadget(inst: Instance, max_class: int) -> None:
    if bipartition(inst.graph) is None:
        raise InvariantError("reduction gadget must be bipartite")
    if any(len(p) > max_class for p in inst.players):
        raise InvariantError(f"reduction gadget class size exceeds {max_class}")


def gen_3sat_weak_emptiness(cnf) -> GeneratedInstance:
    """Weak-core-emptiness gadget for a 3-literal-per-clause formula.

    Variable gadgets hold one player per polarity plus singleton partner
    players, with a special edge between every opposite-polarity partner
    pair; each clause gets a fresh empty-weak-core block wired to its
    literal occurrences.  The weak core is non-empty exactly when the
    formula is satisfiable.
    """
    clauses = [tuple(cl) for cl in cnf]
    variables: set[int] = set()
    for cl in clauses:
        if len(cl) != 3:
            raise InputError("every clause needs exactly 3 literals")
        for lit in cl:
            if lit == 0:
                raise InputError("literal 0 is invalid")
            variables.add(abs(lit))
    b = _Builder()
    occ_vertex: dict[tuple[int, int], int] = {}  # (clause, slot) -> vertex
    pos_partners: dict[int, list[int]] = {}
    neg_partners: dict[int, list[int]] = {}
    for var in sorted(variables):
        pos = [
            (ci, si)
            for ci, cl in enumerate(clauses)
            for si, lit in enumerate(cl)
            if lit == var
        ]
        neg = [
            (ci, si)
            for ci, cl in enumerate(clauses)
            for si, lit in enumerate(cl)
            if lit == -var
        ]
        for occs, partners, tagpol in ((pos, pos_partners, "+"), (neg, neg_partners, "-")):
            verts = []
            plist = []
            for k, (ci, si) in enumerate(occs):
                x = b.vertex(f"x{var}{tagpol}occ{k}")
                occ_vertex[(ci, si)] = x
                verts.append(x)
                y = b.vertex(f"y{var}{tagpol}{k}")
                b.edge(x, y)
                plist.append(y)
            if verts:
                b.player(verts)
            for y in plist:
                b.player([y])
            partners[var] = plist
    special_count = 0
    for var in sorted(variables):
        for y in pos_partners[var]:
            for ybar in neg_partners[var]:
                _special_edge(b, y, ybar)
                special_count += 1
    for ci, cl in enumerate(clauses):
        ids = _add_three_player_block(b, f"cl{ci}.")
        for si, anchor in enumerate(("a1", "b1", "c1")):
            b.edge(ids[anchor], occ_vertex[(ci, si)])
    inst = b.build()
    names = dict(b.names)
    names["_special_edges"] = special_count
    return GeneratedInstance(inst, names)


def gen_random(n: int, class_cap: int, edge_prob: float, seed: int) -> Instance:
    """Seeded, reproducible random instance.

    Independent edge coin flips; the partition shuffles the vertices and
    cuts them into classes of at most ``class_cap``.  The shuffle is a
    hand-rolled Fisher-Yates over ``random()`` so outputs are stable across
    interpreter versions.
    """
    if n < 1:
        raise InputError("n must be at least 1")
    if class_cap < 1:
        raise InputError("class_cap must be at least 1")
    if not (0.0 <= edge_prob <= 1.0):
        raise InputError("edge_prob must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_prob
    ]
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        order[i], order[j] = order[j], order[i]
    players = [
        frozenset(order[i: i + class_cap]) for i in range(0, n, class_cap)
    ]
    return Instance(Graph(n, edges), tuple(players))
