"""The canonical writers and the trusted parse paths against the stdlib
encoder and the public constructors they stand in for."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntumatch import Graph, Instance, Matching, gen_random
from ntumatch.games import BlockCertificate
from ntumatch.serialize import (
    _canonical_instance,
    certificate_to_json,
    instance_from_json,
    instance_to_json,
    matching_to_json,
)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _edges(m) -> list:
    return [list(e) for e in m.edges]


@st.composite
def matchings(draw, max_vertices=30):
    order = draw(st.permutations(range(max_vertices)))
    k = draw(st.integers(0, max_vertices // 2))
    pairs = [(order[2 * i], order[2 * i + 1]) for i in range(k)]
    return Matching(pairs)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 14))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    players = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    return Instance(Graph(n, [(u, v) for u, v in edges if u != v]), tuple(players))


class TestWriters:
    @settings(max_examples=150, deadline=None)
    @given(matchings())
    def test_matching(self, m):
        assert matching_to_json(m) == _dumps({"edges": _edges(m)})

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["weak", "strong"]),
        st.lists(st.integers(0, 40), min_size=1, unique=True),
        matchings(),
    )
    def test_blocked_certificate(self, kind, coalition, witness):
        cert = BlockCertificate(tuple(coalition), witness, "strong")
        expected = {
            "verdict": "blocked",
            "kind": kind,
            "coalition": sorted(coalition),
            "witness": _edges(witness),
        }
        assert certificate_to_json(kind, cert) == _dumps(expected)

    @pytest.mark.parametrize("kind", ["weak", "strong"])
    def test_in_core_certificate(self, kind):
        expected = {"verdict": "in_core", "kind": kind, "coalition": [], "witness": []}
        assert certificate_to_json(kind, None) == _dumps(expected)

    @settings(max_examples=150, deadline=None)
    @given(instances())
    def test_instance(self, inst):
        expected = {
            "n": inst.graph.n,
            "edges": [list(e) for e in inst.graph.edges],
            "players": sorted(sorted(p) for p in inst.players),
        }
        assert instance_to_json(inst) == _dumps(expected)

    def test_empty_arrays(self):
        assert matching_to_json(Matching()) == '{\n  "edges": []\n}\n'
        inst = Instance(Graph(1), (frozenset({0}),))
        assert instance_to_json(inst) == _dumps({"n": 1, "edges": [], "players": [[0]]})


def _checked(n, edges, players) -> Instance:
    return Instance(Graph(n, edges), tuple(frozenset(p) for p in players))


def _same_instance(a: Instance, b: Instance) -> None:
    assert a == b
    assert a.graph.n == b.graph.n
    assert a.graph.edges == b.graph.edges
    assert a.graph.edge_set == b.graph.edge_set
    assert a.graph.adj == b.graph.adj
    assert hash(a.graph) == hash(b.graph) and hash(a) == hash(b)
    assert a.players == b.players
    assert a.player_of == b.player_of


class TestParse:
    def variants(self, seed):
        """A canonical instance and its unsorted, reversed-pair and
        duplicate-edge spellings, as ``(name, n, edges, players)``."""
        inst = gen_random(24, 3, 0.2, seed)
        obj = json.loads(instance_to_json(inst))
        n, edges, players = obj["n"], obj["edges"], obj["players"]
        rng = random.Random(seed)
        shuffled = edges[:]
        rng.shuffle(shuffled)
        return [
            ("canonical", n, edges, players),
            ("unsorted", n, shuffled, players),
            ("reversed", n, [[v, u] for u, v in edges], [p[::-1] for p in players]),
            ("duplicate", n, edges + edges[:3], players),
        ]

    @pytest.mark.parametrize("seed", range(8))
    def test_trusted_path_equals_public_constructors(self, seed):
        for name, n, edges, players in self.variants(seed):
            text = json.dumps({"n": n, "edges": edges, "players": players})
            trusted = _canonical_instance(n, edges, players)
            assert (trusted is not None) == (name == "canonical"), name
            parsed = instance_from_json(text)
            _same_instance(parsed, _checked(n, edges, players))
            if trusted is not None:
                _same_instance(trusted, parsed)
            assert instance_to_json(parsed) == instance_to_json(gen_random(24, 3, 0.2, seed))

    def test_edgeless_and_single_player(self):
        text = '{"n": 1, "edges": [], "players": [[0]]}'
        _same_instance(instance_from_json(text), _checked(1, [], [[0]]))
        text = '{"n": 3, "edges": [[0, 2]], "players": [[2, 0, 1]]}'
        _same_instance(instance_from_json(text), _checked(3, [(0, 2)], [[0, 1, 2]]))
