"""Canonical JSON formats for instances, matchings, and certificates, and
the parsers of the reductions' exact-cover and clause inputs.

All arrays are sorted ascending and every edge is written smaller-endpoint
first, so serializing the same value always produces identical bytes
(UTF-8, LF line endings).  The writers lay out ``json.dumps(obj,
indent=2)`` directly.

A canonical instance, as the writer produces it, is checked in one pass
per array that also builds what the trusted constructors take
(``Graph._trusted``, ``Instance._trusted``).  Any other input goes
through the public constructors, which check everything again and give
every error message.
"""

from __future__ import annotations

import json
from typing import Optional

from .errors import InputError
from .games import BlockCertificate, Instance
from .generators import X3CInstance
from .graphs import Graph, Matching


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# The writers below lay out ``json.dumps(obj, indent=2) + "\n"`` directly
# (the stdlib's indenting encoder is pure Python) for the one shape the
# canonical formats use: an object whose values are integers, strings,
# arrays of integers and arrays of integer arrays.
_PAIR = "    [\n      %d,\n      %d\n    ]"


def _ints(xs) -> str:
    """An array of integers as a value of the top-level object."""
    return "[\n    " + ",\n    ".join(map(str, xs)) + "\n  ]" if xs else "[]"


def _pairs(edges) -> str:
    """An array of integer pairs (tuples) as a value of the top-level
    object."""
    return "[\n" + ",\n".join(map(_PAIR.__mod__, edges)) + "\n  ]" if edges else "[]"


def _rows(rows) -> str:
    """An array of non-empty integer arrays as a value of the top-level
    object."""
    if not rows:
        return "[]"
    inner = ("    [\n      " + ",\n      ".join(map(str, r)) + "\n    ]" for r in rows)
    return "[\n" + ",\n".join(inner) + "\n  ]"


def _object(**values: str) -> str:
    """The top-level object of already-written values, with the final
    newline."""
    return "{\n" + ",\n".join(f'  "{k}": {v}' for k, v in values.items()) + "\n}\n"


def _is_int(x) -> bool:
    """A JSON integer; ``true``/``false`` parse to bools, which are ints in
    Python but never valid ids or counts."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON for {what}: {exc}") from exc


def _int_rows(raw) -> bool:
    """Whether ``raw`` is an array of arrays of JSON integers."""
    return isinstance(raw, list) and all(
        isinstance(row, list) and all(_is_int(x) for x in row) for row in raw
    )


def _load(text: str, what: str) -> dict:
    obj = _parse(text, what)
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object")
    return obj


def _parse_edges(raw, key: str, item: str) -> list[list[int]]:
    """The edge array under ``key``, as given; ``None`` (a missing key) is a
    format error, never an edgeless graph or an empty matching.  ``type(x)
    is int`` rejects ``true``/``false`` as :func:`_is_int` does."""
    if not isinstance(raw, list):
        raise InputError(f"{key} must be an array")
    for e in raw:
        if type(e) is not list or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int:
            raise InputError(f"{item} {e!r} must be a pair of integers")
    return raw


def instance_to_json(inst: Instance) -> str:
    return _object(
        n=str(inst.graph.n),
        edges=_pairs(inst.graph.edges),
        players=_rows(sorted(sorted(p) for p in inst.players)),
    )


def _canonical_instance(n, raw_edges, raw_players) -> Optional[Instance]:
    """The instance, through the trusted constructors, when the input is
    valid and canonical: players of JSON integers that partition
    ``0..n-1``, and edges strictly ascending, each smaller endpoint first.
    None for any other input, which the checked path then reads and, if it
    is invalid, rejects with its messages.

    One pass over the players checks them and builds the vertex-to-player
    table; one pass over the edges checks them and builds the adjacency
    rows, which come out sorted because the edges are.  Nothing of size
    ``n`` is made before ``n`` is known to be the players' vertex count.
    """
    if type(n) is not int or type(raw_edges) is not list:
        return None
    if type(raw_players) is not list or not raw_players:
        return None
    player_of: dict[int, int] = {}
    listed = 0
    for i, p in enumerate(raw_players):
        if type(p) is not list or not p:
            return None
        listed += len(p)
        for v in p:
            if type(v) is not int:
                return None
            player_of[v] = i
    # n listed ids, n distinct ones, all in 0..n-1: a partition
    if listed != n or len(player_of) != n or min(player_of) < 0 or max(player_of) >= n:
        return None
    rows: list[list[int]] = [[] for _ in range(n)]
    last = -1
    try:
        for u, v in raw_edges:
            if type(u) is not int or type(v) is not int or not 0 <= u < v < n:
                return None
            key = u * n + v  # ascending in (u, v)
            if key <= last:
                return None
            last = key
            rows[u].append(v)
            rows[v].append(u)
    except (TypeError, ValueError):  # an edge that is no pair
        return None
    graph = Graph._trusted(n, tuple(map(tuple, raw_edges)), tuple(map(tuple, rows)))
    return Instance._trusted(graph, tuple(map(frozenset, raw_players)), player_of)


def instance_from_json(text: str) -> Instance:
    obj = _load(text, "instance")
    inst = _canonical_instance(obj.get("n"), obj.get("edges"), obj.get("players"))
    if inst is not None:
        return inst
    if not _is_int(obj.get("n")):
        raise InputError("instance.n must be an integer")
    edges = _parse_edges(obj.get("edges"), "instance.edges", "instance edge")
    players_raw = obj.get("players")
    if not isinstance(players_raw, list) or not players_raw:
        raise InputError("instance.players must be a non-empty array")
    players = []
    for i, p in enumerate(players_raw):  # a plain loop: this check runs on every vertex
        if type(p) is list:
            for x in p:
                if type(x) is not int:
                    break
            else:
                players.append(frozenset(p))
                if len(players[-1]) != len(p):
                    raise InputError(f"player {i} lists a vertex twice")
                continue
        raise InputError(f"player {p!r} must be an array of integers")
    # the players partition 0..n-1, so n is their vertex count; checked
    # before Graph allocates n adjacency lists
    listed = len(frozenset().union(*players))
    if obj["n"] != listed:
        raise InputError(
            f"instance.n is {obj['n']}, but the players list {listed} vertices"
        )
    return Instance(Graph(obj["n"], edges), tuple(players))


def matching_to_json(m: Matching) -> str:
    return _object(edges=_pairs(m.edges))


def matching_from_json(text: str) -> Matching:
    obj = _load(text, "matching")
    return Matching(_parse_edges(obj.get("edges"), "matching.edges", "matching edge"))


def certificate_to_json(
    core_kind: str, cert: Optional[BlockCertificate]
) -> str:
    """Verification outcome; ``kind`` names the core that was tested."""
    if cert is None:
        verdict, coalition, witness = "in_core", (), ()
    else:
        verdict, coalition, witness = "blocked", sorted(cert.coalition), cert.witness.edges
    return _object(
        verdict=json.dumps(verdict),
        kind=json.dumps(core_kind),
        coalition=_ints(coalition),
        witness=_pairs(witness),
    )


def certificate_from_json(text: str) -> dict:
    obj = _load(text, "certificate")
    if obj.get("verdict") not in ("in_core", "blocked"):
        raise InputError("certificate.verdict must be 'in_core' or 'blocked'")
    if obj.get("kind") not in ("weak", "strong"):
        raise InputError("certificate.kind must be 'weak' or 'strong'")
    # the writer always emits both keys: a missing coalition is no empty one
    coalition = obj.get("coalition")
    if not isinstance(coalition, list) or not all(_is_int(x) for x in coalition):
        raise InputError("certificate.coalition must be an array of integers")
    witness = Matching(
        _parse_edges(obj.get("witness"), "certificate.witness", "certificate.witness edge")
    )
    if obj["verdict"] == "in_core" and (coalition or witness.edges):
        raise InputError("an in_core certificate must have an empty coalition and witness")
    if obj["verdict"] == "blocked" and not coalition:
        raise InputError("a blocked certificate must name a non-empty coalition")
    return {
        "verdict": obj["verdict"],
        "kind": obj["kind"],
        "coalition": tuple(coalition),
        "witness": witness,
    }


def x3c_from_json(text: str) -> X3CInstance:
    """An exact-cover input, ``{"elements": k, "sets": [[a, b, c], ...]}``."""
    obj = _load(text, "exact-cover input")
    if not _is_int(obj.get("elements")):
        raise InputError("exact-cover input.elements must be an integer")
    if not _int_rows(obj.get("sets")):
        raise InputError("exact-cover input.sets must be an array of integer arrays")
    return X3CInstance(elements=obj["elements"], sets=tuple(map(tuple, obj["sets"])))


def clauses_from_json(text: str) -> list[tuple[int, ...]]:
    """A clause input, ``[[literal, ...], ...]`` with non-zero integer
    literals (negative for a negated variable)."""
    obj = _parse(text, "clause input")
    if not _int_rows(obj):
        raise InputError("clause input must be an array of integer arrays")
    return [tuple(cl) for cl in obj]


def name_map_to_json(names: dict) -> str:
    return _dump({k: names[k] for k in sorted(names)})
