"""The front door: ``ntumatch.verify`` and ``ntumatch.solve`` give the
answers of the engine they route to, called directly, and reject bad
arguments before any engine runs."""

import pytest

from ntumatch import (
    InputError,
    Matching,
    MethodError,
    ResourceLimitError,
    core_empty,
    core_membership_by_enumeration,
    gen_example1,
    gen_random,
    max_matching,
    normalize,
    solve,
    strong_core_solve,
    strong_membership,
    utility,
    verify,
    weak_construct,
    weak_membership,
)
from ntumatch.exhaustive import oracle_core
from ntumatch.games import BLOCK_KIND, ENUMERATION_PLAYER_GUARD

from test_cli_golden import INSTANCES

# the golden CLI instances plus small seeded ones every engine can take
CASES = [(n, cap, p, seed) for _, n, cap, p, seed in INSTANCES] + [
    (12, 2, 0.3, 11),
    (12, 3, 0.3, 12),
    (13, 2, 0.25, 13),
]
# the const engine takes minutes on the 20-player golden instance
CONST_MAX_PLAYERS = 12
ORACLE_MAX_N = 16


def _engines(inst) -> list[str]:
    out = ["couples"] if all(len(p) <= 2 for p in inst.players) else []
    if inst.num_players <= CONST_MAX_PLAYERS:
        out.append("const")
    if inst.graph.n <= ORACLE_MAX_N:
        out.append("oracle")
    return out


def _direct_block(inst, m, core, engine):
    """The engine's certificate; for the oracle, the coalition and the
    witness vector it finds."""
    if engine == "couples":
        member = weak_membership if core == "weak" else strong_membership
        return member(normalize(inst), m).certificate
    if engine == "const":
        return core_membership_by_enumeration(inst, m, core).certificate
    return oracle_core(inst, core).blocking(utility(inst, m))


def _direct_matching(inst, core, engine):
    if engine == "couples":
        construct = weak_construct if core == "weak" else strong_core_solve
        return construct(normalize(inst))
    if engine == "const":
        return core_empty(inst, core)
    result = oracle_core(inst, core)
    return result.realize(result.in_core[-1]) if result.in_core else None


@pytest.mark.parametrize("n, cap, p, seed", CASES)
def test_each_engine_answers_as_called_directly(n, cap, p, seed):
    inst = gen_random(n, cap, p, seed)
    best = max_matching(inst.graph)
    matchings = (best, Matching(best.edges[1:]), Matching([]))
    engines = _engines(inst)
    assert engines
    for engine in engines:
        for core in ("weak", "strong"):
            got = solve(inst, core, method=engine)
            assert (got.engine, got.core, got.certificate) == (engine, core, None)
            assert got.matching == _direct_matching(inst, core, engine), (engine, core)
            for m in matchings:
                got = verify(inst, m, core, method=engine)
                assert (got.engine, got.core, got.matching) == (engine, core, None)
                want = _direct_block(inst, m, core, engine)
                if engine == "oracle" and want is not None:
                    cert = got.certificate
                    assert cert.kind == BLOCK_KIND[core]
                    assert (cert.coalition, utility(inst, cert.witness)) == want
                    cert.validate(inst, utility(inst, m))
                else:
                    assert got.certificate == want, (engine, core, m)


def test_auto_picks_couples_for_classes_of_two_and_const_otherwise():
    pairs = gen_random(12, 2, 0.3, 11)
    triples = gen_random(12, 3, 0.3, 12)
    assert max(map(len, triples.players)) == 3
    for core in ("weak", "strong"):
        assert solve(pairs, core).engine == "couples"
        assert solve(triples, core).engine == "const"
        assert verify(pairs, Matching([]), core).engine == "couples"
        assert verify(triples, Matching([]), core).engine == "const"


def test_couples_on_a_class_of_three_is_a_method_error():
    inst = gen_example1().instance
    assert max(map(len, inst.players)) >= 3
    with pytest.raises(MethodError, match="classes of size <= 2"):
        solve(inst, "weak", method="couples")
    with pytest.raises(MethodError, match="classes of size <= 2"):
        verify(inst, Matching([]), "strong", method="couples")


BAD_ARGUMENTS = [("medium", "auto", 1), ("weak", "blossom", 1)] + [
    (core, method, budget)
    for method in ("auto", "couples", "const", "oracle")
    for core, budget in (("weak", 0), ("strong", -1))
]


@pytest.mark.parametrize("core, method, budget", BAD_ARGUMENTS)
def test_bad_arguments_are_input_errors_before_any_engine_runs(core, method, budget):
    # more players than the guard and classes of three: every engine
    # refuses this instance with a method or resource error, so an input
    # error shows that the arguments were checked first
    inst = gen_random(90, 3, 0.02, 1)
    assert inst.num_players > ENUMERATION_PLAYER_GUARD
    with pytest.raises(ResourceLimitError):
        solve(inst, "weak", method="const")
    with pytest.raises(InputError):
        solve(inst, core, method=method, budget=budget)
    with pytest.raises(InputError):
        verify(inst, Matching([]), core, method=method, budget=budget)


def test_verify_rejects_a_matching_outside_the_graph():
    inst = gen_random(12, 2, 0.3, 11)
    edges = inst.graph.edge_set
    stray = next((u, v) for u in range(12) for v in range(u + 1, 12) if (u, v) not in edges)
    with pytest.raises(InputError):
        verify(inst, Matching([stray]), "weak")
