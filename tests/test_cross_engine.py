"""The couples and const engines where their scopes overlap: players of at
most two vertices, at most six of them drawn by hypothesis, and 10 to 14
of them in a seeded sweep.  Then const against the oracle on players of
three vertices, 5 to 7 of them, which ``--method auto`` sends to const."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntumatch import (
    Graph,
    Instance,
    core_empty,
    core_membership_by_enumeration,
    gen_random,
    normalize,
    strong_core_solve,
    strong_membership,
    utility,
    weak_construct,
    weak_membership,
)
from ntumatch.constant_players import achievable, core_outcomes
from ntumatch.exhaustive import oracle_core


@st.composite
def couples_instances(draw):
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=6))
    players, n = [], 0
    for s in sizes:
        players.append(frozenset(range(n, n + s)))
        n += s
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Instance(Graph(n, edges), tuple(players))


@given(couples_instances())
@settings(max_examples=120, deadline=None)
def test_const_agrees_with_couples(inst):
    # the couples weak core is never empty
    assert core_empty(inst, "weak") is not None
    cg = normalize(inst)
    assert (core_empty(inst, "strong") is None) == (strong_core_solve(cg) is None)
    for kind, couples_test in (("weak", weak_membership), ("strong", strong_membership)):
        for outcome in core_outcomes(inst, kind):
            theirs = couples_test(cg, achievable(inst, outcome.vector))
            assert theirs.in_core == outcome.membership.in_core
            for res in (outcome.membership, theirs):
                if res.certificate is not None:
                    res.certificate.validate(inst, outcome.vector)


@pytest.mark.parametrize("n", (20, 24, 28))
@pytest.mark.parametrize("p", (0.1, 0.15, 0.2, 0.3))
def test_engines_agree_on_seeded_couples(n, p):
    # each engine's core witness is a member by the other engine's test
    for seed in range(2):
        inst = gen_random(n, 2, p, seed)
        cg = normalize(inst)
        const_strong, couples_strong = core_empty(inst, "strong"), strong_core_solve(cg)
        assert (const_strong is None) == (couples_strong is None), seed
        if const_strong is not None:
            assert strong_membership(cg, const_strong).in_core, seed
            assert core_membership_by_enumeration(inst, couples_strong, "strong").in_core, seed
        assert weak_membership(cg, core_empty(inst, "weak")).in_core, seed
        assert core_membership_by_enumeration(inst, weak_construct(cg), "weak").in_core, seed


@pytest.mark.parametrize("k,empty", ((5, 6), (6, 6), (7, 8)))
def test_const_agrees_with_oracle_on_three_vertex_players(k, empty):
    # 40 comparisons per k; the empty counts were measured when these
    # instances first left the oracle for const.  A disagreement is a bug
    # to report with its seed, never a seed to skip
    found_empty = 0
    for p in (0.1, 0.15):
        for seed in range(10):
            inst = gen_random(3 * k, 3, p, seed)
            assert inst.num_players == k
            for kind in ("weak", "strong"):
                oracle, witness = oracle_core(inst, kind), core_empty(inst, kind)
                assert (witness is None) == oracle.empty, (p, seed, kind)
                if witness is not None:
                    assert utility(inst, witness) in oracle.in_core, (p, seed, kind)
                found_empty += witness is None
    assert found_empty == empty
