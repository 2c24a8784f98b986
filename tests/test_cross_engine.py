"""The couples and const engines where their scopes overlap: players of at
most two vertices, at most six of them drawn by hypothesis, and 10 to 14
of them in a seeded sweep."""

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
    weak_construct,
    weak_membership,
)
from ntumatch.constant_players import achievable, core_outcomes


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
