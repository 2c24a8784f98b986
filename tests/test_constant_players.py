import hashlib
import json
from itertools import product

import pytest

from ntumatch import (
    Graph,
    InputError,
    Instance,
    InvariantError,
    Matching,
    PartitionQuota,
    ResourceLimitError,
    achievable,
    attach_special_edge,
    core_empty,
    core_membership_by_enumeration,
    frontier,
    gen_3sat_weak_emptiness,
    gen_example1,
    gen_random,
    max_matching,
    utility,
)
from ntumatch import constant_players, games
from ntumatch.constant_players import core_outcomes
from ntumatch.exhaustive import all_matchings, oracle_core
from ntumatch.matroids import _union_ranks
from ntumatch.serialize import matching_to_json

from conftest import random_matching, with_frames_to_spare
from exhaustive_reference import frontier_walk_reference, induced_subgraph
from matroid_reference import quota_feasible

# recorded with the per-mask prefix-sum frontier that preceded the
# incremental load table
EXAMPLE1_FRONTIER = (
    (2, 7, 7), (3, 6, 7), (3, 7, 6), (4, 5, 7), (4, 6, 6), (4, 7, 5),
    (5, 4, 7), (5, 5, 6), (5, 6, 5), (5, 7, 4), (6, 3, 7), (6, 4, 6),
    (6, 5, 5), (6, 6, 4), (6, 7, 3), (7, 2, 7), (7, 3, 6), (7, 4, 5),
    (7, 5, 4), (7, 6, 3), (7, 7, 2),
)
# (clause, vector count, first, last, sha256 of the JSON vector list)
SAT_FRONTIERS = (
    ((1, 2, 3), 102, (1, 0, 1, 0, 1, 0, 5, 7, 7), (1, 1, 1, 1, 1, 1, 7, 7, 2),
     "3f233d646ef673d80dcc9ab3697c8f6fe11ca93906f5ffe64b4cffd8803fe8dc"),
    ((1, 1, 2), 102, (2, 0, 0, 1, 0, 5, 7, 7), (2, 1, 1, 1, 1, 7, 7, 2),
     "6b2239062442ddd311132c910531afc0526febb70816d047d60c39d8b2281a0b"),
)


def brute_frontier(inst):
    """Vectors with sum 2*nu that pass the quota-feasibility duality, kept
    when no other such vector dominates them.  The 2^k union coverage ranks
    are computed once and every lattice vector is tested against them, as
    :func:`quota_feasible` tests one vector."""
    total = 2 * max_matching(inst.graph).size
    ranks = _union_ranks(inst.graph, inst.players)
    feasible = [
        x
        for x in product(*(range(len(p) + 1) for p in inst.players))
        if sum(x) == total
        and all(
            sum(q for i, q in enumerate(x) if mask >> i & 1) <= rank
            for mask, rank in enumerate(ranks)
        )
    ]
    return tuple(
        x
        for x in feasible
        if not any(y != x and all(a >= b for a, b in zip(y, x)) for y in feasible)
    )


class TestAchievable:
    def test_zero_vector(self):
        inst = Instance(Graph(2, [(0, 1)]), (frozenset({0}), frozenset({1})))
        assert achievable(inst, (0, 0)) is not None

    def test_full_vector_without_perfect_matching(self):
        inst = Instance(Graph(3, [(0, 1), (1, 2)]), (frozenset({0, 1, 2}),))
        assert achievable(inst, (3,)) is None

    def test_out_of_range_rejected(self):
        inst = Instance(Graph(2, [(0, 1)]), (frozenset({0}), frozenset({1})))
        with pytest.raises(InputError):
            achievable(inst, (2, 0))

    def test_wrong_length_rejected(self):
        inst = Instance(Graph(2, [(0, 1)]), (frozenset({0}), frozenset({1})))
        with pytest.raises(InputError):
            achievable(inst, (1,))

    def test_random_against_enumeration(self, rng):
        for _ in range(30):
            n = rng.randint(2, 8)
            inst = gen_random(n, rng.randint(1, 4), rng.choice([0.3, 0.5]), seed=rng.randint(0, 10**6))
            vecs = {utility(inst, m) for m in all_matchings(inst.graph)}
            x = tuple(rng.randint(0, len(p)) for p in inst.players)
            want = any(all(a >= b for a, b in zip(v, x)) for v in vecs)
            got = achievable(inst, x)
            assert (got is not None) == want
            if got is not None:
                assert all(a >= b for a, b in zip(utility(inst, got), x))


def rank_bounded_prefixes(inst, depth):
    """Integer prefixes of length ``depth`` inside the players' sizes with
    ``2ν - f(N \\ W) <= y(W) <= f(W)`` for every ``W`` among their players,
    ``f`` the union coverage rank; read off the rank table alone."""
    total = 2 * max_matching(inst.graph).size
    ranks = _union_ranks(inst.graph, inst.players)
    full = (1 << inst.num_players) - 1
    return {
        y
        for y in product(*(range(len(p) + 1) for p in inst.players[:depth]))
        if all(
            total - ranks[full ^ mask] <= sum(q for i, q in enumerate(y) if mask >> i & 1) <= ranks[mask]
            for mask in range(1 << depth)
        )
    }


class TestFrontier:
    def test_single_player_internal_edge(self):
        # a single player gets twice the matching number, ((2ν,),)
        inst = Instance(Graph(2, [(0, 1)]), (frozenset({0, 1}),))
        assert frontier(inst).maximal_vectors == ((2,),)
        inst = Instance(Graph(5, [(0, 1), (1, 2), (2, 3)]), (frozenset(range(5)),))
        assert frontier(inst).maximal_vectors == ((4,),)

    def test_zero_players(self):
        assert frontier(Instance(Graph(0, []), ())).maximal_vectors == ((),)

    def test_players_without_edges(self):
        # vertex 0 has no edges; its player comes first, in the middle and
        # last, where the forced last coordinate must be 0
        edge = Graph(3, [(1, 2)])
        for order, want in (((0, 1, 2), (0, 1, 1)), ((1, 0, 2), (1, 0, 1)), ((1, 2, 0), (1, 1, 0))):
            inst = Instance(edge, tuple(frozenset({v}) for v in order))
            assert frontier(inst).maximal_vectors == (want,)
        inst = Instance(Graph(3), (frozenset({0, 1}), frozenset({2})))
        assert frontier(inst).maximal_vectors == ((0, 0),)

    def test_example1_vectors_sum_to_sixteen(self):
        gen = gen_example1()
        fr = frontier(gen.instance)
        assert fr.maximal_vectors
        assert all(sum(v) == 16 for v in fr.maximal_vectors)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_is_an_input_error(self, budget):
        # checked before the player guard, so before any work
        many = Instance(Graph(21), tuple(frozenset({v}) for v in range(21)))
        for inst in (gen_example1().instance, many):
            with pytest.raises(InputError, match=f"^budget must be at least 1, got {budget}$"):
                frontier(inst, budget=budget)

    def test_budget_guard(self):
        # the budget counts the prefixes the walk visits, not the lattice:
        # with no dead end they are the prefixes of the maximal vectors
        for inst, nodes in ((gen_random(60, 12, 0.2, seed=3), 5), (gen_example1().instance, 28)):
            vectors = frontier(inst).maximal_vectors
            assert len({v[:j] for v in vectors for j in range(len(v))}) == nodes
            assert frontier(inst, budget=nodes).maximal_vectors == vectors
            with pytest.raises(ResourceLimitError):
                frontier(inst, budget=nodes - 1)
        # a lattice of 13**5 points, walked in five nodes
        assert len(frontier(gen_random(60, 12, 0.2, seed=3), budget=1000).maximal_vectors) == 1
        many = Instance(Graph(21), tuple(frozenset({v}) for v in range(21)))
        with pytest.raises(ResourceLimitError):
            frontier(many)  # the player guard bounds the union-rank table

    def test_random_against_oracle(self, rng):
        for _ in range(40):
            n = rng.randint(2, 9)
            inst = gen_random(n, rng.randint(2, 5), rng.choice([0.25, 0.5]), seed=rng.randint(0, 10**6))
            if inst.num_players > 4:
                continue
            vecs = {utility(inst, m) for m in all_matchings(inst.graph)}
            maximal = {
                v
                for v in vecs
                if not any(w != v and all(a >= b for a, b in zip(w, v)) for w in vecs)
            }
            fr = frontier(inst)
            assert set(fr.maximal_vectors) == maximal
            nu2 = 2 * max_matching(inst.graph).size
            assert all(sum(v) == nu2 for v in fr.maximal_vectors)

    def test_five_to_nine_players_against_brute_lattice(self, rng):
        player_counts = []
        while len(player_counts) < 60:
            n = rng.randint(5, 16)
            inst = gen_random(n, rng.randint(1, 3), rng.choice([0.1, 0.2, 0.35]), seed=rng.randint(0, 10**6))
            lattice = 1
            for p in inst.players:
                lattice *= len(p) + 1
            if not 5 <= inst.num_players <= 9 or lattice > 20000:
                continue
            player_counts.append(inst.num_players)
            assert frontier(inst).maximal_vectors == brute_frontier(inst)
        assert set(player_counts) == set(range(5, 10))

    def test_golden_gadget_frontiers(self):
        assert frontier(gen_example1().instance).maximal_vectors == EXAMPLE1_FRONTIER
        for clause, count, first, last, digest in SAT_FRONTIERS:
            vectors = frontier(gen_3sat_weak_emptiness([clause]).instance).maximal_vectors
            assert (len(vectors), vectors[0], vectors[-1]) == (count, first, last)
            assert hashlib.sha256(json.dumps(vectors).encode()).hexdigest() == digest

    def test_matches_walk_reference_sweep(self, rng):
        player_counts = set()
        for _ in range(1500):
            while True:
                inst = gen_random(
                    rng.randint(2, 18), rng.randint(1, 7), rng.choice([0.1, 0.2, 0.35, 0.6]),
                    seed=rng.randint(0, 10**6),
                )
                if inst.num_players <= 9:
                    break
            player_counts.add(inst.num_players)
            assert frontier(inst).maximal_vectors == frontier_walk_reference(inst)
        assert player_counts == set(range(1, 10))

    def test_matches_walk_reference_on_large_frontiers(self):
        e = gen_example1()
        stress = attach_special_edge(e.instance, e.name_map["a1"], e.name_map["b1"]).instance
        sparse = gen_random(60, 6, 0.05, 4)
        assert sparse.num_players == 10
        for inst, count in ((stress, 1656), (sparse, 108)):
            vectors = frontier(inst, budget=10**12).maximal_vectors
            assert len(vectors) == count
            assert vectors == frontier_walk_reference(inst)

    def test_walk_runs_without_recursion(self):
        # 20 players: a walk that recursed once per coordinate would need
        # about 29 frames, this one about 15
        inst = gen_random(60, 3, 0.04, 1)
        assert inst.num_players == 20
        assert with_frames_to_spare(22, lambda: frontier(inst).maximal_vectors) == (
            (3, 3, 2, 3, 3, 2, 3, 3, 3, 2, 1, 3, 3, 3, 3, 3, 3, 2, 3, 3),
            (3, 3, 2, 3, 3, 3, 3, 3, 3, 2, 1, 3, 3, 3, 2, 3, 3, 2, 3, 3),
        )

    def test_maximal_prefixes_are_the_rank_bounded_points(self, rng):
        # the rule the walk relies on, checked apart from it: the prefixes
        # of the maximal vectors are exactly the integer points that meet
        # both rank bounds for every union of their players
        checked = 0
        while checked < 40:
            inst = gen_random(rng.randint(2, 12), rng.randint(1, 4), rng.choice([0.2, 0.35, 0.6]), rng.randint(0, 10**6))
            lattice = 1
            for p in inst.players:
                lattice *= len(p) + 1
            if inst.num_players > 6 or lattice > 5000:
                continue
            checked += 1
            maximal = brute_frontier(inst)
            for depth in range(inst.num_players + 1):
                assert {x[:depth] for x in maximal} == rank_bounded_prefixes(inst, depth)


GADGETS = (
    gen_example1().instance,
    gen_3sat_weak_emptiness([(1, 1, 2)]).instance,
    gen_3sat_weak_emptiness([(1, 2, 3)]).instance,
)
# the 16 core_empty answers, weak then strong per instance, over GADGETS
# and five random instances (12 of them are matchings): sha256 of their
# utility vectors (JSON, null for none), recorded with the contact-graph
# coverage that preceded greedy augmentation, and of the witnesses
# themselves, recorded with greedy augmentation
VECTOR_DIGEST = "d681825d9c57c8af7b12d01ad5b4222e8da10ea8119ff4c9edaeb68f6dbf1df9"
WITNESS_DIGEST = "d2e72bfec5e473be02940b5e3dcb5c7009ef5dffb5d150e78774e9e4d6c20398"


def golden_answers():
    sizes_seeds = ((8, 1), (9, 2), (10, 3), (12, 4), (12, 5))
    randoms = (gen_random(n, 3, 0.4, seed=s) for n, s in sizes_seeds)
    return [
        (inst, kind, core_empty(inst, kind))
        for inst in (*GADGETS, *randoms)
        for kind in ("weak", "strong")
    ]


def record_screen(monkeypatch):
    """Records the block searches that run from now on.  The returned
    function gives the (block kind, instance, coalition, utilities on it)
    of every coalition whose tries passed the size filter but not the
    matching-number screen: ν was read, and no try reached
    ``find_block_for_coalition``."""
    read, decided = set(), set()
    current = []
    real_call, real_nu = games._BlockSearch.__call__, games._BlockSearch._nu
    real_find = games.find_block_for_coalition

    def call(self, u):
        current[:] = [u]
        return real_call(self, u)

    def nu(self, coalition, mask):
        read.add((self.block_kind, self.inst, coalition, tuple(current[0][i] for i in coalition)))
        return real_nu(self, coalition, mask)

    def find(inst, u, coalition, kind):
        decided.add((kind, inst, coalition, tuple(u[i] for i in coalition)))
        return real_find(inst, u, coalition, kind)

    monkeypatch.setattr(games._BlockSearch, "__call__", call)
    monkeypatch.setattr(games._BlockSearch, "_nu", nu)
    monkeypatch.setattr(games, "find_block_for_coalition", find)
    return lambda: read - decided


def all_tries_infeasible(screened) -> bool:
    """Whether every try of every recorded coalition that fits the members'
    sizes is infeasible by the union-rank duality on the coalition's
    induced subgraph."""
    for kind, inst, coalition, proj in screened:
        sub, to_old = induced_subgraph(
            inst.graph, set().union(*(inst.players[i] for i in coalition))
        )
        to_new = {v: i for i, v in enumerate(to_old)}
        groups = tuple(frozenset(to_new[v] for v in inst.players[i]) for i in coalition)
        if kind == "strong":
            tries = [tuple(x + 1 for x in proj)]
        else:
            tries = [proj[:j] + (proj[j] + 1,) + proj[j + 1:] for j in range(len(proj))]
        tries = [q for q in tries if all(x <= len(grp) for x, grp in zip(q, groups))]
        if not tries or any(quota_feasible(sub, PartitionQuota(groups, q)) for q in tries):
            return False
    return True


class TestCoreEmpty:
    def test_perfect_matching_instance(self):
        inst = Instance(
            Graph(4, [(0, 1), (2, 3)]),
            (frozenset({0, 1}), frozenset({2, 3})),
        )
        for kind in ("weak", "strong"):
            m = core_empty(inst, kind)
            assert m is not None and m.covered == frozenset(range(4))

    def test_example1_both_cores_empty(self):
        gen = gen_example1()
        assert core_empty(gen.instance, "weak") is None
        assert core_empty(gen.instance, "strong") is None

    def test_random_against_oracle(self, rng):
        for _ in range(30):
            n = rng.randint(2, 9)
            inst = gen_random(n, rng.randint(2, 5), rng.choice([0.25, 0.5]), seed=rng.randint(0, 10**6))
            if inst.num_players > 4:
                continue
            for kind in ("weak", "strong"):
                oracle = oracle_core(inst, kind)
                got = core_empty(inst, kind)
                assert (got is not None) == (not oracle.empty)
                if got is not None:
                    assert core_membership_by_enumeration(inst, got, kind).in_core

    def test_outcomes_match_fresh_membership_on_gadgets(self):
        for inst in GADGETS:
            for kind in ("weak", "strong"):
                for outcome in core_outcomes(inst, kind):
                    assert outcome.membership == core_membership_by_enumeration(
                        inst, achievable(inst, outcome.vector), kind
                    )

    def test_outcomes_realize_vectors_exactly(self, rng):
        for inst in (gen_random(8, 3, 0.5, seed=99), *GADGETS):
            for outcome in core_outcomes(inst, "weak"):
                assert utility(inst, achievable(inst, outcome.vector)) == outcome.vector

    def test_golden_witnesses(self):
        answers = golden_answers()
        assert sum(m is not None for *_, m in answers) == 12
        vectors = json.dumps([None if m is None else list(utility(inst, m)) for inst, _, m in answers])
        assert hashlib.sha256(vectors.encode()).hexdigest() == VECTOR_DIGEST
        text = "".join("null\n" if m is None else matching_to_json(m) for *_, m in answers)
        assert hashlib.sha256(text.encode()).hexdigest() == WITNESS_DIGEST

    def test_golden_witnesses_realize_core_vectors(self):
        for inst, kind, m in golden_answers():
            if m is not None:
                m.validate_for(inst.graph)
                vector = next(o.vector for o in core_outcomes(inst, kind) if o.membership.in_core)
                assert utility(inst, m) == vector
                assert core_membership_by_enumeration(inst, m, kind).in_core

    def test_realizes_at_most_one_vector(self, monkeypatch):
        calls = []

        def counting(inst, x):
            calls.append(x)
            return achievable(inst, x)

        monkeypatch.setattr(constant_players, "achievable", counting)
        e = gen_example1()
        stress = attach_special_edge(e.instance, e.name_map["a1"], e.name_map["b1"]).instance
        for inst in (*GADGETS, stress):
            for kind in ("weak", "strong"):
                calls.clear()
                core_empty(inst, kind)
                assert len(calls) <= 1

    def test_realization_faults_raise(self, monkeypatch):
        inst = Instance(
            Graph(4, [(0, 1), (2, 3)]),
            (frozenset({0, 1}), frozenset({2, 3})),
        )
        monkeypatch.setattr(constant_players, "achievable", lambda inst, x: None)
        with pytest.raises(InvariantError, match="not achievable"):
            core_empty(inst, "weak")
        monkeypatch.setattr(
            constant_players, "achievable", lambda inst, x: Matching([(0, 1)])
        )
        with pytest.raises(InvariantError, match="realized inexactly"):
            core_empty(inst, "weak")

    def test_achievability_is_down_closed(self, rng):
        for _ in range(15):
            n = rng.randint(2, 7)
            inst = gen_random(n, 3, 0.4, seed=rng.randint(0, 10**6))
            x = tuple(rng.randint(0, len(p)) for p in inst.players)
            if achievable(inst, x) is None:
                continue
            for i in range(len(x)):
                if x[i] > 0:
                    y = x[:i] + (x[i] - 1,) + x[i + 1:]
                    assert achievable(inst, y) is not None

    def test_lower_bound_verdicts_match_duality_on_gadgets(self, monkeypatch):
        # every quota system the engine decides, and every try its
        # matching-number screen rejects, checked against the 2^k
        # union-rank duality; a block try is a quota system on the
        # coalition's induced subgraph
        real_bounds = constant_players.matching_with_lower_bounds
        real_quota = games._quota_matching
        seen = {}

        def bounds(g, pq):
            found = real_bounds(g, pq)
            seen[g, pq] = found
            return found

        def quota(g, within, groups, quotas):
            found = real_quota(g, within, groups, quotas)
            sub, to_old = induced_subgraph(g, within)
            to_new = {v: i for i, v in enumerate(to_old)}
            pq = PartitionQuota(
                tuple(frozenset(map(to_new.__getitem__, grp)) for grp in groups), quotas
            )
            seen[sub, pq] = found
            assert found is None or found.covered <= within
            return found

        monkeypatch.setattr(constant_players, "matching_with_lower_bounds", bounds)
        monkeypatch.setattr(games, "_quota_matching", quota)
        screened = record_screen(monkeypatch)
        for inst in GADGETS:
            for kind in ("weak", "strong"):
                core_empty(inst, kind)
        assert screened() and all_tries_infeasible(screened())
        assert any(found is not None for found in seen.values())
        # quotas (1, 1) sum to 2 = 2ν, so they pass the screen, yet nothing
        # covers b1 or b2
        pair = Instance(Graph(4, [(0, 1)]), (frozenset({0, 1}), frozenset({2, 3})))
        assert games.find_block_for_coalition(pair, (0, 0), (0, 1), "strong") is None
        assert any(found is None for found in seen.values())
        for (g, pq), found in seen.items():
            assert (found is None) == (not quota_feasible(g, pq))

    def test_screened_tries_are_infeasible(self, rng, monkeypatch):
        screened = record_screen(monkeypatch)
        for _ in range(30):
            inst = gen_random(rng.randint(4, 12), 3, rng.choice([0.2, 0.4]), rng.randint(0, 10**6))
            for kind in ("weak", "strong"):
                list(core_outcomes(inst, kind))
                m = random_matching(rng, inst.graph)
                core_membership_by_enumeration(inst, m, kind)
        assert len(screened()) > 50 and all_tries_infeasible(screened())

    def test_player_guard_and_kind_checked_before_frontier(self, monkeypatch):
        def no_frontier(inst, budget):
            raise AssertionError("frontier ran before the block search guards")

        monkeypatch.setattr(constant_players, "frontier", no_frontier)
        many = Instance(Graph(21), tuple(frozenset({v}) for v in range(21)))
        with pytest.raises(ResourceLimitError):
            core_empty(many, "weak")
        with pytest.raises(InputError):
            core_empty(gen_example1().instance, "x")

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_is_an_input_error(self, budget, monkeypatch):
        def no_frontier(inst, budget):
            raise AssertionError("frontier ran before the budget check")

        monkeypatch.setattr(constant_players, "frontier", no_frontier)
        many = Instance(Graph(21), tuple(frozenset({v}) for v in range(21)))
        for inst in (gen_example1().instance, many):
            for kind in ("weak", "strong"):
                with pytest.raises(InputError, match=f"^budget must be at least 1, got {budget}$"):
                    core_empty(inst, kind, budget=budget)
                # checked at call time: the iterator is never advanced
                with pytest.raises(InputError, match=f"^budget must be at least 1, got {budget}$"):
                    core_outcomes(inst, kind, budget)

    def test_outcomes_check_input_at_call_time(self):
        # the calls below never iterate, so only eager checks can raise
        with pytest.raises(InputError):
            core_outcomes(gen_example1().instance, "x")
        many = Instance(Graph(21), tuple(frozenset({v}) for v in range(21)))
        with pytest.raises(ResourceLimitError):
            core_outcomes(many, "weak")
