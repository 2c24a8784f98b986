from itertools import combinations

import pytest

import ntumatch.games
from ntumatch import (
    BlockCertificate,
    Graph,
    InputError,
    Instance,
    Matching,
    MembershipResult,
    ResourceLimitError,
    core_membership_by_enumeration,
    find_block_for_coalition,
    gen_example1,
    gen_random,
    max_matching,
    utility,
)
from ntumatch.exhaustive import all_matchings, oracle_core

from conftest import random_graph, random_matching
from exhaustive_reference import connected_coalitions_brute


def small_instance(rng, n_max=9, m_max=4):
    n = rng.randint(2, n_max)
    g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
    caps = rng.randint(1, 4)
    base = gen_random(n, caps, 0.0, seed=rng.randint(0, 10**6))
    inst = Instance(g, base.players)
    if inst.num_players > m_max:
        return None
    return inst


def unpruned_membership(inst, m, kind):
    """Every coalition, by size then lexicographically, with no contact
    pruning and no verdict reuse."""
    u = utility(inst, m)
    block_kind = "strong" if kind == "weak" else "weak"
    for size in range(1, inst.num_players + 1):
        for coalition in combinations(range(inst.num_players), size):
            witness = find_block_for_coalition(inst, u, coalition, block_kind)
            if witness is not None:
                return MembershipResult(
                    False, BlockCertificate(coalition, witness, block_kind)
                )
    return MembershipResult(True, None)


def disjoint_union(a, b):
    shift = a.graph.n
    graph = Graph(
        shift + b.graph.n,
        list(a.graph.edges) + [(u + shift, v + shift) for u, v in b.graph.edges],
    )
    players = a.players + tuple(frozenset(v + shift for v in p) for p in b.players)
    return Instance(graph, players)


class TestInstance:
    def test_rejects_partial_partition(self):
        with pytest.raises(InputError):
            Instance(Graph(3), (frozenset({0, 1}),))

    def test_rejects_overlap(self):
        with pytest.raises(InputError):
            Instance(Graph(2), (frozenset({0, 1}), frozenset({1})))


class TestUtility:
    def test_empty_matching(self):
        inst = Instance(Graph(3, [(0, 1)]), (frozenset({0, 1}), frozenset({2})))
        assert utility(inst, Matching()) == (0, 0)

    def test_example1_max_covers_sixteen(self):
        gen = gen_example1()
        assert sum(utility(gen.instance, gen.matching)) == 16

    def test_random_recount(self, rng):
        for _ in range(30):
            inst = small_instance(rng)
            if inst is None:
                continue
            m = max_matching(inst.graph)
            u = utility(inst, m)
            for i, p in enumerate(inst.players):
                assert u[i] == sum(1 for v in p if v in m.covered)


class TestFindBlock:
    def test_internal_edge_single_player(self):
        inst = Instance(
            Graph(4, [(0, 1), (2, 3)]),
            (frozenset({0, 1}), frozenset({2, 3})),
        )
        got = find_block_for_coalition(inst, (0, 0), (0,), "strong")
        assert got is not None and got.edges == ((0, 1),)

    def test_example1_every_max_matching_strongly_blocked(self):
        gen = gen_example1()
        u = utility(gen.instance, gen.matching)
        hits = [
            c
            for c in [(0, 1), (0, 2), (1, 2), (0, 1, 2)]
            if find_block_for_coalition(gen.instance, u, c, "strong") is not None
        ]
        assert hits, "some coalition must strongly block a maximum matching"

    def test_rejects_malformed_utility_vector(self):
        gen = gen_example1()
        inst = gen.instance
        u = utility(inst, gen.matching)
        bad = [
            (0,),  # too short
            u + (0,),  # too long
            (-3,) + u[1:],  # negative
            (len(inst.players[0]) + 1,) + u[1:],  # above the player's size
        ]
        for v in bad:
            for kind in ("strong", "weak"):
                with pytest.raises(InputError, match="utility between 0 and its size"):
                    find_block_for_coalition(inst, v, (0,), kind)
        assert find_block_for_coalition(inst, u, (0,), "strong") is None

    def test_early_exit_builds_no_subgraph(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("quota solved without a try that fits")

        monkeypatch.setattr(ntumatch.games, "_quota_matching", refuse)
        inst = Instance(
            Graph(4, [(0, 1), (1, 2), (2, 3)]),
            (frozenset({0, 1}), frozenset({2, 3})),
        )
        # player 0 already has both its vertices: no strong quota fits
        assert find_block_for_coalition(inst, (2, 0), (0, 1), "strong") is None
        # both players are saturated: no weak pivot is left
        assert find_block_for_coalition(inst, (2, 2), (0, 1), "weak") is None

    def test_random_agreement_with_enumeration(self, rng):
        for _ in range(40):
            inst = small_instance(rng, n_max=8, m_max=3)
            if inst is None:
                continue
            m = max_matching(inst.graph)
            u = utility(inst, m)
            coalition = tuple(
                sorted(
                    rng.sample(
                        range(inst.num_players),
                        rng.randint(1, inst.num_players),
                    )
                )
            )
            verts = sorted(set().union(*(inst.players[i] for i in coalition)))
            vset = set(verts)
            for kind in ("strong", "weak"):
                got = find_block_for_coalition(inst, u, coalition, kind)
                want = False
                for mm in all_matchings(inst.graph):
                    if not mm.covered <= vset:
                        continue
                    gains = [len(inst.players[i] & mm.covered) for i in coalition]
                    cur = [u[i] for i in coalition]
                    if kind == "strong":
                        ok = all(a > b for a, b in zip(gains, cur))
                    else:
                        ok = all(a >= b for a, b in zip(gains, cur)) and any(
                            a > b for a, b in zip(gains, cur)
                        )
                    if ok:
                        want = True
                        break
                assert (got is not None) == want


class TestMembership:
    def test_connected_coalitions_give_unpruned_results(self, rng):
        cases = []
        while len(cases) < 60:
            # sparse graphs leave isolated players; unions of two
            # instances make disjoint gadgets
            inst = small_instance(rng, n_max=9, m_max=7)
            if inst is None:
                continue
            if rng.random() < 0.4:
                other = small_instance(rng, n_max=6, m_max=7 - inst.num_players)
                if other is None:
                    continue
                inst = disjoint_union(inst, other)
            ms = [Matching(), max_matching(inst.graph), random_matching(rng, inst.graph)]
            cases.append((inst, ms))
        # example1 next to a separate pair of singletons
        ex = gen_example1()
        lone = Instance(Graph(2, [(0, 1)]), (frozenset({0}), frozenset({1})))
        both = disjoint_union(ex.instance, lone)
        cases.append((both, [ex.matching, Matching(ex.matching.edges + ((21, 22),))]))
        blocked = disconnected = 0
        for inst, ms in cases:
            for m in ms:
                for kind in ("weak", "strong"):
                    got = core_membership_by_enumeration(inst, m, kind)
                    assert got == unpruned_membership(inst, m, kind)
                    blocked += not got.in_core
            disconnected += any(
                not any(inst.graph.has_edge(a, b) for a in p for b in q)
                for p, q in combinations(inst.players, 2)
            )
        assert blocked and disconnected

    def test_grown_coalitions_keep_the_enumeration_order(self, rng):
        # singleton players on graphs from edgeless (every player isolated)
        # to dense, and random players of up to three vertices
        disconnected = isolated = 0
        for case in range(60):
            if case % 3:
                k = 16 if case < 6 else rng.randint(1, 12)
                inst = Instance(
                    random_graph(rng, k, rng.choice([0.0, 0.08, 0.2, 0.5])),
                    tuple(frozenset({v}) for v in range(k)),
                )
            else:
                n = rng.randint(2, 30)
                inst = gen_random(n, 3, rng.choice([0.03, 0.1, 0.3]), rng.randint(0, 10**6))
                if inst.num_players > 16:
                    continue
            contacts = [
                1 << i | sum(
                    1 << j
                    for j, q in enumerate(inst.players)
                    if any(inst.graph.has_edge(a, b) for a in p for b in q if a != b)
                )
                for i, p in enumerate(inst.players)
            ]
            want = connected_coalitions_brute(contacts)
            search = ntumatch.games._BlockSearch(inst, "weak")
            first = search.coalitions()
            head = [next(first)[0] for _ in range(min(3, len(want)))]
            assert head == want[: len(head)]
            assert [c for c, _, _ in search.coalitions()] == want
            # the levels are kept and replayed
            assert [c for c, _, _ in search.coalitions()] == want
            disconnected += want[-1] != tuple(range(len(contacts)))
            isolated += any(c == 1 << i for i, c in enumerate(contacts))
        assert disconnected and isolated

    def test_full_cover_in_both_cores(self):
        inst = Instance(
            Graph(4, [(0, 1), (2, 3)]),
            (frozenset({0, 1}), frozenset({2, 3})),
        )
        m = Matching([(0, 1), (2, 3)])
        assert core_membership_by_enumeration(inst, m, "weak").in_core
        assert core_membership_by_enumeration(inst, m, "strong").in_core

    def test_example1_not_in_weak_core(self):
        gen = gen_example1()
        res = core_membership_by_enumeration(gen.instance, gen.matching, "weak")
        assert not res.in_core
        res.certificate.validate(gen.instance, utility(gen.instance, gen.matching))

    def test_guard(self):
        inst = gen_random(42, 2, 0.1, seed=1)
        m = Matching()
        with pytest.raises(ResourceLimitError, match=r"guard \(20\); use the couples solver$"):
            core_membership_by_enumeration(inst, m, "weak")

    def test_guard_suggests_couples_only_for_classes_of_at_most_two(self):
        # 21 players, one of three vertices, which the couples solver refuses
        inst = Instance(Graph(23), (frozenset({0, 1, 2}), *(frozenset({v}) for v in range(3, 23))))
        with pytest.raises(ResourceLimitError, match=r"guard \(20\)$"):
            core_membership_by_enumeration(inst, Matching(), "weak")

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_is_an_input_error(self, budget):
        # checked before the player guard, so before any work
        many = Instance(Graph(21), tuple(frozenset({v}) for v in range(21)))
        gen = gen_example1()
        for inst, m in ((gen.instance, gen.matching), (many, Matching())):
            with pytest.raises(InputError, match=f"^budget must be at least 1, got {budget}$"):
                core_membership_by_enumeration(inst, m, "weak", budget)
            with pytest.raises(InputError, match=f"^budget must be at least 1, got {budget}$"):
                ntumatch.games._BlockSearch(inst, "strong", budget=budget)

    def test_budget_counts_visited_coalitions(self):
        gen = gen_example1()
        inst, m = gen.instance, gen.matching
        search = ntumatch.games._BlockSearch(inst, "weak")
        coalition = search(utility(inst, m)).certificate.coalition
        # a search visits the coalitions in order up to the first blocking one
        order = [c for c, _, _ in search.coalitions()]
        assert search.visited == order.index(coalition) + 1
        res = core_membership_by_enumeration(inst, m, "weak", budget=search.visited)
        assert res.certificate.coalition == coalition
        with pytest.raises(ResourceLimitError):
            core_membership_by_enumeration(inst, m, "weak", budget=search.visited - 1)
        # an unblocked vector visits both connected coalitions, and the
        # budget spans every search of one instance
        pair = Instance(Graph(4, [(0, 1), (2, 3)]), (frozenset({0, 1}), frozenset({2, 3})))
        search = ntumatch.games._BlockSearch(pair, "strong", budget=3)
        assert search((2, 2)).in_core and search.visited == 2
        with pytest.raises(ResourceLimitError):
            search((2, 2))

    def test_random_verdicts_match_oracle(self, rng):
        for _ in range(20):
            inst = small_instance(rng, n_max=8, m_max=4)
            if inst is None:
                continue
            for kind in ("weak", "strong"):
                oracle = oracle_core(inst, kind)
                seen = set()
                for m in all_matchings(inst.graph):
                    u = utility(inst, m)
                    if u in seen:
                        continue
                    seen.add(u)
                    res = core_membership_by_enumeration(inst, m, kind)
                    assert res.in_core == (u in oracle.in_core)
                    if res.certificate is not None:
                        res.certificate.validate(inst, u)

    def test_strong_core_inside_weak_core(self, rng):
        for _ in range(20):
            inst = small_instance(rng, n_max=8, m_max=3)
            if inst is None:
                continue
            for m in all_matchings(inst.graph):
                if core_membership_by_enumeration(inst, m, "strong").in_core:
                    assert core_membership_by_enumeration(inst, m, "weak").in_core

    def test_verdict_depends_only_on_utility_vector(self, rng):
        for _ in range(10):
            inst = small_instance(rng, n_max=7, m_max=3)
            if inst is None:
                continue
            by_vec = {}
            for m in all_matchings(inst.graph):
                u = utility(inst, m)
                got = core_membership_by_enumeration(inst, m, "weak").in_core
                if u in by_vec:
                    assert by_vec[u] == got
                else:
                    by_vec[u] = got
