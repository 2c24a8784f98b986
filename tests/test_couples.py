import hashlib
import json
import random
import sys
import threading
import time
import tracemalloc
from collections import Counter
from itertools import combinations, permutations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntumatch import (
    Graph,
    InputError,
    Instance,
    InvariantError,
    Matching,
    gen_random,
    max_matching,
    normalize,
    strong_core_solve,
    strong_core_structure,
    strong_membership,
    utility,
    weak_construct,
    weak_membership,
)
from ntumatch import couples as couples_module
from ntumatch.couples import (
    _joined,
    _Peel,
    _structure,
    _tops,
    strong_core_quotas,
)
from ntumatch.exhaustive import all_matchings, oracle_core
from ntumatch.serialize import certificate_to_json, matching_to_json

from couples_reference import (
    augment_by_copies,
    component,
    cycle_free_by_player,
    delta_context,
    delta_context_by_graph,
    delta_context_by_reach,
    delta_path_by_added_edges,
    delta_path_exists,
    on_alternating_cycle,
    ordered_triple_by_tips,
    ordered_triple_one_query,
    ordered_triple_path_exists,
    reach,
    reach_by_copies,
    second_reach_by_flow,
    strong_membership_by_query,
    weak_construct_by_player,
    weak_membership_by_query,
)
from exhaustive_reference import (
    alternating_reach,
    alternating_triples_brute,
    delta_triples_brute,
    oracle_delta_path,
    perfect_matching_exists,
)


def outcome(query, *args):
    """A query's answer, or the type of the error it raised."""
    try:
        return query(*args)
    except InvariantError as exc:
        return type(exc)


def count_queries(monkeypatch):
    """A counter of ``_Union._query`` calls from now on."""
    queries = Counter()
    real = couples_module._Union._query

    def counted(self, *args):
        queries["kernel"] += 1
        return real(self, *args)

    monkeypatch.setattr(couples_module._Union, "_query", counted)
    return queries


def couples_instance(n, edges):
    players = tuple(frozenset({2 * i, 2 * i + 1}) for i in range(n // 2))
    return Instance(Graph(n, edges), players)


def two_couples_square():
    # couples {0,1} and {2,3} joined crosswise: one alternating 4-cycle
    return couples_instance(4, [(0, 2), (1, 3)])


def three_couples_chain():
    # A={0,1}, B={2,3}, C={4,5} with a path A-B-C and no cycles
    return couples_instance(6, [(1, 2), (3, 4)])


def delta_instance():
    # A=(0,1), B=(2,3), C=(4,5); E = {0-4, 1-2, 3-4}: the five-vertex odd
    # cycle 4,0,1,2,3 plus C's player edge hanging off vertex 4
    return couples_instance(6, [(0, 4), (1, 2), (3, 4)])


class TestNormalize:
    def test_identity_when_all_pairs(self):
        cg = normalize(two_couples_square())
        assert cg.inst is cg.original
        assert cg.padded_vertices == frozenset()

    def test_pads_singletons(self):
        inst = Instance(Graph(3, [(0, 1)]), (frozenset({0, 1}), frozenset({2})))
        cg = normalize(inst)
        assert cg.inst.graph.n == 4
        assert cg.padded_vertices == frozenset({3})
        assert cg.pairs[1] == (2, 3)

    def test_rejects_triples(self):
        inst = Instance(Graph(3, [(0, 1)]), (frozenset({0, 1, 2}),))
        with pytest.raises(InputError):
            normalize(inst)

    def test_padding_preserves_verdicts(self, rng):
        for _ in range(15):
            n = rng.randint(3, 8)
            inst = gen_random(n, 2, 0.4, seed=rng.randint(0, 10**6))
            cg = normalize(inst)
            for kind in ("weak", "strong"):
                a = oracle_core(inst, kind)
                b = oracle_core(cg.inst, kind)
                assert set(a.in_core) == set(b.in_core)


class TestAlternatingCycle:
    def test_square_both_on_cycle(self):
        cg = normalize(two_couples_square())
        assert on_alternating_cycle(cg, 0)
        assert on_alternating_cycle(cg, 1)

    def test_delta_instance_no_cycles(self):
        cg = normalize(delta_instance())
        for p in range(3):
            assert not on_alternating_cycle(cg, p)

    def test_isolated_pair(self):
        cg = normalize(couples_instance(4, [(0, 2)]))
        assert not on_alternating_cycle(cg, 0)
        assert not on_alternating_cycle(cg, 1)

    def test_parallel_edge_is_degenerate_cycle(self):
        cg = normalize(couples_instance(2, [(0, 1)]))
        assert on_alternating_cycle(cg, 0)


class TestWeakMembership:
    def test_full_cover_in_core(self):
        inst = two_couples_square()
        cg = normalize(inst)
        res = weak_membership(cg, Matching([(0, 2), (1, 3)]))
        assert res.in_core

    def test_empty_matching_blocked_by_square(self):
        inst = two_couples_square()
        cg = normalize(inst)
        res = weak_membership(cg, Matching())
        assert not res.in_core
        assert res.certificate.coalition == (0, 1)
        assert set(res.certificate.witness.edges) == {(0, 2), (1, 3)}

    def test_random_against_oracle(self, rng):
        for _ in range(40):
            n = rng.choice([4, 6, 8, 10])
            inst = gen_random(n, 2, rng.choice([0.2, 0.4]), seed=rng.randint(0, 10**6))
            cg = normalize(inst)
            oracle = oracle_core(inst, "weak")
            seen = set()
            for m in all_matchings(inst.graph):
                u = utility(inst, m)
                if u in seen:
                    continue
                seen.add(u)
                res = weak_membership(cg, m)
                assert res.in_core == (u in oracle.in_core), (inst, u)
                if res.certificate is not None:
                    res.certificate.validate(cg.inst, u)


class TestMembershipInput:
    @pytest.mark.parametrize("membership", (weak_membership, strong_membership))
    def test_rejects_non_edge(self, membership):
        # a player's own pair is no graph edge either
        cg = normalize(two_couples_square())
        for e in ((0, 3), (0, 1)):
            with pytest.raises(InputError) as exc:
                membership(cg, Matching([e]))
            assert str(exc.value) == f"matching edge {e} is not a graph edge"


class TestWeakConstruct:
    def test_square(self):
        cg = normalize(two_couples_square())
        m = weak_construct(cg)
        assert set(m.edges) == {(0, 2), (1, 3)}

    def test_edgeless(self):
        cg = normalize(couples_instance(4, []))
        m = weak_construct(cg)
        assert m.size == 0
        assert weak_membership(cg, m).in_core

    def test_always_in_weak_core(self, rng):
        for _ in range(150):
            n = rng.choice([4, 6, 8, 10, 12, 14])
            inst = gen_random(n, 2, rng.choice([0.1, 0.3, 0.6]), seed=rng.randint(0, 10**6))
            cg = normalize(inst)
            m = weak_construct(cg)
            m.validate_for(inst.graph)
            assert weak_membership(cg, m).in_core


class TestStrongMembership:
    def test_full_cover_in_core(self):
        cg = normalize(two_couples_square())
        assert strong_membership(cg, Matching([(0, 2), (1, 3)])).in_core

    def test_half_covered_chain_blocked(self):
        # oracle-checked on this 6-vertex instance: the A-B-C path blocks
        cg = normalize(three_couples_chain())
        m = Matching([(1, 2)])
        res = strong_membership(cg, m)
        assert not res.in_core
        assert set(res.certificate.witness.edges) == {(1, 2), (3, 4)}
        orc = oracle_core(cg.original, "strong")
        assert utility(cg.original, m) not in orc.in_core

    def test_random_against_oracle(self, rng):
        for _ in range(40):
            n = rng.choice([4, 6, 8, 10])
            inst = gen_random(n, 2, rng.choice([0.2, 0.4]), seed=rng.randint(0, 10**6))
            cg = normalize(inst)
            oracle = oracle_core(inst, "strong")
            seen = set()
            for m in all_matchings(inst.graph):
                u = utility(inst, m)
                if u in seen:
                    continue
                seen.add(u)
                res = strong_membership(cg, m)
                assert res.in_core == (u in oracle.in_core)
                if res.certificate is not None:
                    res.certificate.validate(cg.inst, u)


class TestPeel:
    def test_forced_players_are_cycle_free(self, rng):
        # in the union and in views that delete whole players, a forced
        # player's cycle query finds nothing
        forced = 0
        for seed in range(300):
            n = 6 + seed % 25
            cg = normalize(gen_random(n, 2, (1.0, 1.5, 2.0, 4.0)[seed % 4] / n, seed=seed))
            assert cg.forced <= cycle_free_by_player(cg), seed
            forced += len(cg.forced)
            kept = [p for p in range(cg.num_players) if rng.random() < 0.3]
            view = cg.union.without(x for p in kept for x in cg.pairs[p])
            for p in _Peel(view).forced:
                assert p not in kept
                assert view.augment(drop_players=(p,)) is None, (seed, p)
        assert forced > 1000

    def test_two_cycle_leaf_is_peeled_not_forced(self):
        # A={0,1} and C={4,5} are also real edges, each with a leaf (0 and
        # 5): two-edge cycles.  Peeling them leaves B={2,3} a leaf pair,
        # though neither of B's vertices is a leaf in the union
        cg = normalize(couples_instance(6, [(0, 1), (1, 2), (3, 4), (4, 5)]))
        assert {x for x in range(6) if len(cg.union.adj[x]) == 1} == {0, 5}
        peel = _Peel(cg.union)
        assert peel.forced == {1} == cycle_free_by_player(cg)
        assert peel.deg == [0] * 6
        assert cg.forced == {1}

    def test_drop_after_a_kept_cycle_matches_a_fresh_peel(self):
        # weak_construct's loop: after each kept cycle the incremental
        # peel equals a peel of the new view from scratch
        kept = 0
        for seed in range(200):
            n = 8 + seed % 33
            cg = normalize(gen_random(n, 2, (1.5, 2.5, 4.0)[seed % 3] / n, seed=seed))
            view = cg.union
            peel = _Peel(view)
            for p in range(cg.num_players):
                if not view.has(cg.pairs[p][0]) or p in peel.forced:
                    continue
                labeled = _structure(cg, (p,), view, 0)
                if labeled is None:
                    continue
                gone = [x for a, b, lab in labeled if lab == "p" for x in (a, b)]
                view = view.without(gone)
                peel.drop(gone)
                fresh = _Peel(view)
                assert (peel.deg, peel.forced) == (fresh.deg, fresh.forced), (seed, p)
                kept += 1
        assert kept > 300

    def test_view_with_an_exposed_vertex_raises(self):
        cg = normalize(three_couples_chain())
        with pytest.raises(InvariantError):
            _Peel(cg.union.without([2]))

    def test_skips_match_the_per_query_reference(self):
        # matchings and certificates equal those of one kernel query per
        # player, pair and triple, on the sweep, n=160 and the benchmark's
        # couples_verify sizes, each challenged by its weak construction,
        # a maximum matching minus its first edge, and half of that
        cases = [
            (n, p, seed)
            for n in (8, 12, 20, 40)
            for p in (0.05, 0.15, 0.3, 0.5)
            for seed in range(60)
        ]
        cases.append((160, 2.0 / 160, 1))
        cases += [(n, 2.0 / n, 100 + 10 * n + j) for n in (300, 400, 500) for j in range(4)]
        calls = blocked = 0
        for n, p, seed in cases:
            cg = normalize(gen_random(n, 2, p, seed))
            built = weak_construct(cg)
            assert built == weak_construct_by_player(cg), (n, p, seed)
            best = max_matching(cg.inst.graph)
            half = Matching(random.Random(seed).sample(best.edges, best.size // 2))
            for m in (built, Matching(best.edges[1:]), half):
                for test, reference in (
                    (weak_membership, weak_membership_by_query),
                    (strong_membership, strong_membership_by_query),
                ):
                    got, want = test(cg, m), reference(cg, m)
                    assert got.in_core == want.in_core, (n, p, seed)
                    if not got.in_core:
                        assert got.certificate.coalition == want.certificate.coalition
                        assert got.certificate.witness == want.certificate.witness
                        assert got.certificate.kind == want.certificate.kind
                        blocked += 1
                    calls += 1
        assert (calls, blocked) == (5838, 3756)

    def test_weak_paths_skip_forced_players_and_split_pairs(self, monkeypatch):
        # 150 players: eight cycle queries, seven of which find a cycle,
        # and seven kept views, against 110 queries with one per surviving
        # player; membership builds its view and asks nothing more,
        # against 105 queries with one per low player and pair
        queries = count_queries(monkeypatch)
        cg = normalize(gen_random(300, 2, 2 / 300, 3100))
        m = weak_construct(cg)
        assert (cg.num_players, m.size, queries["kernel"]) == (150, 120, 15)
        assert weak_membership(cg, m).in_core
        assert queries["kernel"] == 15 + 1


class TestOrderedTriplePath:
    def test_chain_orders(self):
        cg = normalize(three_couples_chain())
        assert ordered_triple_path_exists(cg, 0, 1, 2)
        assert not ordered_triple_path_exists(cg, 1, 0, 2)

    def test_edgeless_never(self):
        cg = normalize(couples_instance(6, []))
        assert not ordered_triple_path_exists(cg, 0, 1, 2)

    def test_random_against_path_oracle(self, rng):
        for _ in range(40):
            n = rng.choice([6, 8, 10, 12])
            inst = gen_random(n, 2, rng.choice([0.12, 0.25]), seed=rng.randint(0, 10**6))
            cg = normalize(inst)
            kset = sorted(cg.cycle_free)
            if len(kset) < 3:
                continue
            pathtrip = alternating_triples_brute(cg)
            for a, b, c in permutations(kset, 3):
                assert ordered_triple_path_exists(cg, a, b, c) == (
                    (a, c, b) in pathtrip
                )

    def test_one_query_agrees_with_tip_pairs_and_paths(self):
        # every ordered triple of cycle-free players on 300 seeded sparse
        # instances with at least three of them: the one-query test, the
        # four-tip-pair reference and the path enumeration must agree
        instances = triples = hits = 0
        seed = 0
        while instances < 300:
            n = (6, 8, 10, 12, 14)[seed % 5]
            inst = gen_random(n, 2, (1.0, 1.5, 2.0)[seed % 3] / n, seed=seed)
            seed += 1
            cg = normalize(inst)
            kset = sorted(cg.cycle_free)
            if len(kset) < 3:
                continue
            pathtrip = alternating_triples_brute(cg)
            for a, b, c in permutations(kset, 3):
                got = ordered_triple_path_exists(cg, a, b, c)
                assert got == ordered_triple_by_tips(cg, a, b, c), (seed, a, b, c)
                assert got == ((a, c, b) in pathtrip), (seed, a, b, c)
                triples += 1
                hits += got
            instances += 1
        assert triples > 10000 and hits > 1000

    def test_rejects_like_the_per_player_checks(self):
        square = normalize(two_couples_square())  # both players on a cycle
        chain = normalize(three_couples_chain())  # no player on a cycle
        cases = [
            (chain, (0, 1, 0), "players must be distinct"),
            (chain, (0, 1, 3), "player 3 out of range"),
            (chain, (-1, 1, 2), "player -1 out of range"),
            (square, (0, 1, 2), "player 0 lies on an alternating cycle"),
            (square, (3, 0, 1), "player 3 out of range"),
        ]
        for fn in (ordered_triple_path_exists, delta_path_exists):
            for cg, players, message in cases:
                with pytest.raises(InputError, match=message):
                    fn(cg, *players)


class TestComponentDigraph:
    """Answers read off a cycle-free player's component digraph against
    the kernel queries and the explicit one-query reference."""

    @staticmethod
    def sweep():
        # the 600 seeded sparse instances of TestDeltaContext, n 6-30
        for seed in range(600):
            n = 6 + seed % 25
            yield seed, normalize(gen_random(n, 2, (1.0, 1.5, 2.0)[seed % 3] / n, seed=seed))

    def test_pair_lookup_agrees_with_kernel(self):
        pairs = hits = 0
        for seed, cg in self.sweep():
            for p, q in permutations(sorted(cg.cycle_free), 2):
                got = component(cg, delta_context(cg, p), q) is not None
                want = cg.union.augment(drop_players=(p, q), missing=2) is not None
                assert got == want, (seed, p, q)
                pairs += 1
                hits += got
        assert pairs > 20000 and hits > 3000

    def test_side_branch_flow_agrees_with_kernel(self):
        # disjoint alternating paths from a's two vertices to the entry cut
        # vertices of side components i and j: the copying reference
        # deletes both entry partners, joins the two cut vertices and asks
        # for a perfect matching
        checked = hits = 0
        for seed, cg in self.sweep():
            for a in sorted(cg.cycle_free):
                ctx = delta_context(cg, a)
                for i, j in permutations(sorted(ctx.entry), 2):
                    (si, si_in), (sj, sj_in) = ctx.entry[i], ctx.entry[j]
                    want = augment_by_copies(
                        cg.union,
                        drop_players=(a, cg.player_of[si], cg.player_of[sj]),
                        drop_vertices=(si_in, sj_in),
                        extra_edges=((si, sj),),
                    ) is not None
                    assert _joined(ctx, i, j) == want, (seed, a, i, j)
                    checked += 1
                    hits += want
        assert checked > 50000 and hits > 5000

    def test_dominator_tops_agree_with_flow(self):
        # every ordered pair of components, free ones included, in every
        # cycle-free player's context
        cases = [cg for _, cg in self.sweep()]
        cases += [normalize(gen_random(n, 2, 1.5 / n, 3)) for n in (160, 480)]
        pairs = hits = free = 0
        for cg in cases:
            for a in sorted(cg.cycle_free):
                ctx = delta_context(cg, a)
                for i in range(len(ctx.comps)):
                    second = second_reach_by_flow(ctx, i)
                    for j in range(len(ctx.comps)):
                        want = i != j and j in second
                        assert _joined(ctx, i, j) == want, (a, i, j)
                        pairs += 1
                        hits += want
                        free += i in ctx.free or j in ctx.free
        assert pairs > 1_000_000 and hits > 50_000 and free > 50_000

    def test_dominator_tops_agree_with_flow_on_random_digraphs(self):
        # a context's components are all reached from its free ones, so
        # unreachable components, and cycles through them, come from
        # random digraphs whose two free nodes have no entering arcs
        rng = random.Random(20)
        pairs = hits = unreachable = 0
        for _ in range(2000):
            k = rng.randint(2, 12)
            p = rng.choice((0.1, 0.2, 0.35))
            free = (0, 1)
            arcs = tuple(
                frozenset(y for y in range(2, k) if y != x and rng.random() < p)
                for x in range(k)
            )
            ctx = SimpleNamespace(free=free, arcs=arcs, top=_tops(arcs, free))
            for i in range(k):
                second = second_reach_by_flow(ctx, i)
                for j in range(k):
                    assert _joined(ctx, i, j) == (i != j and j in second), (arcs, i, j)
                    pairs += 1
                    hits += i != j and j in second
                    unreachable += -1 in (ctx.top[i], ctx.top[j])
        assert pairs > 50_000 and hits > 10_000 and unreachable > 10_000

    @pytest.mark.parametrize("n,seed", [(80, 1), (80, 3), (120, 2), (120, 3)])
    def test_ordered_triples_at_scale_agree_with_one_query(self, n, seed):
        # every ordered triple of cycle-free players; an a...b...c path
        # contains an a...b and a b...c path, so where the kernel finds no
        # such pair path the reference answer is no without building its
        # graph, and the reference is symmetric in a and c
        cg = normalize(gen_random(n, 2, 1.5 / n, seed))
        kset = sorted(cg.cycle_free)
        linked = {
            frozenset(pq)
            for pq in combinations(kset, 2)
            if cg.union.augment(drop_players=pq, missing=2) is not None
        }
        triples = hits = 0
        for b in kset:
            for a, c in combinations([p for p in kset if p != b], 2):
                want = (
                    {frozenset((a, b)), frozenset((b, c))} <= linked
                    and ordered_triple_one_query(cg, a, b, c)
                )
                assert ordered_triple_path_exists(cg, a, b, c) == want, (a, b, c)
                assert ordered_triple_path_exists(cg, c, b, a) == want, (c, b, a)
                triples += 2
                hits += 2 * want
        assert triples == len(kset) * (len(kset) - 1) * (len(kset) - 2)
        assert hits > 0


class TestDeltaPath:
    def test_explicit_instance(self):
        cg = normalize(delta_instance())
        assert delta_path_exists(cg, 0, 1, 2)
        assert not delta_path_exists(cg, 0, 2, 1)

    def test_requires_cycle_free(self):
        cg = normalize(two_couples_square())
        with pytest.raises(InputError):
            delta_path_exists(cg, 0, 1, 0)
        with pytest.raises(InputError):
            delta_path_exists(cg, 0, 1, 1)

    def test_random_against_oracle_with_symmetry(self, rng):
        for _ in range(50):
            n = rng.choice([6, 8, 10, 12])
            inst = gen_random(n, 2, rng.choice([0.1, 0.2, 0.35]), seed=rng.randint(0, 10**6))
            cg = normalize(inst)
            kset = sorted(cg.cycle_free)
            if len(kset) < 3:
                continue
            for a, b, c in permutations(kset, 3):
                got = delta_path_exists(cg, a, b, c)
                assert got == oracle_delta_path(cg, a, b, c)
                assert got == delta_path_exists(cg, b, a, c)

    @pytest.mark.parametrize(
        "n,p,seed",
        [(8, 0.15, 775954), (8, 0.25, 966285), (10, 0.15, 239197), (10, 0.2, 965830), (10, 0.25, 482750)],
    )
    def test_side_component_tails_against_oracle(self, n, p, seed):
        # instances whose decisions end with c's edge inside a side
        # component other than its entry, where the tail to c is implied
        cg = normalize(gen_random(n, 2, p, seed))
        for a, b, c in permutations(sorted(cg.cycle_free), 3):
            assert delta_path_exists(cg, a, b, c) == oracle_delta_path(cg, a, b, c), (a, b, c)

    def test_agrees_with_added_edge_reference(self, monkeypatch):
        # every cycle-free ordered triple of five seeded families against
        # the per-c decision that adds an edge or asks a reach query
        calls = Counter()
        augment = couples_module._Union.augment

        def counted(self, *args, **kwargs):
            calls["kernel"] += 1
            return augment(self, *args, **kwargs)

        monkeypatch.setattr(couples_module._Union, "augment", counted)
        families = [(8, 0.35, 1500), (10, 0.3, 800), (12, 0.25, 500), (14, 0.2, 300), (16, 0.2, 150)]
        tally = Counter()
        triples = hits = 0
        for n, p, seeds in families:
            for seed in range(seeds):
                cg = normalize(gen_random(n, 2, p, seed))
                for a, b, c in permutations(sorted(cg.cycle_free), 3):
                    before = calls["kernel"]
                    got = delta_path_exists(cg, a, b, c)
                    calls["decided"] += calls["kernel"] > before
                    assert got == delta_path_by_added_edges(cg, a, b, c, tally), (n, p, seed, a, b, c)
                    triples += 1
                    hits += got
        assert (triples, hits) == (5880, 534)
        # the library asks the kernel exactly where the reference queries
        assert calls["decided"] == sum(tally.values()) >= 1000
        assert min(tally["free"], tally["side"]) > 0 and tally["entered"] >= 1000


class TestDeltaContext:
    def test_kernel_context_matches_explicit_decomposition(self):
        # every cycle-free player of 600 seeded sparse instances, n 6-30:
        # the context read off the scan's two search trees has the odd
        # components and cut set of the explicitly built graph
        contexts = 0
        for seed in range(600):
            n = 6 + seed % 25
            cg = normalize(gen_random(n, 2, (1.0, 1.5, 2.0)[seed % 3] / n, seed=seed))
            for a in sorted(cg.cycle_free):
                ctx = delta_context(cg, a)
                comps, cut = delta_context_by_graph(cg, a)
                assert ctx.comps == comps, (seed, a)
                assert {s for s, _ in ctx.entry.values()} == cut, (seed, a)
                au, av = cg.pairs[a]
                assert ctx.reach[au] | ctx.reach[av] == frozenset().union(*comps), (seed, a)
                for x in (au, av):
                    assert ctx.reach[x] == reach(cg.union, x, drop_players=(a,)), (seed, a)
                contexts += 1
        assert contexts > 2500

    def test_scan_matches_per_player_reference(self):
        # the one-pass scan against one cycle query per player and a
        # context from two reach queries per cycle-free player, on the
        # sweep above and on the dense n=8 family
        families = [(6 + seed % 25, (1.0, 1.5, 2.0)[seed % 3], seed) for seed in range(600)]
        families += [(8, 4.0, seed) for seed in range(600)]
        contexts = 0
        for n, scale, seed in families:
            cg = normalize(gen_random(n, 2, scale / n, seed=seed))
            assert cg.cycle_free == cycle_free_by_player(cg), (n, seed)
            for a in sorted(cg.cycle_free):
                assert delta_context(cg, a) == delta_context_by_reach(cg, a), (n, seed, a)
                contexts += 1
        assert contexts == 3788 + 56

    def test_scan_skips_players_on_a_found_cycle(self, monkeypatch):
        # one kernel query per player that no earlier cycle passes
        # through, and none for a context once the scan has run
        queries = count_queries(monkeypatch)
        cg = normalize(gen_random(40, 2, 1.5 / 40, 1))
        assert (cg.num_players, len(cg.cycle_free)) == (20, 13)
        assert queries["kernel"] == 16
        for a in cg.cycle_free:
            delta_context(cg, a)
        assert queries["kernel"] == 16

    def test_player_on_a_cycle_has_no_context(self):
        cg = normalize(two_couples_square())
        for p in range(2):
            with pytest.raises(InvariantError):
                delta_context(cg, p)

    def test_side_components_are_reached_from_their_entry(self):
        # an odd component is factor-critical, so alone it is even-reached
        # from its entry vertex, the one its base matching leaves exposed
        sides = 0
        for seed in range(600):
            n = 6 + seed % 25
            cg = normalize(gen_random(n, 2, (1.0, 1.5, 2.0)[seed % 3] / n, seed=seed))
            everything = range(cg.inst.graph.n)
            for a in sorted(cg.cycle_free):
                ctx = delta_context(cg, a)
                for j, (_, t) in ctx.entry.items():
                    comp = ctx.comps[j]
                    view = cg.union.without(v for v in everything if v not in comp)
                    assert reach(view, t) == comp, (seed, a, j)
                    sides += 1
        assert sides > 10000


class TestStrongCoreStructure:
    def test_edgeless(self):
        cg = normalize(couples_instance(6, []))
        s = strong_core_structure(cg)
        allp = frozenset(range(3))
        assert s.cycle_free == allp
        assert s.path_isolated == allp
        assert s.delta_closed == allp
        assert s.pair_transitive == allp
        assert s.pair_edges == frozenset()

    def test_delta_instance_pair(self):
        cg = normalize(delta_instance())
        s = strong_core_structure(cg)
        assert (0, 1) in s.pair_edges

    def test_cliques_on_random_instances(self, rng):
        for _ in range(30):
            n = rng.choice([4, 6, 8, 10])
            inst = gen_random(n, 2, rng.choice([0.15, 0.3]), seed=rng.randint(0, 10**6))
            cg = normalize(inst)
            s = strong_core_structure(cg)  # raises InvariantError on failure
            assert s.path_isolated <= s.cycle_free
            assert s.pair_transitive <= s.delta_closed <= s.cycle_free


class TestParallelPlayerEdges:
    """A real edge inside a player's own pair forms the degenerate two-edge
    alternating cycle; everything downstream must treat it as a cycle."""

    def test_membership_and_solvers_match_oracle(self, rng):
        for _ in range(25):
            n = rng.choice([4, 6, 8])
            base = gen_random(n, 2, rng.choice([0.2, 0.4]), seed=rng.randint(0, 10**6))
            extra = tuple(sorted(base.players[rng.randrange(len(base.players))]))
            inst = Instance(
                Graph(n, set(base.graph.edges) | {extra}), base.players
            )
            cg = normalize(inst)
            assert any(pr in cg.inst.graph.edge_set for pr in cg.pairs)
            for kind in ("weak", "strong"):
                oracle = oracle_core(inst, kind)
                seen = set()
                for m in all_matchings(inst.graph):
                    u = utility(inst, m)
                    if u in seen:
                        continue
                    seen.add(u)
                    res = (
                        weak_membership(cg, m)
                        if kind == "weak"
                        else strong_membership(cg, m)
                    )
                    assert res.in_core == (u in oracle.in_core)
            got = strong_core_solve(cg)
            assert (got is not None) == (not oracle_core(inst, "strong").empty)
            assert weak_membership(cg, weak_construct(cg)).in_core

    def test_delta_with_parallel_edge_elsewhere(self, rng):
        checked = 0
        for _ in range(60):
            n = rng.choice([8, 10])
            base = gen_random(n, 2, rng.choice([0.08, 0.15]), seed=rng.randint(0, 10**6))
            extra = tuple(sorted(base.players[rng.randrange(len(base.players))]))
            inst = Instance(
                Graph(n, set(base.graph.edges) | {extra}), base.players
            )
            cg = normalize(inst)
            kset = sorted(cg.cycle_free)
            if len(kset) < 3:
                continue
            brute = delta_triples_brute(cg)
            for a, b, c in permutations(kset, 3):
                assert delta_path_exists(cg, a, b, c) == (
                    (frozenset((a, b)), c) in brute
                )
                checked += 1
        assert checked > 0


class TestStrongCoreSolve:
    def test_perfect_matching_instance(self):
        cg = normalize(two_couples_square())
        m = strong_core_solve(cg)
        assert m is not None and m.covered == frozenset(range(4))

    def test_edgeless_returns_empty_matching(self):
        cg = normalize(couples_instance(4, []))
        m = strong_core_solve(cg)
        assert m is not None and m.size == 0
        assert strong_membership(cg, m).in_core

    def test_random_against_oracle(self, rng):
        for _ in range(40):
            n = rng.choice([4, 6, 8, 10])
            inst = gen_random(n, 2, rng.choice([0.2, 0.4]), seed=rng.randint(0, 10**6))
            cg = normalize(inst)
            oracle = oracle_core(inst, "strong")
            got = strong_core_solve(cg)
            assert (got is not None) == (not oracle.empty)
            if got is not None:
                assert strong_membership(cg, got).in_core

    def test_characterization_vector_sets_match_oracle(self, rng):
        instances = [
            gen_random(n, 2, rng.choice([0.25, 0.45]), seed=rng.randint(0, 10**6))
            for n in (rng.choice([4, 6, 8]) for _ in range(25))
        ]
        # few small random instances have pair edges at all; this seeded
        # family has enough to check the cliques of the delta-closed set
        family = [gen_random(8, 2, 0.3, seed) for seed in range(600)]
        assert sum(bool(strong_core_structure(normalize(i)).pair_edges) for i in family) >= 20
        for inst in instances + family:
            cg = normalize(inst)
            oracle = oracle_core(inst, "strong")
            pq = strong_core_quotas(cg)
            qvecs = {
                utility(inst, m)
                for m in all_matchings(inst.graph)
                if all(
                    len(m.covered & grp) >= q
                    for grp, q in zip(pq.groups, pq.quotas)
                )
            }
            assert qvecs == set(oracle.in_core)

    def test_uncovered_players_stay_in_transitive_set(self, rng):
        # observable form of the containment between the sets of players a
        # strong-core matching may leave short and the transitive set
        for _ in range(20):
            n = rng.choice([4, 6, 8])
            inst = gen_random(n, 2, rng.choice([0.25, 0.45]), seed=rng.randint(0, 10**6))
            cg = normalize(inst)
            oracle = oracle_core(inst, "strong")
            if oracle.empty:
                continue
            s = strong_core_structure(cg)
            for vec in oracle.in_core:
                for p, ui in enumerate(vec):
                    if ui < 2:
                        assert p in s.pair_transitive


class TestUnionKernel:
    """The masked, warm-started union query against perfect matching,
    maximum matching and alternating reach on an explicitly built graph."""

    @staticmethod
    def explicit(cg, drop_players, drop_vertices, restrict):
        nv = cg.inst.graph.n
        verts = set(range(nv)) if restrict is None else set(restrict)
        verts -= set(drop_vertices)
        edges = {e for e in cg.inst.graph.edges if verts.issuperset(e)}
        base = [
            pr
            for i, pr in enumerate(cg.pairs)
            if i not in drop_players and verts.issuperset(pr)
        ]
        edges |= set(base)
        to_old = sorted(verts)
        to_new = {v: i for i, v in enumerate(to_old)}
        g = Graph(len(to_old), [(to_new[u], to_new[v]) for u, v in edges])
        return g, Matching((to_new[u], to_new[v]) for u, v in base), to_old

    def test_random_queries_against_explicit_subgraph(self, rng):
        # 300 random queries with drops and restrictions
        checked = 0
        for _ in range(300):
            n = rng.choice([4, 5, 6, 8, 9, 10, 12, 13, 14])  # odd n pads a player
            inst = gen_random(n, 2, rng.choice([0.15, 0.3, 0.5]), seed=rng.randint(0, 10**6))
            cg = normalize(inst)
            nv = cg.inst.graph.n
            restrict = None
            if rng.random() < 0.4:
                restrict = {v for v in range(nv) if rng.random() < 0.75}
            view = cg.union if restrict is None else cg.union.without(set(range(nv)) - restrict)
            drop_players = set(rng.sample(range(cg.num_players), rng.randint(0, min(3, cg.num_players))))
            drop_vertices = set(rng.sample(range(nv), rng.randint(0, 2)))
            g, base, to_old = self.explicit(cg, drop_players, drop_vertices, restrict)
            for missing in (0, 2):
                found = view.augment(drop_players, drop_vertices, missing=missing)
                best = max_matching(g)
                assert (found is not None) == (g.n - 2 * best.size <= missing)
                if missing == 0:
                    assert (found is not None) == perfect_matching_exists(g)[0]
                if found is not None:
                    match, masked = found
                    assert len(match) == len(masked) == nv
                    got = Matching((to_old[u], match[to_old[u]]) for u in range(g.n) if match[to_old[u]] != -1)
                    assert got.covered <= set(to_old)
                    assert len(to_old) - len(got.covered) <= missing
                    for u, v in got.edges:
                        assert g.has_edge(to_old.index(u), to_old.index(v))
            if not drop_vertices:
                exposed = [v for v in range(g.n) if v not in base.covered]
                if exposed:
                    root = rng.choice(exposed)
                    want = alternating_reach(g, base, root)
                    got = reach(view, to_old[root], drop_players)
                    assert got == {to_old[v] for v in want}
            checked += 1
        assert checked == 300

    def test_vertex_past_the_count_is_a_fault(self):
        # a negative index would otherwise wrap round to the last vertex
        cg = normalize(three_couples_chain())
        for v in (6, 7, -1):
            with pytest.raises(InvariantError):
                cg.union.augment(drop_vertices=(v,))
            with pytest.raises(InvariantError):
                reach(cg.union, v)
            with pytest.raises(InvariantError):
                cg.union.without({v})
        restricted = cg.union.without({4, 5})
        for v in (4, 6):
            with pytest.raises(InvariantError):
                reach(restricted, v)
        assert restricted.augment(drop_players=(0,), drop_vertices=(4,), missing=2)

    def test_kept_deletions_compose(self, rng):
        for _ in range(200):
            n = rng.choice([4, 5, 8, 9, 12, 20])
            cg = normalize(gen_random(n, 2, rng.choice([0.15, 0.3, 0.6]), seed=rng.randint(0, 10**6)))
            nv = cg.inst.graph.n
            a = set(rng.sample(range(nv), rng.randint(0, nv)))
            b = set(rng.sample(range(nv), rng.randint(0, nv)))
            twice = cg.union.without(v for v in sorted(a)).without(b)
            once = cg.union.without(a | b)
            assert twice.gone == once.gone == a | b
            assert (twice.adj, twice.base, twice.exposed) == (once.adj, once.base, once.exposed)

    def test_threads_share_one_kernel(self):
        # views are never written after they are built: threads that
        # query them at once must each get the answers of a lone thread
        cg = normalize(gen_random(80, 2, 2.0 / 80, 11))
        views = [cg.union, cg.union.without(range(0, 80, 7))]

        def answers():
            out = []
            for view in views:
                for p, (u, v) in enumerate(cg.pairs):
                    if view.has(u) and view.has(v):
                        out.append(view.augment(drop_players=(p,)))
                        out.append(reach(view, u, drop_players=(p,)))
            return out

        want = answers()
        results = [None] * 6

        def work(k):
            results[k] = answers()

        threads = [
            threading.Thread(target=work, args=(k,), daemon=True) for k in range(len(results))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 30
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(got == want for got in results)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_queries_match_copying_reference(self, data):
        # several queries in a row on one view, so a query that wrote to
        # the view would show in the later ones; reach roots may be
        # matched or outside the view, so some queries raise InvariantError
        n = data.draw(st.integers(2, 16), label="n")
        p = data.draw(st.sampled_from([0.15, 0.3, 0.6]), label="p")
        cg = normalize(gen_random(n, 2, p, seed=data.draw(st.integers(0, 10**6), label="seed")))
        nv = cg.inst.graph.n
        vertex = st.integers(0, nv - 1)
        view = cg.union
        if data.draw(st.booleans(), label="restrict"):
            view = view.without(data.draw(st.sets(vertex, max_size=nv), label="gone"))
        for _ in range(data.draw(st.integers(1, 4), label="queries")):
            drop_players = data.draw(
                st.lists(st.integers(0, cg.num_players - 1), max_size=3, unique=True)
            )
            if data.draw(st.booleans()):
                drop_vertices = data.draw(st.lists(vertex, max_size=2))
                missing = data.draw(st.sampled_from([0, 2]))
                got = outcome(view.augment, drop_players, drop_vertices, missing)
                want = outcome(augment_by_copies, view, drop_players, drop_vertices, (), missing)
            else:
                root = data.draw(vertex)
                got = outcome(reach, view, root, drop_players)
                want = outcome(reach_by_copies, view, root, drop_players)
            assert got == want

    def test_search_that_raises_leaves_the_view_unchanged(self, monkeypatch):
        # an exception from inside a search that has already flipped its
        # path must leave the view as built, and later queries exact
        cg = normalize(gen_random(30, 2, 0.15, 5))
        real = couples_module._blossom_search

        def flip_then_fail(*args, **kwargs):
            if real(*args, **kwargs):
                raise RuntimeError("interrupted after flipping")
            return False

        fresh = couples_module._Union.of_game(cg)
        with monkeypatch.context() as patch:
            patch.setattr(couples_module, "_blossom_search", flip_then_fail)
            raised = 0
            for p in range(cg.num_players):
                try:
                    cg.union.augment(drop_players=(p,))
                except RuntimeError:
                    raised += 1
            assert raised
            # the scan's first search finds player 0's cycle and raises
            with pytest.raises(RuntimeError):
                cg.cycle_free
        assert (cg.union.adj, cg.union.base) == (fresh.adj, fresh.base)
        for p in range(cg.num_players):
            assert cg.union.augment(drop_players=(p,)) == augment_by_copies(cg.union, (p,)), p

    def test_query_copies_arrays_but_builds_no_graph(self, monkeypatch):
        # one dropped player on an n=20,000 view with n/2 random real
        # edges: the query copies the rows and the base matching and makes
        # one set of labels, about 80 bytes per vertex, and builds no Graph
        n = 20000
        rng = random.Random(7)
        edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n // 2)}
        view = normalize(couples_instance(n, sorted(edges))).union

        def no_graph(*args, **kwargs):
            raise AssertionError("a kernel query built a Graph")

        monkeypatch.setattr(Graph, "__init__", no_graph)
        monkeypatch.setattr(Graph, "_trusted", no_graph)
        tracemalloc.start()
        try:
            assert view.augment(drop_players=(0,)) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * n, peak


class TestStructureGolden:
    """Structures of sparse instances beyond the oracle's reach: n=40 and
    n=64 recorded with the engine that rebuilt a graph per query, n=120
    with the engine that tried each ordered triple's four tip pairs, n=240
    and n=320 with the engine that asked one kernel query per ordered
    triple."""

    CASES = {
        (40, 1): dict(
            cycle_free={0, 1, 5, 7, 8, 9, 10, 12, 14, 15, 17, 18, 19},
            path_isolated=set(),
            delta_closed={0, 1, 8, 9, 14, 15, 17, 18},
            pair_transitive={0, 1, 8, 9, 14, 15, 17, 18},
            pair_edges=set(),
            cliques=[{0}, {1}, {8}, {9}, {14}, {15}, {17}, {18}],
        ),
        (64, 20): dict(
            cycle_free={2, 14, 16, 17, 18, 20, 26, 28, 29},
            path_isolated={16},
            delta_closed={2, 14, 16, 17, 18, 26, 29},
            pair_transitive={2, 14, 16, 17, 18, 26, 29},
            pair_edges=set(),
            cliques=[{2}, {14}, {16}, {17}, {18}, {26}, {29}],
        ),
        (120, 3): dict(
            cycle_free={
                0, 1, 7, 8, 9, 11, 12, 13, 17, 18, 19, 21, 23, 24, 26, 27, 28,
                30, 34, 36, 38, 39, 40, 42, 43, 44, 45, 46, 47, 52, 54, 55, 56,
            },
            path_isolated={34},
            delta_closed={
                0, 7, 8, 9, 11, 17, 18, 19, 21, 24, 26, 27, 28, 30, 34, 36, 39,
                40, 42, 43, 44, 47, 55, 56,
            },
            pair_transitive={
                0, 7, 8, 9, 11, 17, 18, 19, 21, 24, 26, 27, 28, 30, 34, 36, 39,
                40, 42, 43, 44, 47, 55, 56,
            },
            pair_edges=set(),
            cliques=[
                {0}, {7}, {8}, {9}, {11}, {17}, {18}, {19}, {21}, {24}, {26},
                {27}, {28}, {30}, {34}, {36}, {39}, {40}, {42}, {43}, {44},
                {47}, {55}, {56},
            ],
        ),
        (240, 3): dict(
            cycle_free={
                0, 2, 3, 6, 7, 9, 12, 14, 15, 16, 20, 21, 22, 23, 24, 25, 26,
                28, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 45, 46, 48, 50, 52,
                53, 56, 57, 58, 60, 61, 63, 64, 65, 67, 69, 70, 71, 72, 73, 74,
                75, 77, 80, 81, 85, 86, 87, 89, 90, 93, 94, 95, 96, 97, 98, 99,
                100, 103, 104, 105, 107, 108, 109, 110, 112, 113, 115, 116,
                118, 119,
            },
            path_isolated={2, 21, 40, 50, 89, 98, 105},
            delta_closed={
                0, 2, 3, 6, 7, 16, 20, 21, 25, 31, 33, 35, 36, 37, 39, 40, 46,
                50, 53, 56, 57, 58, 64, 67, 69, 70, 72, 81, 85, 89, 94, 95, 96,
                98, 99, 100, 104, 105, 108, 113, 115, 116, 118, 119,
            },
            pair_transitive={
                0, 2, 3, 6, 7, 16, 20, 21, 25, 31, 33, 35, 36, 37, 39, 40, 46,
                50, 53, 56, 57, 58, 64, 67, 69, 70, 72, 81, 85, 89, 94, 95, 96,
                98, 99, 100, 104, 105, 108, 113, 115, 116, 118, 119,
            },
            pair_edges=set(),
            cliques=[
                {0}, {2}, {3}, {6}, {7}, {16}, {20}, {21}, {25}, {31}, {33},
                {35}, {36}, {37}, {39}, {40}, {46}, {50}, {53}, {56}, {57},
                {58}, {64}, {67}, {69}, {70}, {72}, {81}, {85}, {89}, {94},
                {95}, {96}, {98}, {99}, {100}, {104}, {105}, {108}, {113},
                {115}, {116}, {118}, {119},
            ],
        ),
        (320, 3): dict(
            cycle_free={
                0, 2, 3, 4, 5, 6, 9, 10, 11, 12, 13, 15, 17, 18, 19, 20, 22,
                23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 35, 36, 37, 38, 39,
                41, 44, 46, 47, 48, 50, 51, 52, 53, 57, 59, 60, 61, 65, 67, 68,
                69, 70, 72, 73, 74, 75, 76, 77, 78, 79, 80, 82, 84, 86, 89, 90,
                91, 92, 93, 94, 95, 96, 97, 98, 99, 101, 103, 104, 105, 107,
                108, 110, 111, 112, 113, 115, 116, 117, 118, 119, 120, 121,
                122, 124, 125, 126, 127, 128, 130, 131, 132, 133, 135, 136,
                137, 138, 139, 140, 142, 143, 144, 146, 147, 148, 149, 150,
                151, 152, 153, 154, 155, 156, 158,
            },
            path_isolated={20, 52, 68, 92, 133},
            delta_closed={
                6, 9, 10, 12, 15, 20, 22, 29, 32, 33, 36, 37, 38, 39, 41, 44,
                46, 50, 51, 52, 59, 67, 68, 70, 72, 73, 79, 82, 90, 92, 94, 95,
                98, 99, 101, 105, 108, 110, 113, 118, 119, 124, 127, 128, 133,
                135, 137, 142, 143, 144, 146, 147, 151, 158,
            },
            pair_transitive={
                6, 9, 10, 12, 15, 20, 22, 29, 32, 33, 36, 37, 38, 39, 41, 44,
                46, 50, 51, 52, 59, 67, 68, 70, 72, 73, 79, 82, 90, 92, 94, 95,
                98, 99, 101, 105, 108, 110, 113, 118, 119, 124, 127, 128, 133,
                135, 137, 142, 143, 144, 146, 147, 151, 158,
            },
            pair_edges=set(),
            cliques=[
                {6}, {9}, {10}, {12}, {15}, {20}, {22}, {29}, {32}, {33}, {36},
                {37}, {38}, {39}, {41}, {44}, {46}, {50}, {51}, {52}, {59},
                {67}, {68}, {70}, {72}, {73}, {79}, {82}, {90}, {92}, {94},
                {95}, {98}, {99}, {101}, {105}, {108}, {110}, {113}, {118},
                {119}, {124}, {127}, {128}, {133}, {135}, {137}, {142}, {143},
                {144}, {146}, {147}, {151}, {158},
            ],
        ),
    }

    @pytest.mark.parametrize("n,seed", sorted(CASES))
    def test_structure_pinned(self, n, seed):
        want = self.CASES[(n, seed)]
        s = strong_core_structure(normalize(gen_random(n, 2, 1.5 / n, seed)))
        assert s.cycle_free == want["cycle_free"]
        assert s.path_isolated == want["path_isolated"]
        assert s.delta_closed == want["delta_closed"]
        assert s.pair_transitive == want["pair_transitive"]
        assert s.pair_edges == want["pair_edges"]
        assert list(s.cliques) == want["cliques"]


class TestCertificateGolden:
    """Weak-core constructions and membership certificates of sparse
    instances, recorded with the engine that split every kernel answer
    into path and cycle components before picking the blocking one."""

    DIGEST = "1667175899d0703e4a1ee882a95bf1edcbfd0b923b319d97dbd632aebf49f30d"

    def test_certificates_pinned(self):
        records = []
        blocked = 0
        for n in (20, 40, 80):
            for seed in range(10):
                cg = normalize(gen_random(n, 2, 2.0 / n, seed))
                built = weak_construct(cg)
                short = Matching(max_matching(cg.inst.graph).edges[1:])
                record = [json.loads(matching_to_json(built))]
                for m in (built, short):
                    for core, test in (("weak", weak_membership), ("strong", strong_membership)):
                        res = test(cg, m)
                        blocked += not res.in_core
                        record.append(json.loads(certificate_to_json(core, res.certificate)))
                records.append(record)
        assert blocked >= 64
        text = json.dumps(records, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST
