from itertools import combinations

import pytest

from ntumatch import (
    Graph,
    InputError,
    PartitionQuota,
    X3CInstance,
    attach_special_edge,
    coverage_rank,
    gen_3sat_weak_emptiness,
    gen_example1,
    gen_random,
    gen_x3c_strong,
    gen_x3c_weak,
    matching_with_lower_bounds,
)
from ntumatch.exhaustive import all_matchings
from ntumatch.matroids import _odd_components, _quota_matching, _union_ranks

from conftest import path_graph, random_graph, with_frames_to_spare
from exhaustive_reference import coverable_sets_brute, gallai_edmonds, induced_subgraph
from matroid_reference import (
    MatchingMatroid,
    matroid_intersection_max,
    quota_feasible,
    union_ranks_by_search,
)


def random_groups(rng, n, k_max):
    """Disjoint groups cut from a random sample of ``0..n-1``; the rest of
    the vertices stay ungrouped."""
    verts = rng.sample(range(n), rng.randint(1, n))
    k = rng.randint(1, min(k_max, len(verts)))
    cuts = sorted(rng.sample(range(1, len(verts)), k - 1))
    return tuple(frozenset(verts[a:b]) for a, b in zip([0, *cuts], [*cuts, len(verts)]))


def partition_indep(groups, quotas):
    def indep(x):
        return all(len(x & g) <= q for g, q in zip(groups, quotas))

    return indep


def brute_max_common(indep_a, indep_b, ground):
    best = 0
    gl = sorted(ground)
    for r in range(len(gl), -1, -1):
        for combo in combinations(gl, r):
            s = frozenset(combo)
            if indep_a(s) and indep_b(s):
                return r
    return best


class TestIntersection:
    def test_free_matroids(self):
        free = lambda s: True
        got = matroid_intersection_max(free, free, [10, 20, 30])
        assert got == frozenset({10, 20, 30})

    def test_two_partition_matroids(self):
        # quota 1 on {a,b} versus quota 1 on {b,c}: brute force max 2
        a = partition_indep([frozenset({0, 1})], [1])
        b = partition_indep([frozenset({1, 2})], [1])
        got = matroid_intersection_max(a, b, [0, 1, 2])
        assert len(got) == 2 == brute_max_common(a, b, [0, 1, 2])
        assert a(got) and b(got)

    def test_matching_vs_partition(self):
        # path on three vertices versus all-singleton quotas: brute max 2
        g = path_graph(3)
        mm = MatchingMatroid(g)
        pr = partition_indep(
            [frozenset({0}), frozenset({1}), frozenset({2})], [1, 1, 1]
        )
        got = matroid_intersection_max(pr, mm.indep, range(3))
        assert len(got) == 2 == brute_max_common(pr, mm.indep, range(3))

    def test_random_agreement_with_brute_force(self, rng):
        for _ in range(40):
            n = rng.randint(1, 7)
            g = random_graph(rng, n, 0.5)
            mm = MatchingMatroid(g)
            verts = list(range(n))
            rng.shuffle(verts)
            cut = rng.randint(1, n)
            groups = [frozenset(verts[:cut]), frozenset(verts[cut:])]
            groups = [x for x in groups if x]
            quotas = [rng.randint(0, len(x)) for x in groups]
            pr = partition_indep(groups, quotas)
            got = matroid_intersection_max(pr, mm.indep, range(n))
            assert pr(got) and mm.indep(got)
            assert len(got) == brute_max_common(pr, mm.indep, range(n))

    def test_exchange_axiom_spot_check(self, rng):
        # matching matroid: a smaller independent set can always borrow
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 7), 0.5)
            mm = MatchingMatroid(g)
            sets = [s for s in coverable_sets_brute(g)]
            small = rng.choice(sets)
            big = rng.choice(sets)
            if len(small) >= len(big):
                continue
            assert any(
                mm.indep(frozenset(small | {x})) for x in big - small
            )


class TestLowerBounds:
    def test_all_zero_quotas(self):
        g = path_graph(3)
        pq = PartitionQuota((frozenset({0}), frozenset({2})), (0, 0))
        got = matching_with_lower_bounds(g, pq)
        assert got is not None and got.size == 0

    def test_conflicting_singletons(self):
        g = path_graph(3)
        pq = PartitionQuota((frozenset({0}), frozenset({2})), (1, 1))
        assert matching_with_lower_bounds(g, pq) is None

    def test_quota_above_group_size_rejected(self):
        with pytest.raises(InputError):
            PartitionQuota((frozenset({0}),), (2,))

    def test_overlapping_groups_rejected(self):
        with pytest.raises(InputError):
            PartitionQuota((frozenset({0, 1}), frozenset({1})), (1, 1))

    def test_random_agreement_and_monotonicity(self, rng):
        for _ in range(60):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.choice([0.25, 0.5]))
            verts = list(range(n))
            rng.shuffle(verts)
            k = rng.randint(1, min(4, n))
            groups = []
            idx = 0
            for i in range(k):
                take = max(1, (n - idx) // (k - i))
                groups.append(frozenset(verts[idx: idx + take]))
                idx += take
                if idx >= n:
                    break
            quotas = tuple(rng.randint(0, len(x)) for x in groups)
            pq = PartitionQuota(tuple(groups), quotas)
            got = matching_with_lower_bounds(g, pq)
            want = any(
                all(len(m.covered & x) >= q for x, q in zip(groups, quotas))
                for m in all_matchings(g)
            )
            assert (got is not None) == want
            assert quota_feasible(g, pq) == want
            if got is not None:
                got.validate_for(g)
                assert all(
                    len(got.covered & x) >= q for x, q in zip(groups, quotas)
                )
                # decreasing any quota keeps the system feasible
                for i in range(len(quotas)):
                    if quotas[i] == 0:
                        continue
                    lowered = quotas[:i] + (quotas[i] - 1,) + quotas[i + 1:]
                    assert (
                        matching_with_lower_bounds(
                            g, PartitionQuota(tuple(groups), lowered)
                        )
                        is not None
                    )

    def test_padded_solver_agrees_with_duality_and_intersection(self, rng):
        cases = {"infeasible": 0, "zero quota": 0, "singleton": 0, "outside": 0}
        for _ in range(500):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.choice([0.2, 0.35, 0.5]))
            k = rng.randint(1, min(5, n))
            # label -1 leaves a vertex outside every group
            labels = [rng.randint(-1, k - 1) for _ in range(n)]
            groups = tuple(
                grp
                for grp in (
                    frozenset(v for v in range(n) if labels[v] == i)
                    for i in range(k)
                )
                if grp
            )
            quotas = tuple(
                rng.choice([0, rng.randint(0, len(grp)), len(grp)]) for grp in groups
            )
            pq = PartitionQuota(groups, quotas)
            got = matching_with_lower_bounds(g, pq)
            common = matroid_intersection_max(
                partition_indep(groups, quotas),
                MatchingMatroid(g).indep,
                frozenset().union(*groups),
            )
            assert (got is not None) == quota_feasible(g, pq)
            assert (got is not None) == (len(common) == sum(quotas))
            cases["infeasible"] += got is None
            cases["zero quota"] += 0 in quotas
            cases["singleton"] += any(len(grp) == 1 for grp in groups)
            cases["outside"] += -1 in labels
            if got is not None:
                got.validate_for(g)
                assert max(got.covered, default=-1) < g.n
                assert all(
                    len(got.covered & grp) >= q for grp, q in zip(groups, quotas)
                )
        assert all(count >= 25 for count in cases.values()), cases

    def test_out_of_range_group_vertex_rejected(self):
        # unchecked, vertex 2 would alias the first group's padding vertex
        # and the system would read as infeasible
        g = Graph(2, [(0, 1)])
        pq = PartitionQuota((frozenset({0, 1}), frozenset({2})), (1, 1))
        with pytest.raises(InputError, match="vertex 2 out of range"):
            matching_with_lower_bounds(g, pq)

    def test_quota_matching_within_equals_induced_subgraph(self, rng):
        # rows cut to a vertex set give the induced subgraph's answer edge
        # for edge: relabelling to its ids keeps every search's order
        for _ in range(150):
            n = rng.randint(2, 14)
            g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.7]))
            within = frozenset(rng.sample(range(n), rng.randint(1, n)))
            order = sorted(within, key=lambda v: rng.random())
            cuts = sorted(rng.sample(range(1, len(order)), rng.randint(0, len(order) - 1)))
            groups = tuple(
                frozenset(order[a:b]) for a, b in zip([0, *cuts], [*cuts, len(order)])
            )
            quotas = tuple(rng.randint(0, len(grp)) for grp in groups)
            sub, to_old = induced_subgraph(g, within)
            to_new = {v: i for i, v in enumerate(to_old)}
            pq = PartitionQuota(
                tuple(frozenset(map(to_new.__getitem__, grp)) for grp in groups), quotas
            )
            want = matching_with_lower_bounds(sub, pq)
            got = _quota_matching(g, within, groups, quotas)
            assert (got is None) == (want is None) == (not quota_feasible(sub, pq))
            if want is not None:
                assert got.edges == tuple((to_old[u], to_old[v]) for u, v in want.edges)

    def test_union_ranks_against_brute_force(self, rng):
        for _ in range(40):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.choice([0.25, 0.5]))
            verts = list(range(n))
            rng.shuffle(verts)
            k = rng.randint(1, min(6, n))
            cuts = sorted(rng.sample(range(1, n), k - 1))
            groups = tuple(
                frozenset(verts[a:b]) for a, b in zip([0, *cuts], [*cuts, n])
            )
            coverable = coverable_sets_brute(g)
            ranks = _union_ranks(g, groups)
            assert len(ranks) == 1 << k
            for mask, rank in enumerate(ranks):
                union = frozenset().union(
                    *(grp for i, grp in enumerate(groups) if mask >> i & 1)
                )
                assert rank == max(len(x & union) for x in coverable)

    def test_union_ranks_match_coverage_rank_with_ungrouped_vertices(self, rng):
        # the incremental table against one coverage_rank call per union;
        # vertices outside every group keep their pendants throughout
        ungrouped = 0
        for _ in range(200):
            n = rng.randint(1, 16)
            g = random_graph(rng, n, rng.choice([0.1, 0.25, 0.5]))
            groups = random_groups(rng, n, 6)
            ranks = _union_ranks(g, groups)
            for mask, rank in enumerate(ranks):
                union = frozenset().union(
                    *(grp for i, grp in enumerate(groups) if mask >> i & 1)
                )
                assert rank == coverage_rank(g, union)
            ungrouped += sum(map(len, groups)) < n
        assert ungrouped

    def test_union_ranks_reject_out_of_range_vertices(self):
        with pytest.raises(InputError, match="vertex 2 out of range"):
            _union_ranks(Graph(2, [(0, 1)]), (frozenset({0}), frozenset({2})))


class TestUnionRanksByDecomposition:
    def test_equal_to_search_reference_on_random_graphs(self, rng):
        kinds = {"edgeless": 0, "perfect": 0, "ungrouped in a component": 0}
        for i in range(2400):
            n = rng.randint(1, 18)
            if i % 4 == 0:
                g = Graph(n)
            elif i % 4 == 1:
                # a perfect matching on a random pairing: D is empty, so
                # every rank is the plain size of the union
                n += n % 2
                order = rng.sample(range(n), n)
                extra = random_graph(rng, n, rng.choice([0.1, 0.3])).edges
                g = Graph(n, [*zip(order[::2], order[1::2]), *extra])
            else:
                g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.35, 0.6]))
            groups = random_groups(rng, n, 7)
            assert _union_ranks(g, groups) == union_ranks_by_search(g, groups)
            comps = _odd_components(g)
            grouped = frozenset().union(*groups)
            kinds["edgeless"] += not g.edges and n > 1
            kinds["perfect"] += not comps
            kinds["ungrouped in a component"] += any(
                len(members) > 1 and not grouped >= set(members) for members, _ in comps
            )
        assert min(kinds.values()) >= 200, kinds

    def test_equal_to_search_reference_on_gadgets(self):
        e1 = gen_example1()
        yes = X3CInstance(6, ((1, 2, 3), (2, 3, 4), (4, 5, 6)))
        no = X3CInstance(6, ((1, 2, 3), (2, 5, 6), (3, 4, 5)))
        insts = [
            e1.instance,
            attach_special_edge(e1.instance, e1.name_map["a1"], e1.name_map["b1"]).instance,
            *(gen_3sat_weak_emptiness([c]).instance for c in ((1, 2, 3), (1, -2, 3), (1, 1, 2))),
            *(gen(x).instance for gen in (gen_x3c_weak, gen_x3c_strong) for x in (yes, no)),
        ]
        for inst in insts:
            assert _union_ranks(inst.graph, inst.players) == union_ranks_by_search(
                inst.graph, inst.players
            )

    @pytest.mark.parametrize(
        "n, k, seed", [(400, 13, 1), (400, 14, 2), (800, 13, 3), (800, 14, 4)]
    )
    def test_equal_to_search_reference_at_scale(self, n, k, seed):
        # k players of n // k vertices and one of the rest, average degree 2.4
        inst = gen_random(n, n // k, 2.4 / n, seed)
        assert _union_ranks(inst.graph, inst.players) == union_ranks_by_search(
            inst.graph, inst.players
        )

    def test_odd_components_are_the_gallai_edmonds_decomposition(self, rng):
        for _ in range(400):
            g = random_graph(rng, rng.randint(1, 16), rng.choice([0.1, 0.2, 0.35, 0.6]))
            ge = gallai_edmonds(g)
            comps = _odd_components(g)
            assert tuple(frozenset(m) for m, _ in comps) == ge.odd_components
            for members, cut in comps:
                assert members == sorted(members)
                assert cut == sorted({w for v in members for w in g.adj[v]} - set(members))
            assert frozenset().union(*(cut for _, cut in comps)) == ge.cut_set

    def test_long_augmenting_chain_runs_without_recursion(self):
        # the path c0 a1 c1 a2 ... ct a(t+1) c(t+1): the c's are the odd
        # components and the a's the cut set.  c1..ct take a1..at first, so
        # c0 reaches the free a(t+1) only through all of them
        t = 3000
        g = path_graph(2 * t + 3)
        groups = (frozenset(range(2, 2 * t + 1, 2)), frozenset({0}), frozenset({2 * t + 2}))
        assert len(_odd_components(g)) == t + 2
        want = union_ranks_by_search(g, groups)
        assert want == [0, t, 1, t + 1, 1, t + 1, 2, t + 1]
        assert with_frames_to_spare(40, lambda: _union_ranks(Graph(g.n, g.edges), groups)) == want

    def test_mask_walk_runs_without_recursion(self):
        # a star whose 17 leaves are odd components, each inside its own
        # player: every player is touched, and a mask walk that recursed
        # once per player would need about 27 frames, this one about 16.  A
        # union covers the centre and a leaf when it holds the centre's
        # player, else one leaf
        star = Graph(18, [(0, v) for v in range(1, 18)])
        groups = (frozenset({0, 1}), *(frozenset({v}) for v in range(2, 18)))
        assert len(_odd_components(star)) == 17
        want = [2 if w & 1 else int(w > 0) for w in range(1 << 17)]
        assert with_frames_to_spare(22, lambda: _union_ranks(star, groups)) == want
        for w in range(0, 1 << 17, 4051):
            union = frozenset().union(*(g for i, g in enumerate(groups) if w >> i & 1))
            assert want[w] == coverage_rank(star, union), w
