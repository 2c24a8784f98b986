import hashlib
import importlib
import json
import pkgutil
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ntumatch
from ntumatch import (
    Graph,
    InputError,
    Matching,
    coverable,
    coverage_rank,
    max_matching,
)
from ntumatch.exhaustive import all_matchings
from ntumatch.graphs import (
    _augment,
    _blossom_search,
    _Labels,
    _match_array,
    _matching_number,
    bipartition,
)

from conftest import cycle_graph, path_graph, random_graph, random_matching
from exhaustive_reference import (
    alternating_reach,
    augment_by_search,
    coverable_sets_brute,
    even_reach_brute,
    gallai_edmonds,
    induced_subgraph,
    perfect_matching_exists,
)


def small_graphs(max_n=9):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            lambda es: Graph(n, es),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=n * (n - 1) // 2,
            ),
        )
    )


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 2)])

    def test_deduplicates_orientation(self):
        g = Graph(3, [(2, 0), (0, 2)])
        assert g.edges == ((0, 2),)

    def test_matching_rejects_shared_vertex(self):
        with pytest.raises(InputError):
            Matching([(0, 1), (1, 2)])


class TestMaxMatching:
    def test_empty_graph(self):
        assert max_matching(Graph(3)).size == 0

    def test_path_three(self):
        assert max_matching(path_graph(3)).size == 1

    def test_seed_is_validated(self):
        with pytest.raises(InputError):
            max_matching(path_graph(3), Matching([(0, 2)]))

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, g):
        best = max((m.size for m in all_matchings(g)), default=0)
        assert max_matching(g).size == best

    def test_seed_coverage_preserved(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 10), 0.4)
            seed = random_matching(rng, g)
            result = max_matching(g, seed)
            assert seed.covered <= result.covered
            assert result.size == max_matching(g).size

    def test_deterministic(self, rng):
        g = random_graph(rng, 9, 0.5)
        assert max_matching(g) == max_matching(g)

    def test_induced_matching_number(self, rng):
        # seeded from the whole graph's matching, searched inside the subset
        for _ in range(200):
            n = rng.randint(1, 14)
            g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.6]))
            keep = frozenset(rng.sample(range(n), rng.randint(0, n)))
            sub, _ = induced_subgraph(g, keep)
            assert _matching_number(g, keep) == max_matching(sub).size


class TestPerfectAndMissing:
    def test_single_edge(self):
        ok, w = perfect_matching_exists(Graph(2, [(0, 1)]))
        assert ok and w.size == 1

    def test_odd_path(self):
        assert perfect_matching_exists(path_graph(3))[0] is False

    def test_four_cycle(self):
        # brute force: the 4-cycle has exactly 2 perfect matchings
        g = cycle_graph(4)
        pm = [m for m in all_matchings(g) if m.size == 2]
        assert len(pm) == 2
        assert perfect_matching_exists(g)[0]


class TestGallaiEdmonds:
    def test_triangle(self):
        ge = gallai_edmonds(cycle_graph(3))
        assert ge.cut_set == frozenset()
        assert ge.even_part == frozenset()
        assert ge.odd_components == (frozenset({0, 1, 2}),)

    def test_single_edge(self):
        ge = gallai_edmonds(Graph(2, [(0, 1)]))
        assert ge.cut_set == frozenset()
        assert ge.even_part == frozenset({0, 1})
        assert ge.odd_components == ()

    def test_star(self):
        # derived by enumerating the maximum matchings of the 3-leaf star:
        # every leaf is exposable, the center never is
        ge = gallai_edmonds(Graph(4, [(0, 1), (0, 2), (0, 3)]))
        assert ge.cut_set == frozenset({0})
        assert ge.even_part == frozenset()
        assert set(ge.odd_components) == {
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        }

    def test_structure_properties(self, rng):
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.4, 0.7]))
            ge = gallai_edmonds(g)
            nu = max_matching(g).size
            parts = [ge.cut_set, ge.even_part, *ge.odd_components]
            assert sum(len(p) for p in parts) == g.n
            assert len(ge.odd_components) - len(ge.cut_set) == g.n - 2 * nu
            assert ge.witness.size == nu
            for comp in ge.odd_components:
                assert len(comp) % 2 == 1
                for v in comp:
                    sub, _ = induced_subgraph(g, comp - {v})
                    assert perfect_matching_exists(sub)[0]

    def test_deficient_part_is_exposable_set(self, rng):
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 7), 0.4)
            ge = gallai_edmonds(g)
            nu = max_matching(g).size
            exposable = set()
            for m in all_matchings(g):
                if m.size == nu:
                    exposable |= set(range(g.n)) - m.covered
            deficient = set().union(*ge.odd_components) if ge.odd_components else set()
            assert exposable == deficient


class TestAlternatingReach:
    def test_forced_path(self):
        assert {0, 2} <= alternating_reach(path_graph(3), Matching([(1, 2)]), 0)

    def test_isolated_root(self):
        assert alternating_reach(Graph(3, [(1, 2)]), Matching([(1, 2)]), 0) == {0}

    def test_blossom_five_cycle(self):
        # odd cycle with a near-perfect matching reaches every vertex
        f = alternating_reach(cycle_graph(5), Matching([(1, 2), (3, 4)]), 0)
        assert f == frozenset(range(5))

    def test_covered_root_rejected(self):
        with pytest.raises(InputError):
            alternating_reach(path_graph(3), Matching([(0, 1)]), 0)

    def test_matches_brute_force_with_valid_paths(self, rng):
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 8), rng.choice([0.25, 0.5]))
            if len(g.edges) > 12:
                continue
            m = random_matching(rng, g)
            for root in range(g.n):
                if root in m.covered:
                    continue
                assert alternating_reach(g, m, root) == even_reach_brute(g, m, root)


class TestCoverable:
    def test_path_opposite_ends(self):
        assert coverable(path_graph(3), [0, 2]) is None

    def test_path_one_end(self):
        w = coverable(path_graph(3), [0])
        assert w is not None and 0 in w.covered

    def test_all_subsets_match_brute_force(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8), rng.choice([0.25, 0.5, 0.8]))
            covsets = coverable_sets_brute(g)
            for bits in range(1 << g.n):
                x = frozenset(i for i in range(g.n) if bits >> i & 1)
                want = any(x <= s for s in covsets)
                got = coverable(g, x)
                assert (got is not None) == want
                if got is not None:
                    assert x <= got.covered
                rank_want = max((len(x & s) for s in covsets), default=0)
                assert coverage_rank(g, x) == rank_want

    def test_seed_must_be_maximum(self):
        # the smallest graph where augmenting from the empty matching fails:
        # root 0 takes 1, root 2 then reaches 1's pendant through 0, and
        # root 3 is left with no partner
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        w = coverable(g, {0, 2, 3})
        assert w is not None and w.edges == ((0, 3), (1, 2))
        assert coverage_rank(g, {0, 2, 3}) == 3

    def test_rank_accepts_any_iterable(self):
        g = Graph(3, [(0, 1), (1, 2)])
        ranks = {coverage_rank(g, x) for x in ([0, 2], {0, 2}, frozenset({0, 2}))}
        assert ranks == {1}


class TestDerivedStructure:
    def test_no_module_level_cache(self):
        # __main__ runs the CLI on import
        names = [m.name for m in pkgutil.iter_modules(ntumatch.__path__)]
        for name in sorted(set(names) - {"__main__"}):
            mod = importlib.import_module(f"ntumatch.{name}")
            for attr, obj in vars(mod).items():
                assert not hasattr(obj, "cache_clear"), f"ntumatch.{name}.{attr}"

    def test_memo_stays_on_its_graph(self):
        g = cycle_graph(5)
        assert coverable(g, [0, 1]) is not None and coverage_rank(g, [0, 2]) == 2
        assert g._match is not None
        fresh = cycle_graph(5)
        assert fresh == g and hash(fresh) == hash(g)
        assert fresh._match is None


@st.composite
def blossom_graphs(draw):
    """A graph with blossoms and a matching of it.

    One large component grows from an odd cycle by odd ears, each a new
    odd cycle through one earlier vertex, plus a few chords, so blossoms
    nest when contracted; small odd cycles and single edges follow it.  A
    search rooted in the large component covers most of the graph, one
    rooted in a small component only a few vertices.
    """
    edges = []

    def cycle(verts):
        edges.extend(zip(verts, verts[1:] + verts[:1]))

    n = draw(st.sampled_from([3, 5, 7]))
    cycle(list(range(n)))
    ears = st.tuples(st.integers(0, 10**6), st.sampled_from([3, 5]))
    for at, length in draw(st.lists(ears, max_size=5)):
        cycle([at % n, *range(n, n + length - 1)])
        n += length - 1
    chords = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for u, v in draw(st.lists(chords, max_size=4)):
        if u != v:
            edges.append((u, v))
    for size in draw(st.lists(st.sampled_from([2, 3, 5]), min_size=1, max_size=3)):
        if size == 2:
            edges.append((n, n + 1))
        else:
            cycle(list(range(n, n + size)))
        n += size
    g = Graph(n, edges)
    order = draw(st.permutations(g.edges))
    keep = draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
    chosen, covered = [], set()
    for (u, v), k in zip(order, keep):
        if k and u not in covered and v not in covered:
            chosen.append((u, v))
            covered.update((u, v))
    return g, Matching(chosen)


def reference_search(adj, match, root, augment):
    """Edmonds search as written before label reuse: fresh arrays, and each
    blossom relabels by a scan of every vertex.  Returns what
    ``_blossom_search`` does, with the parent array in reach mode."""
    n = len(adj)
    parent, base, used = [-1] * n, list(range(n)), [False] * n
    used[root] = True
    queue = [root]
    for v in queue:
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                marks = set()
                x = v
                while True:
                    x = base[x]
                    marks.add(x)
                    if match[x] == -1:
                        break
                    x = parent[match[x]]
                cur = to
                while True:
                    cur = base[cur]
                    if cur in marks:
                        break
                    cur = parent[match[cur]]
                blossom = [False] * n
                for x, child in ((v, to), (to, v)):
                    while base[x] != cur:
                        blossom[base[x]] = blossom[base[match[x]]] = True
                        parent[x] = child
                        child = match[x]
                        x = parent[match[x]]
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = cur
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    if augment:
                        u = to
                        while u != -1:
                            pv, ppv = parent[u], match[parent[u]]
                            match[u], match[pv] = pv, u
                            u = ppv
                        return True
                elif not used[match[to]]:
                    used[match[to]] = True
                    queue.append(match[to])
    return False if augment else (queue, parent)


def assert_blank(labels, n):
    assert labels.parent == [-1] * n
    assert labels.base == list(range(n))
    assert labels.used == [False] * n


class TestLabelReuse:
    """Searches through one shared ``_Labels`` agree with searches on fresh
    arrays, by the same code and by the full-scan reference, and leave the
    labels blank once cleared."""

    @given(
        blossom_graphs(),
        st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), min_size=1, max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_shared_labels_match_fresh_search(self, gm, searches):
        g, m = gm
        shared = _Labels(g.n)
        match = _match_array(g.n, m)
        by_fresh, by_scan = list(match), list(match)
        for augment, pick in searches:
            exposed = [v for v in range(g.n) if match[v] == -1]
            if not exposed:
                break
            root = exposed[pick % len(exposed)]
            fresh = _Labels(g.n)
            want = _blossom_search(g.adj, by_fresh, root, fresh, augment=augment)
            scanned = reference_search(g.adj, by_scan, root, augment)
            before = list(match)
            got = _blossom_search(g.adj, match, root, shared, augment=augment)
            assert got == want
            assert match == by_fresh == by_scan
            if augment:
                # a found path lists exactly the vertices it rematched
                assert bool(got) == scanned
                assert set(got or ()) == {v for v in range(g.n) if match[v] != before[v]}
            else:
                assert set(got) == {v for v in range(g.n) if fresh.used[v]}
                assert shared.parent == fresh.parent
                assert (got, shared.parent) == scanned
            shared.clear()
            assert_blank(shared, g.n)

    def test_both_reset_paths(self):
        # a 9-cycle with a triangle on vertex 0, then 12 disjoint edges
        edges = [(i, (i + 1) % 9) for i in range(9)] + [(0, 9), (9, 10), (10, 0)]
        edges += [(v, v + 1) for v in range(11, 35, 2)]
        g = Graph(35, edges)
        match = [-1] * g.n
        labels = _Labels(g.n)
        arrays = labels.parent, labels.base, labels.used
        # one edge: the tree touches two vertices, so they are reset in place
        assert _blossom_search(g.adj, match, 11, labels, augment=True)
        labels.clear()
        assert all(a is b for a, b in zip((labels.parent, labels.base, labels.used), arrays))
        assert_blank(labels, g.n)
        # the flower: match the 9-cycle but 8, and the triangle's other edge
        for v in range(0, 8, 2):
            match[v], match[v + 1] = v + 1, v
        match[9], match[10] = 10, 9
        even = _blossom_search(g.adj, match, 8, labels, augment=False)
        assert sorted(even) == list(range(11))  # every vertex of the flower
        labels.clear()  # 11 + odd vertices of 35: fresh arrays
        assert not any(a is b for a, b in zip((labels.parent, labels.base, labels.used), arrays))
        assert_blank(labels, g.n)


class TestAugment:
    def test_roots_in_order_and_stop(self):
        # 0-1 matched, 2 isolated, 3-4 a free edge
        g = Graph(5, [(0, 1), (3, 4)])
        for stop, after in ((True, -1), (False, 4)):
            match = [1, 0, -1, -1, -1]
            assert _augment(g.adj, match, [2, 3], _Labels(g.n), stop) == 1
            assert match[3] == after
        # 4 is covered by the time its turn comes, so it is not searched
        match = [1, 0, -1, -1, -1]
        assert _augment(g.adj, match, [3, 4, 0], _Labels(g.n)) == 0
        assert match == [1, 0, -1, 4, 3]

    @pytest.mark.parametrize("stop", [False, True])
    def test_greedy_step_matches_search_only_loop(self, stop):
        rng = random.Random(2718 + stop)
        greedy = 0
        for _ in range(400):
            n = rng.randint(1, 16)
            g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.35, 0.6]))
            seed = _match_array(n, random_matching(rng, g, rng.random()))
            roots = rng.sample(range(n), rng.randint(0, n))
            fast, slow = list(seed), list(seed)
            failed = _augment(g.adj, fast, roots, _Labels(n), stop)
            assert failed == augment_by_search(g.adj, slow, roots, _Labels(n), stop)
            assert fast == slow
            greedy += any(seed[r] == -1 and -1 in map(seed.__getitem__, g.adj[r]) for r in roots)
        assert greedy > 100  # the sweep exercises the greedy step

    def test_greedy_step_and_empty_row_run_no_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("searched")

        monkeypatch.setattr(ntumatch.graphs, "_blossom_search", no_search)
        # 4 has no edge; 0 takes 2, the first of its exposed neighbours,
        # and 1 takes 3, its one neighbour left exposed
        g = Graph(5, [(0, 2), (0, 3), (1, 3)])
        match = [-1] * 5
        assert _augment(g.adj, match, [4, 0, 1], _Labels(g.n)) == 1
        assert match == [2, 3, 0, 1, -1]


def coverage_sweep():
    """``(graph, x, rank, witness)`` of 240 seeded random coverage queries."""
    rng = random.Random(4242)
    out = []
    for _ in range(40):
        n = rng.randint(4, 14)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5]))
        for _ in range(6):
            x = sorted(v for v in range(n) if rng.random() < 0.5)
            w = coverable(g, x)
            out.append((g, x, coverage_rank(g, frozenset(x)), w))
    return out


def sweep_json(sweep, witnesses=True):
    """The sweep as JSON rows ``[x, rank, witness]``: the witness's edges
    (null for none), or with ``witnesses`` False only whether one exists."""

    def shown(w):
        if not witnesses:
            return w is not None
        return None if w is None else [list(e) for e in w.edges]

    return json.dumps([[x, rank, shown(w)] for _, x, rank, w in sweep])


class TestCoverageGolden:
    # sha256 of the sweep's [x, rank, witness is not None] list, recorded
    # with the Gallai-Edmonds contact-graph coverage that preceded greedy
    # augmentation: verdicts and ranks must not move
    VERDICT_DIGEST = "916644bc09b428ecf1f1a88d1b213c9a1702f2d49a5284a6e5ee1527296c6e70"
    # sha256 of the sweep's JSON with its witnesses, recorded with greedy
    # augmentation from the memoised maximum matching
    DIGEST = "dd286bc73de51e9089a0d9c0bd1f3afc0dfcba538f5d514b81d8c729dbdc887d"

    def test_witnesses_and_ranks_unchanged(self):
        sweep = coverage_sweep()
        assert sum(w is not None for *_, w in sweep) == 156
        verdicts = sweep_json(sweep, witnesses=False)
        assert hashlib.sha256(verdicts.encode()).hexdigest() == self.VERDICT_DIGEST
        first = sweep_json(sweep)
        assert hashlib.sha256(first.encode()).hexdigest() == self.DIGEST
        assert sweep_json(coverage_sweep()) == first

    def test_witnesses_are_matchings_covering_x(self):
        for g, x, _, w in coverage_sweep():
            if w is not None:
                w.validate_for(g)
                assert set(x) <= w.covered


class TestBipartition:
    def test_even_cycle(self):
        assert bipartition(cycle_graph(6)) is not None

    def test_odd_cycle(self):
        assert bipartition(cycle_graph(5)) is None
