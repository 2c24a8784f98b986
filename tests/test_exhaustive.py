from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntumatch import (
    Graph,
    InputError,
    Instance,
    Matching,
    ResourceLimitError,
    gen_example1,
    gen_random,
    solve,
    utility,
    verify,
)
from ntumatch import exhaustive
from ntumatch.exhaustive import (
    OracleCoreResult,
    _disjoint,
    _matching_of,
    _maxima,
    all_matchings,
    count_matchings,
    oracle_core,
)
from ntumatch.couples import normalize
from ntumatch.games import DEFAULT_BUDGET, ENUMERATION_PLAYER_GUARD

from conftest import cycle_graph, path_graph, random_graph
from exhaustive_reference import (
    blocked_reference,
    coalition_maxima_reference,
    disjoint_reference,
    even_reach_brute,
    first_by_vector_reference,
    induced_subgraph,
    oracle_delta_path,
)


def recursive_matchings(g: Graph) -> list[Matching]:
    """Include/exclude over the sorted edges, exclude first, recursively:
    the order ``all_matchings`` promises."""
    out = []

    def rec(i, used, chosen):
        if i == len(g.edges):
            out.append(Matching(chosen))
            return
        u, v = g.edges[i]
        rec(i + 1, used, chosen)
        if u not in used and v not in used:
            rec(i + 1, used | {u, v}, chosen + [(u, v)])

    rec(0, frozenset(), [])
    return out


def definitional_tables(inst: Instance) -> list:
    """``(coalition, sorted maximal vectors, vector -> first matching)``
    per coalition, smallest first, each from every matching of the
    coalition's induced subgraph, as the definition reads."""
    m_players = len(inst.players)
    tables = []
    for size in range(1, m_players + 1):
        for coalition in combinations(range(m_players), size):
            verts = set().union(*(inst.players[i] for i in coalition))
            sub, to_old = induced_subgraph(inst.graph, verts)
            vecs: dict = {}
            for m in all_matchings(sub):
                covered = {to_old[v] for v in m.covered}
                vec = tuple(len(inst.players[i] & covered) for i in coalition)
                vecs.setdefault(vec, Matching((to_old[u], to_old[v]) for u, v in m.edges))
            maximal = sorted(
                v
                for v in vecs
                if not any(w != v and all(a >= b for a, b in zip(w, v)) for w in vecs)
            )
            tables.append((coalition, maximal, vecs))
    return tables


def definitional_oracle_core(inst: Instance, kind: str, tables: list):
    """The first matching of every utility vector, the in-core vectors
    (ascending) and, per blocked vector, its coalition and witness matching,
    from ``definitional_tables``, blocking checked coalition by coalition,
    smallest first."""
    reps: dict = {}
    for m in all_matchings(inst.graph):
        reps.setdefault(utility(inst, m), m)
    in_core, blocked = [], {}
    for u in sorted(reps):
        hit = None
        for coalition, maximal, vecs in tables:
            proj = tuple(u[i] for i in coalition)
            for w in maximal:
                if kind == "weak":
                    blocks = all(a > b for a, b in zip(w, proj))
                else:
                    blocks = w != proj and all(a >= b for a, b in zip(w, proj))
                if blocks:
                    hit = (coalition, vecs[w])
                    break
            if hit is not None:
                break
        if hit is None:
            in_core.append(u)
        else:
            blocked[u] = hit
    return reps, tuple(in_core), blocked


class TestAllMatchings:
    def test_triangle(self):
        assert count_matchings(cycle_graph(3)) == 4

    def test_single_edge(self):
        assert count_matchings(Graph(2, [(0, 1)])) == 2

    def test_no_duplicates(self, rng):
        g = random_graph(rng, 7, 0.5)
        seen = list(all_matchings(g))
        assert len(seen) == len({m.edges for m in seen})

    def test_component_product(self):
        # disjoint-union count equals the product of per-component counts
        gen = gen_example1()
        assert count_matchings(gen.instance.graph) == 26**3 * 4**2

    def test_cap(self):
        g = Graph(20, [(2 * i, 2 * i + 1) for i in range(10)])
        with pytest.raises(ResourceLimitError):
            count_matchings(g, cap=100)

    def test_cap_is_exact(self):
        g = cycle_graph(5)
        assert count_matchings(g, cap=11) == 11
        with pytest.raises(ResourceLimitError):
            count_matchings(g, cap=10)

    def test_order_is_include_exclude(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8), 0.45)
            assert list(all_matchings(g)) == recursive_matchings(g)

    def test_long_path_hits_cap_not_recursion_limit(self):
        with pytest.raises(ResourceLimitError):
            count_matchings(path_graph(1300), cap=1000)


class TestDisjoint:
    def test_equals_quadratic_definition(self, rng):
        graphs = [
            Graph(0),
            Graph(5),  # edgeless
            Graph(9, [(1, 2), (2, 5), (5, 7)]),  # 0, 3, 4, 6 and 8 isolated
            Graph(7, [(0, v) for v in range(1, 7)]),  # a star: no disjoint pair
            *(random_graph(rng, rng.randint(2, 14), rng.choice((0.15, 0.3, 0.6))) for _ in range(80)),
        ]
        for g in graphs:
            assert _disjoint(g.edges) == disjoint_reference(g.edges), g.edges
        # a star next to an edge: the edge is disjoint from every spoke
        assert _disjoint([(0, 1), (0, 2), (0, 3), (4, 5)]) == [8, 8, 8, 7]


class TestEvenReachBrute:
    def test_long_alternating_path(self):
        # 0 - 1 = 2 - 3 = 4 ... : every even vertex is reachable from 0
        n = 1201
        m = Matching((i, i + 1) for i in range(1, n - 1, 2))
        reached = even_reach_brute(path_graph(n), m, 0)
        assert reached == frozenset(range(0, n, 2))


def encode(vec, width: int = 3) -> int:
    """``vec`` in ``width``-bit fields, the first coordinate most significant."""
    return sum(x << width * (len(vec) - 1 - i) for i, x in enumerate(vec))


class TestParetoMaximal:
    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.tuples(st.just(k), st.sets(st.tuples(*[st.integers(0, 3)] * k), max_size=40))
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_quadratic_definition(self, data):
        k, vectors = data
        expected = sorted(
            v
            for v in vectors
            if not any(w != v and all(a >= b for a, b in zip(w, v)) for w in vectors)
        )
        # values up to 3 fit three-bit fields under their guard bits
        got = _maxima(map(encode, vectors), int("4" * k, 8))
        assert got == list(map(encode, expected))


class TestOracleCore:
    def test_perfect_matching_instance(self):
        inst = Instance(
            Graph(4, [(0, 1), (2, 3)]),
            (frozenset({0, 1}), frozenset({2, 3})),
        )
        res = oracle_core(inst, "weak")
        assert (2, 2) in res.in_core
        assert not res.empty

    def test_example1_weak_core_empty(self):
        gen = gen_example1()
        assert oracle_core(gen.instance, "weak").empty

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_is_an_input_error(self, cap):
        # checked before the player guard, so before any work
        guard = ENUMERATION_PLAYER_GUARD
        many = Instance(Graph(guard + 1), tuple(frozenset({v}) for v in range(guard + 1)))
        for inst in (gen_example1().instance, many):
            with pytest.raises(InputError, match=f"^budget must be at least 1, got {cap}$"):
                oracle_core(inst, "weak", cap=cap)

    def test_player_guard_is_the_enumeration_guard(self):
        guard = ENUMERATION_PLAYER_GUARD
        many = Instance(Graph(guard + 1), tuple(frozenset({v}) for v in range(guard + 1)))
        with pytest.raises(ResourceLimitError, match=f"more than {guard} players"):
            oracle_core(many, "weak")

    def test_certificates_validate(self, rng):
        from ntumatch import BlockCertificate

        inst = Instance(
            Graph(4, [(0, 1), (1, 2), (2, 3)]),
            (frozenset({0, 1}), frozenset({2, 3})),
        )
        res = oracle_core(inst, "strong")
        for vec, (coalition, witness) in res.blocked.items():
            cert = BlockCertificate(coalition, res.realize(witness), "weak")
            cert.validate(inst, vec)


    @pytest.mark.parametrize("class_cap", [1, 2, 3])
    def test_equals_definitional_tables(self, class_cap):
        sizes = {1: (3, 5, 7, 8), 2: (5, 7, 9, 11), 3: (6, 8, 10, 11)}[class_cap]
        for seed in range(16):
            n = sizes[seed % 4]
            inst = gen_random(n, class_cap, (0.2, 0.35, 0.5)[seed % 3], 300 + seed)
            expected = definitional_tables(inst)
            for kind in ("weak", "strong"):
                res = oracle_core(inst, kind)
                reps, in_core, blocked = definitional_oracle_core(inst, kind, expected)
                assert res.in_core == in_core, (seed, kind)
                assert res.blocked.keys() == blocked.keys(), (seed, kind)
                for vec, (coalition, witness) in res.blocked.items():
                    assert (coalition, res.realize(witness)) == blocked[vec], (seed, kind)
                for vec in reps:
                    assert res.realize(vec) == reps[vec], (seed, kind)
            ref_first = first_by_vector_reference(inst, DEFAULT_BUDGET)
            got = list(coalition_maxima_reference(ref_first, len(inst.players)))
            assert [coalition for coalition, _ in got] == [c for c, _, _ in expected]
            for (_, table), (coalition, maximal, vecs) in zip(got, expected):
                assert [w for w, _ in table] == maximal, (seed, coalition)
                assert [res.realize(vec) for _, vec in table] == [vecs[w] for w in maximal]


def pairs_instance(n_pairs: int, edges, big: int = 0) -> Instance:
    """Players ``0..big-1`` as one player when ``big``, then consecutive
    vertex pairs, on ``big + 2 * n_pairs`` vertices."""
    players = [frozenset(range(big))] if big else []
    players += [frozenset({big + 2 * i, big + 2 * i + 1}) for i in range(n_pairs)]
    return Instance(Graph(big + 2 * n_pairs, edges), tuple(players))


EQUIVALENCE_CASES = [
    *(
        gen_random(n, class_cap, p, 1900 + 20 * class_cap + seed)
        for class_cap in (1, 2, 3)
        for seed, (n, p) in enumerate(
            (n, p) for n in (2, 5, 8, 10) for p in (0.2, 0.4, 0.7) if n * p < 6
        )
    ),
    pairs_instance(3, []),  # edgeless
    Instance(Graph(3, [(0, 1), (1, 2)]), (frozenset({0, 1, 2}),)),  # one player
    # players 0, 2 and 4 have no edges: first, in the middle and last
    pairs_instance(5, [(2, 6), (3, 7), (2, 7), (6, 3)]),
    # one player of 12 vertices on a 12-cycle, which can match all 12, a
    # count of four bits under its field's guard, next to three pairs it
    # touches
    pairs_instance(3, [(i, (i + 1) % 12) for i in range(12)] + [(0, 12), (5, 14), (11, 17)], 12),
    gen_random(18, 2, 0.3, 3),  # 9 players, 7,392 vectors
    *(gen_random(3 * k, 3, p, 2900 + 10 * k + s) for k in (2, 3, 4) for p in (0.25, 0.4) for s in range(2)),
]

# one player of 130 vertices, all but six of them isolated: its count
# needs a field of eight bits and a guard, next to three pairs
WIDE = pairs_instance(3, [(0, 130), (1, 132), (2, 134), (3, 4), (5, 131), (1, 2), (133, 135)], 130)


def assert_equals_reference(inst: Instance) -> None:
    """``oracle_core``'s in-core vectors, blocked table, per-vector lookup
    and realized matchings, both kinds, against the reference phases."""
    ref_first = first_by_vector_reference(inst, DEFAULT_BUDGET)
    for kind in ("weak", "strong"):
        strong = kind == "weak"  # the weak core forbids strong blocks
        maxima = coalition_maxima_reference(ref_first, inst.num_players)
        ref_blocked = blocked_reference(maxima, ref_first, strong)
        res = oracle_core(inst, kind)
        assert res.in_core == tuple(v for v in sorted(ref_first) if v not in ref_blocked), kind
        for vec, (_, chosen) in ref_first.items():
            assert res.blocking(vec) == ref_blocked.get(vec), (kind, vec)
            assert res.realize(vec) == _matching_of(inst.graph, chosen), (kind, vec)
        assert list(res.blocked.items()) == list(ref_blocked.items()), kind


class TestOracleAgainstReference:
    """The walk and the per-vector scan against the phases they replaced,
    which build every coalition's table and block coalition by coalition."""

    @pytest.mark.parametrize("case", range(len(EQUIVALENCE_CASES)))
    def test_equals_reference_phases(self, case):
        assert_equals_reference(EQUIVALENCE_CASES[case])

    def test_class_wider_than_small_fields(self):
        assert_equals_reference(WIDE)
        res = oracle_core(WIDE, "strong")
        assert max(v[0] for v in res.blocked.keys() | set(res.in_core)) == 6

    def test_no_edges(self):
        inst = Instance(Graph(5), (frozenset({0, 1, 2}), frozenset({3}), frozenset({4})))
        assert_equals_reference(inst)
        for kind in ("weak", "strong"):
            res = oracle_core(inst, kind)
            assert (res.in_core, res.blocked) == (((0, 0, 0),), {})

    def test_empty_matching_vector(self):
        for inst in EQUIVALENCE_CASES[:6] + [WIDE]:
            zero = (0,) * inst.num_players
            ref_first = first_by_vector_reference(inst, DEFAULT_BUDGET)
            for kind in ("weak", "strong"):
                ref = blocked_reference(
                    coalition_maxima_reference(ref_first, inst.num_players), ref_first, kind == "weak"
                )
                res = oracle_core(inst, kind)
                assert res.realize(zero) == Matching(())
                assert res.blocking(zero) == ref.get(zero)

    def test_unachievable_vectors_raise_key_error(self):
        # two-vertex players get three-bit fields: 4 is a guard bit and 8
        # the next field's low bit, neither an achievable count
        inst = pairs_instance(3, [(0, 2), (1, 4), (3, 5)])
        res = oracle_core(inst, "weak")
        for vec in ((0, 0, 4), (0, 0, 8), (0, 0, -1), (0, 0), (0, 0, 0, 0), (2, 2, 1)):
            with pytest.raises(KeyError):
                res.realize(vec)
            with pytest.raises(KeyError):
                res.blocking(vec)

    @given(
        st.integers(1, 5).flatmap(
            lambda k: st.tuples(st.just(k), st.sets(st.tuples(*[st.integers(0, 3)] * k), max_size=30))
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_blocking_equals_reference(self, data):
        # synthetic vectors with no graph behind them: both facts the scan
        # rests on hold for any set, whether or not it holds the zero vector
        k, vectors = data
        first = {v: (sum(1 << i for i, x in enumerate(v) if x), ()) for v in vectors}
        for kind in ("weak", "strong"):
            ref = blocked_reference(coalition_maxima_reference(first, k), first, kind == "weak")
            res = OracleCoreResult(kind, None, k, 3, {encode(v): None for v in vectors})
            assert [res.blocking(v) for v in vectors] == [ref.get(v) for v in vectors], kind
            assert list(res.blocked.items()) == list(ref.items()), kind
            assert res.in_core == tuple(sorted(v for v in vectors if v not in ref)), kind

    def test_cap_counts_matchings(self):
        # K4 split into two players: its 10 matchings cover 8 distinct
        # vertex sets and reach 5 vectors, and the cap counts the 10
        g = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        inst = Instance(g, (frozenset({0, 1}), frozenset({2, 3})))
        total = count_matchings(g)
        assert total == 10
        assert len({m.covered for m in all_matchings(g)}) == 8
        for kind in ("weak", "strong"):
            assert len(oracle_core(inst, kind, cap=total).in_core) >= 1
            with pytest.raises(ResourceLimitError):
                oracle_core(inst, kind, cap=total - 1)


# n = 6..12, two or three vertices a class, three densities: 336 instances
SHORTCUT_FAMILY = [
    gen_random(n, class_cap, p, 3300 + seed)
    for n in range(6, 13)
    for class_cap in (2, 3)
    for p in (0.15, 0.3, 0.5)
    for seed in range(8)
]


def assert_best_is_last_in_core(inst: Instance) -> None:
    for kind in ("weak", "strong"):
        res = oracle_core(inst, kind)
        best, empty = res.best, res.empty
        assert "in_core" not in vars(res), kind
        assert best == (res.in_core[-1] if res.in_core else None), kind
        assert empty == (not res.in_core), kind


class TestOracleShortcut:
    """``best`` and ``empty`` read the largest unblocked maximum (fact 4)
    and never build ``in_core``, whose last entry they must equal."""

    @pytest.mark.parametrize("case", range(len(EQUIVALENCE_CASES)))
    def test_best_is_last_in_core_on_equivalence_cases(self, case):
        assert_best_is_last_in_core(EQUIVALENCE_CASES[case])

    def test_best_is_last_in_core_on_wide_and_synthetic_sets(self):
        assert_best_is_last_in_core(WIDE)
        # sets with no graph behind them, with and without the zero vector
        for vectors in ({(0, 0)}, set(), {(1, 0), (0, 1)}, {(0, 0), (1, 2), (2, 1), (1, 1)}):
            for kind in ("weak", "strong"):
                res = OracleCoreResult(kind, None, 2, 3, {encode(v): None for v in vectors})
                assert res.best == (res.in_core[-1] if res.in_core else None), (vectors, kind)

    def test_best_is_last_in_core_on_seeded_family(self):
        assert len(SHORTCUT_FAMILY) >= 300
        for inst in SHORTCUT_FAMILY:
            assert_best_is_last_in_core(inst)

    def test_best_and_blocking_build_no_in_core(self):
        inst = EQUIVALENCE_CASES[-1]
        for kind in ("weak", "strong"):
            res = oracle_core(inst, kind)
            res.blocking((0,) * inst.num_players)
            assert "in_core" not in vars(res), kind
            assert res.empty == (res.best is None), kind
            assert "in_core" not in vars(res), kind

    @pytest.mark.parametrize("case", range(0, len(EQUIVALENCE_CASES), 3))
    def test_solve_realizes_last_in_core(self, case):
        inst = EQUIVALENCE_CASES[case]
        for kind in ("weak", "strong"):
            res = oracle_core(inst, kind)
            expected = res.realize(res.in_core[-1]) if res.in_core else None
            assert solve(inst, kind, method="oracle").matching == expected, kind

    def test_engines_build_no_in_core(self, monkeypatch):
        results = []

        def recording(*args, **kwargs):
            results.append(oracle_core(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(exhaustive, "oracle_core", recording)
        inst = gen_random(10, 2, 0.3, 3)
        for kind in ("weak", "strong"):
            solve(inst, kind, method="oracle")
            verify(inst, Matching(), kind, method="oracle")
        assert len(results) == 4
        assert not any("in_core" in vars(res) for res in results)


class TestOracleDelta:
    def test_explicit_instance(self):
        inst = Instance(
            Graph(6, [(0, 4), (1, 2), (3, 4)]),
            (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})),
        )
        cg = normalize(inst)
        assert oracle_delta_path(cg, 0, 1, 2)
        assert not oracle_delta_path(cg, 0, 2, 1)

    def test_edgeless(self):
        inst = Instance(
            Graph(6), tuple(frozenset({2 * i, 2 * i + 1}) for i in range(3))
        )
        cg = normalize(inst)
        assert not oracle_delta_path(cg, 0, 1, 2)
