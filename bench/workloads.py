"""Inputs, query lists and expected answers of the four workloads.

Every instance comes from ``ntumatch.generators``.  The random families
use fixed generator seeds, chosen so that each instance sits in the cost
range its workload is about.  The run's ``--seed`` draws a random
isomorphic copy of every instance, permuting vertex ids within each player,
and the signs of the satisfiability formulas.  The seed thus changes the
bytes the program reads and the order its searches meet vertices in, but
not the graph shapes or player order that set most of the cost: the
engines' costs move by 5-20% per query with the labelling alone, and by
far more between independently drawn graphs, which ten seeds of a few
instances each could not average out.

Each workload returns ``Query`` objects.  Expected exit codes come from
sources independent of the engine under test where one exists: brute-force
exact cover and satisfiability for the gadgets, the paper's theorems
(couples weak cores are never empty; example1's weak core is empty), a
maximum matching as blocking witness, and the couples engine as a second
opinion on the oracle.  ``check`` revalidates an output after the timed
passes: matchings against the graph, certificates through
``BlockCertificate.validate``, couples-engine core membership for matchings
the oracle returns.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

# (n, edge probability numerator, generator seed): sparse couples
# instances, for each n the first two generator seeds with 9-16 cycle-free
# players and a strong solve of 0.3-1.0 s on the reference machine, so the
# cubic phases of strong_core_structure dominate without one instance
# dominating the pass.
COUPLES_STRUCTURE = tuple(
    (n, 1.5, seed)
    for n, seeds in ((40, (1, 8)), (48, (2, 11)), (56, (1, 6)), (64, (1, 20)))
    for seed in seeds
)
COUPLES_STRUCTURE_TINY = ((20, 1.5, 1),)
# (n, edge probability numerator, generator seed) for couples_verify:
# twelve instances, because each one's cost moves with the labelling, over
# three sizes, so that the median query sits inside a cluster of similar
# queries rather than on the gap between two.
COUPLES_VERIFY = tuple((n, 2.0, 100 + 10 * n + j) for n in (300, 400, 500) for j in range(4))
COUPLES_VERIFY_TINY = ((40, 2.0, 1),)
# (n, edge probability, generator seed): the criterion-3 oracle family.
# n=14 at p=0.5 is left out: one query there takes 2.6-4 s.
ORACLE_SMALL = tuple(
    (n, p, 900 + i)
    for i, (n, p) in enumerate(
        (n, p) for n in (10, 12, 14) for p in (0.15, 0.3, 0.5) if (n, p) != (14, 0.5)
    )
)
ORACLE_SMALL_TINY = ((8, 0.3, 1),)
# exact-cover instances (with a cover, without one) behind the x3c gadgets
X3C = ((6, ((1, 2, 3), (2, 3, 4), (4, 5, 6))), (6, ((1, 2, 3), (2, 5, 6), (3, 4, 5))))
X3C_TINY = ((3, ((1, 2, 3),)), (6, ((1, 2, 3), (3, 4, 5))))


@dataclass
class Query:
    name: str
    argv: list
    expect_rc: Optional[int]  # None: either verdict is acceptable
    check: Callable[[int, str], Optional[str]]  # revalidates (exit code, stdout)
    save_as: Optional[str] = None  # where the client keeps this query's stdout


class Files:
    def __init__(self, root: str):
        self.root = root

    def put(self, name: str, text: str) -> str:
        path = os.path.join(self.root, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return path

    def put_instance(self, nm, name: str, inst) -> tuple:
        """Writes ``inst`` and returns its path with the instance as the
        CLI reads it back, whose player indices certificates refer to."""
        text = nm.serialize.instance_to_json(inst)
        return self.put(name, text), nm.serialize.instance_from_json(text)


def relabel(nm, inst, rng: random.Random, matching=None):
    """A random isomorphic copy of ``inst`` (and of ``matching``) that
    permutes vertex ids within each player.  Every player keeps its vertex
    set and so its index, and the engines' player-order scans meet players
    in the same order; which vertices the edges join changes."""
    perm = list(range(inst.graph.n))
    for p in inst.players:
        ids = sorted(p)
        shuffled = ids[:]
        rng.shuffle(shuffled)
        for a, b in zip(ids, shuffled):
            perm[a] = b
    graph = nm.Graph(inst.graph.n, [(perm[u], perm[v]) for u, v in inst.graph.edges])
    copy = nm.Instance(graph, inst.players)
    if matching is None:
        return copy
    return copy, nm.Matching((perm[u], perm[v]) for u, v in matching.edges)


# ---------------------------------------------------------------------------
# independent answers


def exact_cover_exists(elements: int, sets) -> bool:
    want = frozenset(range(1, elements + 1))
    for k in range(len(sets) + 1):
        for pick in itertools.combinations(sets, k):
            covered = [x for s in pick for x in s]
            if len(covered) == len(set(covered)) and frozenset(covered) == want:
                return True
    return False


def satisfiable(clauses) -> bool:
    variables = sorted({abs(lit) for cl in clauses for lit in cl})
    for values in itertools.product((False, True), repeat=len(variables)):
        truth = dict(zip(variables, values))
        if all(any(truth[abs(l)] == (l > 0) for l in cl) for cl in clauses):
            return True
    return False


# ---------------------------------------------------------------------------
# output checks


def _matching_of(nm, out: str):
    obj = json.loads(out)
    return nm.Matching(tuple(e) for e in obj["edges"])


def check_matching(nm, inst, member: Optional[tuple] = None):
    """A solve output must be a matching of ``inst``; with ``member`` =
    (couples game, core), it must also pass that core's couples test."""

    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return None
        m = _matching_of(nm, out)
        m.validate_for(inst.graph)
        if member is not None:
            cg, core = member
            test = nm.weak_membership if core == "weak" else nm.strong_membership
            if not test(cg, m).in_core:
                return f"returned matching is not in the {core} core"
        return None

    return check


def check_certificate(nm, inst, challenged, core: str):
    """A blocked verdict's certificate must revalidate independently."""

    def check(rc: int, out: str) -> Optional[str]:
        obj = json.loads(out)
        if obj["verdict"] != ("in_core" if rc == 0 else "blocked"):
            return f"verdict {obj['verdict']} disagrees with exit code {rc}"
        if obj["kind"] != core:
            return f"certificate kind {obj['kind']} for a {core}-core query"
        if rc == 1:
            witness = nm.Matching(tuple(e) for e in obj["witness"])
            cert = nm.BlockCertificate(
                tuple(obj["coalition"]),
                witness,
                "strong" if core == "weak" else "weak",
            )
            cert.validate(inst, nm.utility(inst, challenged))
        return None

    return check


def check_certificate_of_file(nm, inst, path: str, core: str):
    """Like ``check_certificate`` for a challenged matching the client
    wrote during the pass."""

    def check(rc: int, out: str) -> Optional[str]:
        with open(path, encoding="utf-8") as fh:
            challenged = _matching_of(nm, fh.read())
        return check_certificate(nm, inst, challenged, core)(rc, out)

    return check


# ---------------------------------------------------------------------------
# workloads


def couples_structure(nm, files: Files, rng: random.Random, tiny: bool) -> list:
    queries = []
    for n, c, seed in COUPLES_STRUCTURE_TINY if tiny else COUPLES_STRUCTURE:
        path, inst = files.put_instance(
            nm, f"cs{n}-{seed}.json", relabel(nm, nm.gen_random(n, 2, c / n, seed), rng)
        )
        cg = nm.normalize(inst)
        queries.append(
            Query(
                f"solve-strong-n{n}-{seed}",
                ["solve", "--core", "strong", "--method", "couples", "--instance", path],
                None,
                check_matching(nm, inst, member=(cg, "strong")),
            )
        )
    return queries


def couples_verify(nm, files: Files, rng: random.Random, tiny: bool) -> list:
    queries = []
    for i, (n, c, seed) in enumerate(COUPLES_VERIFY_TINY if tiny else COUPLES_VERIFY):
        path, inst = files.put_instance(
            nm, f"cv{i}.json", relabel(nm, nm.gen_random(n, 2, c / n, seed), rng)
        )
        solved = os.path.join(files.root, f"cv{i}-weak.json")
        # a maximum matching minus its first edge: the grand coalition
        # with the maximum matching as witness weakly blocks it
        best = nm.max_matching(inst.graph)
        challenged = nm.Matching(best.edges[1:])
        cpath = files.put(f"cv{i}-challenged.json", nm.serialize.matching_to_json(challenged))
        common = ["--method", "couples", "--instance", path]
        queries += [
            Query(
                f"solve-weak-{i}",
                ["solve", "--core", "weak", *common],
                0,  # couples weak cores are never empty
                check_matching(nm, inst),
                save_as=solved,
            ),
            Query(
                f"verify-weak-{i}",
                ["verify", "--core", "weak", *common, "--matching", solved],
                0,  # the weak-core matching the solver just returned
                check_certificate_of_file(nm, inst, solved, "weak"),
            ),
            Query(
                f"verify-strong-{i}",
                ["verify", "--core", "strong", *common, "--matching", cpath],
                1,
                check_certificate(nm, inst, challenged, "strong"),
            ),
        ]
    return queries


def const_gadgets(nm, files: Files, rng: random.Random, tiny: bool) -> list:
    queries = []

    def core_empty(name, inst, expect_weak):
        path, inst = files.put_instance(nm, f"{name}.json", inst)
        for core in ("weak", "strong"):
            # strong core within weak core: an empty weak core forces both
            expect = expect_weak if core == "weak" else (1 if expect_weak == 1 else None)
            queries.append(
                Query(
                    f"core-empty-{core}-{name}",
                    ["core-empty", "--core", core, "--method", "const", "--instance", path],
                    expect,
                    check_matching(nm, inst),
                )
            )

    def verify(name, gen, core, expect):
        inst, challenged = relabel(nm, gen.instance, rng, gen.matching)
        path, inst = files.put_instance(nm, f"{name}.json", inst)
        mpath = files.put(f"{name}-m.json", nm.serialize.matching_to_json(challenged))
        queries.append(
            Query(
                f"verify-{core}-{name}",
                ["verify", "--core", core, "--method", "const",
                 "--instance", path, "--matching", mpath],
                expect,
                check_certificate(nm, inst, challenged, core),
            )
        )

    # example1's weak core is empty (the paper's three-player instance)
    core_empty("example1", relabel(nm, nm.gen_example1().instance, rng), 1)
    if not tiny:
        # one clause over three distinct variables (nine players) and one
        # with a repeated variable (eight players).  The run draws the signs,
        # which leave the gadget's shape and player order alone; the weak
        # core is non-empty exactly when the formula is satisfiable
        x, y, z = (v * rng.choice((1, -1)) for v in (1, 2, 3))
        for name, clause in (("sat3", (x, y, z)), ("sat2", (x, x, y))):
            gadget = nm.gen_3sat_weak_emptiness([clause]).instance
            core_empty(name, relabel(nm, gadget, rng), 0 if satisfiable([clause]) else 1)
    yes, no = X3C_TINY if tiny else X3C
    # the challenged matching is in the weak core exactly when no exact
    # cover exists; only the blocked strong case is measured (the in-core
    # one takes seconds to tens of seconds)
    for name, (elements, sets), gen, core in (
        ("x3c-weak-yes", yes, nm.gen_x3c_weak, "weak"),
        ("x3c-weak-no", no, nm.gen_x3c_weak, "weak"),
        ("x3c-strong-yes", yes, nm.gen_x3c_strong, "strong"),
    ):
        expect = 1 if exact_cover_exists(elements, sets) else 0
        verify(name, gen(nm.X3CInstance(elements, sets)), core, expect)
    return queries


def oracle_small(nm, files: Files, rng: random.Random, tiny: bool) -> list:
    queries = []
    for i, (n, p, seed) in enumerate(ORACLE_SMALL_TINY if tiny else ORACLE_SMALL):
        path, inst = files.put_instance(
            nm, f"o{i}.json", relabel(nm, nm.gen_random(n, 2, p, seed), rng)
        )
        cg = nm.normalize(inst)
        # second opinion from the couples engine: weak cores are never
        # empty, strong-core emptiness is decided by its structure
        strong_rc = 0 if nm.strong_core_solve(cg) is not None else 1
        for core, expect in (("weak", 0), ("strong", strong_rc)):
            queries.append(
                Query(
                    f"solve-{core}-n{n}-p{p}",
                    ["solve", "--core", core, "--method", "oracle", "--instance", path],
                    expect,
                    check_matching(nm, inst, member=(cg, core)),
                )
            )
    return queries


WORKLOADS = {
    "couples_structure": couples_structure,
    "couples_verify": couples_verify,
    "const_gadgets": const_gadgets,
    "oracle_small": oracle_small,
}
