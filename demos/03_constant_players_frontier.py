"""Few players, many vertices: cores through maximal utility vectors.

Whether a matching is blocked depends only on how many vertices each
player has covered.  With few players we can therefore list every
component-wise maximal achievable utility vector, test each one, and
realize the first unblocked one: the core is empty exactly when all of
them are blocked.

The showcase instance is the classic three-player, 21-vertex example
whose weak core is empty.
"""

from ntumatch import core_empty, frontier, gen_example1, max_matching, utility

gen = gen_example1()
inst = gen.instance
print(f"instance: {inst.graph.n} vertices, {len(inst.graph.edges)} edges, "
      f"{inst.num_players} players of sizes {[len(p) for p in inst.players]}")
print(f"maximum matching covers {2 * max_matching(inst.graph).size} vertices")
print(f"the shipped maximum matching has utilities {utility(inst, gen.matching)}")

fr = frontier(inst)
print(f"\nmaximal achievable utility vectors ({len(fr.maximal_vectors)}):")
for v in fr.maximal_vectors:
    print(f"  {v}  (sum {sum(v)})")

for kind in ("weak", "strong"):
    got = core_empty(inst, kind)
    verdict = "EMPTY" if got is None else f"non-empty, witness {list(got.edges)}"
    print(f"\n{kind} core: {verdict}")

print("\nevery maximal vector is blocked by a two-player coalition, so no")
print("matching at all survives: the weak core of this instance is empty.")
