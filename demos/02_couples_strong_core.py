"""Couples games: deciding strong-core existence in polynomial time.

The strong core is stricter than the weak one: a coalition already blocks
when nobody loses and somebody gains.  For couples it can be empty, but
emptiness is decidable through the structure of alternating paths and
cycles: which players sit on alternating cycles, which pairs of players
are tied together by cycle-plus-path structures, and how those pairs
clump into cliques.
"""

from ntumatch import (
    Graph,
    Instance,
    Matching,
    normalize,
    strong_core_solve,
    strong_core_structure,
    strong_membership,
    utility,
)

# three couples: an odd alternating cycle through A and B with a tail to C
A, B, C = (0, 1), (2, 3), (4, 5)
inst = Instance(
    Graph(6, [(0, 4), (1, 2), (3, 4)]),
    (frozenset(A), frozenset(B), frozenset(C)),
)
game = normalize(inst)

print("== structure ==")
s = strong_core_structure(game)
print(f"players free of alternating cycles: {sorted(s.cycle_free)}")
print(f"delta-closed players: {sorted(s.delta_closed)}")
print(f"cycle+path structure joins A and B: {(0, 1) in s.pair_edges}")
print(f"pair cliques: {[sorted(q) for q in s.cliques]}")

print()
print("== solving ==")
m = strong_core_solve(game)
if m is None:
    print("strong core is empty")
else:
    print(f"strong-core matching: {list(m.edges)} with utilities {utility(inst, m)}")
    print(f"verifies: {strong_membership(game, m).in_core}")

print()
print("== a half-covered matching is rejected ==")
half = Matching([(1, 2)])
res = strong_membership(game, half)
print(f"matching {list(half.edges)} in strong core? {res.in_core}")
if not res.in_core:
    c = res.certificate
    print(f"weakly blocked by {c.coalition} via {list(c.witness.edges)}")
