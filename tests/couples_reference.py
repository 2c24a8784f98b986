"""Direct forms of couples-engine steps that tests compare the library against.

``ordered_triple_by_tips`` deletes the three player edges plus one tip
vertex of each end player and asks the union kernel for a perfect matching,
once per tip pair (up to four queries).  ``ordered_triple_one_query`` asks
once, on an explicit graph with two added vertices s and t joined to the
end players' tips.  The library answers each triple from the middle
player's component digraph instead.

``delta_context_by_graph`` builds the union without one player's edge as
an explicit ``Graph`` and decomposes it with ``gallai_edmonds``; the library
reads the same decomposition off the kernel's reach sets instead.
"""

from __future__ import annotations

from ntumatch import Graph, Matching, gallai_edmonds, max_matching
from ntumatch.couples import CouplesGame, _require_cycle_free


def ordered_triple_by_tips(cg: CouplesGame, a: int, b: int, c: int) -> bool:
    """Whether an alternating path ends at players ``a`` and ``c`` and
    traverses ``b``: some choice of tips x of ``a`` and y of ``c`` leaves a
    perfect matching once x, y and the three player edges are deleted."""
    _require_cycle_free(cg, (a, b, c))
    for x in cg.pairs[a]:
        for y in cg.pairs[c]:
            if cg.union.augment(drop_players=(a, b, c), drop_vertices=(x, y)) is not None:
                return True
    return False


def ordered_triple_one_query(cg: CouplesGame, a: int, b: int, c: int) -> bool:
    """The same question as one perfect-matching test: the real edges and
    every player edge but the three, plus a vertex s joined to both of
    ``a``'s vertices and a vertex t joined to both of ``c``'s.  s and t
    each take one tip, and because ``b`` is on no alternating cycle, the
    rest can only splice into one path through ``b``."""
    _require_cycle_free(cg, (a, b, c))
    n = cg.inst.graph.n
    s, t = n, n + 1
    kept = [pr for i, pr in enumerate(cg.pairs) if i not in (a, b, c)]
    g = Graph(
        n + 2,
        [
            *cg.inst.graph.edges,
            *kept,
            *((s, x) for x in cg.pairs[a]),
            *((t, y) for y in cg.pairs[c]),
        ],
    )
    return 2 * max_matching(g, seed_matching=Matching(kept)).size == g.n


def delta_context_by_graph(cg: CouplesGame, a: int):
    """Odd components and cut set of the union of the real edges and every
    player edge but ``a``'s."""
    g = Graph(
        cg.inst.graph.n,
        [*cg.inst.graph.edges, *(pr for i, pr in enumerate(cg.pairs) if i != a)],
    )
    ge = gallai_edmonds(g)
    return ge.odd_components, ge.cut_set
