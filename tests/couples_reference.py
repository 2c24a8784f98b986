"""Direct forms of couples-engine steps that tests compare the library against.

``ordered_triple_by_tips`` deletes the three player edges plus one tip
vertex of each end player and asks the union kernel for a perfect matching,
once per tip pair (up to four queries); the library answers each triple
with one query on a graph with two added vertices instead.

``delta_context_by_graph`` builds the union without one player's edge as
an explicit ``Graph`` and decomposes it with ``gallai_edmonds``; the library
reads the same decomposition off the kernel's reach sets instead.
"""

from __future__ import annotations

from ntumatch import Graph, gallai_edmonds
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


def delta_context_by_graph(cg: CouplesGame, a: int):
    """Odd components and cut set of the union of the real edges and every
    player edge but ``a``'s."""
    g = Graph(
        cg.inst.graph.n,
        [*cg.inst.graph.edges, *(pr for i, pr in enumerate(cg.pairs) if i != a)],
    )
    ge = gallai_edmonds(g)
    return ge.odd_components, ge.cut_set
