"""Reference ordered-triple test for the couples structure tests.

Deletes the three player edges plus one tip vertex of each end player and
asks the union kernel for a perfect matching, once per tip pair (up to four
queries).  The library answers each triple with one query on a graph with
two added vertices instead; this stays here as the direct form of the same
test that tests compare it against.
"""

from __future__ import annotations

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
