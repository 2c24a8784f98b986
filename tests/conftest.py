import random
import sys

import pytest

from ntumatch import Graph, Matching


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ],
    )


def random_matching(rng: random.Random, g: Graph, keep: float = 0.6) -> Matching:
    used: set[int] = set()
    edges = []
    order = list(g.edges)
    rng.shuffle(order)
    for u, v in order:
        if u not in used and v not in used and rng.random() < keep:
            edges.append((u, v))
            used.update((u, v))
    return Matching(edges)


def with_frames_to_spare(frames: int, call):
    """``call()`` under a recursion limit ``frames`` above the current
    stack depth, so that it fails if ``call`` nests that deep."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        return call()
    finally:
        sys.setrecursionlimit(limit)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
