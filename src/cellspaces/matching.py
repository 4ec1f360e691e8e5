"""Integral max-flow (Dinic) and the Hall (1,k)-harem matching solver.

The solver is deterministic: arcs are tried in the order they were added,
so equal inputs give identical matchings. On failure it extracts a
Hall-condition violation witness from the vertices that the final residual
graph reaches from the source, the source side of a minimum cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Optional, Sequence, Union

from .errors import ConstructionError

INF = 10**18


class Dinic:
    """Integral max-flow on ``n`` vertices. Arc ``e`` and its reverse
    ``e ^ 1`` are added together; ``cap`` holds residual capacities.

    Each phase starts with one residual BFS run backwards from the sink t.
    It gives every vertex nearer to t than the source s its distance
    ``dist`` to t, and stops once s is labelled. A depth-first search from s
    then follows, in adjacency order, only arcs u -> v with residual
    capacity and ``dist[v] == dist[u] - 1``, and after each push it resumes
    at the tail of the first saturated arc.

    These are the paths of the textbook phase, whose search follows the
    level-graph arcs, ``level[v] == level[u] + 1`` with levels from s. A
    vertex u that the search reaches lies on a shortest s-t path, so
    ``level[u] + dist[u]`` is the s-t distance, and its arcs here are its
    level-graph arcs minus those into vertices that cannot reach t. The
    textbook search turns back from such a vertex only after a dead-end
    excursion, so both searches take the same arc at every vertex, push the
    same flows and leave the same residual graph.
    """

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> int:
        eid = len(self.to)
        self.to += (v, u)
        self.cap += (cap, 0)
        self.adj[u].append(eid)
        self.adj[v].append(eid + 1)
        return eid

    def distances(self, start: int, stop: int, backwards: bool = False) -> list[int]:
        """The residual distance from ``start`` to each vertex, or from each
        vertex to ``start`` if ``backwards``; -1 where unlabelled.

        The BFS stops once ``stop`` is labelled, so every vertex nearer than
        ``stop`` is labelled, and none farther. After ``max_flow(s, t)`` the
        vertices that ``distances(s, t)`` labels are the source side of a
        minimum cut."""
        to, cap, adj = self.to, self.cap, self.adj
        flip = int(backwards)  # adj[v] holds the arcs out of v, and their reverses run into v
        dist = [-1] * self.n
        dist[start] = 0
        queue = [start]
        for v in queue:
            d = dist[v] + 1
            for eid in adj[v]:
                u = to[eid]
                if dist[u] < 0 and cap[eid ^ flip] > 0:
                    dist[u] = d
                    queue.append(u)
            if dist[stop] >= 0:
                break
        return dist

    def _blocking_flow(self, s: int, t: int, dist: list[int]) -> int:
        """Push flow along arcs that step one nearer to t until none is left.

        Depth-first with an explicit arc path, so long paths cannot exhaust
        the interpreter stack. ``it[u]`` advances past arcs that are
        saturated or lead to a dead end, and a dead end is unlabelled, since
        no arc of this phase can reach t from it again. After each push the
        search resumes at the tail of the first saturated arc, where a search
        restarted from s would arrive along the same, still open, arcs."""
        to, cap, adj = self.to, self.cap, self.adj
        it = [0] * self.n
        path: list[int] = []
        total = 0
        u = s
        while True:
            if u == t:
                caps = list(map(cap.__getitem__, path))
                d = min(caps)
                for eid in path:
                    cap[eid] -= d
                    cap[eid ^ 1] += d
                total += d
                i = caps.index(d)
                u = to[path[i] ^ 1]
                del path[i:]
                continue
            row = adj[u]
            nearer = dist[u] - 1
            for i in range(it[u], len(row)):
                eid = row[i]
                if cap[eid] and dist[to[eid]] == nearer:
                    it[u] = i
                    path.append(eid)
                    u = to[eid]
                    break
            else:
                if not path:
                    return total
                dist[u] = -1
                u = to[path.pop() ^ 1]
                it[u] += 1

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while True:
            dist = self.distances(t, s, backwards=True)
            if dist[s] < 0:
                return total
            total += self._blocking_flow(s, t, dist)


@dataclass(frozen=True)
class HaremViolation:
    """A finite vertex set falsifying one of the Hall k-harem conditions."""

    side: str  # "left": |N_r(A)| < k|A|; "right": |N_l(B)| < |B|/k
    vertices: tuple
    neighbourhood_size: int
    k: int


@dataclass(frozen=True)
class HaremMatching:
    """Pairs (left index, right index) of a (1,k)-matching."""

    k: int
    pairs: tuple


def solve_harem(
    n_left: int,
    n_right: int,
    adjacency: Sequence[Sequence[int]],
    k: int,
    right_required: Optional[Sequence[bool]] = None,
) -> Union[HaremMatching, HaremViolation]:
    """Find a matching where every left vertex is matched exactly k times and
    every right vertex at most once, exactly once if ``right_required`` marks
    it (all right vertices by default).

    ``adjacency[x]`` lists the distinct right vertices, in ``range(n_right)``,
    of left vertex x. With every right vertex required this is a perfect
    (1,k)-matching, and the vertex counts alone can refute it. Middle edges
    carry unbounded capacity so that, on failure, residual reachability from
    a deficient vertex yields a genuine Hall witness.
    """
    if k <= 0:
        raise ConstructionError("k must be a positive integer")
    if len(adjacency) != n_left:
        raise ConstructionError(f"adjacency has {len(adjacency)} rows for {n_left} left vertices")
    for x, row in enumerate(adjacency):
        if len(set(row)) != len(row):
            raise ConstructionError(f"left vertex {x} repeats a right vertex in {list(row)}")
        if row and not (0 <= min(row) and max(row) < n_right):
            raise ConstructionError(
                f"left vertex {x} has a right vertex outside range({n_right}) in {list(row)}"
            )
    if right_required is None:
        right_required = [True] * n_right
    elif len(right_required) != n_right:
        raise ConstructionError(
            f"right_required has {len(right_required)} entries for {n_right} right vertices"
        )
    if all(right_required):
        if k * n_left > n_right:
            return HaremViolation("left", tuple(range(n_left)), n_right_of(adjacency, range(n_left)), k)
        if k * n_left < n_right:
            B = tuple(range(n_right))
            return HaremViolation("right", B, n_left_of(adjacency, B), k)

    # lower-bound flow via the standard excess transformation: ss feeds k to
    # every left vertex and one unit per required right vertex to t, and
    # drains k * n_left from s and one unit from every required right vertex
    # through tt. Optional right vertices reach t through a unit arc.
    s = 0
    t = 1 + n_left + n_right
    ss = t + 1
    tt = t + 2
    n_required = sum(map(bool, right_required))
    net = Dinic(tt + 1)
    # arc 2i runs from the i-th pair (x, y) of the adjacency, read row by row
    arcs = [(x, 1 + n_left + y, INF) for x, row in enumerate(adjacency, 1) for y in row]
    n_mid = len(arcs)
    arcs += [(y, tt if required else t, 1) for y, required in enumerate(right_required, 1 + n_left)]
    arcs += [(t, s, INF), (s, tt, k * n_left)]
    arcs += [(ss, x, k) for x in range(1, 1 + n_left)]
    arcs.append((ss, t, n_required))
    to, cap, adj = net.to, net.cap, net.adj
    for u, v, c in arcs:
        adj[u].append(len(to))
        adj[v].append(len(to) + 1)
        to += (v, u)
        cap += (c, 0)
    del arcs  # freed before the flow, where memory peaks
    if net.max_flow(ss, tt) < k * n_left + n_required:
        # the vertices that the final residual graph reaches from ss are a
        # minimum cut S. If t is in S, every left vertex in S has all its
        # neighbours in S, so the required right vertices outside S have
        # fewer than 1/k as many neighbours. Otherwise the left vertices in
        # S reach fewer than k times as many right vertices.
        reach = net.distances(ss, tt)
        if reach[t] >= 0:
            B = tuple(
                y for y in range(n_right) if right_required[y] and reach[1 + n_left + y] < 0
            )
            return HaremViolation("right", B, n_left_of(adjacency, B), k)
        A = tuple(x for x in range(n_left) if reach[1 + x] >= 0)
        return HaremViolation("left", A, n_right_of(adjacency, A), k)
    pairs = ((x, y) for x, row in enumerate(adjacency) for y in row)
    return HaremMatching(k, tuple(sorted(compress(pairs, cap[1 : 2 * n_mid : 2]))))


def n_right_of(adjacency: Sequence[Sequence[int]], A) -> int:
    out: set[int] = set()
    for x in A:
        out.update(adjacency[x])
    return len(out)


def n_left_of(adjacency: Sequence[Sequence[int]], B) -> int:
    bs = set(B)
    return sum(1 for row in adjacency if bs.intersection(row))
