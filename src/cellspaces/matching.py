"""Integral max-flow (Dinic) and the Hall (1,k)-harem matching solver.

The solver is deterministic: vertices are visited in index order, so equal
inputs give identical matchings. On failure it extracts a Hall-condition
violation witness from the residual reachability of the final flow.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .errors import ConstructionError

INF = 10**18


class Dinic:
    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> int:
        eid = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[u].append(eid)
        self.to.append(u)
        self.cap.append(0)
        self.adj[v].append(eid + 1)
        return eid

    def flow_on(self, eid: int) -> int:
        return self.cap[eid ^ 1]

    def _bfs(self, s: int, t: int) -> bool:
        self.level = [-1] * self.n
        self.level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for eid in self.adj[u]:
                v = self.to[eid]
                if self.cap[eid] > 0 and self.level[v] < 0:
                    self.level[v] = self.level[u] + 1
                    q.append(v)
        return self.level[t] >= 0

    def _augment(self, s: int, t: int) -> int:
        """Push flow along one level-graph path, or return 0 if none is left.

        Depth-first with an explicit edge path, so long paths cannot exhaust
        the interpreter stack; ``it[u]`` advances only when the search leaves
        ``u`` through a dead end, as in the textbook recursive form.
        """
        to, cap, adj, level, it = self.to, self.cap, self.adj, self.level, self.it
        path: list[int] = []
        u = s
        while u != t:
            while it[u] < len(adj[u]):
                eid = adj[u][it[u]]
                if cap[eid] > 0 and level[to[eid]] == level[u] + 1:
                    break
                it[u] += 1
            else:
                if not path:
                    return 0
                u = to[path.pop() ^ 1]
                it[u] += 1
                continue
            path.append(eid)
            u = to[eid]
        d = min(cap[eid] for eid in path)
        for eid in path:
            cap[eid] -= d
            cap[eid ^ 1] += d
        return d

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while self._bfs(s, t):
            self.it = [0] * self.n
            while True:
                f = self._augment(s, t)
                if f == 0:
                    break
                total += f
        return total


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

    With every right vertex required this is a perfect (1,k)-matching, and
    the vertex counts alone can refute it. Middle edges carry unbounded
    capacity so that, on failure, residual reachability from a deficient
    vertex yields a genuine Hall witness.
    """
    if k <= 0:
        raise ConstructionError("k must be a positive integer")
    if right_required is None:
        right_required = [True] * n_right
    if all(right_required):
        if k * n_left > n_right:
            return HaremViolation("left", tuple(range(n_left)), n_right_of(adjacency, range(n_left)), k)
        if k * n_left < n_right:
            B = tuple(range(n_right))
            return HaremViolation("right", B, n_left_of(adjacency, B), k)

    # lower-bound flow via the standard excess transformation; every left
    # vertex has lower bound k = capacity, so it gets no source edge
    s = 0
    t = 1 + n_left + n_right
    ss = t + 1
    tt = t + 2
    net = Dinic(tt + 1)
    excess = [0] * (t + 1)
    excess[s] = -k * n_left
    for x in range(n_left):
        excess[1 + x] = k
    mid = {}
    for x in range(n_left):
        for y in adjacency[x]:
            mid[(x, y)] = net.add_edge(1 + x, 1 + n_left + y, INF)
    for y in range(n_right):
        lb = 1 if right_required[y] else 0
        net.add_edge(1 + n_left + y, t, 1 - lb)
        excess[t] += lb
        excess[1 + n_left + y] -= lb
    net.add_edge(t, s, INF)
    need = 0
    for v in range(t + 1):
        if excess[v] > 0:
            net.add_edge(ss, v, excess[v])
            need += excess[v]
        elif excess[v] < 0:
            net.add_edge(v, tt, -excess[v])
    flow = net.max_flow(ss, tt)
    if flow < need:
        # the last, failing phase leveled every vertex the final residual
        # graph reaches from ss, and that reached set S is a minimum cut. If
        # t is in S, every left vertex in S has all its neighbours in S, so
        # the required right vertices outside S have fewer than 1/k as many
        # neighbours. Otherwise the left vertices in S reach fewer than k
        # times as many right vertices.
        reach = {v for v, lv in enumerate(net.level) if lv >= 0}
        if t in reach:
            B = tuple(
                y for y in range(n_right) if right_required[y] and (1 + n_left + y) not in reach
            )
            return HaremViolation("right", B, n_left_of(adjacency, B), k)
        A = tuple(x for x in range(n_left) if (1 + x) in reach)
        return HaremViolation("left", A, n_right_of(adjacency, A), k)
    pairs = []
    for (x, y), eid in mid.items():
        if net.flow_on(eid) > 0:
            pairs.append((x, y))
    return HaremMatching(k, tuple(sorted(pairs)))


def n_right_of(adjacency: Sequence[Sequence[int]], A) -> int:
    out: set[int] = set()
    for x in A:
        out.update(adjacency[x])
    return len(out)


def n_left_of(adjacency: Sequence[Sequence[int]], B) -> int:
    bs = set(B)
    return sum(1 for row in adjacency if bs.intersection(row))
