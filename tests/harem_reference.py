"""Reference copy of the two-network (1,k)-harem solver.

This is the solver as it stood before it was merged into one lower-bound
flow network: a plain max-flow network when every vertex is required, the
lower-bound network otherwise, and a recursive Dinic search. Tests compare
``cellspaces.solve_harem`` against it; it must not be edited to follow the
library.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence, Union

from cellspaces import ConstructionError, HaremMatching, HaremViolation

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

    def _dfs(self, u: int, t: int, f: int) -> int:
        if u == t:
            return f
        while self.it[u] < len(self.adj[u]):
            eid = self.adj[u][self.it[u]]
            v = self.to[eid]
            if self.cap[eid] > 0 and self.level[v] == self.level[u] + 1:
                d = self._dfs(v, t, min(f, self.cap[eid]))
                if d > 0:
                    self.cap[eid] -= d
                    self.cap[eid ^ 1] += d
                    return d
            self.it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while self._bfs(s, t):
            self.it = [0] * self.n
            while True:
                f = self._dfs(s, t, INF)
                if f == 0:
                    break
                total += f
        return total

    def residual_reachable(self, s: int) -> set[int]:
        seen = {s}
        q = deque([s])
        while q:
            u = q.popleft()
            for eid in self.adj[u]:
                v = self.to[eid]
                if self.cap[eid] > 0 and v not in seen:
                    seen.add(v)
                    q.append(v)
        return seen


def solve_harem(
    n_left: int,
    n_right: int,
    adjacency: Sequence[Sequence[int]],
    k: int,
    left_required: Optional[Sequence[bool]] = None,
    right_required: Optional[Sequence[bool]] = None,
) -> Union[HaremMatching, HaremViolation]:
    """Find a matching where every required left vertex is matched exactly k
    times and every right vertex at most once, exactly once if required.

    With everything required this is a perfect (1,k)-matching. Middle edges
    carry unbounded capacity so that, on failure, residual reachability from
    a deficient vertex yields a genuine Hall witness.
    """
    if k <= 0:
        raise ConstructionError("k must be a positive integer")
    if left_required is None:
        left_required = [True] * n_left
    if right_required is None:
        right_required = [True] * n_right

    all_required = all(left_required) and all(right_required)
    if all_required:
        if k * n_left > n_right:
            return HaremViolation("left", tuple(range(n_left)), n_right_of(adjacency, range(n_left)), k)
        if k * n_left < n_right:
            touched = len({x for x in range(n_left) if adjacency[x]})
            return HaremViolation("right", tuple(range(n_right)), touched, k)
        return _solve_exact(n_left, n_right, adjacency, k)
    return _solve_with_bounds(n_left, n_right, adjacency, k, left_required, right_required)


def n_right_of(adjacency: Sequence[Sequence[int]], A) -> int:
    out: set[int] = set()
    for x in A:
        out.update(adjacency[x])
    return len(out)


def _solve_exact(n_left, n_right, adjacency, k):
    s = 0
    t = 1 + n_left + n_right
    net = Dinic(t + 1)
    left_edges = [net.add_edge(s, 1 + x, k) for x in range(n_left)]
    mid = {}
    for x in range(n_left):
        for y in adjacency[x]:
            mid[(x, y)] = net.add_edge(1 + x, 1 + n_left + y, INF)
    for y in range(n_right):
        net.add_edge(1 + n_left + y, t, 1)
    flow = net.max_flow(s, t)
    if flow == k * n_left:
        pairs = tuple(
            sorted((x, y) for (x, y), eid in mid.items() if net.flow_on(eid) > 0)
        )
        return HaremMatching(k, pairs)
    reach = net.residual_reachable(s)
    A = tuple(x for x in range(n_left) if (1 + x) in reach)
    return HaremViolation("left", A, n_right_of(adjacency, A), k)


def _solve_with_bounds(n_left, n_right, adjacency, k, left_required, right_required):
    # lower-bound flow via the standard excess transformation
    s = 0
    t = 1 + n_left + n_right
    ss = t + 1
    tt = t + 2
    net = Dinic(tt + 1)
    excess = [0] * (t + 1)
    for x in range(n_left):
        lb = k if left_required[x] else 0
        net.add_edge(s, 1 + x, k - lb)
        excess[1 + x] += lb
        excess[s] -= lb
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
        reach = net.residual_reachable(ss)
        A = tuple(
            x for x in range(n_left) if left_required[x] and (1 + x) in reach
        )
        if A:
            return HaremViolation("left", A, n_right_of(adjacency, A), k)
        B = tuple(
            y for y in range(n_right) if right_required[y] and (1 + n_left + y) in reach
        )
        nl: set[int] = set()
        for x in range(n_left):
            if set(adjacency[x]) & set(B):
                nl.add(x)
        return HaremViolation("right", B, len(nl), k)
    pairs = []
    for (x, y), eid in mid.items():
        if net.flow_on(eid) > 0:
            pairs.append((x, y))
    return HaremMatching(k, tuple(sorted(pairs)))
