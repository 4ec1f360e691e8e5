import hashlib
import random

import networkx as nx
import pytest

from cellspaces import (
    ConstructionError,
    ExpansionSet,
    HaremMatching,
    HaremViolation,
    build_graph,
    codec,
    harem_matching,
    solve_harem,
    space_by_name,
)
from cellspaces.matching import Dinic
from oracles import perfect_harem_exists


def check_matching(n_left, n_right, adjacency, k, outcome, right_required=None):
    """Every left vertex matched k times, every right vertex at most once and
    every required one exactly once, along distinct edges of the graph."""
    assert isinstance(outcome, HaremMatching)
    required = right_required or [True] * n_right
    per_left = [0] * n_left
    per_right = [0] * n_right
    edges = {(x, y) for x in range(n_left) for y in adjacency[x]}
    assert len(set(outcome.pairs)) == len(outcome.pairs)
    for x, y in outcome.pairs:
        assert (x, y) in edges
        per_left[x] += 1
        per_right[y] += 1
    assert all(c == k for c in per_left)
    assert all(c == 1 if req else c <= 1 for c, req in zip(per_right, required))


def check_violation(n_left, n_right, adjacency, k, outcome, right_required=None):
    """The witness breaks its Hall inequality; a right witness holds only
    required vertices."""
    assert isinstance(outcome, HaremViolation)
    if outcome.side == "right" and right_required is not None:
        assert all(right_required[y] for y in outcome.vertices)
    if outcome.side == "left":
        A = outcome.vertices
        assert A
        nr = set()
        for x in A:
            nr.update(adjacency[x])
        assert outcome.neighbourhood_size == len(nr)
        assert len(nr) < k * len(A)
    else:
        B = set(outcome.vertices)
        assert B
        nl = {x for x in range(n_left) if B & set(adjacency[x])}
        assert outcome.neighbourhood_size == len(nl)
        assert k * len(nl) < len(B)


def test_complete_graph_has_harem():
    adj = [list(range(4)) for _ in range(2)]
    outcome = solve_harem(2, 4, adj, 2)
    check_matching(2, 4, adj, 2, outcome)


def test_disjoint_pairs_graph():
    adj = [[0, 1], [2, 3], [4, 5]]
    outcome = solve_harem(3, 6, adj, 2)
    check_matching(3, 6, adj, 2, outcome)


def test_starved_left_vertex_yields_witness():
    adj = [[0], [0, 1, 2, 3]]
    outcome = solve_harem(2, 4, adj, 2)
    check_violation(2, 4, adj, 2, outcome)
    assert outcome.side == "left"
    assert 0 in outcome.vertices


def test_shared_neighbourhood_yields_witness():
    # three left vertices squeezed into four shared rights
    adj = [[0, 1, 2, 3]] * 3
    outcome = solve_harem(3, 6, adj, 2)
    check_violation(3, 6, adj, 2, outcome)


def test_count_mismatch_is_a_violation():
    adj = [[0, 1, 2]]
    check_violation(1, 3, adj, 2, solve_harem(1, 3, adj, 2))


def test_optional_right_vertices_can_stay_unmatched():
    # left must take 2 of 3 rights; the spare right is not required
    adj = [[0, 1, 2]]
    outcome = solve_harem(1, 3, adj, 2, right_required=[True, True, False])
    check_matching_partial = isinstance(outcome, HaremMatching)
    assert check_matching_partial
    assert {y for _, y in outcome.pairs} >= {0, 1}


def test_optional_right_infeasible_still_witnessed():
    adj = [[0]]
    outcome = solve_harem(1, 2, adj, 2, right_required=[True, False])
    check_violation(1, 2, adj, 2, outcome, [True, False])


def test_deterministic_output():
    rng = random.Random(5)
    adj = [sorted(rng.sample(range(8), 5)) for _ in range(4)]
    first = solve_harem(4, 8, adj, 2)
    second = solve_harem(4, 8, adj, 2)
    assert first == second
    if isinstance(first, HaremViolation):
        check_violation(4, 8, adj, 2, first)


def test_random_sweep_agrees_with_backtracking_oracle():
    rng = random.Random(2024)
    for _ in range(800):
        n_left = rng.randint(1, 4)
        n_right = 2 * n_left if rng.random() < 0.7 else rng.randint(0, 8)
        density = rng.choice([0.2, 0.4, 0.6, 0.9])
        adjacency = [
            sorted(y for y in range(n_right) if rng.random() < density)
            for _ in range(n_left)
        ]
        outcome = solve_harem(n_left, n_right, adjacency, 2)
        exists = perfect_harem_exists(n_left, n_right, adjacency, 2)
        if exists:
            check_matching(n_left, n_right, adjacency, 2, outcome)
        else:
            check_violation(n_left, n_right, adjacency, 2, outcome)


def _random_instance(rng):
    """A random harem instance: about half carry a planted (1,k)-matching,
    so both feasible and infeasible graphs occur at every size."""
    k = rng.choice([1, 2, 3])
    n_left = rng.randint(1, 150) if rng.random() < 0.05 else rng.randint(1, 12)
    n_right = k * n_left if rng.random() < 0.7 else rng.randint(0, k * n_left + 3)
    degree = rng.randint(0, 2 * k + 2)
    adjacency = [set(rng.sample(range(n_right), min(degree, n_right))) for _ in range(n_left)]
    if rng.random() < 0.5:
        order = list(range(n_right))
        rng.shuffle(order)
        for i, y in enumerate(order[: k * n_left]):
            adjacency[i // k].add(y)
    right_required = None
    if rng.random() < 0.5:
        p = rng.random()
        right_required = [rng.random() < p for _ in range(n_right)]
    return n_left, n_right, [sorted(a) for a in adjacency], k, right_required


def test_merged_solver_agrees_with_networkx_on_random_instances():
    """Each verdict's type is networkx's feasibility. A matching is checked
    for validity, and a witness against its own Hall inequality, a right
    witness holding required vertices only."""
    rng = random.Random(31)
    outcomes = set()
    for _ in range(2000):
        n_left, n_right, adjacency, k, right_required = _random_instance(rng)
        got = solve_harem(n_left, n_right, adjacency, k, right_required=right_required)
        required = right_required or [True] * n_right
        if _networkx_feasible(n_left, n_right, adjacency, k, required):
            check_matching(n_left, n_right, adjacency, k, got, right_required)
        else:
            check_violation(n_left, n_right, adjacency, k, got, right_required)
        outcomes.add((type(got), right_required is None, n_left > 100))
    assert len(outcomes) == 8


def test_long_augmenting_path_does_not_recurse():
    n = 600
    adjacency = [[i + 1, i] for i in range(n - 1)] + [[n - 1]]
    outcome = solve_harem(n, n, adjacency, 1)
    check_matching(n, n, adjacency, 1, outcome)


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, 2, [[0, 0, 1]], 2), "left vertex 0 repeats a right vertex in [0, 0, 1]"),
        (
            (2, 2, [[0], [2]], 1, [True, False]),
            "left vertex 1 has a right vertex outside range(2) in [2]",
        ),
        ((2, 2, [[0], [-1]], 1), "left vertex 1 has a right vertex outside range(2) in [-1]"),
        # rows are checked in order, so the first bad row is named
        ((3, 3, [[0], [3], [1, 1]], 1), "left vertex 1 has a right vertex outside range(3) in [3]"),
        ((3, 3, [[0], [1, 1], [3]], 1), "left vertex 1 repeats a right vertex in [1, 1]"),
        ((2, 2, [[0, 1]], 1), "adjacency has 1 rows for 2 left vertices"),
        ((1, 2, [[0, 1]], 2, [True]), "right_required has 1 entries for 2 right vertices"),
    ],
    ids=[
        "repeated-right",
        "right-too-large",
        "right-negative",
        "range-before-repeat",
        "repeat-before-range",
        "short-adjacency",
        "short-required",
    ],
)
def test_malformed_input_is_refused(args, message):
    with pytest.raises(ConstructionError) as info:
        solve_harem(*args)
    assert str(info.value) == message


def _random_network(rng):
    """A random capacitated digraph with distinct arcs and no loops, as
    (n, arcs, s, t); some arcs are unbounded."""
    n = rng.randint(2, 14)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = rng.sample(pairs, rng.randint(0, min(len(pairs), 4 * n)))
    arcs = [(u, v, rng.choice([1, 2, 3, 5, 10**18])) for u, v in chosen]
    s, t = rng.sample(range(n), 2)
    return n, arcs, s, t


def test_dinic_max_flow_and_min_cut_agree_with_networkx():
    """The flow value is networkx's, and the vertices that the residual graph
    reaches from s, which the Hall witness reads, are a minimum cut: the
    capacity of the arcs leaving them equals the flow."""
    rng = random.Random(41)
    positive = 0
    for _ in range(400):
        n, arcs, s, t = _random_network(rng)
        net = Dinic(n)
        G = nx.DiGraph()
        G.add_nodes_from(range(n))
        for u, v, c in arcs:
            net.add_edge(u, v, c)
            G.add_edge(u, v, capacity=c)
        flow = net.max_flow(s, t)
        assert flow == nx.maximum_flow_value(G, s, t)
        reach = [d >= 0 for d in net.distances(s, t)]
        assert reach[s] and not reach[t]
        assert sum(c for u, v, c in arcs if reach[u] and not reach[v]) == flow
        positive += flow > 0
    assert positive > 100


def _networkx_feasible(n_left, n_right, adjacency, k, right_required):
    """Whether the harem exists, decided by networkx as a flow with demands:
    each left vertex supplies k, each required right vertex takes 1, and each
    optional one passes at most 1 on to a sink that takes the rest."""
    spare = k * n_left - sum(right_required)
    if spare < 0:
        return False
    G = nx.DiGraph()
    G.add_node("sink", demand=spare)
    for x, row in enumerate(adjacency):
        G.add_node(("L", x), demand=-k)
        for y in row:
            G.add_edge(("L", x), ("R", y), capacity=1)
    for y, required in enumerate(right_required):
        if required:
            G.add_node(("R", y), demand=1)
        else:
            G.add_edge(("R", y), "sink", capacity=1)
    try:
        nx.network_simplex(G)
    except nx.NetworkXUnfeasible:
        return False
    return True


def _large_instance(rng, n_left, k, plant, partial):
    """A sparse graph with k * n_left right vertices, a tenth more when
    ``partial`` makes some of them optional. A (1,k)-matching onto the
    required ones is planted whole, cut at three edges, or left out, so
    feasible and infeasible graphs occur at every size."""
    n_right = k * n_left + (n_left // 10 if partial else 0)
    order = rng.sample(range(n_right), n_right)
    adjacency = [set(rng.sample(range(n_right), rng.randint(0, k))) for _ in range(n_left)]
    if plant != "none":
        for i, y in enumerate(order[: k * n_left]):
            adjacency[i // k].add(y)
        if plant == "cut":
            for x in rng.sample(range(n_left), 3):
                adjacency[x].discard(order[k * x])
    right_required = None
    if partial:
        right_required = [False] * n_right
        for y in order[: k * n_left]:
            right_required[y] = rng.random() < 0.9
    return n_right, [sorted(a) for a in adjacency], right_required


def test_large_graphs_agree_with_networkx():
    """Feasibility against networkx's network simplex on graphs of about
    10^2 to 10^4 vertices, beyond the backtracking oracle's reach."""
    rng = random.Random(7)
    seen = set()
    for n_left in (30, 300, 3000):
        for plant in ("whole", "cut", "none"):
            for partial in (False, True):
                k = rng.choice([1, 2, 3])
                n_right, adjacency, right_required = _large_instance(rng, n_left, k, plant, partial)
                required = right_required or [True] * n_right
                outcome = solve_harem(n_left, n_right, adjacency, k, right_required=right_required)
                feasible = _networkx_feasible(n_left, n_right, adjacency, k, required)
                seen.add((n_left, feasible))
                if feasible:
                    check_matching(n_left, n_right, adjacency, k, outcome, right_required)
                else:
                    check_violation(n_left, n_right, adjacency, k, outcome, right_required)
    assert len(seen) == 6


def test_optional_right_witness_breaks_hall():
    # the required right vertex 0 has no neighbour; the left vertex's only
    # neighbour is the optional right vertex 1
    outcome = solve_harem(1, 2, [[1]], 1, right_required=[True, False])
    check_violation(1, 2, [[1]], 1, outcome, [True, False])


def _workload_graph(name, radius, reps):
    """The harem graph of ``name`` on the window of core ``radius`` and halo
    ``radius + 2``, with E the cosets of the representatives ``reps``."""
    sp = space_by_name(name)
    E = ExpansionSet.of([sp.coset(codec.element(sp.group, d)) for d in reps])
    return build_graph(sp, E, sp.ball_window(radius, radius + 2))


def _pinned_outcomes():
    """Seeded solver inputs of every shape, and their outcomes."""
    rng = random.Random(2525)
    for _ in range(600):
        n_left, n_right, adjacency, k, right_required = _random_instance(rng)
        yield solve_harem(n_left, n_right, adjacency, k, right_required=right_required)
    for n_left in (40, 400, 3000):
        for plant in ("whole", "cut", "none"):
            for partial in (False, True):
                k = rng.choice([1, 2, 3])
                n_right, adjacency, right_required = _large_instance(rng, n_left, k, plant, partial)
                yield solve_harem(n_left, n_right, adjacency, k, right_required=right_required)
    # free:2 r = 4 has a (1,2)-matching; hyperoct:2 c = 12 fails after four
    # augmenting phases
    free2 = _workload_graph("free:2", 4, [[], [1], [-1], [2], [-2], [1, 2]])
    identity = list(space_by_name("hyperoct:2").sd.G0.identity().payload)
    vectors = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (2, -1)]
    hyperoct2 = _workload_graph("hyperoct:2", 12, [[identity, list(v)] for v in vectors])
    for graph in (free2, hyperoct2):
        yield harem_matching(graph, 2)


def test_solver_outcomes_are_pinned():
    """Every matching and witness, byte for byte. The digest was computed with
    the solver whose phases ran a forward level BFS from the source, before
    the phases were driven from sink distances: the two must find the same
    augmenting paths in the same order."""
    digest = hashlib.sha256()
    kinds = set()
    for outcome in _pinned_outcomes():
        digest.update(repr(outcome).encode())
        kinds.add(type(outcome))
    assert kinds == {HaremMatching, HaremViolation}
    assert digest.hexdigest() == "65d13f42a8abf59cc1bdb4d5462d8a483d7f9f3eedf6c8e6f49cce1d531e417a"
