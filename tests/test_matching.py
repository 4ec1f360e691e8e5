import random

from cellspaces import HaremMatching, HaremViolation, solve_harem
import harem_reference
from oracles import perfect_harem_exists


def check_matching(n_left, n_right, adjacency, k, outcome):
    assert isinstance(outcome, HaremMatching)
    per_left = [0] * n_left
    per_right = [0] * n_right
    edges = {(x, y) for x in range(n_left) for y in adjacency[x]}
    for x, y in outcome.pairs:
        assert (x, y) in edges
        per_left[x] += 1
        per_right[y] += 1
    assert all(c == k for c in per_left)
    assert all(c == 1 for c in per_right)


def check_violation(n_left, n_right, adjacency, k, outcome):
    assert isinstance(outcome, HaremViolation)
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
    assert isinstance(solve_harem(1, 3, adj, 2), HaremViolation)


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
    assert isinstance(outcome, HaremViolation)


def test_deterministic_output():
    rng = random.Random(5)
    adj = [sorted(rng.sample(range(8), 5)) for _ in range(4)]
    first = solve_harem(4, 8, adj, 2)
    second = solve_harem(4, 8, adj, 2)
    assert type(first) is type(second)
    if isinstance(first, HaremMatching):
        assert first.pairs == second.pairs


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


def test_merged_solver_matches_two_network_reference():
    rng = random.Random(31)
    outcomes = set()
    for _ in range(2000):
        n_left, n_right, adjacency, k, right_required = _random_instance(rng)
        got = solve_harem(n_left, n_right, adjacency, k, right_required=right_required)
        want = harem_reference.solve_harem(
            n_left, n_right, adjacency, k, right_required=right_required
        )
        assert got == want, (n_left, n_right, adjacency, k, right_required)
        outcomes.add((type(got), right_required is None, n_left > 100))
    assert len(outcomes) == 8


def test_long_augmenting_path_does_not_recurse():
    n = 600
    adjacency = [[i + 1, i] for i in range(n - 1)] + [[n - 1]]
    outcome = solve_harem(n, n, adjacency, 1)
    check_matching(n, n, adjacency, 1, outcome)
