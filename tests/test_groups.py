import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cellspaces import (
    BackendMismatchError,
    ConstructionError,
    FreeAbelianGroup,
    FreeGroup,
    PermutationGroup,
    SemidirectProduct,
    SignedPermutationGroup,
    hyperoctahedral_tau,
    reduce_word,
    space_by_name,
    subgroup_sample,
)
from cellspaces.groups import bfs_layers

letters = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=20)


@given(letters)
def test_reduce_word_is_idempotent(ws):
    once = reduce_word(ws)
    assert reduce_word(once) == once


@given(letters)
def test_reduce_word_has_no_adjacent_inverses(ws):
    w = reduce_word(ws)
    assert all(w[i] != -w[i + 1] for i in range(len(w) - 1))


@given(letters, letters)
def test_free_group_inverse_cancels(ws, vs):
    g = FreeGroup(3)
    a, b = g.word(ws), g.word(vs)
    assert (a * b) * (a * b).inverse() == g.identity()
    assert ((a * b).inverse() == b.inverse() * a.inverse())


def test_free_group_ball_sizes():
    g = FreeGroup(2)
    for r in range(5):
        assert len(g.ball(r)) == 2 * 3**r - 1


@pytest.mark.parametrize(
    "name",
    ["free:1", "free:2", "free:3", "zd:1", "zd:2", "zd:3", "signedperm:3", "affine:5", "hyperoct:2"],
)
def test_balls_cut_every_ball_from_one_walk(name):
    kind, _, n = name.partition(":")
    if kind == "signedperm":
        group = SignedPermutationGroup(int(n))
    else:
        group = space_by_name(name).group
    # unsorted and repeated radii, a radius past the diameter of the finite
    # groups (signedperm:3 and affine:5 are whole by radius 9), and none
    far = 12 if group.is_finite else 5
    for radii in ([0], [3, 1, 3, 0, 2], [2, 2], [far, 4], []):
        balls = group.balls(radii)
        assert [[g.payload for g in b] for b in balls] == [
            [g.payload for g in group.ball(r)] for r in radii
        ]
    if group.is_finite:
        assert sorted(group.balls([12])[0]) == group.elements()
    with pytest.raises(ValueError):
        group.balls([-1, 3])


def test_free_group_rejects_bad_letters():
    bad = [[3], [0], [1, 3, -3], ["a"], [1.5], [True], [None], "ab", 1, None, {1: 2}]
    for letters in bad:
        with pytest.raises(ConstructionError):
            FreeGroup(2).word(letters)


def test_free_group_ball_hashes_are_distinct():
    # CPython hashes -1 like -2, so hashing raw words would pair them up
    ball = FreeGroup(2).ball(8)
    assert len(ball) == 13121
    assert len({hash(g) for g in ball}) == len(ball)


reduced_words = letters.map(reduce_word)


@given(reduced_words, reduced_words)
def test_free_group_mul_cancels_at_the_junction(a, b):
    assert FreeGroup(3)._mul(a, b) == reduce_word(a + b)


def test_separately_built_groups_share_elements():
    g1, g2 = FreeGroup(2), FreeGroup(2)
    a, b = g1.word([1, -2]), g2.word([1, -2])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert (a * g2.word([2])).payload == (1,)
    assert g2.word([2, -1]) * a == g1.identity()
    z1, z2 = FreeAbelianGroup(2), FreeAbelianGroup(2)
    assert z1.element((1, 2)) * z2.element((0, -2)) == z2.element((1, 0))


def test_semidirect_products_with_different_twists_share_no_elements():
    # B_2 x| Z^2 by the signed permutations, and by the trivial twist that
    # fixes e1 and e2: the same factors, two different laws
    g0, lattice = SignedPermutationGroup(2), FreeAbelianGroup(2)
    a = SemidirectProduct(g0, lattice, hyperoctahedral_tau(g0, lattice))
    trivial = {(g.payload, i): ((1, 0), (0, 1))[i] for g in g0.elements() for i in range(2)}
    b = SemidirectProduct(g0, lattice, trivial)
    with pytest.raises(BackendMismatchError):
        a.element(((-1, 2), (0, 0))) * b.element(((1, 2), (1, 0)))
    assert a.element(((-1, 2), (1, 0))) != b.element(((-1, 2), (1, 0)))
    # separately built hyperoct:2 spaces have one law, so their elements mix
    c, d = space_by_name("hyperoct:2").group, space_by_name("hyperoct:2").group
    assert c.signature == d.signature
    x, y = c.element(((-1, 2), (0, 0))), d.element(((1, 2), (1, 0)))
    assert (x * y).payload == ((-1, 2), (-1, 0))
    assert c.element(((-1, 2), (1, 0))) == d.element(((-1, 2), (1, 0)))


def test_ball_enumeration_is_deterministic():
    g = FreeGroup(2)
    first = [e.payload for e in g.ball(3)]
    second = [e.payload for e in g.ball(3)]
    assert first == second


def test_permutation_group_s3():
    g = PermutationGroup(3, [(1, 0, 2), (0, 2, 1)])
    els = g.elements()
    assert len(els) == 6
    t = g.element((1, 0, 2))
    assert t * t == g.identity()
    # (p*q)(i) = p[q[i]]: q applied first
    p, q = g.element((1, 0, 2)), g.element((0, 2, 1))
    assert (p * q).payload == tuple(p.payload[q.payload[i]] for i in range(3))


def test_permutation_group_rejects_non_bijection():
    with pytest.raises(ConstructionError):
        PermutationGroup(3, [(0, 0, 1)])


def test_backend_mismatch_raises():
    with pytest.raises(BackendMismatchError):
        FreeGroup(2).word([1]) * FreeAbelianGroup(2).element((1, 0))


def test_signed_permutation_group_order():
    g = SignedPermutationGroup(2)
    assert len(g.elements()) == 8
    for a in g.elements():
        assert a * a.inverse() == g.identity()


def test_signed_permutation_vector_action_is_compatible():
    g = SignedPermutationGroup(3)
    els = g.elements()
    v = (1, 2, 3)
    for a in els[:10]:
        for b in els[:10]:
            assert g.apply_to_vector(a * b, v) == g.apply_to_vector(
                a, g.apply_to_vector(b, v)
            )


def test_free_abelian_group_is_abelian():
    g = FreeAbelianGroup(3)
    a, b = g.element((1, -2, 5)), g.element((0, 7, -1))
    assert a * b == b * a
    assert (a * b).payload == (1, 5, 4)


def _sign_flip_semidirect():
    g0 = PermutationGroup(2, [(1, 0)])  # order-2 group acting by negation
    h = FreeAbelianGroup(1)
    tau = {
        ((0, 1), 0): (1,),
        ((1, 0), 0): (-1,),
    }
    return SemidirectProduct(g0, h, tau)


def test_semidirect_product_and_inverse():
    sd = _sign_flip_semidirect()
    flip = sd.G0.element((1, 0))
    g = sd.pair(flip, sd.H.element((3,)))
    assert (g * g.inverse()) == sd.identity()
    # (flip, 3) * (flip, 5) = (e, 3 + tau(flip)(5)) = (e, -2)
    g2 = sd.pair(flip, sd.H.element((5,)))
    prod = g * g2
    assert prod.payload == ((0, 1), (-2,))


def test_semidirect_rejects_non_homomorphism():
    g0 = PermutationGroup(2, [(1, 0)])
    h = FreeAbelianGroup(1)
    bad = {((0, 1), 0): (1,), ((1, 0), 0): (2,)}
    with pytest.raises(ConstructionError):
        SemidirectProduct(g0, h, bad)


def test_hyperoctahedral_tau_is_total_and_valid():
    g0 = SignedPermutationGroup(2)
    h = FreeAbelianGroup(2)
    tau = hyperoctahedral_tau(g0, h)
    sd = SemidirectProduct(g0, h, tau)
    assert len(tau) == 8 * 2
    # the twist of a translation matches the vector action
    for g in g0.elements():
        got = sd.tau_apply(g.payload, (2, -3))
        assert got == g0.apply_to_vector(g, (2, -3))


def _tau_by_generators(sd, g0, h):
    """tau(g0)(h) from the tau table alone: the product, over the letters of
    h (or the coordinates of h on Z^d), of their generator images."""
    H = sd.H
    if isinstance(H, FreeAbelianGroup):
        acc = [0] * H.d
        for i, c in enumerate(h):
            acc = [a + c * b for a, b in zip(acc, sd.tau[(g0, i)])]
        return tuple(acc)
    word = []
    for x in h:
        img = sd.tau[(g0, abs(x) - 1)]
        word += img if x > 0 else [-y for y in reversed(img)]
    return reduce_word(word)


def _letter_swap_product():
    """S2 x| F_2, the non-identity element swapping the letters a and b."""
    g0 = PermutationGroup(2, [(1, 0)])
    tau = {((0, 1), 0): (1,), ((0, 1), 1): (2,), ((1, 0), 0): (2,), ((1, 0), 1): (1,)}
    return SemidirectProduct(g0, FreeGroup(2), tau)


@pytest.mark.parametrize("d", [2, 3])
def test_tau_apply_matches_the_generator_table(d):
    g0, h = SignedPermutationGroup(d), FreeAbelianGroup(d)
    sd = SemidirectProduct(g0, h, hyperoctahedral_tau(g0, h))
    rng = random.Random(d)
    sample = [(0,) * d] + [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(40)]
    e0 = g0.identity().payload
    for v in sample:
        assert sd.tau_apply(e0, v) == v == _tau_by_generators(sd, e0, v)
        for g in g0.elements():
            assert sd.tau_apply(g.payload, v) == _tau_by_generators(sd, g.payload, v)


def test_tau_apply_matches_the_generator_table_on_a_free_factor():
    sd = _letter_swap_product()
    for w in sd.H.ball(3):
        for g in sd.G0.elements():
            assert sd.tau_apply(g.payload, w.payload) == _tau_by_generators(sd, g.payload, w.payload)
        assert sd.tau_apply(sd.G0.identity().payload, w.payload) == w.payload


def _hyperoct_product(d):
    G0, H = SignedPermutationGroup(d), FreeAbelianGroup(d)
    return SemidirectProduct(G0, H, hyperoctahedral_tau(G0, H))


# each backend, and payloads near its own that name no element: a scalar, a
# wrong length, a bool entry, an unreduced word, an out-of-range letter, a
# repeated signed-permutation entry, a permutation outside the group, a list
# in place of a tuple, and a semidirect pair with one bad part
_NEAR_MISSES = {
    "perm": (
        lambda: PermutationGroup(3, [(1, 0, 2)]),
        [5, (0, 1), (0, 1, 2, 3), (True, 0, 2), (1, 2, 0), [0, 1, 2], (0, 1, 2.0)],
    ),
    "signedperm": (
        lambda: SignedPermutationGroup(2),
        [5, (1,), (1, 2, 3), (True, 2), (1, 1), (2, -2), (0, 1), [1, 2]],
    ),
    "zd:3": (
        lambda: FreeAbelianGroup(3),
        [5, (0, 0), (0, 0, 0, 0), (0, False, 0), [0, 0, 0], ((0,), 0, 0)],
    ),
    "free:2": (
        lambda: FreeGroup(2),
        [5, (1, -1), (2, 1, -1, 2), (3,), (0,), (-3, 1), (True,), [1]],
    ),
    "semidirect-zd:2": (
        lambda: _hyperoct_product(2),
        [5, ((1, 2),), ((1, 2), (0, 0), ()), [(1, 2), (0, 0)], ((1, 2), [0, 0]),
         ((1, 1), (0, 0)), ((1, 2), (0, 0, 0)), ((1, 2), (True, 0))],
    ),
    "semidirect-free:2": (
        _letter_swap_product,
        [5, ((0, 1),), [(0, 1), ()], ((0, 1), [1]), ((2, 0), (1,)), ((0, 1), (1, -1)),
         ((1, 0), (3,))],
    ),
}


@pytest.mark.parametrize("name", sorted(_NEAR_MISSES))
def test_is_payload_accepts_the_ball_and_refuses_near_misses(name):
    make, near_misses = _NEAR_MISSES[name]
    group = make()
    assert all(group.is_payload(g.payload) for g in group.ball(2))
    for p in near_misses:
        assert not group.is_payload(p), p


_FLIP = PermutationGroup(2, [(1, 0)])  # identity (0, 1), then the flip (1, 0)


@pytest.mark.parametrize(
    "build, error, message",
    [
        pytest.param(
            lambda: FreeGroup(0),
            ConstructionError,
            "free group needs at least one generator",
            id="free-rank-0",
        ),
        pytest.param(
            lambda: subgroup_sample(FreeGroup(1), [], lambda g: True, radius=-1),
            ValueError,
            "radius must be non-negative",
            id="bfs-negative-radius",
        ),
        pytest.param(
            lambda: bfs_layers((), lambda p: [], radius=-1),
            ConstructionError,
            "radius must be non-negative",
            id="bfs-negative-radius-typed",
        ),
        pytest.param(
            lambda: FreeAbelianGroup(2).balls([1, -1]),
            ConstructionError,
            "radius must be non-negative",
            id="balls-negative-radius",
        ),
        pytest.param(
            lambda: FreeGroup(2).elements(),
            ConstructionError,
            "free group is not finite",
            id="infinite-group-elements",
        ),
        pytest.param(
            lambda: space_by_name("hyperoct:2").points(),
            ConstructionError,
            "hyperoct:2 has infinitely many points",
            id="infinite-space-points",
        ),
        pytest.param(
            lambda: SemidirectProduct(FreeAbelianGroup(1), FreeAbelianGroup(1), {}),
            ConstructionError,
            "semidirect factor G0 must be finite",
            id="semidirect-infinite-G0",
        ),
        pytest.param(
            lambda: SemidirectProduct(_FLIP, FreeAbelianGroup(1), {((0, 1), 0): (2,)}),
            ConstructionError,
            "tau(e) must fix H-generator 0, got (2,)",
            id="tau-identity-moves",
        ),
        pytest.param(
            lambda: SemidirectProduct(_FLIP, FreeAbelianGroup(1), {((0, 1), 0): (1,)}),
            ConstructionError,
            "tau table not total: missing ((1, 0), 0)",
            id="tau-not-total",
        ),
        pytest.param(
            lambda: hyperoctahedral_tau(SignedPermutationGroup(2), FreeAbelianGroup(3)),
            ConstructionError,
            "dimension mismatch between point group and lattice",
            id="hyperoct-dimension-mismatch",
        ),
    ],
)
def test_group_constructions_refuse_bad_input(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message
