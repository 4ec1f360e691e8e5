import itertools
import json
import time
from fractions import Fraction

import pytest

import cellspaces.codec as codec
import cellspaces.groups as groups
from cellspaces import (
    CellSpace,
    ConstructionError,
    FAMeasure,
    FiniteSpace,
    FreeAbelianGroup,
    FreeGroup,
    GroupAsSpace,
    IntegrityError,
    PermutationGroup,
    ScopeMismatchError,
    Window,
    affine_space,
    check_semi_invariance,
    hyperoct_space,
    space_by_name,
    verify_axioms,
)


def test_coset_equality_ignores_representative():
    sp = affine_space(3)
    g = sp.group
    t1 = next(e for e in g.elements() if e.payload == (1, 2, 0))
    for g0 in sp.stabilizer:
        assert sp.coset(t1 * g0) == sp.coset(t1)
    assert len(sp.cosets()) == 3


def test_semi_action_is_translation_on_affine():
    sp = affine_space(5)
    # m |> t_b G0 = m + b, independent of the dilation part
    t2 = sp.coord(2)
    for g0 in sp.stabilizer:
        c = sp.coset(t2 * g0)
        for m in range(5):
            assert sp.semi_action(m, c) == (m + 2) % 5


def test_semi_action_is_right_multiplication_on_group_space():
    sp = space_by_name("free:2")
    g = sp.group
    m = g.word([1, 2])
    c = sp.coset(g.word([-1]))
    assert sp.semi_action(m, c) == g.word([1, 2, -1])


def test_window_validation():
    with pytest.raises(ConstructionError):
        Window((1, 2), (1,))
    with pytest.raises(ConstructionError):
        Window((1, 1), (1, 1, 2))


def test_preimage_certification_depends_on_halo():
    sp = space_by_name("free:2")
    g = sp.group
    a = sp.coset(g.word([1]))
    tight = sp.ball_window(2, 2)
    padded = sp.ball_window(2, 3)
    target = [g.word([1, 2])]
    assert sp.preimage(a, target, padded)[1]
    # the unique preimage ab a' has length 3 and escapes the tight halo
    points, certified = sp.preimage(a, target, tight)
    assert not certified
    assert points == set()


def test_window_refuses_a_halo_below_the_core_before_enumerating():
    class NoBalls(FreeGroup):
        def _ball_layers(self, r):
            raise AssertionError("a ball was walked")

    # a window above the limit is refused from its size first
    with pytest.raises(ConstructionError, match="the window of radius 1000000 has more than"):
        GroupAsSpace(NoBalls(2)).ball_window(10**6, 2)
    with pytest.raises(ConstructionError, match="halo radius"):
        GroupAsSpace(NoBalls(2)).ball_window(10, 2)


def test_walk_without_a_closed_form_stops_at_the_limit(monkeypatch):
    # the point group of GroupAsSpace(G) for G of hyperoct:2 has no closed
    # form for its balls, so the walk counts its own points: its ball of
    # radius 4 has 128 of them
    monkeypatch.setattr(groups, "MAX_ENUMERATED_POINTS", 100)
    sp = GroupAsSpace(hyperoct_space(2).group)
    G = sp.point_group
    reached = set()

    def mul(a, b):
        q = type(G)._mul(G, a, b)
        reached.add(q)
        return q

    monkeypatch.setattr(G, "_mul", mul)
    with pytest.raises(ConstructionError, match="MAX_ENUMERATED_POINTS = 100"):
        sp.ball_window(4, 4)
    assert len(reached | {G._identity()}) <= 101


def test_free2_window_above_the_limit_is_refused_at_once():
    start = time.perf_counter()
    with pytest.raises(ConstructionError, match="MAX_ENUMERATED_POINTS"):
        space_by_name("free:2").ball_window(25, 25)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("name", ["zd:2", "hyperoct:2"])
def test_lattice_window_above_the_limit_is_refused_at_once(name):
    # the boxes of radius 10^5 hold 4·10^10 points
    start = time.perf_counter()
    with pytest.raises(ConstructionError, match="the window of radius 100000 has 40000400001"):
        space_by_name(name).ball_window(10**5, 10**5)
    assert time.perf_counter() - start < 1


def test_axioms_refuse_a_sample_above_the_semi_action_limit():
    sp = hyperoct_space(4)
    cosets = [sp.coset(g) for g in sp.group.ball(2)]
    with pytest.raises(ConstructionError, match="has 3434496 semi-actions"):
        verify_axioms(sp, sp.ball_window(1, 1), cosets)


def test_preimage_size_respects_stabilizer_bound():
    sp = affine_space(5)
    w = sp.full_window()
    for c in sp.cosets():
        for m in range(5):
            points, certified = sp.preimage(c, [m], w)
            assert certified
            assert len(points) <= len(sp.stabilizer)


def test_preimage_rejects_points_outside_halo():
    sp = space_by_name("free:2")
    w = sp.ball_window(1, 2)
    far = sp.group.word([1, 2, 1, 2])
    with pytest.raises(ScopeMismatchError):
        sp.preimage(sp.coset(sp.group.identity()), [far], w)


def test_undo_witness_composes_on_free_group():
    sp = space_by_name("free:2")
    g = sp.group
    m = g.word([2, 1])
    c = sp.coset(g.word([1]))
    sample = [sp.coset(x) for x in g.ball(2)]
    w = sp.undo_witness(m, c, sample)
    assert w.payload == (1,)


def test_compose_expansion_bound_and_extension():
    sp = space_by_name("free:2")
    g = sp.group
    E = [sp.coset(x) for x in g.ball(1)]
    Ep = [sp.coset(x) for x in g.ball(1)]
    m = g.word([1, -2])
    composed = sp.compose_expansion(m, E, Ep)
    assert len(composed) <= len(E) * len(Ep)
    assert any(c.is_identity for c in composed)


def test_axiom_suite_passes_on_affine():
    sp = affine_space(3)
    rep = verify_axioms(sp, sp.full_window(), [sp.coset(g) for g in sp.group.ball(2)])
    assert rep.passed, rep.failures()


def test_corrupted_coordinates_fail_with_witness():
    base = affine_space(3)

    class Corrupted(FiniteSpace):
        pass

    coords = {m: base.coord(m) for m in range(3)}
    coords[1], coords[2] = coords[2], coords[1]
    with pytest.raises(ConstructionError):
        # the constructor itself rejects coordinates that miss their point
        Corrupted(
            base.group,
            points=[0, 1, 2],
            action=lambda g, m: g.payload[m],
            m0=0,
            coords=coords,
        )

    # a mutant that lies after construction is caught by the axiom checks
    sp = affine_space(3)
    good = dict(sp._coords)
    sp._coords[1], sp._coords[2] = good[2], good[1]
    rep = verify_axioms(sp, sp.full_window(), [sp.coset(g) for g in sp.group.ball(2)])
    assert not rep.passed
    assert all(c.witness for c in rep.failures())


def test_finite_space_requires_valid_coordinates():
    g = PermutationGroup(3, [(1, 2, 0)])
    with pytest.raises(ConstructionError):
        FiniteSpace(
            g,
            points=[0, 1, 2],
            action=lambda e, m: e.payload[m],
            m0=0,
            coords={0: g.identity(), 1: g.identity(), 2: g.identity()},
        )


def test_tuple_points_round_trip_through_the_codec():
    # Z/3 turning the three points (0, 0), (1, 0), (2, 0) of a tuple-pointed space
    g = PermutationGroup(3, [(1, 2, 0)])
    rot = g.generators[0]
    pts = [(i, 0) for i in range(3)]
    sp = FiniteSpace(
        g,
        points=pts,
        action=lambda e, m: (e.payload[m[0]], 0),
        m0=(0, 0),
        coords={(0, 0): g.identity(), (1, 0): rot, (2, 0): rot * rot},
    )
    for m in pts:
        data = json.loads(json.dumps(codec.encode_point(m)))
        assert data == {"t": [m[0], 0]}
        assert codec.decode_point(sp, data) is m
    with pytest.raises(ConstructionError):
        codec.decode_point(sp, {"t": [3, 0]})


def test_group_as_space_over_a_finite_group():
    s3 = PermutationGroup(3, [(1, 0, 2), (1, 2, 0)])
    sp = GroupAsSpace(s3)
    assert sp.is_finite
    assert sp.points() == s3.elements()
    assert len(sp.points()) == 6
    window = sp.full_window()
    rep = verify_axioms(sp, window, [sp.coset(g) for g in s3.elements()])
    assert rep.passed, rep.failures()
    assert check_semi_invariance(sp, FAMeasure.uniform(window)).passed


def test_semidirect_space_matches_sign_flip_example():
    # G0 = {+-1}, H = Z, tau(-1) = negation: (-1, 3) applied to 4 gives -1
    from cellspaces import FreeAbelianGroup, SemidirectCellSpace, SemidirectProduct

    g0 = PermutationGroup(2, [(1, 0)])
    lattice = FreeAbelianGroup(1)
    tau = {((0, 1), 0): (1,), ((1, 0), 0): (-1,)}
    sp = SemidirectCellSpace(SemidirectProduct(g0, lattice, tau), name="sign-flip")
    sd = sp.sd
    g = sd.pair(sd.G0.element((1, 0)), sd.H.element((3,)))
    m = lattice.element((4,))
    assert sp.left_action(g, m).payload == (-1,)
    assert len(sp.stabilizer) == 2


@pytest.mark.parametrize(
    "name", ["zd:1", "zd:2", "zd:3", "free:1", "free:2", "free:3", "hyperoct:2", "hyperoct:3"]
)
def test_orbit_ball_matches_the_group_ball(name):
    # balls families and windows are read from the point group P. On zd:d and
    # free:k, G is P. On hyperoct:d, G0 acts on H by signed permutations, which
    # permute H's generators +-e_i: a G-word of length r moves m0 at most r
    # lattice steps, and H's generators alone reach every such point
    sp = space_by_name(name)
    P = sp.point_group
    for r in range(6):
        assert set(P.ball(r)) == {sp.left_action(g, sp.m0) for g in sp.group.ball(r)}


def _check_payload_maps(sp, ms, reps):
    # TranslationSpace computes m t on the point group's payloads; the general
    # formula g_{m0,m} g . m0 is the reference
    for g in reps:
        c = sp.coset(g)
        image, fiber = sp.key_maps(c)
        for m in ms:
            moved = CellSpace.semi_action(sp, m, c)
            assert image(m.payload) == moved.payload
            assert fiber(moved.payload) == [m.payload]
            assert sp.exact_preimage_point(c, moved) == [m]


def test_semidirect_semi_action_matches_the_general_formula_on_hyperoct():
    sp = space_by_name("hyperoct:2")
    sd = sp.sd
    ts = [sd.H.element(v) for v in itertools.product(range(-2, 3), repeat=2)]
    reps = [sd.pair(g0, t) for g0 in sd.G0.elements() for t in ts]
    ms = [sd.H.element(v) for v in itertools.product(range(-3, 4), repeat=2)]
    assert len(reps) == 8 * 25
    _check_payload_maps(sp, ms, reps)


def test_semidirect_semi_action_matches_the_general_formula_over_a_free_h():
    # G0 = Z/2 swapping the letters of F_2; H = F_2 is not abelian, so a
    # semi-action computed as t m would fail
    from cellspaces import SemidirectCellSpace, SemidirectProduct

    g0 = PermutationGroup(2, [(1, 0)])
    tau = {((0, 1), 0): (1,), ((0, 1), 1): (2,), ((1, 0), 0): (2,), ((1, 0), 1): (1,)}
    sp = SemidirectCellSpace(SemidirectProduct(g0, FreeGroup(2), tau), name="free-swap")
    sd = sp.sd
    words = sd.H.ball(2)
    assert any(m * t != t * m for m in words for t in words)
    _check_payload_maps(sp, words, [sd.pair(g, t) for g in sd.G0.elements() for t in words])


@pytest.mark.parametrize(
    "make, points",
    [
        (lambda: space_by_name("free:2"), lambda sp: sp.group.ball(2)),
        (lambda: space_by_name("zd:2"), lambda sp: sp.group.boxes([(-2, 3)])[0]),
        (lambda: GroupAsSpace(PermutationGroup(3, [(1, 0, 2), (1, 2, 0)])), GroupAsSpace.points),
        (lambda: GroupAsSpace(hyperoct_space(2).group), lambda sp: sp.group.ball(2)),
    ],
    ids=["free:2", "zd:2", "S3", "hyperoct:2-group"],
)
def test_group_as_space_semi_action_matches_the_general_formula(make, points):
    # the last space's points are pairs (g0, t) of G0 x| H, multiplied by G's law
    sp = make()
    ms = points(sp)
    _check_payload_maps(sp, ms, ms)


@pytest.mark.parametrize(
    "name", ["free:1", "free:2", "free:3", "zd:1", "zd:2", "zd:3", "hyperoct:2"]
)
def test_closed_form_sizes_count_the_enumerations(name):
    sp = space_by_name(name)
    P = sp.point_group
    for r in range(6):
        assert P.ball_size(r) == len(P.ball(r))
        core = sp.ball_window(r, r).core
        if isinstance(P, FreeAbelianGroup):
            assert P.box_size(-r, r + 1) == len(core)
            assert P.box_size(0, r) == len(P.boxes([(0, r)])[0])
        else:
            assert P.ball_size(r) == len(core)


def test_cell_space_refuses_an_empty_stabilizer():
    group = FreeGroup(1)
    with pytest.raises(ConstructionError) as exc:
        CellSpace(group, group.identity(), [])
    assert str(exc.value) == "stabilizer must be enumerated and non-empty"
