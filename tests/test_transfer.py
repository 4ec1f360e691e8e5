import itertools
from fractions import Fraction

import pytest

from cellspaces import (
    ConstructionError,
    FAMeasure,
    FreeAbelianGroup,
    FreeGroup,
    PermutationGroup,
    ScopeMismatchError,
    SemidirectCellSpace,
    SemidirectProduct,
    Window,
    affine_dilations,
    affine_space,
    affine_translations,
    check_semi_invariance,
    check_transfer_conditions,
    hyperoct_space,
    inverse_pair_witness,
    space_by_name,
    subgroup_sample,
    transfer_invariance_check,
    verify_axioms,
)
from cellspaces.transfer import _FiniteField
from oracles import free2_words


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms_exhaustively(q):
    fld = _FiniteField(q)
    els = range(q)
    for a, b in itertools.product(els, repeat=2):
        assert fld.add(a, b) == fld.add(b, a)
        assert fld.mul(a, b) == fld.mul(b, a)
    for a, b, c in itertools.islice(itertools.product(els, repeat=3), 1000):
        assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
        assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
    # every nonzero element is invertible
    for a in range(1, q):
        assert any(fld.mul(a, b) == 1 for b in range(1, q))


def test_unsupported_field_order_rejected():
    with pytest.raises(ConstructionError):
        affine_space(6)


@pytest.mark.parametrize("q,expected_order", [(2, 2), (3, 6), (4, 12), (5, 20)])
def test_affine_group_orders(q, expected_order):
    sp = affine_space(q)
    assert len(sp.group.elements()) == expected_order
    assert len(sp.stabilizer) == q - 1
    assert len(sp.cosets()) == q


def test_affine_axioms_pass():
    for q in (3, 5):
        sp = affine_space(q)
        rep = verify_axioms(sp, sp.full_window(), [sp.coset(g) for g in sp.group.ball(2)])
        assert rep.passed, rep.failures()


def test_translations_satisfy_transfer_conditions():
    sp = affine_space(5)
    report = check_transfer_conditions(sp, affine_translations(sp))
    assert report.passed, report.failures()
    assert len(report.witnesses) >= 5
    assert all(h is not None for h in report.witnesses.values())


def test_dilations_fail_transitivity_and_freeness():
    sp = affine_space(5)
    report = check_transfer_conditions(sp, affine_dilations(sp))
    failed = {c.name for c in report.failures()}
    assert "h-action-transitive" in failed
    assert "h-action-free" in failed


def test_inverse_pair_witness_on_affine3():
    sp = affine_space(3)
    H = affine_translations(sp)
    t1 = sp.coset(sp.coord(1))
    h = inverse_pair_witness(sp, t1, H, sp.points())
    # the semi-action adds 1, so the inverse translation subtracts 1
    assert h is not None
    assert sp.left_action(h, 0) == 2


def test_identity_coset_has_identity_witness():
    sp = affine_space(5)
    H = affine_translations(sp)
    h = inverse_pair_witness(sp, sp.coset(sp.group.identity()), H, sp.points())
    assert h == sp.group.identity()


def test_transfer_invariance_exhaustive_on_affine5():
    sp = affine_space(5)
    H = affine_translations(sp)
    mu = FAMeasure.uniform(sp.full_window())
    for c in sp.cosets():
        h = inverse_pair_witness(sp, c, H, sp.points())
        assert h is not None
        assert transfer_invariance_check(sp, mu, c, h).passed


def test_transfer_invariance_detects_wrong_witness():
    sp = affine_space(5)
    mu = FAMeasure.point_mass(sp.full_window(), 0)
    c = sp.coset(sp.coord(1))
    wrong = sp.coord(3)
    verdict = transfer_invariance_check(sp, mu, c, wrong)
    assert not verdict.passed
    assert verdict.witness is not None


def test_lattice_trivial_transfer():
    sp = space_by_name("zd:2")
    g = sp.group
    H = subgroup_sample(g, g.positive_generators(), lambda x: True, radius=4)
    w = sp.ball_window(2, 3)
    report = check_transfer_conditions(sp, H, sample=w)
    assert report.passed, report.failures()


def test_hyperoct_space_stabilizer_and_axioms():
    # the stabilizer of the origin is G0 x {e}, of order 2^d d!; the
    # stabilizer checks of verify_axioms confirm it on the ball of radius 2
    for d, order in [(1, 2), (2, 8), (3, 48)]:
        sp = hyperoct_space(d)
        assert len(sp.stabilizer) == order
        w = sp.ball_window(2, 3)
        rep = verify_axioms(sp, w, [sp.coset(g) for g in sp.group.ball(1)])
        assert rep.passed, (d, rep.failures())


def _signed_permutations_by_hand(d):
    return [
        tuple(s * (j + 1) for s, j in zip(signs, perm))
        for perm in itertools.permutations(range(d))
        for signs in itertools.product((1, -1), repeat=d)
    ]


def _apply_by_hand(g0, v):
    # entry i = +-(j+1) sends e_i to +-e_j
    out = [0] * len(v)
    for i, t in enumerate(g0):
        out[abs(t) - 1] += (1 if t > 0 else -1) * v[i]
    return tuple(out)


def test_hyperoct2_acts_on_the_lattice_as_the_by_hand_oracle():
    sp = hyperoct_space(2)
    sd = sp.sd
    box = list(itertools.product(range(-1, 2), repeat=2))
    g0s = _signed_permutations_by_hand(2)
    assert sorted(g0s) == [g.payload for g in sd.G0.elements()]
    for g0, h, m in itertools.product(g0s, box, box):
        moved = sp.left_action(sd.pair(sd.G0.element(g0), sd.H.element(h)), sd.H.element(m))
        assert moved.payload == tuple(x + y for x, y in zip(h, _apply_by_hand(g0, m)))
    for g0, t, m in itertools.product(g0s, box, box):
        coset = sp.coset(sd.pair(sd.G0.element(g0), sd.H.element(t)))
        assert sp.semi_action(sd.H.element(m), coset).payload == (m[0] + t[0], m[1] + t[1])
        fiber = sp.exact_preimage_point(coset, sd.H.element(m))
        assert [p.payload for p in fiber] == [(m[0] - t[0], m[1] - t[1])]


@pytest.mark.parametrize("gens", [[(1, 2, 0)], []], ids=["cyclic", "trivial"])
def test_semidirect_product_refuses_a_finite_h(gens):
    g0 = PermutationGroup(2, [(1, 0)])
    H = PermutationGroup(3, gens)
    tau = {(g, 0): p for g in [(0, 1), (1, 0)] for p in gens}
    with pytest.raises(ConstructionError):
        SemidirectProduct(g0, H, tau)


def test_semidirect_space_over_a_free_h_uses_group_ball_order():
    # G0 = Z/2 swapping the letters of F_2; the window is H's balls in
    # ``Group.ball`` order: by word length, then by payload
    g0 = PermutationGroup(2, [(1, 0)])
    tau = {((0, 1), 0): (1,), ((0, 1), 1): (2,), ((1, 0), 0): (2,), ((1, 0), 1): (1,)}
    sp = SemidirectCellSpace(SemidirectProduct(g0, FreeGroup(2), tau), name="free-swap")
    w = sp.ball_window(1, 2)
    ball_order = lambda words: sorted(words, key=lambda word: (len(word), word))
    assert [m.payload for m in w.core] == ball_order(free2_words(1))
    assert [m.payload for m in w.halo] == ball_order(free2_words(2))
    rep = verify_axioms(sp, w, [sp.coset(g) for g in sp.group.ball(1)])
    assert rep.passed, rep.failures()


def test_semidirect_builder_requires_total_tau():
    g0 = PermutationGroup(2, [(1, 0)])
    # table only covers the first lattice generator
    tau = {((0, 1), 0): (1, 0), ((1, 0), 0): (-1, 0)}
    with pytest.raises(ConstructionError):
        SemidirectCellSpace(SemidirectProduct(g0, FreeAbelianGroup(2), tau))


def test_space_by_name_rejects_unknown():
    with pytest.raises(ConstructionError):
        space_by_name("nope:3")
    with pytest.raises(ConstructionError):
        space_by_name("affine")


def test_uniform_measures_semi_invariant_on_finite_examples():
    for q in (2, 3, 4, 5, 7, 8, 9):
        sp = affine_space(q)
        mu = FAMeasure.uniform(sp.full_window())
        assert check_semi_invariance(sp, mu).passed


def test_transfer_conditions_need_a_sample_window_on_an_infinite_space():
    sp = space_by_name("zd:2")
    H = subgroup_sample(sp.group, [], lambda g: True, radius=0)
    with pytest.raises(ConstructionError) as exc:
        check_transfer_conditions(sp, H)
    assert str(exc.value) == "an infinite space needs an explicit sample window"


def test_invariance_check_refuses_a_point_that_leaves_the_universe():
    # the translation by 1 moves the universe's only point 0 to 1
    sp = affine_space(5)
    mu = FAMeasure.point_mass(Window((0,), (0,)), 0)
    t1 = sp.coord(1)
    with pytest.raises(ScopeMismatchError) as exc:
        transfer_invariance_check(sp, mu, sp.coset(t1), t1)
    assert str(exc.value) == "point 0 leaves the measure universe under the check"
