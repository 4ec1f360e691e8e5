import itertools
import random
import time
from fractions import Fraction

import pytest

from cellspaces import (
    ConstructionError,
    ExpansionSet,
    FiniteSpace,
    FolnerSearchResult,
    FreeGroup,
    GroupAsSpace,
    IntegrityError,
    PermutationGroup,
    RatioRecord,
    ScopeMismatchError,
    Window,
    affine_space,
    check_doubling,
    doubling_from_failure,
    folner_search,
    ratios,
    space_by_name,
)
from cellspaces.folner import _compose_sets, _doubling_exponent
from oracles import box_ratio_out, free2_ball_ratio_out, free2_product_size


def box_family(space, sizes):
    g = space.group
    out = []
    for n in sizes:
        pts = [g.element(v) for v in itertools.product(range(n), repeat=g.d)]
        out.append((f"box:{n}", pts))
    return out


def ball_family(space, radii):
    return [(f"ball:{r}", [m for m in space.group.ball(r)]) for r in radii]


def unit_cosets(space):
    g = space.group
    return ExpansionSet.of([space.coset(e) for e in g.ball(1)])


def test_box_ratios_match_oracle():
    sp = space_by_name("zd:2")
    g = sp.group
    w = sp.ball_window(9, 10)
    for n in range(1, 9):
        F = [g.element(v) for v in itertools.product(range(n), repeat=2)]
        for shift in ((1, 0), (0, 1), (1, 1)):
            rec = ratios(sp, F, sp.coset(g.element(shift)), w)
            assert rec.certified
            assert rec.ratio_out == box_ratio_out(n, shift)


def test_free_ball_ratios_match_oracle():
    sp = space_by_name("free:2")
    for n in range(1, 5):
        w = sp.ball_window(n, n + 1)
        rec = ratios(sp, list(w.core), sp.coset(sp.group.word([1])), w)
        assert rec.certified
        assert rec.ratio_out == free2_ball_ratio_out(n)
        assert rec.ratio_out == Fraction(3**n, 2 * 3**n - 1)


def test_ratio_in_equals_ratio_out_on_lattice_boxes():
    sp = space_by_name("zd:2")
    g = sp.group
    w = sp.ball_window(6, 7)
    F = [g.element(v) for v in itertools.product(range(5), repeat=2)]
    rec = ratios(sp, F, sp.coset(g.element((0, 1))), w)
    assert rec.ratio_in == rec.ratio_out == Fraction(1, 5)


def test_folner_search_finds_large_box():
    sp = space_by_name("zd:2")
    E = unit_cosets(sp)
    w = sp.ball_window(12, 13)
    family = box_family(sp, range(1, 12))
    result = folner_search(sp, E, Fraction(1, 8), family, w)
    assert not result.exhausted
    assert result.found_id == "box:9"


def test_folner_search_exhausts_on_free_group():
    sp = space_by_name("free:2")
    E = unit_cosets(sp)
    w = sp.ball_window(4, 5)
    family = ball_family(sp, range(1, 5))
    result = folner_search(sp, E, Fraction(1, 2), family, w)
    assert result.exhausted
    assert result.best_max_ratio >= Fraction(1, 2)
    assert result.best_witness_coset is not None


def test_doubling_from_failure_builds_valid_set():
    sp = space_by_name("free:2")
    E1 = unit_cosets(sp)
    w = sp.ball_window(4, 5)
    family = ball_family(sp, range(1, 5))
    evidence = folner_search(sp, E1, Fraction(1, 2), family, w)
    construction = doubling_from_failure(sp, E1, Fraction(1, 2), evidence)
    # |G0| = 1, so xi = 3/2 and the doubling exponent is 2
    assert construction.xi == Fraction(3, 2)
    assert construction.n == 2
    assert construction.E.contains_identity
    report = check_doubling(sp, construction.E, family)
    assert report.passed


def _free2_ball_evidence(sp, E1, epsilon):
    w = sp.ball_window(4, 5)
    return folner_search(sp, E1, epsilon, ball_family(sp, range(1, 5)), w)


def test_doubling_from_failure_within_the_size_bound():
    # n = 8 composes E2 = ball(1) up to ball(8), of 2 * 3^8 - 1 words; its
    # largest step forms |ball(7)| * 5 = 21,865 coset products
    sp = space_by_name("free:2")
    E1 = unit_cosets(sp)
    epsilon = Fraction(1, 10)
    construction = doubling_from_failure(sp, E1, epsilon, _free2_ball_evidence(sp, E1, epsilon))
    assert construction.n == 8
    assert len(construction.E) == 2 * 3**8 - 1


def test_doubling_from_failure_refuses_a_step_over_the_size_bound():
    # n = 15 would reach ball(15); step 10 alone forms |ball(9)| * 5 = 196,825
    sp = space_by_name("free:2")
    E1 = unit_cosets(sp)
    epsilon = Fraction(1, 20)
    evidence = _free2_ball_evidence(sp, E1, epsilon)
    with pytest.raises(ConstructionError, match=r"n = 15 .*\|E2\| = 5 .*step 10 .*196825 .*100000"):
        doubling_from_failure(sp, E1, epsilon, evidence)


@pytest.mark.parametrize("digits, needs", [(4, "n = 6932"), (400, "n > 100001")])
def test_doubling_from_failure_refuses_a_long_chain_at_once(digits, needs):
    # xi = 1 + 10^-4 gives n = 6,932; the exact powers the exponent was once
    # found by had not returned after a minute. Step s forms 2s products, so
    # the running total passes the limit at step 316
    sp = space_by_name("zd:2")
    E1 = ExpansionSet.of([sp.coset(sp.group.element((1, 0)))])
    start = time.perf_counter()
    with pytest.raises(ConstructionError) as exc:
        doubling_from_failure(sp, E1, Fraction(1, 10**digits), FolnerSearchResult())
    assert time.perf_counter() - start < 1
    assert str(exc.value) == (
        f"doubling set needs {needs} compositions of |E2| = 2 cosets; step 316 would "
        "form 632 coset products, 100170 in all, above the limit 100000"
    )


def test_doubling_from_failure_refuses_an_epsilon_with_long_terms_at_once():
    # n is near 99,022 as for 7 * 10^-6, but confirming it exactly formed
    # 21.8-million-bit powers and took about 10 s before the same step-316
    # refusal
    sp = space_by_name("zd:2")
    E1 = ExpansionSet.of([sp.coset(sp.group.element((1, 0)))])
    epsilon = Fraction(7 * 10**60 + 1, 10**66)
    start = time.perf_counter()
    with pytest.raises(ConstructionError) as exc:
        doubling_from_failure(sp, E1, epsilon, FolnerSearchResult())
    assert time.perf_counter() - start < 1
    assert str(exc.value) == (
        "the least n with xi^n >= 2 is near 99022; checking it exactly would form "
        "21784840-bit powers, above the limit of 2000000 bits"
    )


def _compose_every_product(space, E, E2):
    """The composition as first written: one coset per product, duplicates
    included; the reference for ``_compose_sets``."""
    return ExpansionSet.of(
        space.coset(g * ep.rep) for e in E for g in e.representatives() for ep in E2
    )


@pytest.mark.parametrize("name", ["free:2", "zd:2", "hyperoct:2"])
def test_composition_keeps_the_keys_and_representatives(name):
    sp = space_by_name(name)
    E2 = unit_cosets(sp)
    E = reference = E2
    for _ in range(3):
        E, reference = _compose_sets(sp, E, E2), _compose_every_product(sp, reference, E2)
        assert [(c.key, c.rep) for c in E] == [(c.key, c.rep) for c in reference]


def _least_doubling_power(xi):
    n, power = 1, xi
    while power < 2:
        n, power = n + 1, power * xi
    return n


def _root_bracket(n, scale=10**40):
    """The multiples of 1/scale just below and just above 2^(1/n)."""
    lo, hi = scale, 2 * scale
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**n < 2 * scale**n else (lo, mid)
    return Fraction(lo, scale), Fraction(hi, scale)


@pytest.mark.parametrize(
    "xi",
    [Fraction(3), Fraction(2), Fraction(9, 8), Fraction(10001, 10000)]
    + [1 + Fraction(1, k) for k in range(1, 60)]
    # within 10^-40 of 2^(1/n), closer than a float resolves: the estimate
    # is one too small below the root for each n, and one too large above
    # it for n = 44
    + [xi for n in (2, 7, 44) for xi in _root_bracket(n)],
)
def test_doubling_exponent_is_exact(xi):
    assert _doubling_exponent(xi, 10**6) == _least_doubling_power(xi)


def test_doubling_exponent_above_its_cap_is_none():
    assert _doubling_exponent(1 + Fraction(1, 10**400), 100_001) is None
    assert _doubling_exponent(Fraction(10001, 10000), 6_931) is None
    assert _doubling_exponent(Fraction(10001, 10000), 6_932) == 6_932


def test_doubling_from_failure_rejects_positive_evidence():
    sp = space_by_name("zd:2")
    E = unit_cosets(sp)
    w = sp.ball_window(12, 13)
    good = folner_search(sp, E, Fraction(1, 8), box_family(sp, range(1, 12)), w)
    with pytest.raises(ConstructionError):
        doubling_from_failure(sp, E, Fraction(1, 8), good)


def test_doubling_cardinalities_match_free_group_oracle():
    sp = space_by_name("free:2")
    E = unit_cosets(sp)
    family = ball_family(sp, range(1, 5))
    report = check_doubling(sp, E, family)
    for r, verdict in zip(range(1, 5), report.verdicts):
        assert verdict.size == 2 * 3**r - 1
        assert verdict.image_size == free2_product_size(r, 1) == 2 * 3 ** (r + 1) - 1
        assert verdict.passed


def test_doubling_fails_on_lattice_boxes():
    sp = space_by_name("zd:2")
    E = unit_cosets(sp)
    report = check_doubling(sp, E, box_family(sp, [10, 12]))
    for n, verdict in zip([10, 12], report.verdicts):
        assert verdict.size == n * n
        assert verdict.image_size == n * n + 4 * n  # cross-shaped dilation
        assert not verdict.passed


# ---------------------------------------------------------------------------
# the key path of ratios and check_doubling against the element path


def element_ratios(space, F, coset, universe, set_id):
    """The RatioRecord recounted on elements, from ``exact_preimage_point``
    and set arithmetic, without the window checks that ``ratios`` and
    ``CellSpace.preimage`` share."""
    f_set, halo, n = set(F), set(universe.halo), len(F)
    exact = {m for a in f_set for m in space.exact_preimage_point(coset, a)}
    pre_set = exact & halo
    return RatioRecord(
        set_id,
        coset.key,
        n,
        Fraction(len(f_set - pre_set), n),
        Fraction(len(pre_set - f_set), n),
        exact <= halo,
    )


def transposition_space():
    """S3 on {0, 1, 2} with the transpositions (0 1) and (0 2) as
    coordinates. They are no subgroup, so the semi-action is no action and
    a fiber can hold |G0| = 2 points; the space takes the default
    ``key_maps``."""
    s3 = PermutationGroup(3, [(1, 0, 2), (1, 2, 0)])
    coords = {0: s3.identity(), 1: s3.element((1, 0, 2)), 2: s3.element((2, 1, 0))}
    return FiniteSpace(s3, [0, 1, 2], lambda g, m: g.payload[m], 0, coords, "s3-transpositions")


def _infinite_case(name, core, halo):
    sp = space_by_name(name)
    window = sp.ball_window(core, halo)
    rng = random.Random(len(window.core))
    family = [(f"ball:{r}", sp.point_group.ball(r)) for r in range(4)]
    family += [(f"sample:{i}", rng.sample(window.core, len(window.core) // 3)) for i in range(3)]
    E = ExpansionSet.of(sp.coset(g) for g in sp.group.ball(2))
    return sp, window, family, E


def _finite_case(sp, certified):
    points = tuple(sp.points())
    window = sp.full_window() if certified else Window(points[:2], points[:2])
    halo = window.halo
    subsets = (F for n in range(1, len(halo) + 1) for F in itertools.combinations(halo, n))
    family = [(f"subset:{i}", list(F)) for i, F in enumerate(subsets)]
    return sp, window, family, ExpansionSet.of(sp.cosets())


KEY_PATH_CASES = {
    "free2-certified": lambda: _infinite_case("free:2", 3, 5),
    "free2-uncertified": lambda: _infinite_case("free:2", 3, 3),
    "zd2-certified": lambda: _infinite_case("zd:2", 3, 5),
    "zd2-uncertified": lambda: _infinite_case("zd:2", 3, 3),
    "hyperoct2-certified": lambda: _infinite_case("hyperoct:2", 3, 5),
    "hyperoct2-uncertified": lambda: _infinite_case("hyperoct:2", 3, 3),
    "affine5-certified": lambda: _finite_case(affine_space(5), True),
    "affine5-uncertified": lambda: _finite_case(affine_space(5), False),
    "transpositions-certified": lambda: _finite_case(transposition_space(), True),
    "transpositions-uncertified": lambda: _finite_case(transposition_space(), False),
}


@pytest.mark.parametrize("case", sorted(KEY_PATH_CASES))
def test_ratios_on_keys_match_the_element_path(case):
    sp, window, family, E = KEY_PATH_CASES[case]()
    certified = set()
    for set_id, F in family:
        for e in E:
            rec = ratios(sp, F, e, window, set_id)
            assert rec == element_ratios(sp, F, e, window, set_id)
            certified.add(rec.certified)
    assert certified == ({True} if case.endswith("-certified") else {True, False})


@pytest.mark.parametrize("case", sorted(KEY_PATH_CASES))
def test_doubling_on_keys_matches_the_element_image(case):
    sp, _, family, E = KEY_PATH_CASES[case]()
    report = check_doubling(sp, E, family)
    assert [v.set_id for v in report.verdicts] == [set_id for set_id, _ in family]
    for v, (_, F) in zip(report.verdicts, family):
        assert v.size == len(set(F))
        assert v.image_size == len(sp.semi_action_set(F, E))


def _same_refusal(sp, F, coset, window, error, match):
    """``ratios`` on keys and ``preimage`` on elements refuse F alike."""
    with pytest.raises(error, match=match) as on_keys:
        ratios(sp, F, coset, window)
    with pytest.raises(error) as on_elements:
        sp.preimage(coset, F, window)
    assert str(on_keys.value) == str(on_elements.value)


def test_ratios_refuse_a_set_outside_the_halo():
    sp = space_by_name("free:2")
    window = sp.ball_window(3, 3)
    F = [*window.core, sp.group.word([1, 1, 1, 1])]
    _same_refusal(sp, F, sp.coset(sp.group.word([1])), window, ScopeMismatchError, "halo")


def _twice_ball_1(name):
    # ball(1) given twice: |F| = 2|ball(1)| would halve every ratio
    sp = space_by_name(name)
    return sp, sp.ball_window(2, 3), sp.point_group.ball(1) * 2


def test_ratios_refuse_a_repeated_point():
    # on zd:1 the true ratio_out of ball(1) under +1 is 1/3; counted over
    # the list it would read 1/6
    sp, window, F = _twice_ball_1("zd:1")
    with pytest.raises(ConstructionError, match=r"^F holds the point <zd \(0,\)> twice$"):
        ratios(sp, F, sp.coset(sp.group.element((1,))), window)


def test_folner_search_refuses_a_repeated_point():
    # with the ratios halved, ball(1) given twice would pass epsilon = 1/3,
    # a false Folner claim
    sp, window, F = _twice_ball_1("zd:1")
    with pytest.raises(ConstructionError, match=r"^F holds the point <zd \(0,\)> twice$"):
        folner_search(sp, unit_cosets(sp), Fraction(1, 3), [("F", F)], window)
    assert folner_search(sp, unit_cosets(sp), Fraction(1, 3), [("F", F[:3])], window).exhausted


class WideFibers(GroupAsSpace):
    """free:2 whose fibers, on keys and on elements, also hold the point
    itself: more than |G0|*|A| = |A| points for a set A."""

    def key_maps(self, coset):
        image, fiber = super().key_maps(coset)
        return image, lambda ks: [*fiber(ks), *ks]

    def exact_preimage_point(self, coset, a):
        return super().exact_preimage_point(coset, a) + [a]


def test_ratios_refuse_fibers_above_the_stabiliser_bound():
    sp = WideFibers(FreeGroup(2))
    window = sp.ball_window(1, 2)
    _same_refusal(
        sp,
        list(window.core),
        sp.coset(sp.group.word([1])),
        window,
        IntegrityError,
        r"preimage size 8 exceeds \|G0\|\*\|A\| = 5",
    )


def test_folner_search_refuses_an_empty_expansion_set():
    sp = space_by_name("free:2")
    window = sp.ball_window(1, 2)
    with pytest.raises(ConstructionError, match="E must be non-empty"):
        folner_search(sp, ExpansionSet.of([]), Fraction(1, 2), ball_family(sp, [1]), window)


def test_folner_search_refuses_an_empty_family():
    # an exhausted search over no sets is no evidence of Folner failure
    sp = space_by_name("zd:2")
    window = sp.ball_window(1, 2)
    with pytest.raises(ConstructionError, match="the family must be non-empty"):
        folner_search(sp, unit_cosets(sp), Fraction(1, 2), [], window)


def test_check_doubling_refuses_an_empty_set():
    sp = space_by_name("zd:2")
    with pytest.raises(ConstructionError, match="F must be non-empty"):
        check_doubling(sp, unit_cosets(sp), box_family(sp, [1, 0]))


def test_check_doubling_refuses_an_empty_family():
    # a verdict over no sets would pass vacuously
    sp = space_by_name("zd:2")
    with pytest.raises(ConstructionError, match="the family must be non-empty"):
        check_doubling(sp, unit_cosets(sp), [])


def test_ratios_refuse_an_empty_set():
    sp = space_by_name("zd:2")
    with pytest.raises(ConstructionError) as exc:
        ratios(sp, [], unit_cosets(sp).cosets[0], sp.ball_window(1, 2))
    assert str(exc.value) == "F must be non-empty"


@pytest.mark.parametrize("epsilon", [Fraction(0), Fraction(-1, 10)])
@pytest.mark.parametrize("call", ["folner_search", "doubling_from_failure"])
def test_nonpositive_epsilon_is_refused(call, epsilon):
    sp = space_by_name("zd:2")
    E = unit_cosets(sp)
    with pytest.raises(ConstructionError) as exc:
        if call == "folner_search":
            folner_search(sp, E, epsilon, box_family(sp, [1]), sp.ball_window(1, 2))
        else:
            doubling_from_failure(sp, E, epsilon, FolnerSearchResult())
    assert str(exc.value) == "epsilon must be positive"
