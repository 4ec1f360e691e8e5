import itertools
from fractions import Fraction

import pytest

from cellspaces import (
    ConstructionError,
    ExpansionSet,
    check_doubling,
    doubling_from_failure,
    folner_search,
    ratios,
    space_by_name,
)
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
