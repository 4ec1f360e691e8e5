import random
from fractions import Fraction

import pytest

from cellspaces import (
    BoundedFn,
    ConstructionError,
    FAMeasure,
    ScopeMismatchError,
    UncertifiedWindowError,
    Window,
    affine_space,
    check_semi_invariance,
    empirical_mean_defect,
    funcamact,
    indicator,
    mean_from_measure,
    measure_from_mean,
    measure_semiaction,
    space_by_name,
)
from oracles import check_semi_invariance_subsets


def random_measure(universe, rng):
    raw = {m: Fraction(rng.randint(1, 20), rng.randint(1, 20)) for m in universe.core}
    total = sum(raw.values(), Fraction(0))
    return FAMeasure(universe, {m: v / total for m, v in raw.items()})


def test_measure_normalisation_is_enforced():
    sp = affine_space(3)
    w = sp.full_window()
    with pytest.raises(ConstructionError):
        FAMeasure(w, {0: Fraction(1, 2)})
    with pytest.raises(ConstructionError):
        FAMeasure(w, {0: Fraction(3, 2), 1: Fraction(-1, 2)})


def test_mean_measure_round_trip_exact():
    sp = affine_space(5)
    w = sp.full_window()
    rng = random.Random(7)
    for _ in range(50):
        mu = random_measure(w, rng)
        back = measure_from_mean(mean_from_measure(mu))
        assert back.weights == mu.weights


def test_mean_evaluates_indicator_as_measure():
    sp = affine_space(5)
    w = sp.full_window()
    mu = random_measure(w, random.Random(3))
    nu = mean_from_measure(mu)
    for A in ([0], [1, 3], [0, 1, 2, 3, 4]):
        assert nu.evaluate(indicator(w, A)) == mu.measure(A)


def test_funcamact_respects_sup_norm_bound():
    sp = affine_space(5)
    w = sp.full_window()
    f = BoundedFn(w, {m: Fraction(m, 4) for m in range(5)})
    for c in sp.cosets():
        g = funcamact(sp, f, c)
        assert g.sup_norm <= len(sp.stabilizer) * f.sup_norm


def test_funcamact_refuses_uncertified_window():
    sp = space_by_name("free:2")
    w = sp.ball_window(2, 2)
    f = indicator(w, [sp.group.identity()])
    with pytest.raises(UncertifiedWindowError):
        funcamact(sp, f, sp.coset(sp.group.word([1])))


def test_funcamact_on_group_space_is_shift():
    sp = space_by_name("free:2")
    w = sp.ball_window(2, 3)
    g = sp.group
    f = indicator(w, [g.word([1])])
    shifted = funcamact(sp, f, sp.coset(g.word([1])))
    # fiber of m under ". * a" is m a^{-1}; f sums to 1 exactly at m = a*a
    assert shifted(g.word([1, 1])) == 1
    assert sum(shifted.values.values()) == 1


def test_uniform_measure_is_semi_invariant_on_affine():
    for q in (2, 3, 4, 5):
        sp = affine_space(q)
        mu = FAMeasure.uniform(sp.full_window())
        assert check_semi_invariance(sp, mu).passed


def test_singleton_reduction_matches_subset_oracle():
    sp = affine_space(3)
    w = sp.full_window()
    rng = random.Random(11)
    for _ in range(10):
        mu = random_measure(w, rng)
        assert check_semi_invariance(sp, mu).passed == check_semi_invariance_subsets(
            sp, mu
        )


def test_non_invariant_measure_is_reported_with_witness():
    sp = affine_space(3)
    w = sp.full_window()
    mu = FAMeasure(w, {0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)})
    report = check_semi_invariance(sp, mu)
    assert not report.passed
    assert report.violations


def test_measure_semiaction_moves_mass():
    sp = affine_space(5)
    w = sp.full_window()
    mu = FAMeasure.point_mass(w, 0)
    moved = measure_semiaction(sp, mu, sp.coset(sp.coord(2)))
    # ({3} |> t_2) = {0 + ... } : the set function evaluates mu on the image
    assert moved([3]) == mu.measure([sp.semi_action(3, sp.coset(sp.coord(2)))])


def test_empirical_mean_defect_bound_holds():
    sp = space_by_name("zd:2")
    g = sp.group
    import itertools

    F = [g.element(v) for v in itertools.product(range(4), repeat=2)]
    w = sp.ball_window(4, 5)
    rng = random.Random(23)
    coset = sp.coset(g.element((1, 0)))
    for _ in range(25):
        f = BoundedFn(
            w,
            {
                m: Fraction(rng.randint(-8, 8), 8)
                for m in w.halo
            },
        )
        defect, bound = empirical_mean_defect(sp, F, coset, f, w)
        assert defect <= bound


def test_uniform_measure_shares_one_weight():
    universe = space_by_name("free:2").ball_window(3, 3)
    mu = FAMeasure.uniform(universe)
    weights = [mu.weight(m) for m in universe.core]
    assert all(w == Fraction(1, len(universe.core)) for w in weights)
    assert len({id(w) for w in weights}) == 1


def test_uncertified_measures_name_the_certifying_halo():
    # the fibers of a radius-3 core under a reach radius 4
    sp = space_by_name("free:2")
    a = sp.coset(sp.group.word([1]))
    w = sp.ball_window(3, 3)
    f = indicator(w, w.core[:10])
    with pytest.raises(UncertifiedWindowError, match="a halo of radius 4 certifies the window$"):
        funcamact(sp, f, a)
    with pytest.raises(UncertifiedWindowError, match="a halo of radius 4 certifies it$"):
        empirical_mean_defect(sp, list(w.core), a, f, w)
    # the named halo certifies both
    w = sp.ball_window(3, 4)
    f = indicator(w, w.core[:10])
    funcamact(sp, f, a)
    empirical_mean_defect(sp, list(w.core), a, f, w)


def _affine5_defect_of_empty_F():
    sp = affine_space(5)
    w = sp.full_window()
    return empirical_mean_defect(sp, [], sp.coset(sp.coord(1)), indicator(w, [0]), w)


def _semi_invariance_on_free2():
    sp = space_by_name("free:2")
    return check_semi_invariance(sp, FAMeasure.uniform(sp.ball_window(1, 1)))


@pytest.mark.parametrize(
    "build, error, message",
    [
        pytest.param(
            lambda: BoundedFn(Window((0, 1), (0, 1, 2)), {3: Fraction(1)}),
            ScopeMismatchError,
            "function value at 3 outside the window",
            id="value-outside-window",
        ),
        pytest.param(
            lambda: FAMeasure(Window((0,), (0, 1)), {0: Fraction(1)}),
            ConstructionError,
            "measure universes must have core == halo",
            id="universe-core-below-halo",
        ),
        pytest.param(
            lambda: FAMeasure(Window((0, 1), (0, 1)), {2: Fraction(1)}),
            ScopeMismatchError,
            "weight at 2 outside the universe",
            id="weight-outside-universe",
        ),
        pytest.param(
            _semi_invariance_on_free2,
            ConstructionError,
            "semi-invariance check needs a finite space",
            id="semi-invariance-infinite",
        ),
        pytest.param(
            _affine5_defect_of_empty_F,
            ConstructionError,
            "F must be non-empty",
            id="mean-defect-empty-F",
        ),
    ],
)
def test_measure_constructions_refuse_bad_input(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message
