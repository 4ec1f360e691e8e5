"""Guards for the verifiers, the breadth-first walks and the bench hooks.

The check lists below, with their witnesses, and the number of
``semi_action`` and ``left_action`` calls each verifier makes were recorded
from a known-good build; a refactor of the check loops must reproduce them
exactly. ``bench/layers.py`` patches the package by attribute name, so the
names it reads are checked here as well.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
from fractions import Fraction

import pytest

import cellspaces.paradox as paradox
from cellspaces import (
    Decomposition,
    ExpansionSet,
    FreeAbelianGroup,
    FreeGroup,
    SignedPermutationGroup,
    affine_dilations,
    affine_space,
    affine_translations,
    canonical_free_decomposition,
    check_doubling,
    check_transfer_conditions,
    folner_search,
    hyperoct_space,
    ratios,
    space_by_name,
    verify_axioms,
    verify_decomposition,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def counting(space, names=("semi_action", "left_action")) -> dict:
    """Count the calls of the space's methods ``names`` from now on."""
    counts = dict.fromkeys(names, 0)
    for name in counts:
        fn = getattr(space, name)

        def wrapper(*args, _fn=fn, _name=name):
            counts[_name] += 1
            return _fn(*args)

        setattr(space, name, wrapper)
    return counts


def rows(report) -> list:
    return [(c.name, c.ok, c.witness) for c in report.checks]


def _swap_coordinates(sp):
    good = dict(sp._coords)
    sp._coords[1], sp._coords[2] = good[2], good[1]


def _act_twice(sp):
    sp._action = lambda g, m: g.payload[g.payload[m]]


def _shift_action(sp):
    sp._action = lambda g, m: (g.payload[m] + 1) % 3


AXIOM_MUTANTS = {
    "coordinates-swapped": (
        _swap_coordinates,
        [
            ("coordinate-property", False, "m=1"),
            ("stabilizer-fixes-origin", True, None),
            ("stabilizer-complete", True, None),
            ("action-identity", True, None),
            ("action-compatible", True, None),
            ("semiaction-identity", False, "m=1"),
            ("representative-independence", True, None),
            ("semiaction-defect", False, "(m,g)=(0, <perm (1, 2, 0)>)"),
            ("semi-commutation", False, "(m,g)=(0, <perm (1, 2, 0)>)"),
            ("semiaction-free", True, None),
            ("semiaction-transitive", False, "(m,m')=(0, 1)"),
        ],
        {"semi_action": 147, "left_action": 322},
    ),
    "action-twice": (
        _act_twice,
        [
            ("coordinate-property", False, "m=1"),
            ("stabilizer-fixes-origin", True, None),
            ("stabilizer-complete", False, "g=<perm (1, 0, 2)>"),
            ("action-identity", True, None),
            ("action-compatible", False, "(g,h,m)=(<perm (0, 2, 1)>, <perm (1, 2, 0)>, 0)"),
            ("semiaction-identity", False, "m=1"),
            (
                "representative-independence",
                False,
                "(m,coset,g0)=(0, Coset((1, 0, 2)), <perm (0, 2, 1)>)",
            ),
            ("semiaction-defect", False, "(m,g)=(0, <perm (1, 2, 0)>)"),
            ("semi-commutation", False, "(m,g)=(0, <perm (1, 2, 0)>)"),
            ("semiaction-free", False, "(m,coset)=(0, Coset((1, 0, 2)))"),
            ("semiaction-transitive", False, "(m,m')=(0, 1)"),
        ],
        {"semi_action": 83, "left_action": 167},
    ),
    "action-shifted": (
        _shift_action,
        [
            ("coordinate-property", False, "m=0"),
            ("stabilizer-fixes-origin", False, "g0=<perm (0, 1, 2)>"),
            ("stabilizer-complete", False, "g=<perm (2, 0, 1)>"),
            ("action-identity", False, "m=0"),
            ("action-compatible", False, "(g,h,m)=(<perm (0, 1, 2)>, <perm (0, 1, 2)>, 0)"),
            ("semiaction-identity", False, "m=0"),
            ("representative-independence", True, None),
            ("semiaction-defect", False, "(m,g)=(0, <perm (0, 1, 2)>)"),
            ("semi-commutation", False, "(m,g)=(0, <perm (0, 2, 1)>)"),
            ("semiaction-free", True, None),
            ("semiaction-transitive", False, "(m,m')=(0, 0)"),
        ],
        {"semi_action": 95, "left_action": 113},
    ),
}


@pytest.mark.parametrize("mutant", sorted(AXIOM_MUTANTS))
def test_axiom_witnesses_and_calls_are_pinned(mutant):
    mutate, expected, calls = AXIOM_MUTANTS[mutant]
    sp = affine_space(3)
    mutate(sp)
    cosets = [sp.coset(g) for g in sp.group.ball(2)]
    counts = counting(sp)
    assert rows(verify_axioms(sp, sp.full_window(), cosets)) == expected
    assert counts == calls


TRANSFER_CASES = {
    "translations": (
        affine_translations,
        [
            ("factorization-G0H", True, None),
            ("h-action-transitive", True, None),
            ("h-action-free", True, None),
            ("coordinates-central", True, None),
            ("semiaction-injective", True, None),
        ],
        [
            ((0, 1, 2, 3, 4), (0, 1, 2, 3, 4)),
            ((1, 0, 4, 3, 2), (4, 0, 1, 2, 3)),
            ((4, 0, 1, 2, 3), (1, 2, 3, 4, 0)),
            ((2, 0, 3, 1, 4), (3, 4, 0, 1, 2)),
            ((3, 0, 2, 4, 1), (2, 3, 4, 0, 1)),
        ],
        {"semi_action": 240, "left_action": 425},
    ),
    "dilations": (
        affine_dilations,
        [
            ("factorization-G0H", False, "g=<perm (1, 0, 4, 3, 2)>"),
            ("h-action-transitive", False, "m=1"),
            ("h-action-free", False, "(h,m)=(<perm (0, 2, 4, 1, 3)>, 0)"),
            ("coordinates-central", False, "(m,witness)=(1, 'not in H')"),
            ("semiaction-injective", True, None),
        ],
        [],
        {"semi_action": 80, "left_action": 85},
    ),
}


@pytest.mark.parametrize("subgroup", sorted(TRANSFER_CASES))
def test_transfer_witnesses_and_calls_are_pinned(subgroup):
    make, expected, witnesses, calls = TRANSFER_CASES[subgroup]
    sp = affine_space(5)
    H = make(sp)
    counts = counting(sp)
    report = check_transfer_conditions(sp, H)
    assert rows(report) == expected
    assert [(k, h.payload) for k, h in report.witnesses.items()] == witnesses
    assert counts == calls


def _canonical(sp):
    return canonical_free_decomposition(sp, sp.ball_window(2, 3))


def _mutated(sp):
    """The closed-form decomposition with the identity dropped from A_e, a
    point of A_{a'} copied into A_e, and one point repeated in A_e and in
    B_{b'}: all six checks fail."""
    D = _canonical(sp)
    A = {k: list(v) for k, v in D.A.items()}
    B = {k: list(v) for k, v in D.B.items()}
    A[()].remove(sp.group.word([]))
    A[()] += [sp.group.word([2, -1]), A[()][0]]
    B[(-2,)].append(B[(-2,)][1])
    return Decomposition(
        E=D.E,
        A={k: tuple(v) for k, v in A.items()},
        B={k: tuple(v) for k, v in B.items()},
        scope=D.scope,
    )


DECOMPOSITION_CASES = {
    "canonical": (
        _canonical,
        [
            ("partition-A", True, None),
            ("partition-B", True, None),
            ("piece-injectivity", True, None),
            ("images-disjoint", True, None),
            ("images-cover-interior", True, None),
            ("functional-identity", True, None),
        ],
        {"semi_action": 34, "left_action": 34},
    ),
    "mutated": (
        _mutated,
        [
            ("partition-A", False, "|union|=16, total=18, |core|=17"),
            ("partition-B", False, "|union|=17, total=18, |core|=17"),
            # the last non-injective piece is named, not the first
            ("piece-injectivity", False, "piece=('B', (-2,))"),
            ("images-disjoint", False, "(piece,piece,point)=('A:()', 'A:(-1,)', <free ba'>)"),
            ("images-cover-interior", False, "uncovered=<free e>"),
            ("functional-identity", False, "(m,count)=(<free e>, 0)"),
        ],
        {"semi_action": 36, "left_action": 36},
    ),
}


@pytest.mark.parametrize("case", sorted(DECOMPOSITION_CASES))
def test_decomposition_witnesses_and_calls_are_pinned(case):
    make, expected, calls = DECOMPOSITION_CASES[case]
    sp = space_by_name("free:2")
    D = make(sp)
    counts = counting(sp)
    report = verify_decomposition(sp, D)
    assert rows(report) == expected
    assert len(report.interior) == 5
    assert counts == calls


def _reference_ball(group, r):
    """Group.ball as first written: the identity, then each new layer of
    payloads sorted."""
    gens = group._symmetric_payloads()
    out = [group._identity()]
    seen = {group._identity()}
    frontier = list(out)
    for _ in range(r):
        nxt = set()
        for p in frontier:
            for s in gens:
                q = group._mul(p, s)
                if q not in seen:
                    nxt.add(q)
        frontier = sorted(nxt)
        seen.update(nxt)
        out.extend(frontier)
    return out


@pytest.mark.parametrize(
    "make",
    [
        lambda: FreeGroup(1),
        lambda: FreeGroup(2),
        lambda: FreeGroup(3),
        lambda: FreeAbelianGroup(3),
        lambda: SignedPermutationGroup(3),
        lambda: affine_space(5).group,
        lambda: hyperoct_space(2).group,
    ],
    ids=["free:1", "free:2", "free:3", "zd:3", "signedperm:3", "affine:5", "hyperoct:2"],
)
def test_ball_order_matches_the_reference(make):
    # free groups walk outward by one-letter extensions, checked here against
    # the products with every generator
    group = make()
    for r in range(7 if isinstance(group, FreeGroup) else 4):
        assert [g.payload for g in group.ball(r)] == _reference_ball(group, r)
    with pytest.raises(ValueError):
        group.ball(-1)


@pytest.mark.parametrize("name", ["free:2", "hyperoct:2"])
def test_folner_side_reads_key_maps_only(name):
    # ratios, folner_search and check_doubling count on the payload-level
    # key_maps: the element-level preimage, fiber and semi-action stay unread
    sp = space_by_name(name)
    window = sp.ball_window(4, 6)
    family = [(f"ball:{r}", sp.point_group.ball(r)) for r in (2, 4)]
    E = ExpansionSet.of(sp.coset(g) for g in sp.group.ball(1))
    counts = counting(sp, ("preimage", "semi_action", "exact_preimage_point"))
    recs = [ratios(sp, F, e, window, set_id) for set_id, F in family for e in E]
    search = folner_search(sp, E, Fraction(1, 100), family, window)
    report = check_doubling(sp, E, family)
    assert counts == {"preimage": 0, "semi_action": 0, "exact_preimage_point": 0}
    assert all(r.certified for r in recs)
    assert search.exhausted and len(report.verdicts) == 2


def _load_layers():
    path = os.path.join(ROOT, "bench", "layers.py")
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_layer_hooks_resolve():
    layers = _load_layers()
    for _, module, cls, attr in layers.SPANS + layers.COUNTED:
        mod = importlib.import_module(module)
        if cls is None:
            assert callable(getattr(mod, attr)), (module, attr)
        else:
            # Patches.wrap reads the class's own __dict__, not inherited names
            assert attr in vars(getattr(mod, cls)), (module, cls, attr)


def test_bench_span_pass_sees_certified_interior_inside_verify():
    layers = _load_layers()
    spans = layers.SpanPass()
    spans.install()
    try:
        sp = space_by_name("free:2")
        # looked up at call time: the span pass rebinds module attributes
        paradox.verify_decomposition(sp, _canonical(sp))
    finally:
        spans.restore()
    names = [rec["name"] for rec in spans.records()]
    parents = {
        rec["name"]: names[rec["parent"]] if rec["parent"] is not None else None
        for rec in spans.records()
    }
    assert parents["paradox.certified_interior"] == "paradox.verify_decomposition"
