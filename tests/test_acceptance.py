"""Acceptance suite: ten end-to-end criteria with explicit budgets.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the same condition, so the suite is meaningful both as a report and
as a hard gate. Expected values come from the independent oracles in
``oracles.py`` or from closed-form counts checked against those oracles.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from cellspaces import (
    BoundedFn,
    ExpansionSet,
    FAMeasure,
    FiniteSpace,
    HaremMatching,
    SignedPermutationGroup,
    Window,
    affine_space,
    affine_translations,
    build_graph,
    check_doubling,
    check_semi_invariance,
    check_transfer_conditions,
    decomposition_from_map,
    empirical_mean_defect,
    harem_matching,
    inverse_pair_witness,
    mean_from_measure,
    measure_from_mean,
    ratios,
    solve_harem,
    space_by_name,
    transfer_invariance_check,
    two_to_one_from_matching,
    verify_axioms,
    verify_decomposition,
)
from cellspaces.cli import main as cli_main
from oracles import (
    box_ratio_out,
    free2_ball_ratio_out,
    free2_product_size,
    perfect_harem_exists,
    search_decompositions,
)


def report(number: int, label: str, ok: bool, started: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {label}: {verdict} ({time.time() - started:.2f}s)")


def hyperoct_orbit_space() -> FiniteSpace:
    """Signed permutations of 2 coordinates acting on the 4 unit vectors."""
    g = SignedPermutationGroup(2)
    points = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    coords = {
        (1, 0): g.identity(),
        (-1, 0): g.element((-1, 2)),
        (0, 1): g.element((2, 1)),
        (0, -1): g.element((-2, 1)),
    }
    return FiniteSpace(
        g,
        points=points,
        action=lambda e, m: g.apply_to_vector(e, m),
        m0=(1, 0),
        coords=coords,
        name="hyperoct-orbit",
    )


def unit_cosets(space) -> ExpansionSet:
    return ExpansionSet.of([space.coset(g) for g in space.group.ball(1)])


def test_acceptance_01_axiom_suite():
    started = time.time()
    ok = True
    cases = []
    for name in ("zd:1", "zd:2", "zd:3", "free:2"):
        sp = space_by_name(name)
        cases.append((sp, sp.ball_window(3, 4)))
    for q in (3, 5):
        sp = affine_space(q)
        cases.append((sp, sp.full_window()))
    for d in (1, 2):
        sp = space_by_name(f"hyperoct:{d}")
        cases.append((sp, sp.ball_window(2, 3)))
    for sp, window in cases:
        rep = verify_axioms(sp, window, [sp.coset(g) for g in sp.group.ball(2)])
        ok = ok and rep.passed

    # a mutant with swapped coordinates must fail and name a witness
    mutant = affine_space(3)
    c1, c2 = mutant._coords[1], mutant._coords[2]
    mutant._coords[1], mutant._coords[2] = c2, c1
    bad = verify_axioms(
        mutant, mutant.full_window(), [mutant.coset(g) for g in mutant.group.ball(2)]
    )
    ok = ok and not bad.passed and all(c.witness for c in bad.failures())

    elapsed = time.time() - started
    ok = ok and elapsed < 10
    report(1, "axiom-suite", ok, started)
    assert ok


def test_acceptance_02_folner_identities():
    started = time.time()
    ok = True

    z2 = space_by_name("zd:2")
    g = z2.group
    w = z2.ball_window(33, 34)
    for n in range(1, 33):
        F = [g.element(v) for v in itertools.product(range(n), repeat=2)]
        rec = ratios(z2, F, z2.coset(g.element((1, 0))), w)
        ok = ok and rec.certified
        ok = ok and rec.ratio_out == Fraction(1, n) == box_ratio_out(n, (1, 0))

    f2 = space_by_name("free:2")
    for n in range(1, 7):
        wn = f2.ball_window(n, n + 1)
        rec = ratios(f2, list(wn.core), f2.coset(f2.group.word([1])), wn)
        ok = ok and rec.certified
        expected = Fraction(3**n, 2 * 3**n - 1)
        ok = ok and rec.ratio_out == expected == free2_ball_ratio_out(n)

    report(2, "folner-identities", ok, started)
    assert ok


def test_acceptance_03_doubling():
    started = time.time()
    ok = True

    f2 = space_by_name("free:2")
    family = [(f"ball:{r}", [m for m in f2.group.ball(r)]) for r in range(1, 5)]
    rep = check_doubling(f2, unit_cosets(f2), family)
    ok = ok and rep.passed
    for r, verdict in zip(range(1, 5), rep.verdicts):
        ok = ok and verdict.size == 2 * 3**r - 1
        ok = ok and verdict.image_size == 2 * 3 ** (r + 1) - 1
        ok = ok and verdict.image_size == free2_product_size(r, 1)

    z2 = space_by_name("zd:2")
    g = z2.group
    for n in (10, 11, 12):
        F = [g.element(v) for v in itertools.product(range(n), repeat=2)]
        rep = check_doubling(z2, unit_cosets(z2), [(f"box:{n}", F)])
        verdict = rep.verdicts[0]
        # oracle: the image is the box dilated by one step in each axis
        box = set(itertools.product(range(n), repeat=2))
        image = set(box)
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            image |= {(x + dx, y + dy) for x, y in box}
        ok = ok and verdict.image_size == len(image)
        ok = ok and not verdict.passed

    report(3, "doubling", ok, started)
    assert ok


def test_acceptance_04_harem_solver_sweep():
    started = time.time()
    ok = True
    rng = random.Random(20240817)
    agreements = 0
    for _ in range(10500):
        n_left = rng.randint(1, 4)
        n_right = 2 * n_left if rng.random() < 0.6 else rng.randint(0, 8)
        density = rng.choice([0.15, 0.3, 0.5, 0.7, 0.9])
        adjacency = [
            sorted(y for y in range(n_right) if rng.random() < density)
            for _ in range(n_left)
        ]
        outcome = solve_harem(n_left, n_right, adjacency, 2)
        solver_found = isinstance(outcome, HaremMatching)
        oracle_found = perfect_harem_exists(n_left, n_right, adjacency, 2)
        if solver_found != oracle_found:
            ok = False
            break
        if solver_found:
            per_left = [0] * n_left
            per_right = [0] * n_right
            for x, y in outcome.pairs:
                if y not in adjacency[x]:
                    ok = False
                per_left[x] += 1
                per_right[y] += 1
            ok = ok and all(c == 2 for c in per_left) and all(c == 1 for c in per_right)
        else:
            if outcome.side == "left":
                A = outcome.vertices
                nr = set()
                for x in A:
                    nr.update(adjacency[x])
                ok = ok and A and len(nr) < 2 * len(A)
            else:
                B = set(outcome.vertices)
                nl = {x for x in range(n_left) if B & set(adjacency[x])}
                ok = ok and B and 2 * len(nl) < len(B)
        if not ok:
            break
        agreements += 1

    elapsed = time.time() - started
    ok = ok and agreements >= 10**4 and elapsed < 60
    report(4, "harem-solver-sweep", ok, started)
    assert ok


def test_acceptance_05_tarski_pipeline():
    started = time.time()
    sp = space_by_name("free:2")
    E = unit_cosets(sp)
    window = sp.ball_window(4, 5)
    graph = build_graph(sp, E, window)
    matching = harem_matching(graph, 2)
    ok = isinstance(matching, HaremMatching)
    if ok:
        ttm = two_to_one_from_matching(graph, matching)
        # two matched right vertices per left vertex, no right vertex twice
        pairs = set(matching.pairs)
        matched = [y for branch in ttm.branches for y in branch]
        ok = ok and len(ttm.branches) == len(graph.left)
        ok = ok and all(
            lo < hi and (i, lo) in pairs and (i, hi) in pairs
            for i, (lo, hi) in enumerate(ttm.branches)
        )
        ok = ok and len(matched) == len(set(matched)) == 2 * len(graph.left)
        D = decomposition_from_map(sp, ttm, E, window)
        rep = verify_decomposition(sp, D)
        ok = ok and rep.passed
        ok = ok and {c.name for c in rep.checks} >= {
            "partition-A",
            "partition-B",
            "piece-injectivity",
            "images-disjoint",
            "images-cover-interior",
            "functional-identity",
        }
    elapsed = time.time() - started
    ok = ok and elapsed < 30
    report(5, "tarski-pipeline", ok, started)
    assert ok


def test_acceptance_06_finite_amenability():
    started = time.time()
    ok = True
    for sp in (affine_space(3), affine_space(5), hyperoct_orbit_space()):
        mu = FAMeasure.uniform(sp.full_window())
        ok = ok and check_semi_invariance(sp, mu).passed

    # no paradoxical decomposition exists on small finite spaces
    rotation4 = __import__("cellspaces").PermutationGroup(4, [(1, 2, 3, 0)])
    cyclic = FiniteSpace(
        rotation4,
        points=[0, 1, 2, 3],
        action=lambda g, m: g.payload[m],
        m0=0,
        coords={m: rotation4.element(tuple((i + m) % 4 for i in range(4))) for m in range(4)},
        name="cyclic4",
    )
    small_spaces = [
        affine_space(2),
        affine_space(3),
        affine_space(4),
        cyclic,
        hyperoct_orbit_space(),
    ]
    for sp in small_spaces:
        assert len(sp.points()) <= 4
        ok = ok and search_decompositions(sp, max_expansion=2) is None

    report(6, "finite-amenability", ok, started)
    assert ok


def test_acceptance_07_mean_measure_round_trip():
    started = time.time()
    ok = True
    rng = random.Random(99)
    for sp in (affine_space(3), affine_space(5), hyperoct_orbit_space()):
        w = sp.full_window()
        for _ in range(100):
            raw = {
                m: Fraction(rng.randint(1, 30), rng.randint(1, 30)) for m in w.core
            }
            total = sum(raw.values(), Fraction(0))
            mu = FAMeasure(w, {m: v / total for m, v in raw.items()})
            back = measure_from_mean(mean_from_measure(mu))
            ok = ok and back.weights == mu.weights
    report(7, "mean-measure-round-trip", ok, started)
    assert ok


def test_acceptance_08_defect_bound():
    started = time.time()
    ok = True
    rng = random.Random(4242)
    grid = []
    z2 = space_by_name("zd:2")
    g = z2.group
    wz = z2.ball_window(6, 7)
    for n in (3, 5):
        F = [g.element(v) for v in itertools.product(range(n), repeat=2)]
        for shift in ((1, 0), (0, 1)):
            grid.append((z2, F, z2.coset(g.element(shift)), wz))
    f2 = space_by_name("free:2")
    for r in (2, 3):
        wf = f2.ball_window(r, r + 1)
        grid.append((f2, list(wf.core), f2.coset(f2.group.word([1])), wf))

    for sp, F, coset, window in grid:
        for _ in range(100):
            f = BoundedFn(
                window,
                {m: Fraction(rng.randint(-16, 16), 16) for m in window.halo},
            )
            assert f.sup_norm <= 1
            defect, bound = empirical_mean_defect(sp, F, coset, f, window)
            rec = ratios(sp, F, coset, window)
            ok = ok and bound == (rec.ratio_in + rec.ratio_out) * f.sup_norm
            ok = ok and defect <= bound
    report(8, "defect-bound", ok, started)
    assert ok


def test_acceptance_09_transfer():
    started = time.time()
    sp = affine_space(5)
    H = affine_translations(sp)
    ok = True

    report_t = check_transfer_conditions(sp, H)
    ok = ok and report_t.passed
    ok = ok and len(report_t.witnesses) == 5
    ok = ok and all(h is not None for h in report_t.witnesses.values())

    mu = FAMeasure.uniform(sp.full_window())
    for c in sp.cosets():
        h = inverse_pair_witness(sp, c, H, sp.points())
        ok = ok and h is not None
        ok = ok and transfer_invariance_check(sp, mu, c, h).passed

    from cellspaces import affine_dilations

    report_d = check_transfer_conditions(sp, affine_dilations(sp))
    failed = {c.name for c in report_d.failures()}
    ok = ok and {"h-action-transitive", "h-action-free"} <= failed

    report(9, "transfer", ok, started)
    assert ok


def test_acceptance_10_cli_determinism(tmp_path):
    started = time.time()
    ok = True
    configs = [
        (
            "ratios",
            {
                "space": {"name": "zd:2"},
                "window": {"core_radius": 8, "halo_radius": 9},
                "E": [[1, 0], [0, 1]],
                "family": {"kind": "boxes", "sizes": list(range(1, 9))},
            },
            "csv",
        ),
        (
            "paradox",
            {
                "space": {"name": "free:2"},
                "window": {"core_radius": 3, "halo_radius": 4},
                "E": [[], [1], [-1], [2], [-2]],
            },
            "json",
        ),
        ("describe", {"space": {"name": "affine:3"}}, "json"),
        ("transfer", {"space": {"name": "affine:5"}}, "json"),
    ]
    for idx, (command, cfg, fmt) in enumerate(configs):
        cfg_path = tmp_path / f"cfg{idx}.json"
        cfg_path.write_text(json.dumps(cfg))
        out1 = tmp_path / f"out{idx}_1"
        out2 = tmp_path / f"out{idx}_2"
        code1 = cli_main(
            [command, "--config", str(cfg_path), "--format", fmt, "--out", str(out1)]
        )
        code2 = cli_main(
            [command, "--config", str(cfg_path), "--format", fmt, "--out", str(out2)]
        )
        ok = ok and code1 == code2 == 0
        ok = ok and out1.read_bytes() == out2.read_bytes()
    report(10, "cli-determinism", ok, started)
    assert ok
