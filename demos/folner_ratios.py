"""Boundary ratios of growing sets, on an amenable and a non-amenable space.

Boxes in Z^2 have outward ratio 1/n under a unit translation, so the ratios
shrink to zero and the Folner search succeeds. Balls in the free group keep
an outward ratio above 1/2 under right multiplication by a generator, and
the search comes back exhausted with a witness coset.
"""

import itertools
from fractions import Fraction

import cellspaces as cs


def lattice_story() -> None:
    z2 = cs.space_by_name("zd:2")
    g = z2.group
    window = z2.ball_window(12, 13)
    E = cs.ExpansionSet.of([z2.coset(e) for e in g.ball(1)])

    print("Z^2, boxes [0,n)^2 under the unit translations")
    print(f"{'n':>3} {'|F|':>5} {'ratio_out':>10} {'ratio_in':>10}")
    family = []
    for n in range(1, 11):
        F = [g.element(v) for v in itertools.product(range(n), repeat=2)]
        family.append((f"box:{n}", F))
        rec = cs.ratios(z2, F, z2.coset(g.element((1, 0))), window)
        print(f"{n:>3} {rec.size:>5} {str(rec.ratio_out):>10} {str(rec.ratio_in):>10}")

    result = cs.folner_search(z2, E, Fraction(1, 8), family, window)
    print(f"search with epsilon=1/8: found {result.found_id}\n")


def free_group_story() -> None:
    f2 = cs.space_by_name("free:2")
    g = f2.group
    E = cs.ExpansionSet.of([f2.coset(e) for e in g.ball(1)])

    print("F_2, balls B_n under right multiplication by a")
    print(f"{'n':>3} {'|B_n|':>6} {'ratio_out':>10}")
    family = []
    for n in range(1, 6):
        window = f2.ball_window(n, n + 1)
        F = list(window.core)
        family.append((f"ball:{n}", F))
        rec = cs.ratios(f2, F, f2.coset(g.word([1])), window)
        print(f"{n:>3} {rec.size:>6} {str(rec.ratio_out):>10}")

    window = f2.ball_window(5, 6)
    result = cs.folner_search(f2, E, Fraction(1, 2), family, window)
    print(
        f"search with epsilon=1/2: exhausted={result.exhausted}, "
        f"best={result.best_id} at max ratio {result.best_max_ratio} "
        f"(witness coset {result.best_witness_coset})"
    )
    construction = cs.doubling_from_failure(f2, E, Fraction(1, 2), result)
    print(
        f"doubling construction: xi={construction.xi}, n={construction.n}, "
        f"|E|={len(construction.E)} cosets"
    )
    report = cs.check_doubling(f2, construction.E, family)
    for v in report.verdicts:
        print(f"  {v.set_id}: |F|={v.size}, |F |> E|={v.image_size}, doubled={v.passed}")


if __name__ == "__main__":
    lattice_story()
    free_group_story()
