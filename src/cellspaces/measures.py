"""Finitely additive probability measures and means on finite universes.

Everything is exact rational arithmetic: semi-invariance is an equality of
rationals, and a tolerance would mask genuine violations. Measures and means
on a finite universe are both represented by their weight vectors; the
bijection between them maps a mean to the measure ``A -> nu(1_A)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import ConstructionError, ScopeMismatchError, UncertifiedWindowError
from .spaces import CellSpace, Coset, Window, certifying_halo_note, distinct_keys


@dataclass(frozen=True)
class BoundedFn:
    """Rational-valued function on a window; missing points are zero."""

    universe: Window
    values: dict

    def __post_init__(self):
        halo = self.universe.halo_set
        for m in self.values:
            if m not in halo:
                raise ScopeMismatchError(f"function value at {m!r} outside the window")

    def __call__(self, m) -> Fraction:
        return self.values.get(m, Fraction(0))

    @property
    def sup_norm(self) -> Fraction:
        if not self.values:
            return Fraction(0)
        return max(abs(v) for v in self.values.values())


def indicator(universe: Window, A: Iterable) -> BoundedFn:
    return BoundedFn(universe, {m: Fraction(1) for m in A})


class WeightVector:
    """Shared representation of measures and means on a finite universe:
    non-negative weights summing to exactly 1."""

    negative_error = "weights must be non-negative"
    sum_error = "weights must sum to exactly 1"

    def __init__(self, universe: Window, weights: dict):
        if set(universe.core) != set(universe.halo):
            raise ConstructionError("measure universes must have core == halo")
        self.universe = universe
        self.weights = {
            m: w if isinstance(w, Fraction) else Fraction(w) for m, w in weights.items()
        }
        core = universe.core_set
        for m in self.weights:
            if m not in core:
                raise ScopeMismatchError(f"weight at {m!r} outside the universe")
        if any(w < 0 for w in self.weights.values()):
            raise ConstructionError(self.negative_error)
        if sum(self.weights.values(), Fraction(0)) != 1:
            raise ConstructionError(self.sum_error)

    def weight(self, m) -> Fraction:
        return self.weights.get(m, Fraction(0))


class FAMeasure(WeightVector):
    """Finitely additive probability measure: mu(A) = sum of point weights."""

    negative_error = "measure weights must be non-negative"
    sum_error = "measure weights must sum to exactly 1"

    def measure(self, A: Iterable) -> Fraction:
        return sum((self.weight(m) for m in set(A)), Fraction(0))

    @classmethod
    def uniform(cls, universe: Window) -> "FAMeasure":
        # one shared weight object; an empty universe fails the sum check
        w = Fraction(1, max(len(universe.core), 1))
        return cls(universe, dict.fromkeys(universe.core, w))

    @classmethod
    def point_mass(cls, universe: Window, m) -> "FAMeasure":
        return cls(universe, {m: Fraction(1)})


class MeanVector(WeightVector):
    """Mean on a finite universe, represented by its weight vector."""

    negative_error = "mean weights must be non-negative"
    sum_error = "mean must be normalised"

    def evaluate(self, f: BoundedFn) -> Fraction:
        return sum((w * f(m) for m, w in self.weights.items()), Fraction(0))


def measure_from_mean(nu: MeanVector) -> FAMeasure:
    """The bijection mean -> measure, ``A -> nu(1_A)``."""
    return FAMeasure(nu.universe, dict(nu.weights))


def mean_from_measure(mu: FAMeasure) -> MeanVector:
    return MeanVector(mu.universe, dict(mu.weights))


# ---------------------------------------------------------------------------
# the operators


def funcamact(space: CellSpace, f: BoundedFn, coset: Coset) -> BoundedFn:
    """f |> coset: sum of f over the exact fiber of each core point.

    Refuses to compute when the halo cannot certify the fibers. Each value
    is bounded by |G0|*||f||: ``fiber_in_window`` refuses a fiber of more
    than |G0| points, so each is a sum of at most |G0| values of f.
    """
    universe = f.universe
    out = {}
    for m in universe.core:
        points, certified = space.preimage(coset, [m], universe)
        if not certified:
            raise UncertifiedWindowError(
                f"halo does not certify the fiber of {m!r} under {coset!r}"
                + certifying_halo_note(space, [coset], universe.core, "the window")
            )
        s = sum((f(mp) for mp in points), Fraction(0))
        if s:
            out[m] = s
    return BoundedFn(universe, out)


def measure_semiaction(
    space: CellSpace, mu: FAMeasure, coset: Coset
) -> Callable[[Iterable], Fraction]:
    """mu <| coset as a set function; not necessarily normalised."""

    def moved_measure(A: Iterable) -> Fraction:
        return mu.measure({space.semi_action(m, coset) for m in set(A)})

    return moved_measure


@dataclass
class SemiInvarianceReport:
    violations: list = field(default_factory=list)
    cosets_checked: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations


def check_semi_invariance(space: CellSpace, mu: FAMeasure) -> SemiInvarianceReport:
    """Exact semi-invariance test over every coset map of a finite space.

    On a finite universe, additivity plus injectivity-on-A reduces the
    quantification over all subsets to singletons: if every singleton keeps
    its weight under every coset map, so does every set on which the map is
    injective.
    """
    if not space.is_finite:
        raise ConstructionError("semi-invariance check needs a finite space")
    report = SemiInvarianceReport()
    for coset in space.cosets():
        report.cosets_checked += 1
        for m in space.points():
            moved = space.semi_action(m, coset)
            if mu.weight(moved) != mu.weight(m):
                report.violations.append((m, coset.key))
    return report


def empirical_mean_defect(
    space: CellSpace,
    F: Sequence,
    coset: Coset,
    f: BoundedFn,
    universe: Window,
) -> tuple[Fraction, Fraction]:
    """|(nu_F <~ coset - nu_F)(f)| and the (ratio_in + ratio_out)*||f|| bound.
    A point F holds twice is refused."""
    if not F:
        raise ConstructionError("F must be non-empty")
    distinct_keys(F)
    pre_set, certified = space.preimage(coset, list(F), universe)
    if not certified:
        raise UncertifiedWindowError(
            "halo does not certify the preimage of F"
            + certifying_halo_note(space, [coset], F, "it")
        )
    f_set = set(F)
    inward = pre_set - f_set
    outward = f_set - pre_set
    n = Fraction(len(F))
    defect = abs(
        sum((f(m) for m in inward), Fraction(0)) - sum((f(m) for m in outward), Fraction(0))
    ) / n
    bound = Fraction(len(inward) + len(outward), len(F)) * f.sup_norm
    return defect, bound
