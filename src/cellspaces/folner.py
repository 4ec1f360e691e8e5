"""Folner boundary ratios, the epsilon-search over set families, and the
doubling-set construction from Folner failure.

All cardinalities are exact integers and all ratios exact rationals. Families
are explicit ordered lists; the order-theoretic net formalism is replaced by
the finite-E/epsilon criterion it is equivalent to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ConstructionError
from .spaces import CellSpace, Coset, ExpansionSet, Window, fiber_in_window, point_key

# each step of doubling_from_failure forms |E|·|G0|·|E2| coset products, and
# |E| grows about |E2|-fold per step; free:2 with epsilon = 1/10 forms 32,755
# in all, 21,865 of them in its last step
DOUBLING_MAX_PRODUCTS = 100_000
# n is confirmed by integer powers of about n * bit_length(numerator of xi)
# bits, whose cost grows faster than their size: with CPython 3.11 on one core,
# 1.2 million bits took 0.08 s, 2.7 million 0.3 s and 21.8 million (an epsilon
# of 67-digit terms, whose composition is refused at step 316 anyway) 10 s
DOUBLING_MAX_POWER_BITS = 2_000_000


@dataclass(frozen=True)
class RatioRecord:
    """Outward and inward boundary ratios of F under one coset map.

    ratio_out = |F \\ pre(F)| / |F|; ratio_in = |pre(F) \\ F| / |F|, where
    pre is the preimage under ``. |> coset``. When the window cannot certify
    the preimage, ratio_in is only a lower bound.
    """

    set_id: str
    coset_key: tuple
    size: int
    ratio_out: Fraction
    ratio_in: Fraction
    certified: bool


def ratios(
    space: CellSpace, F: Sequence, coset: Coset, universe: Window, set_id: str = "F"
) -> RatioRecord:
    """The ratios of F under ``. |> coset``, counted on point keys: the
    fibers come from the space's ``key_maps``, cut to the window by
    ``fiber_in_window`` as ``CellSpace.preimage`` cuts them."""
    if not F:
        raise ConstructionError("F must be non-empty")
    f_keys = set(map(point_key, F))
    _, fiber = space.key_maps(coset)
    pre, certified = fiber_in_window(space, fiber, f_keys, universe.halo_keys)
    n = len(F)
    return RatioRecord(
        set_id=set_id,
        coset_key=coset.key,
        size=n,
        ratio_out=Fraction(len(f_keys - pre), n),
        ratio_in=Fraction(len(pre - f_keys), n),
        certified=certified,
    )


@dataclass
class FolnerSearchResult:
    found_id: Optional[str] = None
    # on exhaustion: the min-max candidate and its witness coset
    best_id: Optional[str] = None
    best_max_ratio: Optional[Fraction] = None
    best_witness_coset: Optional[tuple] = None

    @property
    def exhausted(self) -> bool:
        return self.found_id is None


def folner_search(
    space: CellSpace,
    E: ExpansionSet,
    epsilon: Fraction,
    family: Sequence[tuple[str, Sequence]],
    universe: Window,
) -> FolnerSearchResult:
    """First family member with all outward ratios < epsilon, else the best
    (min-max) candidate together with its witness coset."""
    if epsilon <= 0:
        raise ConstructionError("epsilon must be positive")
    if not E:
        raise ConstructionError("E must be non-empty")
    if not family:
        raise ConstructionError("the family must be non-empty")
    result = FolnerSearchResult()
    for set_id, F in family:
        recs = [ratios(space, F, e, universe, set_id) for e in E]
        worst = max(recs, key=lambda r: (r.ratio_out, r.coset_key))
        if worst.ratio_out < epsilon:
            result.found_id = set_id
            return result
        if result.best_max_ratio is None or worst.ratio_out < result.best_max_ratio:
            result.best_max_ratio = worst.ratio_out
            result.best_id = set_id
            result.best_witness_coset = worst.coset_key
    return result


@dataclass(frozen=True)
class DoublingConstruction:
    xi: Fraction
    n: int
    E: ExpansionSet


def doubling_from_failure(
    space: CellSpace,
    E1: ExpansionSet,
    epsilon: Fraction,
    evidence: FolnerSearchResult,
) -> DoublingConstruction:
    """Constructive step from Folner failure to a doubling set.

    Requires evidence (an exhausted search) that every family member has an
    outward ratio >= epsilon for some coset in E1. Builds E2 = {G0} u E1,
    xi = 1 + epsilon/|G0|, n minimal with xi^n >= 2, and E as the n-fold
    composition of E2 with itself. A step that would take the coset products
    formed so far above ``DOUBLING_MAX_PRODUCTS`` is refused before it runs,
    and so is an n whose exact check needs powers above
    ``DOUBLING_MAX_POWER_BITS``.
    """
    if epsilon <= 0:
        raise ConstructionError("epsilon must be positive")
    if not evidence.exhausted:
        raise ConstructionError(
            "evidence does not show Folner failure: the search found "
            f"{evidence.found_id!r}"
        )
    identity = space.coset(space.group.identity())
    E2 = ExpansionSet.of([identity, *E1.cosets])
    xi = 1 + Fraction(epsilon) / len(space.stabilizer)
    # every step forms at least one product, so the limit stops the steps by
    # step cap + 1: an n above cap need not be known exactly
    cap = DOUBLING_MAX_PRODUCTS + 1
    n = _doubling_exponent(xi, cap)
    needs, last = (f"n = {n}", n) if n else (f"n > {cap}", cap + 1)
    E, total = E2, 0
    for step in range(2, last + 1):
        products = len(E) * len(space.stabilizer) * len(E2)
        total += products
        if total > DOUBLING_MAX_PRODUCTS:
            raise ConstructionError(
                f"doubling set needs {needs} compositions of |E2| = {len(E2)} cosets; "
                f"step {step} would form {products} coset products, {total} in all, "
                f"above the limit {DOUBLING_MAX_PRODUCTS}"
            )
        E = _compose_sets(space, E, E2)
    return DoublingConstruction(xi=xi, n=n, E=E)


def _doubling_exponent(xi: Fraction, cap: int) -> Optional[int]:
    """The least n >= 1 with xi^n >= 2, for xi > 1, or None when it is above
    ``cap``. A float estimate, confirmed by comparing exact integer powers;
    only an estimate that rounds across an integer is moved, by one. Powers
    above ``DOUBLING_MAX_POWER_BITS`` are refused before they are formed."""
    if xi >= 2:
        return 1
    p, q = xi.numerator, xi.denominator
    x = (p - q) / q  # xi - 1, rounded; 0.0 when it underflows
    estimate = math.log(2) / math.log1p(x) if x else math.inf
    if estimate > cap + 1:
        return None
    n = max(1, math.ceil(estimate))
    bits = n * p.bit_length()
    if bits > DOUBLING_MAX_POWER_BITS:
        raise ConstructionError(
            f"the least n with xi^n >= 2 is near {n}; checking it exactly would form "
            f"{bits}-bit powers, above the limit of {DOUBLING_MAX_POWER_BITS} bits"
        )
    while True:
        below, twice = p ** (n - 1), 2 * q ** (n - 1)
        if below >= twice:  # xi^(n-1) >= 2 already
            n -= 1
        elif below * p < twice * q:  # xi^n < 2 still
            n += 1
        else:
            return n if n <= cap else None


def _compose_sets(space: CellSpace, E: ExpansionSet, E2: ExpansionSet) -> ExpansionSet:
    # point-independent form: all representatives, so the result dominates the
    # per-point composed set of every m; each distinct product, in first-seen
    # order, becomes one coset, whose key costs |G0| more products
    products = dict.fromkeys(g * ep.rep for e in E for g in e.representatives() for ep in E2)
    return ExpansionSet.of(map(space.coset, products))


@dataclass(frozen=True)
class DoublingVerdict:
    set_id: str
    size: int
    image_size: int

    @property
    def passed(self) -> bool:
        return self.image_size >= 2 * self.size


@dataclass
class DoublingReport:
    verdicts: list

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def check_doubling(
    space: CellSpace,
    E: ExpansionSet,
    family: Sequence[tuple[str, Sequence]],
) -> DoublingReport:
    """Per-set verdict |F |> E| >= 2|F| with exact cardinalities, counted
    on point keys."""
    if not family:
        raise ConstructionError("the family must be non-empty")
    images = [image for image, _ in map(space.key_maps, E)]
    verdicts = []
    for set_id, F in family:
        if not F:
            raise ConstructionError("F must be non-empty")
        keys = set(map(point_key, F))
        image = {f(k) for f in images for k in keys}
        verdicts.append(DoublingVerdict(set_id, len(keys), len(image)))
    return DoublingReport(verdicts)
