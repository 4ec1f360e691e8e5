"""Left-to-right amenability transfer: condition checkers for the transfer
lemmas and the concrete example spaces (affine maps over small finite fields,
signed permutations over lattices).

The sufficient conditions are: G factors as G0 H, the restricted H-action is
free and transitive, and all coordinates lie in the centre of H. Under them
every coset map ``. |> g`` has a left-action inverse ``h -> .`` with h in H,
which carries left invariance of a measure to right semi-invariance.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Optional, Sequence

from .errors import ConstructionError, ScopeMismatchError
from .groups import (
    FreeAbelianGroup,
    FreeGroup,
    Group,
    GroupElement,
    PermutationGroup,
    SemidirectProduct,
    SignedPermutationGroup,
    bfs_layers,
    hyperoctahedral_tau,
)
from .measures import FAMeasure
from .spaces import (
    CellSpace,
    CheckReport,
    Coset,
    FiniteSpace,
    GroupAsSpace,
    SemidirectCellSpace,
    Window,
    semiaction_collisions,
)


@dataclass
class SubgroupSample:
    """A subgroup given by a membership test; ``elements`` is a finite
    enumeration when available, else a sample generated from generators."""

    member: Callable[[GroupElement], bool]
    elements: list


def subgroup_sample(
    group: Group,
    generators: Sequence[GroupElement],
    member: Callable[[GroupElement], bool],
    radius: int = 3,
) -> SubgroupSample:
    gens = list(generators)
    steps = gens + [s.inverse() for s in gens]
    layers = bfs_layers(group.identity(), lambda g: map(operator.mul, repeat(g), steps), radius)
    elements = sorted(itertools.chain.from_iterable(layers))
    return SubgroupSample(member, elements)


@dataclass
class TransferReport(CheckReport):
    witnesses: dict = field(default_factory=dict)


def check_transfer_conditions(
    space: CellSpace,
    H: SubgroupSample,
    sample: Optional[Window] = None,
) -> TransferReport:
    """Verdicts on finite samples for the four sufficient conditions.

    Passing is evidence (the conditions quantify over all of G, H and M);
    failing is a counterexample.
    """
    report = TransferReport()
    if sample is None:
        if not space.is_finite:
            raise ConstructionError("an infinite space needs an explicit sample window")
        sample = space.full_window()
    pts = list(sample.core)
    coset_sample = [space.coset(g) for g in space.group.ball(2)]

    # G = G0 H on a sample of G
    g_sample = space.group.elements() if space.group.is_finite else space.group.ball(2)
    h_payloads = {h.payload for h in H.elements}
    report.first("factorization-G0H", "g", (
        g
        for g in g_sample
        if not any((g0.inverse() * g).payload in h_payloads for g0 in space.stabilizer)
    ))

    # restricted H-action transitive on the sample
    orbit = {space.left_action(h, space.m0) for h in H.elements}
    report.first("h-action-transitive", "m", (m for m in pts if m not in orbit))

    # restricted H-action free on the sample
    e = space.group.identity()
    report.first("h-action-free", "(h,m)", (
        (h, m) for h in H.elements if h != e for m in pts if space.left_action(h, m) == m
    ))

    # coordinates lie in the centre of H
    report.first("coordinates-central", "(m,witness)", (
        (m, x)
        for m in pts
        for c in [space.coord(m)]
        for x in (["not in H"] if not H.member(c) else (h for h in H.elements if c * h != h * c))
    ))

    # injectivity of m |> . on the sampled cosets
    collisions = semiaction_collisions(space, pts, coset_sample)
    report.first("semiaction-injective", "(m,coset)", collisions)

    if report.passed:
        for c in coset_sample:
            report.witnesses[c.key] = inverse_pair_witness(space, c, H, pts)
    return report


def inverse_pair_witness(
    space: CellSpace, coset: Coset, H: SubgroupSample, sample: Sequence
) -> Optional[GroupElement]:
    """An h in H with ``h -> .`` and ``. |> coset`` mutually inverse on the
    sample, found by factoring a representative inverse as g0 h.

    Returns None when no representative factors into a verified witness,
    which means the sufficient conditions do not actually hold here.
    """
    g0_payloads = {g0.payload for g0 in space.stabilizer}
    return next(
        (
            h
            for rep in coset.representatives()
            for h in H.elements
            if (rep.inverse() * h.inverse()).payload in g0_payloads
            and all(
                space.left_action(h, space.semi_action(m, coset)) == m
                and space.semi_action(space.left_action(h, m), coset) == m
                for m in sample
            )
        ),
        None,
    )


@dataclass(frozen=True)
class InvarianceVerdict:
    passed: bool
    witness: Optional[tuple] = None


def transfer_invariance_check(
    space: CellSpace, mu: FAMeasure, coset: Coset, h: GroupElement
) -> InvarianceVerdict:
    """Singleton check of ``mu <| coset = h -> mu`` on the measure universe;
    additivity extends equality from singletons to all sets."""
    core = mu.universe.core_set
    hinv = h.inverse()
    for m in mu.universe.core:
        moved = space.semi_action(m, coset)
        pulled = space.left_action(hinv, m)
        if moved not in core or pulled not in core:
            raise ScopeMismatchError(
                f"point {m!r} leaves the measure universe under the check"
            )
        if mu.measure([moved]) != mu.measure([pulled]):
            return InvarianceVerdict(False, (m, moved, pulled))
    return InvarianceVerdict(True)


# ---------------------------------------------------------------------------
# builders


class _FiniteField:
    """F_q for q <= 9; elements are 0..q-1, base-p digits as coefficients.

    Prime-power moduli: F4 by x^2+x+1, F8 by x^3+x+1, F9 by x^2+1.
    """

    _MODULI = {4: (2, (1, 1, 1)), 8: (2, (1, 1, 0, 1)), 9: (3, (1, 0, 1))}

    def __init__(self, q: int):
        if q in (2, 3, 5, 7):
            self.p, self.k = q, 1
            self.modulus: Optional[tuple] = None
        elif q in self._MODULI:
            self.p, self.modulus = self._MODULI[q]
            self.k = len(self.modulus) - 1
        else:
            raise ConstructionError(f"unsupported field order {q}")
        self.q = q

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _value(self, digits: Sequence[int]) -> int:
        v = 0
        for d in reversed(digits):
            v = v * self.p + d % self.p
        return v

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        return self._value(
            [(x + y) % self.p for x, y in zip(self._digits(a), self._digits(b))]
        )

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce by the monic modulus
        for i in range(len(prod) - 1, self.k - 1, -1):
            c = prod[i]
            if c:
                for j in range(self.k + 1):
                    prod[i - self.k + j] = (prod[i - self.k + j] - c * self.modulus[j]) % self.p
        return self._value(prod[: self.k])

    def translation(self, b: int) -> tuple:
        """The image tuple of x -> x + b."""
        return tuple(self.add(i, b) for i in range(self.q))

    def dilation(self, a: int) -> tuple:
        """The image tuple of x -> a x."""
        return tuple(self.mul(a, i) for i in range(self.q))

    def primitive_element(self) -> int:
        for a in range(2, self.q):
            x, order = a, 1
            while x != 1:
                x = self.mul(x, a)
                order += 1
            if order == self.q - 1:
                return a
        raise ConstructionError("no primitive element found")


def affine_space(q: int) -> FiniteSpace:
    """M = F_q under the affine maps x -> ax + b; the stabiliser of 0 is the
    dilation group and the coordinates are the translations x -> x + m."""
    fld = _FiniteField(q)
    gens = [fld.translation(fld.p**i) for i in range(fld.k)]
    if q > 2:
        gens.append(fld.dilation(fld.primitive_element()))
    group = PermutationGroup(q, gens)
    space = FiniteSpace(
        group,
        points=list(range(q)),
        action=lambda g, m: g.payload[m],
        m0=0,
        coords={m: group.element(fld.translation(m)) for m in range(q)},
        name=f"affine:{q}",
    )
    space.field = fld
    space.coordinate_rule = "g_{0,m}: x -> x + m"
    return space


def _affine_subgroup(space: FiniteSpace, images: set) -> SubgroupSample:
    """The affine maps with the given image tuples, sorted."""
    return SubgroupSample(
        lambda g: g.payload in images, [space.group.element(p) for p in sorted(images)]
    )


def affine_translations(space: FiniteSpace) -> SubgroupSample:
    fld = space.field
    return _affine_subgroup(space, {fld.translation(b) for b in range(fld.q)})


def affine_dilations(space: FiniteSpace) -> SubgroupSample:
    fld = space.field
    return _affine_subgroup(space, {fld.dilation(a) for a in range(1, fld.q)})


# building hyperoct:d enumerates all d! 2^d signed permutations, a cost that
# grows about 2(d+1)-fold with each further rank
HYPEROCT_MAX_RANK = 6


def hyperoct_space(d: int) -> SemidirectCellSpace:
    """Signed permutations of d coordinates acting on the lattice Z^d; a
    discrete analogue of a point group extended by translations."""
    _check_rank(f"hyperoct:{d}", d, HYPEROCT_MAX_RANK, "HYPEROCT_MAX_RANK")
    g0 = SignedPermutationGroup(d)
    lattice = FreeAbelianGroup(d)
    tau = hyperoctahedral_tau(g0, lattice)
    return SemidirectCellSpace(SemidirectProduct(g0, lattice, tau), name=f"hyperoct:{d}")


# the largest d whose radius-1 box, 3^d points, a window may enumerate
# (groups.MAX_ENUMERATED_POINTS), and the letters a..h that name the
# generators of a free group
ZD_MAX_RANK = 12
FREE_MAX_RANK = 8


def _check_rank(name: str, rank: int, limit: int, limit_name: str) -> None:
    if rank > limit:
        raise ConstructionError(f"{name} exceeds the largest supported rank {limit_name} = {limit}")


def space_by_name(name: str) -> CellSpace:
    """Factory for the named example spaces: affine:q, hyperoct:d, zd:d,
    free:k."""
    try:
        kind, _, arg = name.partition(":")
        value = int(arg)
    except ValueError:
        raise ConstructionError(f"malformed space name {name!r}") from None
    if kind == "affine":
        return affine_space(value)
    if kind == "hyperoct":
        return hyperoct_space(value)
    if kind == "zd":
        _check_rank(name, value, ZD_MAX_RANK, "ZD_MAX_RANK")
        return GroupAsSpace(FreeAbelianGroup(value), name=name)
    if kind == "free":
        _check_rank(name, value, FREE_MAX_RANK, "FREE_MAX_RANK")
        return GroupAsSpace(FreeGroup(value), name=name)
    raise ConstructionError(f"unknown space kind {kind!r} in {name!r}")
