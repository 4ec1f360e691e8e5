"""Left-to-right amenability transfer: condition checkers for the transfer
lemmas, the semidirect cell-space builder, and the concrete example spaces
(affine maps over small finite fields, signed permutations over lattices).

The sufficient conditions are: G factors as G0 H, the restricted H-action is
free and transitive, and all coordinates lie in the centre of H. Under them
every coset map ``. |> g`` has a left-action inverse ``h -> .`` with h in H,
which carries left invariance of a measure to right semi-invariance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    semiaction_collision,
)


@dataclass
class SubgroupSample:
    """A subgroup given by generators plus a membership test; ``elements`` is
    a finite enumeration when available, else a generated sample."""

    name: str
    group: Group
    generators: list
    member: Callable[[GroupElement], bool]
    elements: list
    abelian: bool = False


def subgroup_sample(
    name: str,
    group: Group,
    generators: Sequence[GroupElement],
    member: Callable[[GroupElement], bool],
    radius: int = 3,
    abelian: bool = False,
) -> SubgroupSample:
    gens = list(generators)
    closure = {group.identity().payload: group.identity()}
    frontier = list(closure.values())
    for _ in range(radius):
        nxt = []
        for g in frontier:
            for s in gens + [s.inverse() for s in gens]:
                q = g * s
                if q.payload not in closure:
                    closure[q.payload] = q
                    nxt.append(q)
        frontier = nxt
    elements = [closure[k] for k in sorted(closure)]
    return SubgroupSample(name, group, gens, member, elements, abelian)


@dataclass
class TransferReport(CheckReport):
    space_name: str
    subgroup: str
    witnesses: dict = field(default_factory=dict)


def check_transfer_conditions(
    space: CellSpace,
    H: SubgroupSample,
    sample: Optional[Window] = None,
    coset_sample: Optional[Sequence[Coset]] = None,
) -> TransferReport:
    """Verdicts on finite samples for the four sufficient conditions.

    Passing is evidence (the conditions quantify over all of G, H and M);
    failing is a counterexample.
    """
    report = TransferReport(space.name, H.name)
    if sample is None:
        if not space.is_finite:
            raise ConstructionError("an infinite space needs an explicit sample window")
        sample = space.full_window()
    pts = list(sample.core)
    if coset_sample is None:
        coset_sample = [space.coset(g) for g in space.group.ball(2)]

    # G = G0 H on a sample of G
    g_sample = space.group.elements() if space.group.is_finite else space.group.ball(2)
    h_payloads = {h.payload for h in H.elements}
    bad = None
    for g in g_sample:
        if not any(
            (g0.inverse() * g).payload in h_payloads for g0 in space.stabilizer
        ):
            bad = g
            break
    report.add("factorization-G0H", bad is None, f"g={bad!r}")

    # restricted H-action transitive on the sample
    orbit = {space.left_action(h, space.m0) for h in H.elements}
    missing = next((m for m in pts if m not in orbit), None)
    report.add("h-action-transitive", missing is None, f"m={missing!r}")

    # restricted H-action free on the sample
    bad = None
    e = space.group.identity()
    for h in H.elements:
        if h == e:
            continue
        fix = next((m for m in pts if space.left_action(h, m) == m), None)
        if fix is not None:
            bad = (h, fix)
            break
    report.add("h-action-free", bad is None, f"(h,m)={bad!r}")

    # coordinates lie in the centre of H
    bad = None
    for m in pts:
        c = space.coord(m)
        if not H.member(c):
            bad = (m, "not in H")
            break
        clash = next((h for h in H.elements if c * h != h * c), None)
        if clash is not None:
            bad = (m, clash)
            break
    report.add("coordinates-central", bad is None, f"(m,witness)={bad!r}")

    # injectivity of m |> . on the sampled cosets
    bad = semiaction_collision(space, pts, coset_sample)
    report.add("semiaction-injective", bad is None, f"(m,coset)={bad!r}")

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
    for rep in coset.representatives():
        for h in H.elements:
            if (rep.inverse() * h.inverse()).payload not in g0_payloads:
                continue
            ok = True
            for m in sample:
                moved = space.semi_action(m, coset)
                if space.left_action(h, moved) != m:
                    ok = False
                    break
                if space.semi_action(space.left_action(h, m), coset) != m:
                    ok = False
                    break
            if ok:
                return h
    return None


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


def build_semidirect_cellspace(
    h_space: CellSpace, g0_group: Group, tau: dict, name: str = "semidirect"
) -> SemidirectCellSpace:
    """Cell space over G0 x| H from a principal left H-space; asserts that the
    stabiliser of the origin in a sampled ball is exactly G0 x {e}."""
    sd = SemidirectProduct(g0_group, h_space.group, tau)
    space = SemidirectCellSpace(h_space, sd, name=name)
    eh = sd.H._identity()
    for g in sd.ball(2):
        fixes = space.left_action(g, space.m0) == space.m0
        in_g0 = g.payload[1] == eh
        if fixes != in_g0:
            raise ConstructionError(
                f"stabiliser of the origin is not G0 x {{e}}: witness {g!r}"
            )
    return space


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
    n = q

    def translation(b: int) -> tuple:
        return tuple(fld.add(i, b) for i in range(n))

    def dilation(a: int) -> tuple:
        return tuple(fld.mul(a, i) for i in range(n))

    gens = [translation(fld.p**i) for i in range(fld.k)]
    if q > 2:
        gens.append(dilation(fld.primitive_element()))
    group = PermutationGroup(n, gens)
    space = FiniteSpace(
        group,
        points=list(range(n)),
        action=lambda g, m: g.payload[m],
        m0=0,
        coords={m: group.element(translation(m)) for m in range(n)},
        name=f"affine:{q}",
    )
    space.field = fld
    space.coordinate_rule = "g_{0,m}: x -> x + m"
    return space


def affine_translations(space: FiniteSpace) -> SubgroupSample:
    fld = space.field
    q = fld.q
    translations = {
        tuple(fld.add(i, b) for i in range(q)) for b in range(q)
    }
    gens = [
        space.group.element(tuple(fld.add(i, fld.p**j) for i in range(q)))
        for j in range(fld.k)
    ]
    return SubgroupSample(
        "translations",
        space.group,
        gens,
        lambda g: g.payload in translations,
        [space.group.element(p) for p in sorted(translations)],
        abelian=True,
    )


def affine_dilations(space: FiniteSpace) -> SubgroupSample:
    fld = space.field
    q = fld.q
    dilations = {tuple(fld.mul(a, i) for i in range(q)) for a in range(1, q)}
    gens = (
        [space.group.element(tuple(fld.mul(fld.primitive_element(), i) for i in range(q)))]
        if q > 2
        else [space.group.identity()]
    )
    return SubgroupSample(
        "dilations",
        space.group,
        gens,
        lambda g: g.payload in dilations,
        [space.group.element(p) for p in sorted(dilations)],
        abelian=True,
    )


def hyperoct_space(d: int) -> SemidirectCellSpace:
    """Signed permutations of d coordinates acting on the lattice Z^d; a
    discrete analogue of a point group extended by translations."""
    g0 = SignedPermutationGroup(d)
    lattice = GroupAsSpace(FreeAbelianGroup(d), name=f"z{d}-principal")
    tau = hyperoctahedral_tau(g0, lattice.group)
    return build_semidirect_cellspace(lattice, g0, tau, name=f"hyperoct:{d}")


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
        space = GroupAsSpace(FreeAbelianGroup(value), name=name)
        return space
    if kind == "free":
        return GroupAsSpace(FreeGroup(value), name=name)
    raise ConstructionError(f"unknown space kind {kind!r} in {name!r}")
