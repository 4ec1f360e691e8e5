"""Cell spaces and the induced right semi-action of G/G0 on M.

A cell space is a transitive left G-set M together with a coordinate system
(origin m0, family g_{m0,m} with g_{m0,m} acting on m0 giving m). The induced
right semi-action is ``m |> gG0 = g_{m0,m} g . m0``. All set-level operations
are windowed: a finite core plus a halo, with an explicit certification flag
whenever exactness depends on the halo being large enough.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .errors import ConstructionError, IntegrityError, ScopeMismatchError
from .groups import (
    FreeAbelianGroup,
    FreeGroup,
    Group,
    GroupElement,
    SemidirectProduct,
    check_enumerable,
)


def point_key(m):
    return m.payload if isinstance(m, GroupElement) else m


class Coset:
    """Left coset of the stabilizer G0, with G0-aware equality.

    The canonical key is the minimum payload among all representatives;
    ``ExpansionSet.of`` removes duplicates and orders cosets by it.
    """

    __slots__ = ("space", "rep", "key")

    def __init__(self, space: "CellSpace", rep: GroupElement):
        self.space = space
        self.rep = rep
        self.key = min((rep * g0).payload for g0 in space.stabilizer)

    @property
    def is_identity(self) -> bool:
        return self.key == self.space.identity_coset_key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coset):
            return NotImplemented
        return (
            self.space.group.signature == other.space.group.signature
            and self.key == other.key
        )

    def representatives(self) -> list[GroupElement]:
        return sorted(self.rep * g0 for g0 in self.space.stabilizer)

    def __repr__(self) -> str:
        return f"Coset({self.space.group.describe_element(self.key)})"


@dataclass(frozen=True)
class ExpansionSet:
    """A finite set of cosets, tracked with its identity-coset membership."""

    cosets: tuple

    @property
    def contains_identity(self) -> bool:
        return any(c.is_identity for c in self.cosets)

    def __iter__(self):
        return iter(self.cosets)

    def __len__(self) -> int:
        return len(self.cosets)

    @staticmethod
    def of(cosets: Iterable[Coset]) -> "ExpansionSet":
        """The distinct cosets, the first of each key kept, sorted by key."""
        out: dict = {}
        for c in cosets:
            out.setdefault(c.key, c)
        return ExpansionSet(tuple(out[k] for k in sorted(out)))


@dataclass(frozen=True)
class Window:
    """Finite truncation of M: an indexed core inside a halo."""

    core: tuple
    halo: tuple
    note: str = ""

    def __post_init__(self):
        core_keys = set(map(point_key, self.core))
        halo_keys = set(map(point_key, self.halo))
        if len(core_keys) != len(self.core) or len(halo_keys) != len(self.halo):
            raise ConstructionError("window contains duplicate points")
        if not core_keys <= halo_keys:
            raise ConstructionError("window core must be contained in its halo")

    @property
    def core_set(self) -> frozenset:
        return frozenset(self.core)

    @property
    def halo_set(self) -> frozenset:
        return frozenset(self.halo)

    @cached_property
    def halo_keys(self) -> frozenset:
        """The halo's ``point_key``s, built on first use and kept."""
        return frozenset(map(point_key, self.halo))


def group_window(P: Group, core_radius: int, halo_radius: int) -> Window:
    """The window of a space whose points are the elements of the point
    group P: sup-norm boxes centred on the origin when P is Z^d, otherwise
    P's word-metric balls in ``Group.ball`` order. A window above
    MAX_ENUMERATED_POINTS, and then a halo smaller than the core, are refused
    before any point is enumerated."""
    radius = max(core_radius, halo_radius)
    lattice = isinstance(P, FreeAbelianGroup)
    size = P.box_size(-radius, radius + 1) if lattice else P.ball_size(radius)
    check_enumerable(size, f"the window of radius {radius}")
    if halo_radius < core_radius:
        raise ConstructionError("halo radius must be at least the core radius")
    radii = (core_radius, halo_radius)
    core, halo = P.boxes([(-r, r + 1) for r in radii]) if lattice else P.balls(radii)
    note = f"{'box' if lattice else 'ball'} r={core_radius}, halo r={halo_radius}"
    return Window(tuple(core), tuple(halo), note)


def certifying_halo_note(
    space: "CellSpace", E: Iterable[Coset], points: Sequence, what: str
) -> str:
    """``; a halo of radius R certifies <what>``, R the smallest halo radius
    whose window holds the images of ``points`` under E, and their fibers:
    the largest radius of a point plus the longest step ``m0 |> e`` of E,
    both in the metric of ``group_window`` (the sup-norm on Z^d, the word
    length on F_k); "" on any other point group."""
    P = space.point_group
    if isinstance(P, FreeAbelianGroup):
        norm = lambda p: max(map(abs, p), default=0)
    elif isinstance(P, FreeGroup):
        norm = len
    else:
        return ""
    reach = max((norm(point_key(m)) for m in points), default=0)
    step = max((norm(point_key(space.semi_action(space.m0, e))) for e in E), default=0)
    return f"; a halo of radius {reach + step} certifies {what}"


def fiber_in_window(
    space: "CellSpace", fiber: Callable[[object], Iterable], targets: set, halo: frozenset
) -> tuple[set, bool]:
    """The points of the fibers ``fiber(a)``, a in ``targets``, that lie in
    ``halo``, and whether every fiber point does (the count is then exact).

    Points and targets may be elements or point keys, as long as ``halo``
    holds the same kind. Targets outside the halo are refused, and so are
    more than |G0|*|targets| fiber points, which no coordinate system gives.
    """
    if not targets <= halo:
        raise ScopeMismatchError("A must be contained in the window halo")
    exact = {m for a in targets for m in fiber(a)}
    bound = len(space.stabilizer) * len(targets)
    if len(exact) > bound:
        raise IntegrityError(
            f"preimage size {len(exact)} exceeds |G0|*|A| = {bound}; "
            "the coordinate system is broken"
        )
    inside = exact & halo
    return inside, len(inside) == len(exact)


@dataclass
class CheckResult:
    name: str
    ok: bool
    witness: Optional[str] = None


@dataclass
class CheckReport:
    """Base of the reports made of named checks; passes when every check does."""

    checks: list[CheckResult] = field(default_factory=list, kw_only=True)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]

    def add(self, name: str, ok: bool, witness: Optional[str] = None) -> None:
        """Record a check; its witness is kept only when it failed."""
        self.checks.append(CheckResult(name, ok, None if ok else witness))

    def first(self, name: str, label: str, witnesses: Iterable) -> None:
        """Record a check that passes when ``witnesses`` yields nothing and
        otherwise fails on the first witness, written ``label=witness``."""
        bad = next(iter(witnesses), None)
        self.add(name, bad is None, f"{label}={bad!r}")


class CellSpace:
    """Base class; backends supply the left action and coordinate map."""

    name = "space"
    coordinate_rule = "g_{m0,m} tabulated"

    def __init__(self, group: Group, m0, stabilizer: Sequence[GroupElement]):
        self.group = group
        self.m0 = m0
        self.stabilizer = list(stabilizer)
        if not self.stabilizer:
            raise ConstructionError("stabilizer must be enumerated and non-empty")
        self.identity_coset_key = min(g.payload for g in self.stabilizer)

    # -- backend hooks -----------------------------------------------------
    def left_action(self, g: GroupElement, m):
        raise NotImplementedError

    def coord(self, m) -> GroupElement:
        """g_{m0,m} with g_{m0,m} . m0 = m."""
        raise NotImplementedError

    @property
    def point_group(self) -> Optional[Group]:
        """The group whose elements are the points (G when G acts on itself,
        H for a semidirect space), or None when the points are not group
        elements; they are exactly when the origin is one."""
        return self.m0.group if isinstance(self.m0, GroupElement) else None

    @property
    def is_finite(self) -> bool:
        return False

    def points(self) -> list:
        raise ConstructionError(f"{self.name} has infinitely many points")

    def full_window(self) -> Window:
        """All points of a finite space, as both core and halo."""
        points = tuple(self.points())
        return Window(points, points, "full")

    def exact_preimage_point(self, coset: Coset, a) -> list:
        """All m in M with m |> coset = a: a scan of ``points()``, so backends
        with infinitely many points override it."""
        return [m for m in self.points() if self.semi_action(m, coset) == a]

    def key_maps(self, coset: Coset) -> tuple[Callable, Callable]:
        """``. |> coset`` on point keys (``point_key``): the pair (image,
        fiber), where image(k) is the key of ``m |> coset`` and fiber(k) the
        keys of ``exact_preimage_point(coset, m)``, m the point of key k.

        This default calls the element-level methods; ``TranslationSpace``
        computes on payloads.
        """
        point = self.point
        return (
            lambda k: point_key(self.semi_action(point(k), coset)),
            lambda k: [point_key(m) for m in self.exact_preimage_point(coset, point(k))],
        )

    def point(self, key):
        """The point whose ``point_key`` is ``key``."""
        P = self.point_group
        return key if P is None else P.element(key)

    # -- cosets ------------------------------------------------------------
    def coset(self, g: GroupElement) -> Coset:
        return Coset(self, g)

    def cosets(self) -> list[Coset]:
        """All distinct cosets of G/G0 (finite groups only)."""
        return list(ExpansionSet.of(Coset(self, g) for g in self.group.elements()))

    # -- the right semi-action ----------------------------------------------
    def semi_action(self, m, coset: Coset):
        return self.left_action(self.coord(m) * coset.rep, self.m0)

    def semi_action_set(self, A: Iterable, E: Iterable[Coset]) -> set:
        """A |> E."""
        return {self.semi_action(m, e) for m in A for e in E}

    def preimage(self, coset: Coset, A: Sequence, universe: Window) -> tuple[set, bool]:
        """The windowed preimage of A under ``. |> coset``: ``fiber_in_window``'s
        (points, certified) pair. ``certified`` means the halo provably holds
        the whole preimage; an uncertified result is only a lower bound."""
        return fiber_in_window(
            self, lambda a: self.exact_preimage_point(coset, a), set(A), universe.halo_set
        )

    def undo_witness(self, m, coset: Coset, sample: Sequence[Coset]) -> GroupElement:
        """A representative g of the coset with (m |> coset) |> g' = m |> g g'
        for every g' in the verification sample."""
        moved = self.semi_action(m, coset)
        undoing = (
            g
            for g in coset.representatives()
            if all(
                self.semi_action(moved, gp) == self.semi_action(m, self.coset(g * gp.rep))
                for gp in sample
            )
        )
        g = next(undoing, None)
        if g is None:
            raise IntegrityError(
                f"no undo witness for m={m!r}, coset={coset!r}: broken coordinate system"
            )
        return g

    def compose_expansion(
        self, m, E: Sequence[Coset], E_prime: Sequence[Coset]
    ) -> list[Coset]:
        """E'' with (m |> E) |> E' = m |> E'' and |E''| <= |E|*|E'|."""
        composed = (
            self.coset(g * ep.rep)
            for e in E
            for g in [self.undo_witness(m, e, E_prime)]
            for ep in E_prime
        )
        result = list(ExpansionSet.of(composed))
        lhs = self.semi_action_set(self.semi_action_set([m], E), E_prime)
        if lhs != self.semi_action_set([m], result):
            raise IntegrityError("composed expansion set fails the extensional check")
        if len(result) > len(E) * len(E_prime):
            raise IntegrityError("composed expansion set exceeds the |E|*|E'| bound")
        if any(e.is_identity for e in E) and any(e.is_identity for e in E_prime):
            if not any(c.is_identity for c in result):
                raise IntegrityError("identity coset lost under composition")
        return result


# ---------------------------------------------------------------------------
# axiom verification


def check_axiom_cost(space: CellSpace, sample: Window, coset_count: int) -> None:
    """Refuse ``verify_axioms`` when its defect and semi-commutation checks
    would each make more than MAX_ENUMERATED_POINTS semi-actions, about
    |pts[:8]|·|ball(1)|·|G0|·coset_count: 195,840 on hyperoct:3 with a ball(2)
    sample, 3,434,496 on hyperoct:4."""
    count = min(len(sample.core), 8) * len(space.group.ball(1)) * len(space.stabilizer)
    check_enumerable(count * coset_count, "the sample of the axiom checks", "semi-actions")


def verify_axioms(
    space: CellSpace,
    sample: Window,
    coset_sample: Sequence[Coset],
) -> CheckReport:
    """Check the cell-space and semi-action axioms on finite samples.

    Passing is evidence, not proof: the defect and semi-commutation axioms
    quantify over all of G/G0, which is sampled here. A sample they would
    take too long on is refused by ``check_axiom_cost``.
    """
    check_axiom_cost(space, sample, len(coset_sample))
    report = CheckReport()
    pts = list(sample.core)
    gens = space.group.ball(1)
    G0, m0, coset = space.stabilizer, space.m0, space.coset
    act, semi = space.left_action, space.semi_action  # g . m and m |> c

    # coordinate property: g_{m0,m} . m0 = m
    report.first("coordinate-property", "m", (m for m in pts if act(space.coord(m), m0) != m))

    # stabilizer fixes the origin; sampled non-members do not
    report.first("stabilizer-fixes-origin", "g0", (g for g in G0 if act(g, m0) != m0))
    g0_payloads = {g.payload for g in G0}
    report.first(
        "stabilizer-complete",
        "g",
        (g for g in space.group.ball(2) if g.payload not in g0_payloads and act(g, m0) == m0),
    )

    # left action axioms on samples
    e = space.group.identity()
    report.first("action-identity", "m", (m for m in pts if act(e, m) != m))
    report.first("action-compatible", "(g,h,m)", (
        (g, h, m)
        for g, h in itertools.islice(itertools.product(gens, gens), 400)
        for m in pts[:10]
        if act(g * h, m) != act(g, act(h, m))
    ))

    # identity axiom: m |> G0 = m
    identity_coset = coset(space.group.identity())
    report.first("semiaction-identity", "m", (m for m in pts if semi(m, identity_coset) != m))

    # representative independence
    report.first("representative-independence", "(m,coset,g0)", (
        (m, c, g0)
        for m in pts[:12]
        for c in coset_sample
        for target in [semi(m, c)]
        for g0 in G0
        if semi(m, coset(c.rep * g0)) != target
    ))

    # defect axiom: for each (m,g) some g0 works for all sampled cosets
    report.first("semiaction-defect", "(m,g)", (
        (m, g)
        for m in pts[:8]
        for g in gens
        for moved in [semi(m, coset(g))]
        if not any(
            all(
                semi(m, coset(g * gp.rep)) == semi(moved, coset(g0 * gp.rep))
                for gp in coset_sample
            )
            for g0 in G0
        )
    ))

    # semi-commutation with the left action
    report.first("semi-commutation", "(m,g)", (
        (m, g)
        for m in pts[:8]
        for g in gens
        for gm in [act(g, m)]
        if not any(
            all(semi(gm, gp) == act(g, semi(m, coset(g0 * gp.rep))) for gp in coset_sample)
            for g0 in G0
        )
    ))

    # freeness: m |> . is injective on the sampled cosets
    report.first("semiaction-free", "(m,coset)", semiaction_collisions(space, pts, coset_sample))

    # transitivity via the coordinate witness coset
    report.first("semiaction-transitive", "(m,m')", (
        (m, mp)
        for m, mp in itertools.islice(itertools.product(pts, pts), 150)
        if semi(m, coset(space.coord(m).inverse() * space.coord(mp))) != mp
    ))

    return report


def semiaction_collisions(space: CellSpace, pts: Sequence, coset_sample: Sequence[Coset]):
    """The (m, coset), over the first 12 points, where ``m |> .`` sends the
    coset to the image of an earlier, different sampled coset."""
    for m in pts[:12]:
        seen: dict = {}
        for c in coset_sample:
            k = point_key(space.semi_action(m, c))
            if k in seen and seen[k] != c.key:
                yield (m, c)
            seen[k] = c.key


# ---------------------------------------------------------------------------
# concrete backends


class FiniteSpace(CellSpace):
    """Explicit finite point set with a tabulated action and coordinates."""

    def __init__(
        self,
        group: Group,
        points: Sequence,
        action: Callable[[GroupElement, object], object],
        m0,
        coords: dict,
        name: str = "finite",
    ):
        self._points = list(points)
        self._action = action
        self._coords = dict(coords)
        stab = [g for g in group.elements() if action(g, m0) == m0]
        super().__init__(group, m0, stab)
        self.name = name
        for m in self._points:
            if action(self._coords[m], m0) != m:
                raise ConstructionError(f"coordinate map wrong at m={m!r}")

    def left_action(self, g: GroupElement, m):
        return self._action(g, m)

    def coord(self, m) -> GroupElement:
        return self._coords[m]

    @property
    def is_finite(self) -> bool:
        return True

    def points(self) -> list:
        return list(self._points)


class TranslationSpace(CellSpace):
    """Coordinates in a complement subgroup P, the point group: ``m |> gG0 = m t``
    for t the P-part of gG0 (``translation`` gives its payload), and the fiber
    of a is ``a t^-1``, computed here on P's payloads. ``semi_action`` stays the
    general formula, through which the verifiers recheck every image.

    Each ``. |> gG0`` is then a bijection of M, so the fiber of a lies in a
    set F exactly when a is in ``F |> gG0``; ``build_graph`` reads its
    interior that way while a subclass keeps this ``key_maps``. The rule fails
    where a fiber may be empty or hold several points: on a ``FiniteSpace``
    whose coordinates are no complement, or on a subclass that widens the
    fibers."""

    def translation(self, coset: Coset):
        raise NotImplementedError

    def exact_preimage_point(self, coset: Coset, a) -> list:
        P = a.group
        return [GroupElement(P, P._mul(a.payload, P._inv(self.translation(coset))))]

    def key_maps(self, coset: Coset) -> tuple[Callable, Callable]:
        P, t = self.point_group, self.translation(coset)
        t_inv = P._inv(t)
        return (lambda p: P._mul(p, t), lambda p: [P._mul(p, t_inv)])

    def ball_window(self, core_radius: int, halo_radius: int) -> Window:
        """``group_window`` on the point group: boxes of Z^d, or balls."""
        return group_window(self.point_group, core_radius, halo_radius)


class GroupAsSpace(TranslationSpace):
    """M = G acting on itself by left multiplication: g_{e,g} = g, G0 = {e}, P = G."""

    coordinate_rule = "g_{e,m} = m (semi-action is right multiplication)"
    # bench/layers.py patches each class's own attribute, so both are bound here
    exact_preimage_point = TranslationSpace.exact_preimage_point
    ball_window = TranslationSpace.ball_window

    def __init__(self, group: Group, name: Optional[str] = None):
        super().__init__(group, group.identity(), [group.identity()])
        self.name = name or f"{group.backend}-as-space"

    def left_action(self, g: GroupElement, m):
        return g * m

    def coord(self, m) -> GroupElement:
        return m

    def translation(self, coset: Coset):
        return coset.rep.payload

    @property
    def is_finite(self) -> bool:
        return self.group.is_finite

    def points(self) -> list:
        return self.group.elements()


class SemidirectCellSpace(TranslationSpace):
    """Cell space over G0 x| H whose points are the elements of P = H: the left
    action is ``(g0,h) . m = h tau(g0)(m)``, the origin e, the coordinates
    ``(e, m)`` and the stabilizer G0 x {e}, as each tau(g0) fixes e. So
    ``m |> (g0,t)G0 = (e,m)(g0,t) . e = m t``; twisted coordinates
    ``(sigma(m), m)`` would give ``m tau(sigma(m))(t)``, no right translation."""

    coordinate_rule = "g_{m0,m} = (e, h_{m0,m})"
    # bench/layers.py patches each class's own attribute, so both are bound here
    exact_preimage_point = TranslationSpace.exact_preimage_point
    ball_window = TranslationSpace.ball_window

    def __init__(self, sd: SemidirectProduct, name: str = "semidirect"):
        self.sd = sd
        stab = [sd.pair(g0, sd.H.identity()) for g0 in sd.G0.elements()]
        super().__init__(sd, sd.H.identity(), stab)
        self.name = name

    def left_action(self, g: GroupElement, m):
        g0, h = g.payload
        H = self.sd.H
        return GroupElement(H, H._mul(h, self.sd.tau_apply(g0, m.payload)))

    def coord(self, m) -> GroupElement:
        return self.sd.pair(self.sd.G0.identity(), m)

    def translation(self, coset: Coset):
        return coset.rep.payload[1]
