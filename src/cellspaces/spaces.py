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
from typing import Callable, Iterable, Optional, Sequence

from .errors import ConstructionError, IntegrityError, ScopeMismatchError
from .groups import FreeAbelianGroup, Group, GroupElement, SemidirectProduct


def point_key(m):
    return m.payload if isinstance(m, GroupElement) else m


class Coset:
    """Left coset of the stabilizer G0, with G0-aware equality.

    The canonical key is the minimum payload among all representatives, so
    cosets are hashable and deterministically ordered.
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

    def __hash__(self) -> int:
        return hash((self.space.group.signature, self.key))

    def __lt__(self, other: "Coset") -> bool:
        return self.key < other.key

    def representatives(self) -> list[GroupElement]:
        return sorted(self.rep * g0 for g0 in self.space.stabilizer)

    def __repr__(self) -> str:
        return f"Coset({self.space.group.describe_element(self.key)})"


@dataclass(frozen=True)
class Window:
    """Finite truncation of M: an indexed core inside a halo."""

    core: tuple
    halo: tuple
    note: str = ""

    def __post_init__(self):
        core_set = set(self.core)
        halo_set = set(self.halo)
        if len(core_set) != len(self.core) or len(halo_set) != len(self.halo):
            raise ConstructionError("window contains duplicate points")
        if not core_set <= halo_set:
            raise ConstructionError("window core must be contained in its halo")

    @property
    def core_set(self) -> frozenset:
        return frozenset(self.core)

    @property
    def halo_set(self) -> frozenset:
        return frozenset(self.halo)


def box_points(group: FreeAbelianGroup, lo: int, hi: int) -> tuple:
    """The elements of Z^d whose every coordinate lies in ``range(lo, hi)``."""
    return tuple(group.element(v) for v in itertools.product(range(lo, hi), repeat=group.d))


def box_window(group: FreeAbelianGroup, core_radius: int, halo_radius: int) -> Window:
    """Sup-norm boxes of Z^d centred on the origin."""
    return Window(
        box_points(group, -core_radius, core_radius + 1),
        box_points(group, -halo_radius, halo_radius + 1),
        f"box r={core_radius}, halo r={halo_radius}",
    )


@dataclass(frozen=True)
class PreimageResult:
    """Windowed preimage of A under ``. |> g``.

    ``certified`` means the halo provably contains the whole preimage; an
    uncertified result is only a lower bound on the true preimage.
    """

    points: tuple
    certified: bool


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


@dataclass
class AxiomReport(CheckReport):
    space_name: str


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
    def is_finite(self) -> bool:
        return False

    def points(self) -> list:
        raise NotImplementedError(f"{self.name} has infinitely many points")

    def orbit_ball(self, r: int) -> tuple:
        """The points g . m0 for g in the group's ball of radius r, sorted."""
        return tuple(
            sorted({self.left_action(g, self.m0) for g in self.group.ball(r)}, key=point_key)
        )

    def full_window(self, note: str = "full") -> Window:
        """All points of a finite space, as both core and halo."""
        points = tuple(self.points())
        return Window(points, points, note)

    def exact_preimage_point(self, coset: Coset, a) -> Optional[list]:
        """All m in M with m |> coset = a, or None if not computable."""
        if self.is_finite:
            return [m for m in self.points() if self.semi_action(m, coset) == a]
        return None

    # -- cosets ------------------------------------------------------------
    def coset(self, g: GroupElement) -> Coset:
        return Coset(self, g)

    def cosets(self) -> list[Coset]:
        """All distinct cosets of G/G0 (finite groups only)."""
        seen = {}
        for g in self.group.elements():
            c = Coset(self, g)
            if c.key not in seen:
                seen[c.key] = c
        return [seen[k] for k in sorted(seen)]

    # -- the right semi-action ----------------------------------------------
    def semi_action(self, m, coset: Coset):
        return self.left_action(self.coord(m) * coset.rep, self.m0)

    def semi_action_set(self, A: Iterable, E: Iterable[Coset]) -> list:
        """A |> E, deterministically ordered."""
        out = {self.semi_action(m, e) for m in A for e in E}
        return sorted(out, key=point_key)

    def preimage(self, coset: Coset, A: Sequence, universe: Window) -> PreimageResult:
        halo = universe.halo_set
        if not set(A) <= halo:
            raise ScopeMismatchError("A must be contained in the window halo")
        exact = self._exact_preimage_set(coset, A)
        if exact is None:
            pts = sorted(
                (m for m in universe.halo if self.semi_action(m, coset) in set(A)),
                key=point_key,
            )
            return PreimageResult(tuple(pts), certified=False)
        bound = len(self.stabilizer) * len(set(A))
        if len(exact) > bound:
            raise IntegrityError(
                f"preimage size {len(exact)} exceeds |G0|*|A| = {bound}; "
                "the coordinate system is broken"
            )
        certified = all(m in halo for m in exact)
        pts = sorted((m for m in exact if m in halo), key=point_key)
        return PreimageResult(tuple(pts), certified=certified)

    def _exact_preimage_set(self, coset: Coset, A: Sequence) -> Optional[set]:
        out = set()
        for a in set(A):
            pre = self.exact_preimage_point(coset, a)
            if pre is None:
                return None
            out.update(pre)
        return out

    def undo_witness(self, m, coset: Coset, sample: Sequence[Coset]) -> GroupElement:
        """A representative g of the coset with (m |> coset) |> g' = m |> g g'
        for every g' in the verification sample."""
        moved = self.semi_action(m, coset)
        for g in coset.representatives():
            ok = True
            for gp in sample:
                if self.semi_action(moved, gp) != self.semi_action(m, self.coset(g * gp.rep)):
                    ok = False
                    break
            if ok:
                return g
        raise IntegrityError(
            f"no undo witness for m={m!r}, coset={coset!r}: broken coordinate system"
        )

    def compose_expansion(
        self, m, E: Sequence[Coset], E_prime: Sequence[Coset]
    ) -> list[Coset]:
        """E'' with (m |> E) |> E' = m |> E'' and |E''| <= |E|*|E'|."""
        out: dict = {}
        for e in E:
            g = self.undo_witness(m, e, E_prime)
            for ep in E_prime:
                c = self.coset(g * ep.rep)
                out.setdefault(c.key, c)
        result = [out[k] for k in sorted(out)]
        lhs = set(self.semi_action_set(self.semi_action_set([m], E), E_prime))
        rhs = set(self.semi_action_set([m], result))
        if lhs != rhs:
            raise IntegrityError("composed expansion set fails the extensional check")
        if len(result) > len(E) * len(E_prime):
            raise IntegrityError("composed expansion set exceeds the |E|*|E'| bound")
        if any(e.is_identity for e in E) and any(e.is_identity for e in E_prime):
            if not any(c.is_identity for c in result):
                raise IntegrityError("identity coset lost under composition")
        return result


# ---------------------------------------------------------------------------
# axiom verification


def verify_axioms(
    space: CellSpace,
    sample: Window,
    coset_sample: Sequence[Coset],
    generator_sample: Optional[Sequence[GroupElement]] = None,
) -> AxiomReport:
    """Check the cell-space and semi-action axioms on finite samples.

    Passing is evidence, not proof: the defect and semi-commutation axioms
    quantify over all of G/G0, which is sampled here.
    """
    report = AxiomReport(space.name)
    pts = list(sample.core)
    gens = list(generator_sample) if generator_sample is not None else space.group.ball(1)
    G0 = space.stabilizer

    # coordinate property: g_{m0,m} . m0 = m
    bad = next((m for m in pts if space.left_action(space.coord(m), space.m0) != m), None)
    report.add("coordinate-property", bad is None, f"m={bad!r}")

    # stabilizer fixes the origin; sampled non-members do not
    bad = next((g for g in G0 if space.left_action(g, space.m0) != space.m0), None)
    report.add("stabilizer-fixes-origin", bad is None, f"g0={bad!r}")
    g0_payloads = {g.payload for g in G0}
    bad = next(
        (
            g
            for g in space.group.ball(2)
            if g.payload not in g0_payloads and space.left_action(g, space.m0) == space.m0
        ),
        None,
    )
    report.add("stabilizer-complete", bad is None, f"g={bad!r}")

    # left action axioms on samples
    e = space.group.identity()
    bad = next((m for m in pts if space.left_action(e, m) != m), None)
    report.add("action-identity", bad is None, f"m={bad!r}")
    bad = None
    for g, h in itertools.islice(itertools.product(gens, gens), 400):
        for m in pts[:10]:
            if space.left_action(g * h, m) != space.left_action(g, space.left_action(h, m)):
                bad = (g, h, m)
                break
        if bad:
            break
    report.add("action-compatible", bad is None, f"(g,h,m)={bad!r}")

    # identity axiom: m |> G0 = m
    identity_coset = space.coset(space.group.identity())
    bad = next((m for m in pts if space.semi_action(m, identity_coset) != m), None)
    report.add("semiaction-identity", bad is None, f"m={bad!r}")

    # representative independence
    bad = None
    for m in pts[:12]:
        for c in coset_sample:
            target = space.semi_action(m, c)
            for g0 in G0:
                if space.semi_action(m, space.coset(c.rep * g0)) != target:
                    bad = (m, c, g0)
                    break
            if bad:
                break
        if bad:
            break
    report.add("representative-independence", bad is None, f"(m,coset,g0)={bad!r}")

    # defect axiom: for each (m,g) some g0 works for all sampled cosets
    bad = None
    for m in pts[:8]:
        for g in gens:
            moved = space.semi_action(m, space.coset(g))
            found = False
            for g0 in G0:
                if all(
                    space.semi_action(m, space.coset(g * gp.rep))
                    == space.semi_action(moved, space.coset(g0 * gp.rep))
                    for gp in coset_sample
                ):
                    found = True
                    break
            if not found:
                bad = (m, g)
                break
        if bad:
            break
    report.add("semiaction-defect", bad is None, f"(m,g)={bad!r}")

    # semi-commutation with the left action
    bad = None
    for m in pts[:8]:
        for g in gens:
            gm = space.left_action(g, m)
            found = False
            for g0 in G0:
                if all(
                    space.semi_action(gm, gp)
                    == space.left_action(g, space.semi_action(m, space.coset(g0 * gp.rep)))
                    for gp in coset_sample
                ):
                    found = True
                    break
            if not found:
                bad = (m, g)
                break
        if bad:
            break
    report.add("semi-commutation", bad is None, f"(m,g)={bad!r}")

    # freeness: m |> . is injective on the sampled cosets
    bad = semiaction_collision(space, pts, coset_sample)
    report.add("semiaction-free", bad is None, f"(m,coset)={bad!r}")

    # transitivity via the coordinate witness coset
    bad = None
    for m, mp in itertools.islice(itertools.product(pts, pts), 150):
        witness = space.coset(space.coord(m).inverse() * space.coord(mp))
        if space.semi_action(m, witness) != mp:
            bad = (m, mp)
            break
    report.add("semiaction-transitive", bad is None, f"(m,m')={bad!r}")

    return report


def semiaction_collision(space: CellSpace, pts: Sequence, coset_sample: Sequence[Coset]):
    """The first (m, coset), over the first 12 points, where ``m |> .`` sends
    the coset to the image of an earlier, different sampled coset; else None."""
    for m in pts[:12]:
        seen: dict = {}
        for c in coset_sample:
            k = point_key(space.semi_action(m, c))
            if k in seen and seen[k] != c.key:
                return (m, c)
            seen[k] = c.key
    return None


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


class GroupAsSpace(CellSpace):
    """M = G acting on itself by left multiplication; g_{e,g} = g.

    Here G0 = {e} and the semi-action is right multiplication.
    """

    coordinate_rule = "g_{e,m} = m (semi-action is right multiplication)"

    def __init__(self, group: Group, name: Optional[str] = None):
        super().__init__(group, group.identity(), [group.identity()])
        self.name = name or f"{group.backend}-as-space"

    def left_action(self, g: GroupElement, m):
        return g * m

    def coord(self, m) -> GroupElement:
        return m

    @property
    def is_finite(self) -> bool:
        return self.group.is_finite

    def points(self) -> list:
        return self.group.elements()

    def exact_preimage_point(self, coset: Coset, a) -> list:
        # m * g = a, and G0 is trivial, so the preimage is a single point
        return [a * coset.rep.inverse()]

    def ball_window(self, core_radius: int, halo_radius: int) -> Window:
        """Word-metric balls; sup-norm boxes for free abelian groups."""
        if halo_radius < core_radius:
            raise ConstructionError("halo radius must be at least the core radius")
        if isinstance(self.group, FreeAbelianGroup):
            return box_window(self.group, core_radius, halo_radius)
        halo = tuple(self.group.ball(halo_radius))
        core = tuple(self.group.ball(core_radius))
        return Window(core, halo, f"ball r={core_radius}, halo r={halo_radius}")


class SemidirectCellSpace(CellSpace):
    """Cell space over G0 x| H built from a principal left H-space.

    The left action is ``(g0,h) . m = h .H (tau(g0)(h_{m0,m}) .H m0)`` and the
    coordinates are ``(e, h_{m0,m})``; the stabilizer of m0 is G0 x {e}.
    """

    coordinate_rule = "g_{m0,m} = (e, h_{m0,m})"

    def __init__(self, h_space: CellSpace, sd: SemidirectProduct, name: str = "semidirect"):
        if h_space.group.signature != sd.H.signature:
            raise ConstructionError("H-space group does not match the semidirect H factor")
        self.h_space = h_space
        self.sd = sd
        if len(h_space.stabilizer) != 1:
            raise ConstructionError(
                "the H-space must be principal (free action, trivial stabilizer)"
            )
        stab = [sd.pair(g0, sd.H.identity()) for g0 in sd.G0.elements()]
        super().__init__(sd, h_space.m0, stab)
        self.name = name
        self._check_freeness()

    def _check_freeness(self) -> None:
        hs = self.h_space
        sample = [hs.left_action(g, hs.m0) for g in hs.group.ball(2)]
        for g in hs.group.ball(2):
            if g.payload == hs.group._identity():
                continue
            for m in sample[:6]:
                if hs.left_action(g, m) == m:
                    raise ConstructionError(
                        f"H-action is not free: witness (h={g!r}, m={m!r})"
                    )

    def left_action(self, g: GroupElement, m):
        g0, h = self.sd.parts(g)
        twisted = self.sd.tau_apply(g0.payload, self.h_space.coord(m))
        inner = self.h_space.left_action(twisted, self.h_space.m0)
        return self.h_space.left_action(h, inner)

    def coord(self, m) -> GroupElement:
        return self.sd.pair(self.sd.G0.identity(), self.h_space.coord(m))

    @property
    def is_finite(self) -> bool:
        return self.h_space.is_finite

    def points(self) -> list:
        return self.h_space.points()

    def exact_preimage_point(self, coset: Coset, a) -> list:
        # m |> (g0,t)G0 = (h_{m0,m} t) .H m0, so the preimage is one point
        _, t = self.sd.parts(coset.rep)
        h = self.h_space.coord(a) * t.inverse()
        return [self.h_space.left_action(h, self.h_space.m0)]

    def ball_window(self, core_radius: int, halo_radius: int) -> Window:
        """Sup-norm boxes for a lattice H-space, else orbit balls."""
        hs = self.h_space
        if isinstance(hs.group, FreeAbelianGroup) and isinstance(hs, GroupAsSpace):
            return box_window(hs.group, core_radius, halo_radius)
        return Window(
            hs.orbit_ball(core_radius),
            hs.orbit_ball(halo_radius),
            f"orbit ball r={core_radius}, halo r={halo_radius}",
        )
