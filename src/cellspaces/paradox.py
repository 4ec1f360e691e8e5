"""From doubling sets to paradoxical decompositions.

Pipeline: a doubling set E induces a bipartite graph on a window (left: core
points, right: their images under ``. |> E``). A perfect (1,2)-matching of
that graph yields a 2-to-1 map, whose two fiber branches split into the
pieces ``A_e = {m : m |> e = psi(m)}`` and ``B_e`` likewise. A verified
decomposition forces ``1 = 2`` against any semi-invariant measure.

On windows, all quantified identities are checked on the certified interior:
the core points whose exact fibers under every e in E stay inside the core.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import codec
from .errors import (
    ConstructionError,
    ScopeMismatchError,
    UncertifiedWindowError,
)
from .groups import FreeGroup
from .matching import HaremMatching, HaremViolation, solve_harem
from .measures import FAMeasure
from .spaces import (
    CellSpace,
    CheckReport,
    ExpansionSet,
    Window,
    certifying_halo_note,
    point_key,
)


@dataclass(frozen=True)
class BipartiteGraph:
    """Left: window core; right: its image under the expansion set.

    ``adj[i]`` lists right indices reachable from ``left[i]``, and
    ``cosets[i][j]`` is the first coset of E, in E order, that sends
    ``left[i]`` to ``right[adj[i][j]]``. ``right_interior`` flags right
    vertices whose exact left fiber is fully inside the core.
    """

    left: tuple
    right: tuple
    adj: tuple
    right_interior: tuple
    cosets: tuple


def build_graph(space: CellSpace, E: ExpansionSet, window: Window) -> BipartiteGraph:
    """Refuses to build if any image escapes the halo, because an incomplete
    right side would silently fake Hall conditions.

    The halo is numbered once, and the graph is read from one table:
    ``T[c][i]`` is the number of ``left[i] |> E[c]``, from the space's
    ``key_maps``."""
    halo_keys = list(map(point_key, window.halo))
    number = {k: j for j, k in enumerate(halo_keys)}
    core_keys = list(map(point_key, window.core))
    cosets = list(E)
    maps = [space.key_maps(e) for e in cosets]
    T = [[number.get(image(k), -1) for k in core_keys] for image, _ in maps]
    if any(-1 in row for row in T):
        i, c = min((row.index(-1), c) for c, row in enumerate(T) if -1 in row)
        m, e = window.core[i], cosets[c]
        raise UncertifiedWindowError(
            f"image {space.semi_action(m, e)!r} of {m!r} under {e!r} escapes the window halo"
            + certifying_halo_note(space, E, window.core, "the window")
        )
    # in_core[-1] stays False: number.get gives -1 for a key outside the halo
    in_core = [False] * (len(halo_keys) + 1)
    for k in core_keys:
        in_core[number[k]] = True
    right = sorted(set().union(*T), key=halo_keys.__getitem__)
    position = dict(zip(right, range(len(right))))
    adj, labels = [], []
    for row in zip(*T) if T else [()] * len(core_keys):
        first: dict = {}
        for c, j in enumerate(row):
            first.setdefault(position[j], c)
        ys = sorted(first)
        adj.append(tuple(ys))
        labels.append(tuple(cosets[first[y]] for y in ys))
    return BipartiteGraph(
        left=tuple(window.core),
        right=tuple(window.halo[j] for j in right),
        adj=tuple(adj),
        right_interior=tuple(
            all(in_core[number.get(p, -1)] for _, fiber in maps for p in fiber(halo_keys[j]))
            for j in right
        ),
        cosets=tuple(labels),
    )


def harem_matching(graph: BipartiteGraph, k: int = 2) -> Union[HaremMatching, HaremViolation]:
    """Perfect (1,k)-matching of the graph: every left vertex matched exactly
    k times, every right vertex at most once, and the interior right vertices
    (``graph.right_interior``) exactly once."""
    return solve_harem(
        len(graph.left), len(graph.right), graph.adj, k, right_required=graph.right_interior
    )


@dataclass(frozen=True)
class TwoToOneMap:
    """The 2-to-1 map of a (1,2)-matching, indexed by left vertex i.

    ``branches[i] = (lo, hi)``, lo < hi, are the two right indices matched
    to i: psi(left[i]) = right[lo] and psi'(left[i]) = right[hi] are
    injective with disjoint images, and ``cosets[i] = (e, e')`` are the
    graph's labels on those two edges."""

    branches: tuple
    cosets: tuple


def two_to_one_from_matching(
    graph: BipartiteGraph, matching: HaremMatching
) -> TwoToOneMap:
    if matching.k != 2:
        raise ConstructionError("a 2-to-1 map needs a (1,2)-matching")
    fibers: list = [[] for _ in graph.left]
    for x, y in matching.pairs:
        fibers[x].append(y)
    branches, cosets = [], []
    for x, ys in enumerate(fibers):
        if len(ys) != 2:
            raise ConstructionError(
                f"left vertex {graph.left[x]!r} matched {len(ys)} times, expected 2"
            )
        lo, hi = sorted(ys)
        label = dict(zip(graph.adj[x], graph.cosets[x]))
        branches.append((lo, hi))
        cosets.append((label[lo], label[hi]))
    return TwoToOneMap(branches=tuple(branches), cosets=tuple(cosets))


# ---------------------------------------------------------------------------
# decompositions


@dataclass(frozen=True)
class Decomposition:
    """Two labelled partitions {A_e}, {B_e} of the scope core, indexed by the
    cosets of E; each piece is translated by its own coset."""

    E: ExpansionSet
    A: dict
    B: dict
    scope: Window

    def pieces(self):
        for e in self.E:
            yield ("A", e, self.A.get(e.key, ()))
        for e in self.E:
            yield ("B", e, self.B.get(e.key, ()))


def decomposition_from_map(
    space: CellSpace, ttm: TwoToOneMap, E: ExpansionSet, scope: Window
) -> Decomposition:
    """A_e collects the core points whose lower branch is realised by e (first
    such e in canonical coset order, as the graph labelled the edge); B_e
    likewise for the upper branch. Left vertex i is ``scope.core[i]``, as
    ``build_graph`` numbers it."""
    core = scope.core
    if len(ttm.cosets) != len(core):
        raise ConstructionError(
            f"the 2-to-1 map has {len(ttm.cosets)} left vertices, the scope core {len(core)} points"
        )
    A: dict = {e.key: [] for e in E}
    B: dict = {e.key: [] for e in E}
    for i in sorted(range(len(core)), key=lambda i: point_key(core[i])):
        for store, e in zip((A, B), ttm.cosets[i]):
            if e.key not in store:
                raise ConstructionError(f"the coset {e!r} that moves {core[i]!r} is not in E")
            store[e.key].append(core[i])
    return Decomposition(
        E=E,
        A={k: tuple(v) for k, v in A.items()},
        B={k: tuple(v) for k, v in B.items()},
        scope=scope,
    )


@dataclass
class DecompositionReport(CheckReport):
    interior: tuple = ()


def certified_interior(space: CellSpace, E: ExpansionSet, scope: Window) -> list:
    """Core points whose exact fiber under every coset of E lies in the core."""
    core = set(map(point_key, scope.core))
    return [
        m
        for m in scope.core
        if all(point_key(p) in core for e in E for p in space.exact_preimage_point(e, m))
    ]


def verify_decomposition(space: CellSpace, D: Decomposition) -> DecompositionReport:
    """Checks, with exact arithmetic on the window:

    both families partition the core; ``. |> e`` is injective on each piece;
    the 2|E| images are pairwise disjoint and cover the certified interior;
    and at every interior point the fiber counts of all pieces sum to 1."""
    report = DecompositionReport()
    core = D.scope.core_set
    interior = certified_interior(space, D.E, D.scope)
    report.interior = tuple(interior)

    for label, family in (("A", D.A), ("B", D.B)):
        pieces = [family.get(e.key, ()) for e in D.E]
        union = set().union(*[set(p) for p in pieces]) if pieces else set()
        total = sum(len(p) for p in pieces)
        report.add(
            f"partition-{label}",
            union == core and total == len(core),
            f"|union|={len(union)}, total={total}, |core|={len(core)}",
        )

    images: list[tuple[str, set]] = []
    bad = None
    for label, e, piece in D.pieces():
        img = {space.semi_action(m, e) for m in piece}
        if len(img) != len(piece):
            bad = (label, e.key)
        images.append((f"{label}:{e.key}", img))
    report.add("piece-injectivity", bad is None, f"piece={bad!r}")

    report.first("images-disjoint", "(piece,piece,point)", (
        (n1, n2, min(i1 & i2, key=point_key))
        for (n1, i1), (n2, i2) in itertools.combinations(images, 2)
        if i1 & i2
    ))

    covered = set().union(*[i for _, i in images]) if images else set()
    report.first("images-cover-interior", "uncovered", (m for m in interior if m not in covered))

    piece_sets = [(e, set(piece)) for _, e, piece in D.pieces()]
    report.first("functional-identity", "(m,count)", (
        (m, n)
        for m in interior
        for n in [sum(p in s for e, s in piece_sets for p in space.exact_preimage_point(e, m))]
        if n != 1
    ))

    return report


def tarski_contradiction(
    space: CellSpace, D: Decomposition, mu: FAMeasure
) -> tuple[Fraction, Fraction]:
    """(sum of piece-image measures, sum of piece measures).

    For a verified decomposition of a finite space the left value is at most
    mu(M) = 1 while the right is exactly 2, so no semi-invariant measure can
    give every piece the same mass as its image."""
    if mu.universe.core_set != D.scope.core_set:
        raise ScopeMismatchError("measure universe differs from the decomposition scope")
    lhs = Fraction(0)
    rhs = Fraction(0)
    for _, e, piece in D.pieces():
        image = {space.semi_action(m, e) for m in piece}
        lhs += mu.measure(image)
        rhs += mu.measure(piece)
    return lhs, rhs


# ---------------------------------------------------------------------------
# the closed-form decomposition for a free group of rank 2


def canonical_free_decomposition(space: CellSpace, scope: Window) -> Decomposition:
    """Right-multiplication decomposition of a rank-2 free group.

    With letters a, b: X1 is the set of reduced words ending in a, together
    with all powers of a^{-1} (including the identity). Then X1 * a^{-1} is
    the complement of the words ending in b, which gives the four pieces
    A = (X1, M \\ X1) over (G0, a^{-1} G0) and B = (words ending in b,
    the rest) over (G0, b^{-1} G0)."""
    group = space.group
    if not isinstance(group, FreeGroup) or group.k != 2:
        raise ConstructionError("the closed-form decomposition needs a rank-2 free group")
    e = space.coset(group.identity())
    a_inv = space.coset(group.word([-1]))
    b_inv = space.coset(group.word([-2]))
    E = ExpansionSet.of([e, a_inv, b_inv])

    def in_x1(m) -> bool:
        w = point_key(m)
        if not w or w[-1] == 1:
            return True
        return all(letter == -1 for letter in w)

    def ends_in_b(m) -> bool:
        w = point_key(m)
        return bool(w) and w[-1] == 2

    core = list(scope.core)
    A = {
        e.key: tuple(m for m in core if in_x1(m)),
        a_inv.key: tuple(m for m in core if not in_x1(m)),
    }
    B = {
        e.key: tuple(m for m in core if ends_in_b(m)),
        b_inv.key: tuple(m for m in core if not ends_in_b(m)),
    }
    return Decomposition(E=E, A=A, B=B, scope=scope)


# ---------------------------------------------------------------------------
# serialisation


def decomposition_to_json(space: CellSpace, D: Decomposition) -> dict:
    def enc_family(family: dict) -> list:
        return [
            [list(e.key), [codec.encode_point(m) for m in family.get(e.key, ())]]
            for e in D.E
        ]

    return {
        "E": [list(e.key) for e in D.E],
        "A": enc_family(D.A),
        "B": enc_family(D.B),
        "scope": {
            "core": [codec.encode_point(m) for m in D.scope.core],
            "halo": [codec.encode_point(m) for m in D.scope.halo],
            "note": D.scope.note,
        },
    }


def decomposition_from_json(space: CellSpace, data: dict) -> Decomposition:
    try:
        coset = lambda k: space.coset(codec.element(space.group, k))
        E = ExpansionSet.of([coset(k) for k in data["E"]])

        def dec_family(rows: list) -> dict:
            return {
                coset(k).key: tuple(codec.decode_point(space, m) for m in pts)
                for k, pts in rows
            }

        scope = Window(
            tuple(codec.decode_point(space, m) for m in data["scope"]["core"]),
            tuple(codec.decode_point(space, m) for m in data["scope"]["halo"]),
            data["scope"].get("note", ""),
        )
        return Decomposition(
            E=E, A=dec_family(data["A"]), B=dec_family(data["B"]), scope=scope
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConstructionError(f"malformed decomposition data: {exc}") from exc
