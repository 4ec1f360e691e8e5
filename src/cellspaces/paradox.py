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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from . import codec
from .errors import (
    ConstructionError,
    ScopeMismatchError,
    UncertifiedWindowError,
)
from .folner import ExpansionSet
from .groups import FreeGroup, GroupElement
from .matching import HaremMatching, HaremViolation, solve_harem
from .measures import FAMeasure
from .spaces import CellSpace, CheckReport, Window, point_key


@dataclass(frozen=True)
class BipartiteGraph:
    """Left: window core; right: its image under the expansion set.

    ``adj[i]`` lists right indices reachable from ``left[i]``.
    ``right_interior`` flags right vertices whose exact left fiber is fully
    inside the core.
    """

    left: tuple
    right: tuple
    adj: tuple
    right_interior: tuple


def build_graph(space: CellSpace, E: ExpansionSet, window: Window) -> BipartiteGraph:
    """Refuses to build if any image escapes the halo, because an incomplete
    right side would silently fake Hall conditions."""
    halo = window.halo_set
    core = window.core_set
    left = tuple(window.core)
    images: dict = {}
    edge_targets: list[dict] = []
    for m in left:
        targets: dict = {}
        for e in E:
            img = space.semi_action(m, e)
            if img not in halo:
                raise UncertifiedWindowError(
                    f"image {img!r} of {m!r} under {e!r} escapes the window halo"
                )
            targets.setdefault(point_key(img), img)
        edge_targets.append(targets)
        for k, img in targets.items():
            images.setdefault(k, img)
    right = tuple(images[k] for k in sorted(images))
    right_index = {point_key(y): i for i, y in enumerate(right)}
    adj = [tuple(sorted(right_index[k] for k in targets)) for targets in edge_targets]
    return BipartiteGraph(
        left=left,
        right=right,
        adj=tuple(adj),
        right_interior=tuple(_fibers_in_core(space, E, y, core) for y in right),
    )


def _fibers_in_core(space: CellSpace, E: ExpansionSet, m, core: frozenset) -> bool:
    """Whether the exact fiber of m under every coset of E lies in the core."""
    for e in E:
        fiber = space.exact_preimage_point(e, m)
        if fiber is None or any(p not in core for p in fiber):
            return False
    return True


def harem_matching(graph: BipartiteGraph, k: int = 2) -> Union[HaremMatching, HaremViolation]:
    """Perfect (1,k)-matching of the graph: every left vertex matched exactly
    k times, every right vertex at most once, and the interior right vertices
    (``graph.right_interior``) exactly once."""
    return solve_harem(
        len(graph.left), len(graph.right), graph.adj, k, right_required=graph.right_interior
    )


@dataclass(frozen=True)
class TwoToOneMap:
    """phi sends each matched right point to its left partner; the fibers are
    split by enumeration order into the branches psi (lower) and psi' (upper),
    so psi and psi' are injective with disjoint images covering the matched
    right side."""

    graph: BipartiteGraph
    psi: dict
    psi_prime: dict
    phi: dict


def two_to_one_from_matching(
    graph: BipartiteGraph, matching: HaremMatching
) -> TwoToOneMap:
    if matching.k != 2:
        raise ConstructionError("a 2-to-1 map needs a (1,2)-matching")
    fibers: dict = {x: [] for x in range(len(graph.left))}
    phi: dict = {}
    for x, y in matching.pairs:
        fibers[x].append(y)
        phi[graph.right[y]] = graph.left[x]
    psi: dict = {}
    psi_prime: dict = {}
    for x, ys in fibers.items():
        if len(ys) != 2:
            raise ConstructionError(
                f"left vertex {graph.left[x]!r} matched {len(ys)} times, expected 2"
            )
        lo, hi = sorted(ys)
        psi[graph.left[x]] = graph.right[lo]
        psi_prime[graph.left[x]] = graph.right[hi]
    return TwoToOneMap(graph=graph, psi=psi, psi_prime=psi_prime, phi=phi)


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
    """A_e collects the m whose lower branch is realised by e (first such e in
    canonical coset order); B_e likewise for the upper branch."""
    A: dict = {e.key: [] for e in E}
    B: dict = {e.key: [] for e in E}
    for branch, store in ((ttm.psi, A), (ttm.psi_prime, B)):
        for m in sorted(branch, key=point_key):
            target = branch[m]
            e = next((e for e in E if space.semi_action(m, e) == target), None)
            if e is None:
                raise ConstructionError(
                    f"no coset in E sends {m!r} to its matched image {target!r}"
                )
            store[e.key].append(m)
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
    core = scope.core_set
    return [m for m in scope.core if _fibers_in_core(space, E, m, core)]


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
        ok = union == core and total == len(core)
        report.add(
            f"partition-{label}",
            ok,
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

    bad = None
    for (n1, i1), (n2, i2) in itertools.combinations(images, 2):
        if i1 & i2:
            bad = (n1, n2, sorted(i1 & i2, key=point_key)[0])
            break
    report.add("images-disjoint", bad is None, f"(piece,piece,point)={bad!r}")

    covered = set().union(*[i for _, i in images]) if images else set()
    missing = [m for m in interior if m not in covered]
    report.add(
        "images-cover-interior",
        not missing,
        f"uncovered={missing[0]!r}" if missing else None,
    )

    bad = None
    for m in interior:
        count = 0
        for label, e, piece in D.pieces():
            fiber = space.exact_preimage_point(e, m)
            piece_set = set(piece)
            count += sum(1 for p in fiber if p in piece_set)
        if count != 1:
            bad = (m, count)
            break
    report.add("functional-identity", bad is None, f"(m,count)={bad!r}")

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

    def payload(m) -> tuple:
        return m.payload if isinstance(m, GroupElement) else m

    def in_x1(m) -> bool:
        w = payload(m)
        if not w or w[-1] == 1:
            return True
        return all(letter == -1 for letter in w)

    def ends_in_b(m) -> bool:
        w = payload(m)
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
# exhaustive non-existence search on tiny finite spaces


def search_decompositions(
    space: CellSpace, max_expansion: int = 2
) -> Optional[Decomposition]:
    """First verified decomposition over any expansion set of at most the
    given size, or None. Exhaustive over all labelled assignments, so it is
    only feasible for very small finite spaces."""
    if not space.is_finite:
        raise ConstructionError("exhaustive search needs a finite space")
    scope = space.full_window()
    pts = scope.core
    cosets = space.cosets()
    for size in range(1, max_expansion + 1):
        for combo in itertools.combinations(cosets, size):
            E = ExpansionSet.of(list(combo))
            keys = [e.key for e in E]
            for fa in itertools.product(keys, repeat=len(pts)):
                A = _pieces(keys, pts, fa)
                for fb in itertools.product(keys, repeat=len(pts)):
                    D = Decomposition(E=E, A=A, B=_pieces(keys, pts, fb), scope=scope)
                    if verify_decomposition(space, D).passed:
                        return D
    return None


def _pieces(keys: list, pts: tuple, labels: tuple) -> dict:
    """The pieces of ``pts`` when point i goes to the coset key ``labels[i]``."""
    pieces: dict = {k: [] for k in keys}
    for m, k in zip(pts, labels):
        pieces[k].append(m)
    return {k: tuple(v) for k, v in pieces.items()}


# ---------------------------------------------------------------------------
# serialisation


def decomposition_to_json(space: CellSpace, D: Decomposition) -> dict:
    def enc_family(family: dict) -> list:
        return [
            [codec.encode_payload(e.key), [codec.encode_point(m) for m in family.get(e.key, ())]]
            for e in D.E
        ]

    return {
        "E": [codec.encode_payload(e.key) for e in D.E],
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
        E = ExpansionSet.of(
            [space.coset(codec.element(space.group, k)) for k in data["E"]]
        )

        def dec_family(rows: list) -> dict:
            return {
                codec.coset_key(space, k): tuple(codec.decode_point(space, m) for m in pts)
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
