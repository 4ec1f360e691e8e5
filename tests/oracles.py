"""Independent brute-force oracles used to validate the library.

These deliberately avoid the library's abstractions: boxes and reduced words
are enumerated directly, and the matching oracle is a plain backtracking
search over k-subsets. The exhaustive decomposition search enumerates every
labelled assignment and leaves each candidate to ``verify_decomposition``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

from cellspaces import ConstructionError, Decomposition, ExpansionSet, verify_decomposition


def box_points(n: int, d: int = 2) -> set:
    return set(itertools.product(range(n), repeat=d))


def box_ratio_out(n: int, shift: tuple, d: int = 2) -> Fraction:
    """|F \\ (F - shift)| / |F| for F = [0,n)^d; the preimage of F under
    "add shift" is F translated by -shift."""
    F = box_points(n, d)
    pre = {tuple(x - s for x, s in zip(v, shift)) for v in F}
    return Fraction(len(F - pre), len(F))


def free2_words(max_len: int) -> list:
    """All reduced words over {a, a', b, b'} (coded 1, -1, 2, -2) up to the
    given length, built by direct recursion."""
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for letter in (1, -1, 2, -2):
                if w and w[-1] == -letter:
                    continue
                nxt.append(w + (letter,))
        out.extend(nxt)
        frontier = nxt
    return out


def free2_concat(w: tuple, v: tuple) -> tuple:
    out = list(w)
    for x in v:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def free2_ball_ratio_out(n: int, letter: int = 1) -> Fraction:
    """Outward ratio of the radius-n ball under right multiplication by a
    generator: the preimage of F is F * letter^{-1}."""
    F = set(free2_words(n))
    pre = {free2_concat(w, (-letter,)) for w in F}
    return Fraction(len(F - pre), len(F))


def free2_product_size(r: int, s: int) -> int:
    """|B_r * B_s| by direct enumeration."""
    out = set()
    for w in free2_words(r):
        for v in free2_words(s):
            out.add(free2_concat(w, v))
    return len(out)


def perfect_harem_exists(n_left: int, n_right: int, adjacency, k: int) -> bool:
    """Backtracking search for a perfect (1,k)-matching: every left vertex
    gets exactly k distinct neighbours, every right vertex is used once, and
    all right vertices are used."""
    if k * n_left != n_right:
        return False
    order = sorted(range(n_left), key=lambda x: len(adjacency[x]))
    used = [False] * n_right

    def extend(i: int) -> bool:
        if i == len(order):
            return all(used)
        x = order[i]
        avail = [y for y in adjacency[x] if not used[y]]
        if len(avail) < k:
            return False
        for combo in itertools.combinations(avail, k):
            for y in combo:
                used[y] = True
            if extend(i + 1):
                return True
            for y in combo:
                used[y] = False
        return False

    return extend(0)


def check_semi_invariance_subsets(space, mu) -> bool:
    """Definition-level semi-invariance over all subsets A on which each coset
    map is injective: mu(A |> coset) = mu(A). Exponential, test-scale only."""
    pts = space.points()
    for coset in space.cosets():
        images = {m: space.semi_action(m, coset) for m in pts}
        for r in range(len(pts) + 1):
            for A in itertools.combinations(pts, r):
                moved = [images[m] for m in A]
                if len(set(moved)) != len(A):
                    continue  # not injective on A
                if mu.measure(moved) != mu.measure(A):
                    return False
    return True


def search_decompositions(space, max_expansion: int = 2) -> Optional[Decomposition]:
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
            E = ExpansionSet.of(combo)
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
