"""Independent oracles for the benchmark's correctness checks.

Nothing here imports ``cellspaces``: free-group words are reduced with a
plain stack, lattice sets are sets of integer tuples, and Hall
neighbourhoods are recounted by direct translation. The workloads convert
the program's outputs to plain data before handing them over.
"""

from __future__ import annotations

import ast
import itertools
import sys
from fractions import Fraction

LETTERS = (1, -1, 2, -2)

# The 8 signed letter permutations of F2 (as images of the letters 1 and 2)
# and, with the same indexing, the 8 signed axis permutations of Z^2.
SIGMAS = tuple(
    (s1 * p[0], s2 * p[1]) for p in ((1, 2), (2, 1)) for s1 in (1, -1) for s2 in (1, -1)
)


# ---------------------------------------------------------------------------
# free group F2: reduced words of signed letters


def word_mul(w: tuple, v: tuple) -> tuple:
    """Product of two reduced words, cancelling only at the junction."""
    i = 0
    n = min(len(w), len(v))
    while i < n and w[len(w) - 1 - i] == -v[i]:
        i += 1
    return w[: len(w) - i] + v[i:]


def word_inv(w: tuple) -> tuple:
    return tuple(-x for x in reversed(w))


def words_upto(r: int) -> set:
    """All reduced words of length at most r."""
    out = {()}
    frontier = [()]
    for _ in range(r):
        frontier = [w + (x,) for w in frontier for x in LETTERS if not (w and w[-1] == -x)]
        out.update(frontier)
    return out


def sigma_letter(sigma: tuple, x: int) -> int:
    img = sigma[abs(x) - 1]
    return img if x > 0 else -img


def sigma_word(sigma: tuple, w: tuple) -> tuple:
    return tuple(sigma_letter(sigma, x) for x in w)


def free2_expansion(sigma: tuple) -> list:
    """E = ball(1) u {sigma(ab)} as reduced words, in a fixed order."""
    return [(), (1,), (-1,), (2,), (-2,), sigma_word(sigma, (1, 2))]


def free2_graph(core: set, E: list) -> tuple[int, int, set]:
    """(right vertices, edges, interior) of the graph core -> core.E.

    With a trivial stabilizer the fiber of y under e is the single point
    y.e^-1, so y is interior when every such point lies in the core."""
    right = set()
    edges = 0
    for m in core:
        imgs = {word_mul(m, e) for e in E}
        edges += len(imgs)
        right |= imgs
    inv = [word_inv(e) for e in E]
    interior = {m for m in core if all(word_mul(m, e) in core for e in inv)}
    return len(right), edges, interior


def check_free2_decomposition(doc: dict, core: set, halo: set, E: list) -> list[str]:
    """Check a written paradoxical decomposition of a window of F2.

    ``doc`` is the ``decomposition`` block of ``cellspaces paradox``. The
    pieces of each family must partition the core, the 2|E| piece images
    must be pairwise disjoint, and they must cover the certified interior."""
    errors = []

    def point(obj) -> tuple:
        return tuple(obj["g"])

    if {point(m) for m in doc["scope"]["core"]} != core:
        errors.append("scope core differs from ball(core radius)")
    if {point(m) for m in doc["scope"]["halo"]} != halo:
        errors.append("scope halo differs from ball(halo radius)")
    if sorted(tuple(k) for k in doc["E"]) != sorted(E):
        errors.append("expansion set differs from the configured E")
    images_total = 0
    union: set = set()
    for label in ("A", "B"):
        pieces = [(tuple(k), [point(m) for m in pts]) for k, pts in doc[label]]
        members = [m for _, pts in pieces for m in pts]
        if len(members) != len(core) or set(members) != core:
            errors.append(f"family {label} does not partition the core")
        for key, pts in pieces:
            img = {word_mul(m, key) for m in pts}
            if len(img) != len(pts):
                errors.append(f"piece {label}:{key} is not mapped injectively")
            images_total += len(img)
            union |= img
    if images_total != len(union):
        errors.append("piece images overlap")
    _, _, interior = free2_graph(core, E)
    if not interior <= union:
        errors.append("piece images do not cover the interior")
    return errors


def funcamact_values(half: set, core: set, g: tuple) -> dict:
    """(1_half |> g)(m) = 1_half(m.g^-1) on the core, nonzero values only."""
    gi = word_inv(g)
    return {m: Fraction(1) for m in core if word_mul(m, gi) in half}


# ---------------------------------------------------------------------------
# the lattice Z^2 under translations


def diamond(r: int) -> set:
    """The L1 ball of radius r in Z^2."""
    return {(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1) if abs(x) + abs(y) <= r}


def box(r: int) -> set:
    return set(itertools.product(range(-r, r + 1), repeat=2))


def shift(F: set, v: tuple) -> set:
    return {(x + v[0], y + v[1]) for x, y in F}


def sigma_vector(sigma: tuple, v: tuple) -> tuple:
    """Signed axis permutation: e_i goes to sign * e_|sigma_i|."""
    out = [0, 0]
    for i, t in enumerate(sigma):
        out[abs(t) - 1] = (1 if t > 0 else -1) * v[i]
    return tuple(out)


def lattice_expansion(sigma: tuple) -> list:
    return [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), sigma_vector(sigma, (2, -1))]


def lattice_ratios(F: set, v: tuple) -> tuple[Fraction, Fraction]:
    """(|F - pre| / |F|, |pre - F| / |F|) with pre = F - v, the preimage of F
    under m -> m + v."""
    pre = shift(F, (-v[0], -v[1]))
    return Fraction(len(F - pre), len(F)), Fraction(len(pre - F), len(F))


def parse_tuple(text: str) -> tuple:
    """A point or coset as the CLI prints it, e.g. ``"(3, -4)"``."""
    return ast.literal_eval(text)


def hall_recount(A: set, E: list) -> int:
    """|N(A)| in the graph m -> m + E."""
    return len({(a[0] + v[0], a[1] + v[1]) for a in A for v in E})


def check_lattice_outputs(docs: dict, codes: dict, radii: list, core_r: int, halo_r: int,
                          E: list, epsilon: Fraction) -> list[str]:
    """Check the four CLI reports of one ``folner-hyperoct2`` op."""
    errors = []
    family = [(f"ball:{r}", diamond(r)) for r in radii]
    halo = box(halo_r)

    if codes["ratios"] != 0:
        errors.append(f"ratios exited {codes['ratios']}")
    rows = docs["ratios"]["result"]["records"]
    expected = {}
    for set_id, F in family:
        for v in E:
            out, inn = lattice_ratios(F, v)
            certified = shift(F, (-v[0], -v[1])) <= halo
            expected[(set_id, v)] = (len(F), out, inn, certified)
    got = {}
    for row in rows:
        v = parse_tuple(row["coset"])[1]
        got[(row["set_id"], v)] = (row["size"], Fraction(row["ratio_out"]),
                                   Fraction(row["ratio_in"]), row["certified"])
    if got != expected or len(rows) != len(expected):
        errors.append("ratios records differ from the diamond oracle")
    if not all(c for *_, c in expected.values()):
        errors.append("oracle expects an uncertified ratio")

    if codes["folner-search"] != 0:
        errors.append(f"folner-search exited {codes['folner-search']}")
    best = None
    for set_id, F in family:
        worst = max(lattice_ratios(F, v)[0] for v in E)
        if worst < epsilon:
            errors.append(f"oracle finds {set_id} Folner, the workload expects exhaustion")
        if best is None or worst < best[1]:
            best = (set_id, worst)
    res = docs["folner-search"]["result"]
    if not (res["exhausted"] and res["found"] is None and res["best"] == best[0]
            and Fraction(res["best_max_ratio"]) == best[1]):
        errors.append("folner-search result differs from the oracle")

    if codes["doubling"] != 2:
        errors.append(f"doubling exited {codes['doubling']}, expected 2")
    verdicts = [(v["set_id"], v["size"], v["image_size"], v["passed"])
                for v in docs["doubling"]["result"]["verdicts"]]
    want = []
    for set_id, F in family:
        image = set().union(*(shift(F, v) for v in E))
        want.append((set_id, len(F), len(image), len(image) >= 2 * len(F)))
    if verdicts != want:
        errors.append("doubling verdicts differ from the oracle")

    if codes["paradox"] != 2:
        errors.append(f"paradox exited {codes['paradox']}, expected 2")
    res = docs["paradox"]["result"]
    violation = res.get("violation") or {}
    A = {parse_tuple(s) for s in violation.get("vertices", [])}
    n_a = hall_recount(A, E)
    if res.get("stage") != "matching" or violation.get("side") != "left":
        errors.append("paradox did not stop at matching with a left Hall witness")
    elif not A or not A <= box(core_r):
        errors.append("Hall witness is empty or leaves the core")
    elif n_a != violation["neighbourhood_size"] or not n_a < 2 * len(A):
        errors.append(f"Hall witness recount |N(A)|={n_a}, |A|={len(A)} disagrees")
    return errors


# ---------------------------------------------------------------------------
# known values, checked before anything is timed


def self_check() -> list[str]:
    """Check the oracles against values known in closed form."""
    errors = []
    core, halo = words_upto(6), words_upto(8)
    if (len(core), len(halo)) != (1457, 13121):
        errors.append("free-group ball sizes are not 1457 and 13121")
    for sigma in SIGMAS:
        right, edges, interior = free2_graph(core, free2_expansion(sigma))
        if (right, edges, len(interior)) != (5102, 8742, 242):
            errors.append(f"free2 graph for sigma={sigma} is {right}/{edges}/{len(interior)}")
    for r in range(1, 25):
        F = diamond(r)
        if len(F) != 2 * r * r + 2 * r + 1:
            errors.append(f"diamond({r}) has {len(F)} points")
        for v in ((1, 0), (0, -1)):
            if lattice_ratios(F, v)[0] != Fraction(2 * r + 1, 2 * r * r + 2 * r + 1):
                errors.append(f"unit-translate ratio of diamond({r}) is wrong")
    if tarski_values(words_upto(5)) != (Fraction(1), Fraction(2)):
        errors.append("Tarski values of the canonical F2 decomposition are not (1, 2)")
    return errors


def tarski_values(core: set) -> tuple[Fraction, Fraction]:
    """(sum of uniform image measures, sum of piece measures) for the
    closed-form decomposition A = (X1, M - X1) over (e, a^-1) and
    B = (words ending in b, the rest) over (e, b^-1), on a finite core."""

    def in_x1(w):
        return not w or w[-1] == 1 or all(x == -1 for x in w)

    def ends_b(w):
        return bool(w) and w[-1] == 2

    pieces = [
        ((), {w for w in core if in_x1(w)}),
        ((-1,), {w for w in core if not in_x1(w)}),
        ((), {w for w in core if ends_b(w)}),
        ((-2,), {w for w in core if not ends_b(w)}),
    ]
    n = len(core)
    lhs = sum(Fraction(len({word_mul(m, g) for m in P} & core), n) for g, P in pieces)
    rhs = sum(Fraction(len(P), n) for _, P in pieces)
    return lhs, rhs


if __name__ == "__main__":
    problems = self_check()
    for problem in problems:
        print(problem)
    sys.exit(1 if problems else 0)
