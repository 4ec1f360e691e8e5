"""Group element algebra over the concrete backends used by the package.

Backends: finite permutation groups, signed permutations (hyperoctahedral),
free abelian groups Z^d, free groups F_k with reduced words, and semidirect
products G0 x| H given by an explicit twisting table on H-generators.

All payloads are nested tuples of ints, so elements are hashable and totally
ordered, which keeps every enumeration in the package deterministic.
"""

from __future__ import annotations

import itertools
import operator
from itertools import repeat
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

from .errors import BackendMismatchError, ConstructionError

Payload = tuple


class GroupElement:
    """An element of a concrete group, tagged with its owning group."""

    __slots__ = ("group", "payload")

    def __init__(self, group: "Group", payload: Payload):
        self.group = group
        self.payload = payload

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        group, theirs = self.group, other.group
        if theirs is not group and theirs.signature != group.signature:
            raise BackendMismatchError(
                f"element of {theirs.backend}{theirs.signature} used in "
                f"{group.backend}{group.signature}"
            )
        return GroupElement(group, group._mul(self.payload, other.payload))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, self.group._inv(self.payload))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.payload == other.payload and (
            self.group is other.group or self.group.signature == other.group.signature
        )

    def __hash__(self) -> int:
        return self.group._hash_payload(self.payload)

    def __lt__(self, other: "GroupElement") -> bool:
        return self.payload < other.payload

    def __repr__(self) -> str:
        return f"<{self.group.backend} {self.group.describe_element(self.payload)}>"


# the most points one window, family set or graph side may enumerate: the
# free:2 ball of radius 12, the halo of a core radius 10 run. It also bounds
# the semi-actions of the axiom checks. Like HYPEROCT_MAX_RANK, a limit, not
# an option.
MAX_ENUMERATED_POINTS = 1_062_881

# the closed-form sizes are exact up to SIZE_BOUND and read SIZE_BOUND + 1 above it
SIZE_BOUND = 10**18


def _power(base: int, exp: int) -> int:
    """``base ** exp``, read as SIZE_BOUND + 1 above SIZE_BOUND."""
    # 0 and 1 keep their powers, and any larger base passes SIZE_BOUND by 2**60
    return min(base ** min(exp, 60), SIZE_BOUND + 1)


def check_enumerable(size: Optional[int], what: str, unit: str = "points") -> None:
    """Refuse ``what`` when its size, None where it is unknown, exceeds the limit."""
    if size is not None and size > MAX_ENUMERATED_POINTS:
        count = size if size <= SIZE_BOUND else f"more than {SIZE_BOUND}"
        raise ConstructionError(
            f"{what} has {count} {unit}, above MAX_ENUMERATED_POINTS = {MAX_ENUMERATED_POINTS}"
        )


def _ints(p) -> bool:
    """Whether ``p`` is a tuple of ints (a bool is not one)."""
    return isinstance(p, tuple) and all(type(x) is int for x in p)


def bfs_layers(
    start: Hashable, step: Callable[[Hashable], Iterable], radius: Optional[int] = None
) -> list[list]:
    """Breadth-first layers from ``start``: ``[start]``, then the nodes first
    reached after each further step, each layer in discovery order.

    ``step(node)`` gives a node's neighbours. The walk stops after ``radius``
    steps, or, when ``radius`` is None, once a step reaches nothing new. It
    raises ``ConstructionError`` at the first node past MAX_ENUMERATED_POINTS.
    """
    if radius is not None and radius < 0:
        raise ConstructionError("radius must be non-negative")
    seen = {start}
    layers = [[start]]
    for _ in itertools.count() if radius is None else range(radius):
        nxt = []
        for node in layers[-1]:
            for q in step(node):
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
                    if len(seen) > MAX_ENUMERATED_POINTS:
                        raise ConstructionError(
                            f"the walk passed MAX_ENUMERATED_POINTS = {MAX_ENUMERATED_POINTS}"
                        )
        if not nxt:
            break
        layers.append(nxt)
    return layers


class Group:
    """Base class: payload-level operations are supplied by subclasses.

    Each backend sets ``signature`` in its constructor: groups with equal
    signatures share their elements.
    """

    backend: str = "?"
    signature: tuple

    # -- payload-level ops ------------------------------------------------
    def _identity(self) -> Payload:
        raise NotImplementedError

    def _mul(self, a: Payload, b: Payload) -> Payload:
        raise NotImplementedError

    def _inv(self, a: Payload) -> Payload:
        raise NotImplementedError

    def _mul_all(self, payloads: Iterable[Payload], b: Payload) -> Iterator[Payload]:
        """``_mul(a, b)`` for each a of ``payloads``, in the order they
        iterate. An iterator, so that a caller that only looks each product
        up frees it before the next: a list would keep thousands of tuples
        alive at once and set off the cyclic garbage collector."""
        return map(self._mul, payloads, repeat(b))

    def is_payload(self, p) -> bool:
        """Whether ``p`` is the payload of an element of this group."""
        raise NotImplementedError

    def _hash_payload(self, a: Payload) -> int:
        """Element hash; it may read the payload only, so that equal elements
        of separately built groups hash alike."""
        return hash(a)

    def _symmetric_payloads(self) -> list[Payload]:
        """The declared generators, then the inverses not among them."""
        gens = self._generator_payloads()
        return gens + [self._inv(p) for p in gens if self._inv(p) not in gens]

    # -- element-level API -------------------------------------------------
    @property
    def generators(self) -> list[GroupElement]:
        """Declared generating set, in configured order."""
        return [GroupElement(self, p) for p in self._generator_payloads()]

    def _generator_payloads(self) -> list[Payload]:
        raise NotImplementedError

    def positive_generators(self) -> list[GroupElement]:
        """Half of a symmetric generating set (one per inverse pair)."""
        gens = self._generator_payloads()
        seen: list[Payload] = []
        for p in gens:
            if self._inv(p) not in seen:
                seen.append(p)
        return [GroupElement(self, p) for p in seen]

    def element(self, payload: Payload) -> GroupElement:
        return GroupElement(self, payload)

    def identity(self) -> GroupElement:
        return GroupElement(self, self._identity())

    def ball(self, r: int) -> list[GroupElement]:
        """Products of at most ``r`` symmetrized generators.

        Breadth-first with lexicographic tie-breaking, so the enumeration
        order is reproducible.
        """
        return self.balls([r])[0]

    def balls(self, radii: Sequence[int]) -> list[list[GroupElement]]:
        """``ball(r)`` for each r of ``radii``, cut from one walk to the largest:
        its first r + 1 sorted layers, or the whole of a finite group past its
        diameter. Above MAX_ENUMERATED_POINTS it is refused from ``ball_size``
        before the walk, or, where that is None, by the walk's own count."""
        if not radii:
            return []
        if min(radii) < 0:
            raise ConstructionError("radius must be non-negative")
        top = max(radii)
        check_enumerable(self.ball_size(top), f"the ball of radius {top}")
        points, ends = [], []
        for layer in self._ball_layers(top):
            points += [GroupElement(self, p) for p in sorted(layer)]
            ends.append(len(points))
        return [points[: ends[min(r, len(ends) - 1)]] for r in radii]

    def ball_size(self, r: int) -> Optional[int]:
        """The number of elements of ``ball(r)``, or None without a closed form."""
        return None

    def _ball_layers(self, r: int) -> list[list[Payload]]:
        """The payloads at each distance 0..r from the identity, each layer
        in any order: the walk of ``balls``, by products with every
        symmetrized generator. ``balls`` refuses a negative radius first."""
        gens = self._symmetric_payloads()
        return bfs_layers(self._identity(), lambda p: map(self._mul, repeat(p), gens), r)

    @property
    def is_finite(self) -> bool:
        return False

    def elements(self) -> list[GroupElement]:
        raise ConstructionError(f"{self.backend} group is not finite")

    def describe_element(self, payload: Payload) -> str:
        return repr(payload)


class PermutationGroup(Group):
    """Subgroup of Sym({0..n-1}) given by generator permutations.

    Payloads are image tuples; ``(p*q)(i) = p[q[i]]`` (apply q first).
    """

    backend = "perm"

    def __init__(self, n: int, generators: Sequence[Sequence[int]]):
        self.n = n
        gens = [tuple(g) for g in generators]
        for g in gens:
            if sorted(g) != list(range(n)):
                raise ConstructionError(f"not a bijection on 0..{n - 1}: {g}")
        self._gens = gens
        self.signature = ("perm", n)

    def _generator_payloads(self) -> list[Payload]:
        return list(self._gens)

    def is_payload(self, p) -> bool:
        return _ints(p) and p in {g.payload for g in self.elements()}

    def _identity(self) -> Payload:
        return tuple(range(self.n))

    def _mul(self, a: Payload, b: Payload) -> Payload:
        return tuple(a[b[i]] for i in range(self.n))

    def _inv(self, a: Payload) -> Payload:
        out = [0] * self.n
        for i, j in enumerate(a):
            out[j] = i
        return tuple(out)

    @property
    def is_finite(self) -> bool:
        return True

    def elements(self) -> list[GroupElement]:
        layers = bfs_layers(self._identity(), lambda p: map(self._mul, repeat(p), self._gens))
        return [GroupElement(self, p) for p in sorted(itertools.chain.from_iterable(layers))]


class SignedPermutationGroup(Group):
    """Hyperoctahedral group: signed permutations of d coordinates.

    Payload entry i is ``±(j+1)`` meaning basis vector e_i maps to ``±e_j``.
    """

    backend = "signedperm"

    def __init__(self, d: int):
        if d < 1:
            raise ConstructionError("signed permutations need at least one coordinate")
        self.d = d
        self.signature = ("signedperm", d)

    def _identity(self) -> Payload:
        return tuple(range(1, self.d + 1))

    def is_payload(self, p) -> bool:
        return _ints(p) and sorted(map(abs, p)) == list(self._identity())

    def _generator_payloads(self) -> list[Payload]:
        gens = [tuple(-v if i == 0 else v for i, v in enumerate(self._identity()))]
        for i in range(self.d - 1):
            p = list(self._identity())
            p[i], p[i + 1] = p[i + 1], p[i]
            gens.append(tuple(p))
        return gens

    def _mul(self, a: Payload, b: Payload) -> Payload:
        # e_i --b--> sgn(b_i) e_{|b_i|-1} --a--> sgn(b_i) sgn(a_..) e_..
        out = []
        for i in range(self.d):
            t = b[i]
            s = 1 if t > 0 else -1
            out.append(s * a[abs(t) - 1])
        return tuple(out)

    def _inv(self, a: Payload) -> Payload:
        # a sends e_i to s e_j, so its image of (1, ..., d) has s (i+1) at j
        return self.apply_to_vector(GroupElement(self, a), self._identity())

    @property
    def is_finite(self) -> bool:
        return True

    def elements(self) -> list[GroupElement]:
        out = []
        for perm in itertools.permutations(range(1, self.d + 1)):
            for signs in itertools.product((1, -1), repeat=self.d):
                out.append(tuple(s * v for s, v in zip(signs, perm)))
        return [GroupElement(self, p) for p in sorted(out)]

    def apply_to_vector(self, g: GroupElement, v: Sequence[int]) -> tuple[int, ...]:
        out = [0] * self.d
        for i in range(self.d):
            t = g.payload[i]
            j = abs(t) - 1
            s = 1 if t > 0 else -1
            out[j] = s * v[i]
        return tuple(out)


class FreeAbelianGroup(Group):
    """Z^d with componentwise addition; payloads are int tuples."""

    backend = "zd"

    def __init__(self, d: int):
        if d < 1:
            raise ConstructionError("Z^d needs at least one dimension")
        self.d = d
        self.signature = ("zd", d)

    def _identity(self) -> Payload:
        return (0,) * self.d

    def is_payload(self, p) -> bool:
        return _ints(p) and len(p) == self.d

    def _generator_payloads(self) -> list[Payload]:
        gens = []
        for i in range(self.d):
            v = [0] * self.d
            v[i] = 1
            gens.append(tuple(v))
            v[i] = -1
            gens.append(tuple(v))
        return gens

    def _mul(self, a: Payload, b: Payload) -> Payload:
        return tuple(map(operator.add, a, b))

    def _inv(self, a: Payload) -> Payload:
        return tuple(map(operator.neg, a))

    def _mul_all(self, payloads: Iterable[Payload], b: Payload) -> Iterator[Payload]:
        # one coordinate column at a time: read column i off the payloads,
        # add t_i to it and zip the columns back, with no Python-level call
        # per point. Reading the payloads once per column, not transposing
        # them with zip(*payloads), keeps no iterator per payload alive; a
        # one-shot iterator is read into a list first
        if iter(payloads) is payloads:
            payloads = list(payloads)
        columns = [map(operator.itemgetter(i), payloads) for i in range(self.d)]
        return zip(*[map(t.__add__, col) for t, col in zip(b, columns)])

    def _ball_layers(self, r: int) -> list[list[Payload]]:
        # the L1 spheres: a generator moves a point one step in or out, so the
        # next sphere is the translates of the current one less the current
        # and previous spheres, and the walk keeps no set of the points seen.
        # Each layer comes out in hash order, which the sort in balls fixes;
        # the limit is left to ball_size
        gens = self._generator_payloads()
        before, sphere = set(), {self._identity()}
        layers = [list(sphere)]
        for _ in range(r):
            grown = set().union(*(self._mul_all(sphere, g) for g in gens))
            before, sphere = sphere, grown - sphere - before
            layers.append(list(sphere))
        return layers

    def ball_size(self, r: int) -> int:
        # the L1 ball; the term of i counts the points with i non-zero
        # coordinates, 2^i C(d, i) C(r, i)
        size = term = 1
        for i in range(min(self.d, r)):
            term = term * 2 * (self.d - i) * (r - i) // (i + 1) ** 2
            size += term
            if size > SIZE_BOUND:
                return SIZE_BOUND + 1
        return size

    def box_size(self, lo: int, hi: int) -> int:
        """The number of points whose every coordinate lies in ``range(lo, hi)``."""
        return _power(max(hi - lo, 0), self.d)

    def boxes(self, bounds: Sequence[tuple[int, int]]) -> list[list[GroupElement]]:
        """The points of the box ``range(lo, hi)^d``, in lexicographic order,
        for each (lo, hi) of ``bounds``, refused from the largest box before
        any box is enumerated."""
        lo, hi = max(bounds, key=lambda b: self.box_size(*b), default=(0, 0))
        check_enumerable(self.box_size(lo, hi), f"the box of size {hi - lo}")
        grids = (itertools.product(range(lo, hi), repeat=self.d) for lo, hi in bounds)
        return [[GroupElement(self, v) for v in grid] for grid in grids]


def reduce_word(letters: Iterable[int]) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs; the result is fully reduced."""
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


class FreeGroup(Group):
    """F_k; payloads are reduced words of signed letters 1..k / -1..-k."""

    backend = "free"

    def __init__(self, k: int):
        if k < 1:
            raise ConstructionError("free group needs at least one generator")
        self.k = k
        self.signature = ("free", k)

    def word(self, letters: Sequence[int]) -> GroupElement:
        """The reduced word of a list or tuple of signed letters ±1..±k."""
        if not isinstance(letters, (list, tuple)):
            raise ConstructionError(f"a word must be a list of letters, got {letters!r}")
        for x in letters:
            if isinstance(x, bool) or not isinstance(x, int):
                raise ConstructionError(f"letter {x!r} is not an integer")
            if x == 0 or abs(x) > self.k:
                raise ConstructionError(f"letter {x} out of range for F_{self.k}")
        return GroupElement(self, reduce_word(letters))

    def _identity(self) -> Payload:
        return ()

    def is_payload(self, p) -> bool:
        return _ints(p) and all(0 < abs(x) <= self.k for x in p) and reduce_word(p) == p

    def _generator_payloads(self) -> list[Payload]:
        out = []
        for i in range(1, self.k + 1):
            out.append((i,))
            out.append((-i,))
        return out

    def _mul(self, a: Payload, b: Payload) -> Payload:
        # a and b are reduced, so letters cancel only where they meet
        n = 0
        top = min(len(a), len(b))
        while n < top and a[-1 - n] == -b[n]:
            n += 1
        return a[: len(a) - n] + b[n:]

    def _inv(self, a: Payload) -> Payload:
        return tuple(map(operator.neg, reversed(a)))

    def _ball_layers(self, r: int) -> list[list[Payload]]:
        # the words one step out are the one-letter extensions that do not
        # cancel the last letter; each is reached once, so unlike
        # bfs_layers the walk keeps no set of the words it has seen, and
        # leaves the limit to ball_size. With the letters sorted, each layer
        # comes out sorted, which the sort in balls then only confirms
        letters = sorted(self._generator_payloads())
        grow = {x: [t for t in letters if t != (-x,)] for (x,) in letters}
        layers = [[()], letters][: r + 1]
        for _ in range(r - 1):
            layers.append([p + t for p in layers[-1] for t in grow[p[-1]]])
        return layers

    def ball_size(self, r: int) -> int:
        if self.k == 1:
            return min(2 * r + 1, SIZE_BOUND + 1)
        grown = _power(2 * self.k - 1, r)
        return min(1 + 2 * self.k * (grown - 1) // (2 * self.k - 2), SIZE_BOUND + 1)

    def _hash_payload(self, a: Payload) -> int:
        # CPython hashes -1 like -2; moving each negative letter x to x - 1
        # is injective and avoids -1, so distinct words rarely collide
        return hash(tuple([x - 1 if x < 0 else x for x in a]))

    def describe_element(self, payload: Payload) -> str:
        if not payload:
            return "e"
        names = "abcdefgh"
        return "".join(names[abs(x) - 1] + ("'" if x < 0 else "") for x in payload)


class SemidirectProduct(Group):
    """G0 x| H with product ``(g0,h)(g0',h') = (g0 g0', h * tau(g0)(h'))``.

    ``tau`` is a finite table mapping ``(g0 payload, H-generator index)`` to
    an H payload, extended multiplicatively over generator words. G0 must be
    finite; the homomorphism property is spot-checked at construction. The
    signature names the twist by the images of G0's generators, which fix it.
    """

    backend = "semidirect"

    def __init__(self, g0_group: Group, h_group: Group, tau: dict):
        if not g0_group.is_finite:
            raise ConstructionError("semidirect factor G0 must be finite")
        if h_group.is_finite:
            raise ConstructionError("semidirect factor H must be infinite (Z^d or F_k)")
        self.G0 = g0_group
        self.H = h_group
        self.tau = dict(tau)
        self._e0 = g0_group._identity()
        self._validate()
        n, gens = len(h_group.positive_generators()), g0_group._generator_payloads()
        twist = tuple((g, tuple(self.tau[(g, i)] for i in range(n))) for g in gens)
        self.signature = ("semidirect", g0_group.signature, h_group.signature, twist)

    def tau_apply(self, g0_payload: Payload, h: Payload) -> Payload:
        """tau(g0) applied to the H element with payload ``h``, as a payload."""
        if g0_payload == self._e0:
            # tau(e) fixes every generator (checked in _validate), so it is the identity
            return h
        H = self.H
        acc = H._identity()
        if isinstance(H, FreeAbelianGroup):
            for i, c in enumerate(h):
                if c:
                    img = self.tau[(g0_payload, i)]
                    acc = tuple(a + c * b for a, b in zip(acc, img))
            return acc
        if isinstance(H, FreeGroup):
            for x in h:
                img = self.tau[(g0_payload, abs(x) - 1)]
                acc = H._mul(acc, img if x > 0 else H._inv(img))
            return acc
        raise ConstructionError(f"tau extension not supported for H backend {H.backend}")

    def _validate(self) -> None:
        e0 = self.G0._identity()
        hgens = [g.payload for g in self.H.positive_generators()]
        for i, gen in enumerate(hgens):
            if (e0, i) not in self.tau:
                raise ConstructionError(f"tau missing entry for identity, generator {i}")
            if self.tau[(e0, i)] != gen:
                raise ConstructionError(
                    f"tau(e) must fix H-generator {i}, got {self.tau[(e0, i)]}"
                )
        els = [g.payload for g in self.G0.elements()]
        for g in els:
            for i in range(len(hgens)):
                if (g, i) not in self.tau:
                    raise ConstructionError(f"tau table not total: missing ({g}, {i})")
        # spot-check tau(g g') = tau(g) o tau(g') on generators
        sample = els if len(els) <= 12 else els[:6] + els[-6:]
        for g in sample:
            for gp in sample:
                prod = self.G0._mul(g, gp)
                for i in range(len(hgens)):
                    if self.tau[(prod, i)] != self.tau_apply(g, self.tau[(gp, i)]):
                        raise ConstructionError(
                            f"tau is not a homomorphism: witness g0={g}, g0'={gp}, generator {i}"
                        )

    def pair(self, g0: GroupElement, h: GroupElement) -> GroupElement:
        return GroupElement(self, (g0.payload, h.payload))

    def _identity(self) -> Payload:
        return (self.G0._identity(), self.H._identity())

    def is_payload(self, p) -> bool:
        if not (isinstance(p, tuple) and len(p) == 2):
            return False
        return self.G0.is_payload(p[0]) and self.H.is_payload(p[1])

    def _generator_payloads(self) -> list[Payload]:
        e0 = self.G0._identity()
        eh = self.H._identity()
        out = [(p, eh) for p in self.G0._generator_payloads()]
        out += [(e0, p) for p in self.H._generator_payloads()]
        return out

    def _mul(self, a: Payload, b: Payload) -> Payload:
        g0a, ha = a
        g0b, hb = b
        return (self.G0._mul(g0a, g0b), self.H._mul(ha, self.tau_apply(g0a, hb)))

    def _inv(self, a: Payload) -> Payload:
        g0, h = a
        g0i = self.G0._inv(g0)
        return (g0i, self.tau_apply(g0i, self.H._inv(h)))

    def describe_element(self, payload: Payload) -> str:
        return f"({self.G0.describe_element(payload[0])}, {self.H.describe_element(payload[1])})"


def hyperoctahedral_tau(g0_group: SignedPermutationGroup, h_group: FreeAbelianGroup) -> dict:
    """Twisting table for the natural action of signed permutations on Z^d."""
    if g0_group.d != h_group.d:
        raise ConstructionError("dimension mismatch between point group and lattice")
    tau = {}
    for g in g0_group.elements():
        for i in range(h_group.d):
            v = [0] * h_group.d
            v[i] = 1
            tau[(g.payload, i)] = g0_group.apply_to_vector(g, v)
    return tau
