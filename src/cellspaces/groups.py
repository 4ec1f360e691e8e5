"""Group element algebra over the concrete backends used by the package.

Backends: finite permutation groups, signed permutations (hyperoctahedral),
free abelian groups Z^d, free groups F_k with reduced words, and semidirect
products G0 x| H given by an explicit twisting table on H-generators.

All payloads are nested tuples of ints, so elements are hashable and totally
ordered, which keeps every enumeration in the package deterministic.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .errors import BackendMismatchError, ConstructionError

Payload = tuple


class GroupElement:
    """An element of a concrete group, tagged with its owning group."""

    __slots__ = ("group", "payload")

    def __init__(self, group: "Group", payload: Payload):
        self.group = group
        self.payload = payload

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return self.group.mul(self, other)

    def inverse(self) -> "GroupElement":
        return self.group.inverse(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group.signature == other.group.signature and self.payload == other.payload

    def __hash__(self) -> int:
        return hash((self.group.signature, self.payload))

    def __lt__(self, other: "GroupElement") -> bool:
        return self.payload < other.payload

    def __repr__(self) -> str:
        return f"<{self.group.backend} {self.group.describe_element(self.payload)}>"


class Group:
    """Base class: payload-level operations are supplied by subclasses."""

    backend: str = "?"

    # -- payload-level ops ------------------------------------------------
    def _identity(self) -> Payload:
        raise NotImplementedError

    def _mul(self, a: Payload, b: Payload) -> Payload:
        raise NotImplementedError

    def _inv(self, a: Payload) -> Payload:
        raise NotImplementedError

    # -- element-level API -------------------------------------------------
    @property
    def signature(self) -> tuple:
        raise NotImplementedError

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

    def _check(self, g: GroupElement) -> None:
        if g.group.signature != self.signature:
            raise BackendMismatchError(
                f"element of {g.group.backend}{g.group.signature} used in "
                f"{self.backend}{self.signature}"
            )

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        self._check(a)
        self._check(b)
        return GroupElement(self, self._mul(a.payload, b.payload))

    def inverse(self, a: GroupElement) -> GroupElement:
        self._check(a)
        return GroupElement(self, self._inv(a.payload))

    def ball(self, r: int) -> list[GroupElement]:
        """Products of at most ``r`` symmetrized generators.

        Breadth-first with lexicographic tie-breaking, so the enumeration
        order is reproducible.
        """
        if r < 0:
            raise ValueError("radius must be non-negative")
        gens = list(self._generator_payloads())
        gens += [self._inv(p) for p in gens if self._inv(p) not in gens]
        out = [self._identity()]
        seen = {self._identity()}
        frontier = list(out)
        for _ in range(r):
            nxt: set[Payload] = set()
            for p in frontier:
                for s in gens:
                    q = self._mul(p, s)
                    if q not in seen:
                        nxt.add(q)
            frontier = sorted(nxt)
            seen.update(nxt)
            out.extend(frontier)
        return [GroupElement(self, p) for p in out]

    @property
    def is_finite(self) -> bool:
        return False

    def elements(self) -> list[GroupElement]:
        raise NotImplementedError(f"{self.backend} group is not finite")

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

    @property
    def signature(self) -> tuple:
        return ("perm", self.n)

    def _generator_payloads(self) -> list[Payload]:
        return list(self._gens)

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
        closure = {self._identity()}
        frontier = [self._identity()]
        while frontier:
            nxt = []
            for p in frontier:
                for s in self._gens:
                    q = self._mul(p, s)
                    if q not in closure:
                        closure.add(q)
                        nxt.append(q)
            frontier = nxt
        return [GroupElement(self, p) for p in sorted(closure)]


class SignedPermutationGroup(Group):
    """Hyperoctahedral group: signed permutations of d coordinates.

    Payload entry i is ``±(j+1)`` meaning basis vector e_i maps to ``±e_j``.
    """

    backend = "signedperm"

    def __init__(self, d: int):
        if d < 1:
            raise ConstructionError("signed permutations need at least one coordinate")
        self.d = d

    @property
    def signature(self) -> tuple:
        return ("signedperm", self.d)

    def _identity(self) -> Payload:
        return tuple(range(1, self.d + 1))

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

    @property
    def signature(self) -> tuple:
        return ("zd", self.d)

    def _identity(self) -> Payload:
        return (0,) * self.d

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
        return tuple(x + y for x, y in zip(a, b))

    def _inv(self, a: Payload) -> Payload:
        return tuple(-x for x in a)


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

    @property
    def signature(self) -> tuple:
        return ("free", self.k)

    def word(self, letters: Iterable[int]) -> GroupElement:
        w = reduce_word(letters)
        for x in w:
            if x == 0 or abs(x) > self.k:
                raise ConstructionError(f"letter {x} out of range for F_{self.k}")
        return GroupElement(self, w)

    def _identity(self) -> Payload:
        return ()

    def _generator_payloads(self) -> list[Payload]:
        out = []
        for i in range(1, self.k + 1):
            out.append((i,))
            out.append((-i,))
        return out

    def _mul(self, a: Payload, b: Payload) -> Payload:
        return reduce_word(itertools.chain(a, b))

    def _inv(self, a: Payload) -> Payload:
        return tuple(-x for x in reversed(a))

    def describe_element(self, payload: Payload) -> str:
        if not payload:
            return "e"
        names = "abcdefgh"
        return "".join(names[abs(x) - 1] + ("'" if x < 0 else "") for x in payload)


class SemidirectProduct(Group):
    """G0 x| H with product ``(g0,h)(g0',h') = (g0 g0', h * tau(g0)(h'))``.

    ``tau`` is a finite table mapping ``(g0 payload, H-generator index)`` to
    an H payload, extended multiplicatively over generator words. G0 must be
    finite; the homomorphism property is spot-checked at construction.
    """

    backend = "semidirect"

    def __init__(self, g0_group: Group, h_group: Group, tau: dict):
        if not g0_group.is_finite:
            raise ConstructionError("semidirect factor G0 must be finite")
        self.G0 = g0_group
        self.H = h_group
        self.tau = dict(tau)
        self._hgens = h_group.positive_generators()
        self._validate()

    @property
    def signature(self) -> tuple:
        return ("semidirect", self.G0.signature, self.H.signature)

    def tau_apply(self, g0_payload: Payload, h: GroupElement) -> GroupElement:
        """tau(g0) applied to an arbitrary H element."""
        H = self.H
        if isinstance(H, FreeAbelianGroup):
            acc = H._identity()
            for i in range(H.d):
                c = h.payload[i]
                if c:
                    img = self.tau[(g0_payload, i)]
                    acc = tuple(a + c * b for a, b in zip(acc, img))
            return H.element(acc)
        if isinstance(H, FreeGroup):
            acc = H.identity()
            for x in h.payload:
                img = H.element(self.tau[(g0_payload, abs(x) - 1)])
                acc = acc * (img if x > 0 else img.inverse())
            return acc
        raise ConstructionError(f"tau extension not supported for H backend {H.backend}")

    def _validate(self) -> None:
        e0 = self.G0._identity()
        for i, gen in enumerate(self._hgens):
            if (e0, i) not in self.tau:
                raise ConstructionError(f"tau missing entry for identity, generator {i}")
            if self.tau[(e0, i)] != gen.payload:
                raise ConstructionError(
                    f"tau(e) must fix H-generator {i}, got {self.tau[(e0, i)]}"
                )
        els = self.G0.elements()
        for g in els:
            for i in range(len(self._hgens)):
                if (g.payload, i) not in self.tau:
                    raise ConstructionError(
                        f"tau table not total: missing ({g.payload}, {i})"
                    )
        # spot-check tau(g g') = tau(g) o tau(g') on generators
        sample = els if len(els) <= 12 else els[:6] + els[-6:]
        for g in sample:
            for gp in sample:
                prod = self.G0._mul(g.payload, gp.payload)
                for i, gen in enumerate(self._hgens):
                    lhs = self.tau[(prod, i)]
                    rhs = self.tau_apply(g.payload, self.H.element(self.tau[(gp.payload, i)]))
                    if lhs != rhs.payload:
                        raise ConstructionError(
                            "tau is not a homomorphism: witness "
                            f"g0={g.payload}, g0'={gp.payload}, generator {i}"
                        )

    def pair(self, g0: GroupElement, h: GroupElement) -> GroupElement:
        return GroupElement(self, (g0.payload, h.payload))

    def parts(self, g: GroupElement) -> tuple[GroupElement, GroupElement]:
        return self.G0.element(g.payload[0]), self.H.element(g.payload[1])

    def _identity(self) -> Payload:
        return (self.G0._identity(), self.H._identity())

    def _generator_payloads(self) -> list[Payload]:
        e0 = self.G0._identity()
        eh = self.H._identity()
        out = [(p, eh) for p in self.G0._generator_payloads()]
        out += [(e0, p) for p in self.H._generator_payloads()]
        return out

    def _mul(self, a: Payload, b: Payload) -> Payload:
        g0a, ha = a
        g0b, hb = b
        twisted = self.tau_apply(g0a, self.H.element(hb))
        return (self.G0._mul(g0a, g0b), self.H._mul(ha, twisted.payload))

    def _inv(self, a: Payload) -> Payload:
        g0, h = a
        g0i = self.G0._inv(g0)
        hi = self.tau_apply(g0i, self.H.element(self.H._inv(h)))
        return (g0i, hi.payload)

    @property
    def is_finite(self) -> bool:
        return self.G0.is_finite and self.H.is_finite

    def elements(self) -> list[GroupElement]:
        out = [
            (g.payload, h.payload)
            for g in self.G0.elements()
            for h in self.H.elements()
        ]
        return [GroupElement(self, p) for p in sorted(out)]

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
