"""JSON codec for points, group elements and coset keys.

Group payloads are nested tuples of ints, which JSON writes as nested lists;
decoding turns every nested list back into a tuple. Free-group words are
decoded through ``FreeGroup.word``, so they come back reduced and with every
letter range-checked; any other payload must name an element of its group.
A point of a cell space is written as ``{"g": payload}``
when it is a group element, as ``{"t": [...]}`` when it is a tuple, and as
itself otherwise; configs may also give a group-element point as its bare
payload list. Reports name points and keys by ``key_text``.
"""

from __future__ import annotations

from .errors import ConstructionError
from .groups import FreeGroup, Group, GroupElement
from .spaces import CellSpace, point_key


def to_tuple(data):
    """Nested JSON lists as nested tuples.

    Iterative, because a JSON document may nest deeper than the stack."""
    if not isinstance(data, list):
        return data
    stack = [(data, [])]  # (list being converted, its items converted so far)
    while True:
        items, done = stack[-1]
        if len(done) < len(items):
            x = items[len(done)]
            if isinstance(x, list):
                stack.append((x, []))
            else:
                done.append(x)
            continue
        stack.pop()
        if not stack:
            return tuple(done)
        stack[-1][1].append(tuple(done))


def element(group: Group, data) -> GroupElement:
    """The element of ``group`` whose payload JSON wrote as ``data``."""
    if isinstance(group, FreeGroup):
        return group.word(data)
    payload = to_tuple(data)
    if not group.is_payload(payload):
        # a semidirect signature ends in its twist, too long for one line
        raise ConstructionError(f"{data!r} is not an element of {group.signature[:3]}")
    return group.element(payload)


def encode_point(m):
    """``m`` as a report writes it; a payload or tuple point is passed as it
    is, not copied, since JSON writes a tuple as a list."""
    if isinstance(m, GroupElement):
        return {"g": m.payload}
    if isinstance(m, tuple):
        return {"t": m}
    return m


def decode_point(space: CellSpace, data):
    """The point of ``space`` that ``encode_point`` wrote as ``data``, also
    reading a bare payload list, or a payload tuple as ``encode_point`` gives
    it before JSON; anything else is a ``ConstructionError``."""
    if space.point_group is not None:
        if isinstance(data, dict) and "g" in data:
            data = data["g"]
        if not isinstance(data, (list, tuple)):
            raise ConstructionError(f"{data!r} is not a point of {space.name}")
        return element(space.point_group, data)
    if isinstance(data, dict) and "t" in data:
        data = to_tuple(data["t"])
    # a space without group-element points is finite; return its own object
    points = {m: m for m in space.points()}
    try:
        return points[data]
    except (KeyError, TypeError):
        raise ConstructionError(f"{data!r} is not a point of {space.name}") from None


def key_text(x) -> str:
    """How reports name a point or a coset key."""
    return str(point_key(x))
