"""JSON codec for points, group elements and coset keys.

Group payloads are nested tuples of ints, which JSON writes as nested lists;
decoding turns every nested list back into a tuple. Free-group words are
decoded through ``FreeGroup.word``, so they come back reduced and with every
letter range-checked. A point of a cell space is written as ``{"g": payload}``
when it is a group element, as ``{"t": [...]}`` when it is a tuple, and as
itself otherwise; configs may also give a group-element point as its bare
payload list. Reports name points and keys by ``key_text``.
"""

from __future__ import annotations

from .errors import ConstructionError
from .groups import FreeGroup, Group, GroupElement
from .spaces import CellSpace, point_key


def to_tuple(data):
    """Nested JSON lists as nested tuples."""
    if isinstance(data, list):
        return tuple(to_tuple(x) for x in data)
    return data


def encode_payload(payload) -> list:
    return list(payload)


def element(group: Group, data) -> GroupElement:
    """The element of ``group`` whose payload JSON wrote as ``data``."""
    if isinstance(group, FreeGroup):
        return group.word(data)
    return group.element(to_tuple(data))


def coset_key(space: CellSpace, data) -> tuple:
    """Canonical key of the coset whose representative JSON wrote as ``data``."""
    return space.coset(element(space.group, data)).key


def encode_point(m):
    if isinstance(m, GroupElement):
        return {"g": encode_payload(m.payload)}
    if isinstance(m, tuple):
        return {"t": list(m)}
    return m


def decode_point(space: CellSpace, data):
    """Inverse of ``encode_point``, also reading a bare payload list."""
    if isinstance(data, dict) and "t" in data:
        return to_tuple(data["t"])
    if isinstance(data, dict) and "g" in data:
        data = data["g"]
    elif not isinstance(data, list):
        return data
    # the points are group elements exactly when the origin is one
    if not isinstance(space.m0, GroupElement):
        raise ConstructionError(f"points of {space.name} are not group elements")
    return element(space.m0.group, data)


def key_text(x) -> str:
    """How reports name a point or a coset key."""
    return str(point_key(x))
