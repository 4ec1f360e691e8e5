"""Batch front end.

Reads a JSON experiment config, dispatches to the library, and writes JSON
reports, or CSV ones for ``ratios``. Outputs are byte-deterministic for
identical configs: every report embeds the config digest and the coordinate
rule of the space, all enumerations are sorted, and rationals are serialized
exactly as "p/q".

Exit codes: 0 = pass/complete, 1 = a usage error or a refusal, and 2 exactly
when a property violation's witness is written: to ``<out>.witness.json``, or
to stdout after the report when there is no ``--out``. A refusal is any
``CellSpacesError``: config errors, an unreadable config and a failed write
of ``--out`` or stdout included. It prints one ``error:`` line to stderr and
leaves no report file; what stdout took before it failed stays written. Any
other exception is a defect and shows as a traceback. A window, family set
or graph side above ``groups.MAX_ENUMERATED_POINTS`` is a config error,
refused by the library: by ``group_window``, ``boxes`` and ``balls`` from
closed-form sizes, else by the walk's own count. Only an explicit graph side
is checked here.

Config schema (JSON, one object)::

    {
      "space": {"name": "zd:2"},            # affine:q | hyperoct:d | zd:d | free:k
      "window": {"core_radius": 4, "halo_radius": 5},   # omitted: full finite space;
                                            # doubling reads no window block
      "E": [[1, 0], [-1, 0]],               # coset representative payloads
      "epsilon": "1/10",                    # rationals are "p/q" strings
      "family": {"kind": "boxes", "sizes": [1, 2, 3]},  # or "balls"/"full";
                                            # boxes need zd:d or hyperoct:d,
                                            # balls zd:d, free:k or hyperoct:d
      "k": 2,                               # harem fiber size
      "graph": {"left": 3, "right": 6, "edges": [[0, 1], ...]},  # explicit harem input
      "measure": {"kind": "uniform"},       # or {"kind": "point_mass", "at": ...}
      "decomposition": "path/to/file.json", # verify-decomposition input
      "subgroup": "translations"            # transfer: translations | dilations
    }

Elements are given by payload: vectors for lattices, signed-letter words for
free groups, image tuples for permutation groups.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import codec
from .errors import CellSpacesError, ConfigError
from .folner import ExpansionSet, check_doubling, folner_search, ratios
from .groups import FreeAbelianGroup, check_enumerable
from .matching import HaremMatching, solve_harem
from .measures import FAMeasure, check_semi_invariance
from .paradox import (
    build_graph,
    decomposition_from_json,
    decomposition_from_map,
    decomposition_to_json,
    harem_matching,
    two_to_one_from_matching,
    verify_decomposition,
)
from .spaces import (
    CellSpace, CheckReport, TranslationSpace, Window, check_axiom_cost, verify_axioms
)
from .transfer import (
    affine_dilations,
    affine_translations,
    check_transfer_conditions,
    space_by_name,
    transfer_invariance_check,
)


# CPython's default limit on the digits of an int string, which bounds "p/q"
MAX_EXPONENT = 4300


def _fraction(text) -> Fraction:
    """A config rational. A decimal exponent above MAX_EXPONENT is refused
    before parsing, which would take seconds; so is a rational whose terms
    ``_frac_str`` could not write."""
    exponent = str(text).lower().partition("e")[2].replace("_", "").strip().lstrip("+-0")
    try:
        if exponent.isdecimal() and (len(exponent) > 4 or int(exponent) > MAX_EXPONENT):
            raise ValueError(f"exponent above {MAX_EXPONENT}")
        x = Fraction(str(text))
        _frac_str(x)
        return x
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text!r}: {exc}") from exc


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _block(cfg: dict, key: str) -> Optional[dict]:
    """The config block under ``key``, or None when it is absent."""
    block = cfg.get(key)
    if block is not None and not isinstance(block, dict):
        raise ConfigError(f"{key} block must be a JSON object, got {block!r}")
    return block


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return value


def _natural(value, what: str) -> int:
    """A radius, size or count: a non-negative int (JSON true is refused)."""
    if type(value) is not int or value < 0:
        raise ConfigError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def _window(space: CellSpace, cfg: dict) -> Window:
    wcfg = _block(cfg, "window")
    if wcfg is None:
        if not space.is_finite:
            raise ConfigError("infinite space needs a window block")
        return space.full_window()
    if not isinstance(space, TranslationSpace):
        raise ConfigError(f"{space.name} takes no window block: its window is the whole space")
    core_r = _natural(wcfg.get("core_radius"), "core_radius")
    halo_r = _natural(wcfg.get("halo_radius"), "halo_radius")
    return space.ball_window(core_r, halo_r)


def _expansion(space: CellSpace, cfg: dict) -> ExpansionSet:
    reps = _list(cfg.get("E"), "the E block of coset representatives")
    return ExpansionSet.of([space.coset(codec.element(space.group, d)) for d in reps])


def _family(space: CellSpace, cfg: dict) -> list:
    fcfg = _block(cfg, "family")
    if fcfg is None:
        raise ConfigError("config needs a family block")
    kind = fcfg.get("kind")
    if kind == "full":
        if not space.is_finite:
            raise ConfigError("full family needs a finite space")
        return [("full", list(space.points()))]
    if kind == "boxes":
        lattice = space.point_group
        if not isinstance(lattice, FreeAbelianGroup):
            raise ConfigError("boxes family needs a lattice point group (zd:d or hyperoct:d)")
        sizes = [_natural(n, "a box size") for n in _list(fcfg.get("sizes"), "sizes")]
        boxes = lattice.boxes([(0, n) for n in sizes])
        family = [(f"box:{n}", box) for n, box in zip(sizes, boxes)]
    elif kind == "balls":
        P = space.point_group
        if P is None:
            raise ConfigError("balls family needs a point group (zd:d, free:k or hyperoct:d)")
        radii = [_natural(r, "a ball radius") for r in _list(fcfg.get("radii"), "radii")]
        family = [(f"ball:{r}", ball) for r, ball in zip(radii, P.balls(radii))]
    else:
        raise ConfigError(f"unknown family kind {kind!r}")
    if not family:
        raise ConfigError("the family must be non-empty")
    return family


def _measure(space: CellSpace, universe: Window, cfg: dict) -> FAMeasure:
    mcfg = _block(cfg, "measure") or {}
    kind = mcfg.get("kind", "uniform")
    if kind == "uniform":
        return FAMeasure.uniform(universe)
    if kind == "point_mass":
        if "at" not in mcfg:
            raise ConfigError("point_mass measure needs an at point")
        return FAMeasure.point_mass(universe, codec.decode_point(space, mcfg["at"]))
    if kind == "weights":
        pairs = _list(mcfg.get("weights"), "weights")
        if not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
            raise ConfigError(f"weights must be [point, weight] pairs, got {pairs!r}")
        weights: dict = {}
        for p, w in pairs:
            m = codec.decode_point(space, p)
            if m in weights:
                raise ConfigError(f"weights list the point {codec.key_text(m)} twice")
            weights[m] = _fraction(w)
        return FAMeasure(universe, weights)
    raise ConfigError(f"unknown measure kind {kind!r}")


def _header(cfg_bytes: bytes, space: Optional[CellSpace], seed: Optional[int]) -> dict:
    return {
        "config_digest": hashlib.sha256(cfg_bytes).hexdigest(),
        "space": space.name if space is not None else None,
        "coordinate_rule": space.coordinate_rule if space is not None else "",
        "seed": seed,
    }


def _checks(report: CheckReport) -> list:
    return [{"name": c.name, "ok": c.ok, "witness": c.witness} for c in report.checks]


def _witness(key: str, failures: list) -> Optional[dict]:
    """The witness ``{key: failures}``, or None when nothing failed."""
    return {key: failures} if failures else None


def _verdict(report: CheckReport, payload: dict):
    """The payload, and a witness naming the report's failing checks."""
    return payload, _witness("failures", [c.name for c in report.failures()])


def _vertex_names(graph) -> tuple[list, list]:
    """The left and right vertices of a window graph as the reports name them."""
    return [codec.key_text(m) for m in graph.left], [codec.key_text(m) for m in graph.right]


def _violation(outcome, names_left: Sequence, names_right: Sequence) -> dict:
    """A Hall witness with its vertices named as the report names them."""
    names = names_left if outcome.side == "left" else names_right
    return {
        "side": outcome.side,
        "vertices": [names[v] for v in outcome.vertices],
        "neighbourhood_size": outcome.neighbourhood_size,
    }


# with ``indent``, json.dumps runs the pure-Python encoder, which builds each
# nested level's text and copies it into the level above; ``_json`` writes the
# same bytes as fragments on one list, joined once, and hands every leaf that
# is not a str or an int (bool, None, float, ``default=str`` objects, a dict
# with a non-str key) to this encoder
_ENCODER = json.JSONEncoder(sort_keys=True, indent=2, default=str)
_encode_str = json.encoder.encode_basestring_ascii
_int_str = int.__repr__
_all_ints = frozenset([int]).issuperset
_all_strs = frozenset([str]).issuperset
_SEQUENCES = (list, tuple)


def _dump(value, nl: str, out: list) -> None:
    """Append to ``out`` the fragments of ``value`` as json.dumps writes it
    with ``_ENCODER``'s settings, nested at the indentation that ``nl``, a
    newline and that indentation, gives."""
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is int:
        out.append(_int_str(value))
    elif isinstance(value, _SEQUENCES) and value:
        inner = nl + "  "
        if _all_ints(map(type, value)):
            out.append("[" + inner + ("," + inner).join(map(_int_str, value)) + nl + "]")
            return
        if not _points(value, inner, out):
            sep = "[" + inner
            for v in value:
                out.append(sep)
                _dump(v, inner, out)
                sep = "," + inner
        out.append(nl + "]")
    elif isinstance(value, dict) and value and _all_strs(map(type, value)):
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(value):
            out.append(sep + _encode_str(k) + ": ")
            _dump(value[k], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        # JSON strings escape every newline, so re-indenting at "\n" is safe
        out.append(_ENCODER.encode(value).replace("\n", nl))


def _points(values, nl: str, out: list) -> bool:
    """Append to ``out`` the items of the list ``values`` as ``_dump`` writes
    them at ``nl``, the list's opening bracket or a separator before each,
    when every one is a dict of one str key whose value is a list or tuple
    of ints, as the encoded points ``{"g": (1, -2)}`` and ``{"g": ()}`` are.
    Otherwise append nothing and return False."""
    start = len(out)
    nl2 = nl + "  "
    sep = "," + nl2 + "  "
    texts = {}  # key -> (the text of a point with letters, with "%s" for them; of an empty one)
    for v in values:
        if type(v) is not dict or len(v) != 1:
            break
        (k, w), = v.items()
        if type(w) not in _SEQUENCES or not _all_ints(map(type, w)):
            break
        try:
            full, empty = texts[k]
        except KeyError:
            if type(k) is not str:
                break
            head = "," + nl + "{" + nl2 + _encode_str(k)
            tail = nl2 + "]" + nl + "}"
            full, empty = texts[k] = (
                head.replace("%", "%%") + ": [" + nl2 + "  %s" + tail, head + ": []" + nl + "}"
            )
        out.append(full % sep.join(map(_int_str, w)) if w else empty)
    else:
        out[start] = "[" + out[start][1:]  # the first point opens the list
        return True
    del out[start:]
    return False


def _json(document) -> str:
    """The bytes of ``json.dumps(document, sort_keys=True, indent=2,
    default=str) + "\\n"``: the one writer of every report and witness."""
    out = []
    _dump(document, "\n", out)
    out.append("\n")
    return "".join(out)


def _csv(header: dict, rows: list) -> str:
    buf = io.StringIO()
    for key in ("config_digest", "space", "coordinate_rule"):
        buf.write(f"# {key}={header[key]}\n")
    writer = csv.DictWriter(buf, fieldnames=RATIO_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _load(path: str, what: str) -> tuple[bytes, object]:
    """The bytes and JSON document of the file ``path``, refused as ``cannot read {what}: …``."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return data, json.loads(data)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc


def _write(text: str, path: Optional[str], written: list) -> None:
    """Write and flush ``text`` to the file ``path`` (added to ``written``), or to
    stdout when it is None. A failed write is refused once the regular files in
    ``written`` are removed, so a refused run leaves no report behind."""
    try:
        with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
            if path:
                written.append(path)
            fh.write(text)
            fh.flush()
    except OSError as exc:
        if not path:  # closing drops what is still buffered, which would fail again at exit
            with contextlib.suppress(OSError):
                sys.stdout.close()
        for done in filter(os.path.isfile, written):
            os.remove(done)
        target = path or "standard output"
        raise ConfigError(f"cannot write {target}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# commands; each returns (payload, witness or None), and main exits 2 exactly
# when the witness is not None


def _cmd_describe(space: CellSpace, cfg: dict):
    sample = [space.coset(g) for g in space.group.ball(1)]
    seen: dict = {}
    for c in sample:
        seen.setdefault(codec.key_text(c.key), space.group.describe_element(c.key))
    info = {
        "space": space.name,
        "stabilizer_order": len(space.stabilizer),
        "generators": [
            space.group.describe_element(g.payload) for g in space.group.generators
        ],
        "coordinate_rule": space.coordinate_rule,
        "sample_cosets": [seen[k] for k in sorted(seen)],
    }
    if space.group.is_finite:
        info["group_order"] = len(space.group.elements())
        info["coset_count"] = len(space.cosets())
    return info, None


def _cmd_axioms(space: CellSpace, cfg: dict):
    window = _window(space, cfg)
    sample = space.group.ball(2)
    check_axiom_cost(space, window, len(sample))  # before |sample|·|G0| coset products
    report = verify_axioms(space, window, [space.coset(g) for g in sample])
    return _verdict(report, {"checks": _checks(report), "passed": report.passed})


RATIO_FIELDS = ["space", "set_id", "size", "coset", "ratio_out", "ratio_in", "certified"]


def _cmd_ratios(space: CellSpace, cfg: dict):
    window = _window(space, cfg)
    E = _expansion(space, cfg)
    if not E:
        raise ConfigError("E must be non-empty")
    family = _family(space, cfg)
    recs = [ratios(space, F, e, window, set_id) for set_id, F in family for e in E]
    rows = [
        {
            "space": space.name,
            "set_id": r.set_id,
            "size": r.size,
            "coset": space.group.describe_element(r.coset_key),
            "ratio_out": _frac_str(r.ratio_out),
            "ratio_in": _frac_str(r.ratio_in),
            "certified": r.certified,
        }
        for r in recs
    ]
    return {"records": rows}, None


def _cmd_folner_search(space: CellSpace, cfg: dict):
    window = _window(space, cfg)
    E = _expansion(space, cfg)
    family = _family(space, cfg)
    eps = _fraction(cfg.get("epsilon", "1/10"))
    result = folner_search(space, E, eps, family, window)
    payload = {
        "epsilon": _frac_str(eps),
        "found": result.found_id,
        "exhausted": result.exhausted,
    }
    if result.exhausted:
        payload["best"] = result.best_id
        payload["best_max_ratio"] = _frac_str(result.best_max_ratio)
    return payload, None


def _cmd_doubling(space: CellSpace, cfg: dict):
    E = _expansion(space, cfg)
    family = _family(space, cfg)
    report = check_doubling(space, E, family)
    verdicts = [
        {"set_id": v.set_id, "size": v.size, "image_size": v.image_size, "passed": v.passed}
        for v in report.verdicts
    ]
    failing = [v["set_id"] for v in verdicts if not v["passed"]]
    return {"verdicts": verdicts, "passed": report.passed}, _witness("failing_sets", failing)


def _graph_block(g: dict) -> tuple[int, int, list]:
    """(left size, right size, sorted adjacency) of an explicit graph block."""
    nx = _natural(g.get("left"), "graph size left")
    ny = _natural(g.get("right"), "graph size right")
    check_enumerable(max(nx, ny), "a graph side", "vertices")
    adj: list[set] = [set() for _ in range(nx)]
    for edge in _list(g.get("edges"), "graph edges"):
        if not (
            isinstance(edge, list)
            and len(edge) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in edge)
        ):
            raise ConfigError(f"graph edge {edge!r} is not a pair of integers")
        x, y = edge
        if not (0 <= x < nx and 0 <= y < ny):
            raise ConfigError(f"graph edge {edge!r} out of range for left={nx}, right={ny}")
        adj[x].add(y)
    return nx, ny, [sorted(a) for a in adj]


def _cmd_harem(space: Optional[CellSpace], cfg: dict):
    k = _natural(cfg.get("k", 2), "k")
    graph_cfg = _block(cfg, "graph")
    if graph_cfg is not None:
        nx, ny, adj = _graph_block(graph_cfg)
        outcome = solve_harem(nx, ny, adj, k)
        names_left, names_right = range(nx), range(ny)
    else:
        if space is None:
            raise ConfigError("harem needs a space or an explicit graph block")
        window = _window(space, cfg)
        E = _expansion(space, cfg)
        graph = build_graph(space, E, window)
        outcome = harem_matching(graph, k)
        names_left, names_right = _vertex_names(graph)
    if isinstance(outcome, HaremMatching):
        pairs = [[names_left[x], names_right[y]] for x, y in outcome.pairs]
        return {"k": k, "matched": True, "pairs": pairs}, None
    witness = {**_violation(outcome, names_left, names_right), "k": k}
    return {"k": k, "matched": False, "violation": witness}, witness


def _cmd_paradox(space: CellSpace, cfg: dict):
    window = _window(space, cfg)
    E = _expansion(space, cfg)
    graph = build_graph(space, E, window)
    outcome = harem_matching(graph, 2)
    if not isinstance(outcome, HaremMatching):
        witness = _violation(outcome, *_vertex_names(graph))
        return {"stage": "matching", "violation": witness}, witness
    ttm = two_to_one_from_matching(graph, outcome)
    D = decomposition_from_map(space, ttm, E, window)
    report = verify_decomposition(space, D)
    payload = {
        "stage": "verified" if report.passed else "verify-failed",
        "interior_size": len(report.interior),
        "checks": _checks(report),
        "decomposition": decomposition_to_json(space, D),
    }
    return _verdict(report, payload)


def _cmd_verify_decomposition(space: CellSpace, cfg: dict):
    path = cfg.get("decomposition")
    if not isinstance(path, str) or not path:
        raise ConfigError("verify-decomposition needs a decomposition file path")
    D = decomposition_from_json(space, _load(path, "decomposition file")[1])
    report = verify_decomposition(space, D)
    payload = {
        "passed": report.passed,
        "interior_size": len(report.interior),
        "checks": _checks(report),
    }
    failures = [{"name": c.name, "witness": c.witness} for c in report.failures()]
    return payload, _witness("failures", failures)


def _cmd_measures(space: CellSpace, cfg: dict):
    if not space.is_finite:
        raise ConfigError("semi-invariance check needs a finite space")
    mu = _measure(space, space.full_window(), cfg)
    report = check_semi_invariance(space, mu)
    payload = {
        "cosets_checked": report.cosets_checked,
        "passed": report.passed,
        "violations": [
            {"point": codec.key_text(m), "coset": codec.key_text(k)}
            for m, k in report.violations
        ],
    }
    return payload, _witness("violations", payload["violations"])


def _cmd_transfer(space: CellSpace, cfg: dict):
    name = cfg.get("subgroup", "translations")
    if not hasattr(space, "field"):
        raise ConfigError("transfer command currently targets the affine spaces")
    subgroups = {"translations": affine_translations, "dilations": affine_dilations}
    if not isinstance(name, str) or name not in subgroups:
        raise ConfigError(f"subgroup must be translations or dilations, got {name!r}")
    sub = subgroups[name](space)
    report = check_transfer_conditions(space, sub)
    payload = {
        "subgroup": name,
        "passed": report.passed,
        "checks": _checks(report),
    }
    if not report.passed:
        return _verdict(report, payload)
    mu = _measure(space, space.full_window(), cfg)
    invariance = []
    for key in sorted(report.witnesses):
        h = report.witnesses[key]
        row = {"coset": codec.key_text(key), "witness": None, "passed": False}
        if h is not None:
            verdict = transfer_invariance_check(space, mu, space.coset(space.group.element(key)), h)
            row.update(witness=space.group.describe_element(h.payload), passed=verdict.passed)
        invariance.append(row)
    payload["invariance"] = invariance
    return payload, _witness("invariance_failures", [r for r in invariance if not r["passed"]])


# command name -> handler(space or None, config) -> (payload, witness or None)
COMMANDS = {
    "describe": _cmd_describe,
    "axioms": _cmd_axioms,
    "ratios": _cmd_ratios,
    "folner-search": _cmd_folner_search,
    "doubling": _cmd_doubling,
    "harem": _cmd_harem,
    "paradox": _cmd_paradox,
    "verify-decomposition": _cmd_verify_decomposition,
    "measures": _cmd_measures,
    "transfer": _cmd_transfer,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cellspaces", description="Batch experiments on cell spaces."
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", default=None, help="output file (default stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default="json")
    seed_help = "only written to the report header: no command draws a random number"
    parser.add_argument("--seed", type=int, default=None, help=seed_help)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    handler = COMMANDS[args.command]
    try:
        if args.format == "csv" and handler is not _cmd_ratios:
            raise ConfigError(f"--format csv is for ratios only; {args.command} writes JSON")
        cfg_bytes, cfg = _load(args.config, "config")
        if not isinstance(cfg, dict):
            raise ConfigError(f"config must be a JSON object, got {cfg!r}")
        space_cfg = _block(cfg, "space")
        space = None
        if space_cfg is not None:
            if not isinstance(space_cfg.get("name"), str):
                raise ConfigError(f"space block needs a name string, got {space_cfg!r}")
            space = space_by_name(space_cfg["name"])
        if space is None and handler is not _cmd_harem:
            raise ConfigError("config needs a space block")
        payload, witness = handler(space, cfg)
        header = _header(cfg_bytes, space, args.seed)
        written: list = []
        if args.format == "csv":
            _write(_csv(header, payload["records"]), args.out, written)
        else:
            report = {"header": header, "command": args.command, "result": payload}
            _write(_json(report), args.out, written)
        if witness is not None:
            witness_path = args.out + ".witness.json" if args.out else None
            _write(_json({"header": header, "witness": witness}), witness_path, written)
    except CellSpacesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if witness is None else 2


if __name__ == "__main__":
    sys.exit(main())
