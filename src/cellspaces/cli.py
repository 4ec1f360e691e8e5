"""Batch front end.

Reads a JSON experiment config, dispatches to the library, and writes CSV or
JSON reports. Outputs are byte-deterministic for identical configs: every
report embeds the config digest and the coordinate rule of the space, all
enumerations are sorted, and rationals are serialized exactly as "p/q".

Exit codes: 0 = pass/complete, 2 = property violation found (a witness file
is written next to the output), 1 = usage or config error.

Config schema (JSON, one object)::

    {
      "space": {"name": "zd:2"},            # affine:q | hyperoct:d | zd:d | free:k
      "window": {"core_radius": 4, "halo_radius": 5},   # omitted: full finite space
      "E": [[1, 0], [-1, 0]],               # coset representative payloads
      "epsilon": "1/10",                    # rationals are "p/q" strings
      "family": {"kind": "boxes", "sizes": [1, 2, 3]},  # or "balls"/"full"
      "k": 2,                               # harem fiber size
      "graph": {"left": 3, "right": 6, "edges": [[0, 1], ...]},  # explicit harem input
      "measure": {"kind": "uniform"},       # or {"kind": "point_mass", "at": ...}
      "decomposition": "path/to/file.json", # verify-decomposition input
      "subgroup": "translations"            # transfer: translations | dilations | all
    }

Elements are given by payload: vectors for lattices, signed-letter words for
free groups, image tuples for permutation groups.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import codec
from .errors import CellSpacesError
from .folner import ExpansionSet, check_doubling, folner_search, ratios
from .groups import FreeAbelianGroup
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
from .spaces import CellSpace, CheckReport, Window, box_points, verify_axioms
from .transfer import (
    affine_dilations,
    affine_translations,
    check_transfer_conditions,
    space_by_name,
    transfer_invariance_check,
)


class ConfigError(Exception):
    pass


def _fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text!r}: {exc}") from exc


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _window(space: CellSpace, cfg: dict) -> Window:
    wcfg = cfg.get("window")
    if wcfg is None:
        if not space.is_finite:
            raise ConfigError("infinite space needs a window block")
        return space.full_window()
    core_r = int(wcfg["core_radius"])
    halo_r = int(wcfg["halo_radius"])
    if halo_r < core_r:
        raise ConfigError("halo_radius must be at least core_radius")
    return space.ball_window(core_r, halo_r)


def _expansion(space: CellSpace, cfg: dict) -> ExpansionSet:
    if "E" not in cfg:
        raise ConfigError("config needs an E block of coset representatives")
    return ExpansionSet.of([space.coset(codec.element(space.group, d)) for d in cfg["E"]])


def _family(space: CellSpace, cfg: dict) -> list:
    fcfg = cfg.get("family")
    if fcfg is None:
        raise ConfigError("config needs a family block")
    kind = fcfg.get("kind")
    if kind == "full":
        return [("full", list(space.points()))]
    if kind == "boxes":
        if not isinstance(space.group, FreeAbelianGroup):
            raise ConfigError("boxes family needs a lattice space")
        return [(f"box:{n}", box_points(space.group, 0, int(n))) for n in fcfg["sizes"]]
    if kind == "balls":
        return [(f"ball:{r}", space.orbit_ball(int(r))) for r in fcfg["radii"]]
    raise ConfigError(f"unknown family kind {kind!r}")


def _measure(space: CellSpace, universe: Window, cfg: dict) -> FAMeasure:
    mcfg = cfg.get("measure", {"kind": "uniform"})
    kind = mcfg.get("kind", "uniform")
    if kind == "uniform":
        return FAMeasure.uniform(universe)
    if kind == "point_mass":
        return FAMeasure.point_mass(universe, codec.decode_point(space, mcfg["at"]))
    if kind == "weights":
        return FAMeasure(
            universe,
            {codec.decode_point(space, p): _fraction(w) for p, w in mcfg["weights"]},
        )
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


def _verdict(report: CheckReport, payload: dict):
    """Exit 0 when the report passed, else 2 with its failing checks named."""
    if report.passed:
        return 0, payload, None
    return 2, payload, {"failures": [c.name for c in report.failures()]}


def _violation(outcome, names_left: list, names_right: list) -> dict:
    """A Hall witness with its vertices named as the report names them."""
    names = names_left if outcome.side == "left" else names_right
    return {
        "side": outcome.side,
        "vertices": [names[v] for v in outcome.vertices],
        "neighbourhood_size": outcome.neighbourhood_size,
    }


def _json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2, default=str) + "\n"


def _csv(header: dict, rows: list) -> str:
    buf = io.StringIO()
    for key in ("config_digest", "space", "coordinate_rule"):
        buf.write(f"# {key}={header[key]}\n")
    writer = csv.DictWriter(buf, fieldnames=RATIO_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _write(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands; each returns (exit_code, payload, optional witness)


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
    return 0, info, None


def _cmd_axioms(space: CellSpace, cfg: dict):
    window = _window(space, cfg)
    cosets = [space.coset(g) for g in space.group.ball(2)]
    report = verify_axioms(space, window, cosets)
    return _verdict(report, {"checks": _checks(report), "passed": report.passed})


RATIO_FIELDS = ["space", "set_id", "size", "coset", "ratio_out", "ratio_in", "certified"]


def _cmd_ratios(space: CellSpace, cfg: dict):
    window = _window(space, cfg)
    E = _expansion(space, cfg)
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
    return 0, {"records": rows}, None


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
        payload["best_max_ratio"] = (
            _frac_str(result.best_max_ratio) if result.best_max_ratio is not None else None
        )
    return 0, payload, None


def _cmd_doubling(space: CellSpace, cfg: dict):
    window = _window(space, cfg)
    E = _expansion(space, cfg)
    family = _family(space, cfg)
    report = check_doubling(space, E, family, window)
    verdicts = [
        {
            "set_id": v.set_id,
            "size": v.size,
            "image_size": v.image_size,
            "passed": v.passed,
        }
        for v in report.verdicts
    ]
    payload = {"verdicts": verdicts, "passed": report.passed}
    if report.passed:
        return 0, payload, None
    return 2, payload, {"failing_sets": [v["set_id"] for v in verdicts if not v["passed"]]}


def _cmd_harem(space: Optional[CellSpace], cfg: dict):
    k = int(cfg.get("k", 2))
    if "graph" in cfg:
        g = cfg["graph"]
        nx, ny = int(g["left"]), int(g["right"])
        adj: list[list[int]] = [[] for _ in range(nx)]
        for x, y in g["edges"]:
            adj[int(x)].append(int(y))
        outcome = solve_harem(nx, ny, [sorted(set(a)) for a in adj], k)
        names_left = list(range(nx))
        names_right = list(range(ny))
    else:
        if space is None:
            raise ConfigError("harem needs a space or an explicit graph block")
        window = _window(space, cfg)
        E = _expansion(space, cfg)
        graph = build_graph(space, E, window)
        outcome = harem_matching(graph, k)
        names_left = [codec.key_text(m) for m in graph.left]
        names_right = [codec.key_text(m) for m in graph.right]
    if isinstance(outcome, HaremMatching):
        pairs = [[names_left[x], names_right[y]] for x, y in outcome.pairs]
        return 0, {"k": k, "matched": True, "pairs": pairs}, None
    witness = {**_violation(outcome, names_left, names_right), "k": k}
    return 2, {"k": k, "matched": False, "violation": witness}, witness


def _cmd_paradox(space: CellSpace, cfg: dict):
    window = _window(space, cfg)
    E = _expansion(space, cfg)
    graph = build_graph(space, E, window)
    outcome = harem_matching(graph, 2)
    if not isinstance(outcome, HaremMatching):
        witness = _violation(
            outcome,
            [codec.key_text(m) for m in graph.left],
            [codec.key_text(m) for m in graph.right],
        )
        return 2, {"stage": "matching", "violation": witness}, witness
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
    if not path:
        raise ConfigError("verify-decomposition needs a decomposition file path")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read decomposition file: {exc}") from exc
    D = decomposition_from_json(space, data)
    report = verify_decomposition(space, D)
    payload = {
        "passed": report.passed,
        "interior_size": len(report.interior),
        "checks": _checks(report),
    }
    if report.passed:
        return 0, payload, None
    return 2, payload, {
        "failures": [
            {"name": c.name, "witness": c.witness} for c in report.failures()
        ]
    }


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
    if report.passed:
        return 0, payload, None
    return 2, payload, {"violations": payload["violations"]}


def _cmd_transfer(space: CellSpace, cfg: dict):
    name = cfg.get("subgroup", "translations")
    if not hasattr(space, "field"):
        raise ConfigError("transfer command currently targets the affine spaces")
    sub = affine_translations(space) if name == "translations" else affine_dilations(space)
    report = check_transfer_conditions(space, sub)
    payload = {
        "subgroup": name,
        "passed": report.passed,
        "checks": _checks(report),
    }
    if report.passed:
        mu = _measure(space, space.full_window(), cfg)
        invariance = []
        for key in sorted(report.witnesses):
            h = report.witnesses[key]
            if h is None:
                invariance.append({"coset": codec.key_text(key), "witness": None, "passed": False})
                continue
            verdict = transfer_invariance_check(space, mu, space.coset(space.group.element(key)), h)
            invariance.append(
                {
                    "coset": codec.key_text(key),
                    "witness": space.group.describe_element(h.payload),
                    "passed": verdict.passed,
                }
            )
        payload["invariance"] = invariance
        if all(row["passed"] for row in invariance):
            return 0, payload, None
        return 2, payload, {"invariance_failures": [r for r in invariance if not r["passed"]]}
    return _verdict(report, payload)


# command name -> handler(space or None, config) -> (exit code, payload, witness)
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
    parser.add_argument("--seed", type=int, default=None, help="seed for randomized sweeps")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    try:
        with open(args.config, "rb") as fh:
            cfg_bytes = fh.read()
        cfg = json.loads(cfg_bytes)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    handler = COMMANDS[args.command]
    try:
        space = space_by_name(cfg["space"]["name"]) if "space" in cfg else None
        if space is None and handler is not _cmd_harem:
            raise ConfigError("config needs a space block")
        code, payload, witness = handler(space, cfg)
    except (ConfigError, CellSpacesError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    header = _header(cfg_bytes, space, args.seed)
    rows = payload.get("records")
    if args.format == "csv" and rows is not None:
        _write(_csv(header, rows), args.out)
    else:
        _write(_json({"header": header, "command": args.command, "result": payload}), args.out)
    if code == 2 and witness is not None:
        witness_path = args.out + ".witness.json" if args.out else None
        _write(_json({"header": header, "witness": witness}), witness_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
