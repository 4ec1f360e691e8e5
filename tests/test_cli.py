import errno
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

import cellspaces
import cellspaces.cli as cli
from cellspaces import (
    Decomposition,
    ExpansionSet,
    canonical_free_decomposition,
    decomposition_from_json,
    decomposition_to_json,
    space_by_name,
    verify_decomposition,
)
from cellspaces.cli import COMMANDS as cli_commands
from cellspaces.cli import _json as report_text
from cellspaces.cli import main
from cellspaces.groups import MAX_ENUMERATED_POINTS


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(args):
    return main(args)


def test_missing_config_exits_1(tmp_path, capsys):
    # the config is refused in main's one handler, as every other input is
    path = tmp_path / "nope.json"
    assert run(["axioms", "--config", str(path)]) == 1
    reason = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(path)!r}"
    assert capsys.readouterr() == ("", f"error: cannot read config: {reason}\n")


def test_config_that_is_not_json_exits_1(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("space: free:2\n")
    assert run(["describe", "--config", str(path)]) == 1
    reason = "Expecting value: line 1 column 1 (char 0)"
    assert capsys.readouterr() == ("", f"error: cannot read config: {reason}\n")


@pytest.mark.parametrize("command", ["paradox", "describe"])
def test_csv_format_outside_ratios_exits_1_before_any_work(tmp_path, capsys, command):
    # only ratios writes CSV; the other commands once wrote JSON and exited 0
    cfg = write(tmp_path, "p.json", {
        "space": {"name": "free:2"},
        "window": {"core_radius": 1, "halo_radius": 3},
        "E": [[], [1], [-1], [2], [-2]],
    })
    out = tmp_path / "o.csv"
    assert run([command, "--config", cfg, "--format", "csv", "--out", str(out)]) == 1
    message = f"--format csv is for ratios only; {command} writes JSON"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_exit_1_is_exactly_a_package_error(tmp_path, monkeypatch):
    # main catches CellSpacesError alone: config refusals are package errors,
    # and an untyped exception is a defect that must surface as a traceback
    assert issubclass(cli.ConfigError, cellspaces.CellSpacesError)
    cfg = write(tmp_path, "c.json", {"space": {"name": "free:2"}})

    def defect(space, cfg):
        raise KeyError("x")

    monkeypatch.setitem(cli.COMMANDS, "describe", defect)
    with pytest.raises(KeyError):
        run(["describe", "--config", cfg])


def test_unknown_command_exits_1(tmp_path):
    cfg = write(tmp_path, "c.json", {"space": {"name": "affine:3"}})
    assert run(["frobnicate", "--config", cfg]) == 1


@pytest.mark.parametrize(
    "name",
    ["affine:6", "zd:0", "zd:-1", "hyperoct:0", "hyperoct:7", "hyperoct:40", "zd:13", "free:9"],
)
def test_bad_space_exits_1(tmp_path, name):
    cfg = write(tmp_path, "c.json", {"space": {"name": name}})
    assert run(["describe", "--config", cfg]) == 1


@pytest.mark.parametrize(
    "name, limit",
    [
        ("zd:100000", "ZD_MAX_RANK = 12"),
        ("free:100000", "FREE_MAX_RANK = 8"),
        ("hyperoct:100000", "HYPEROCT_MAX_RANK = 6"),
    ],
)
def test_rank_above_the_limit_exits_1_at_once(tmp_path, capsys, name, limit):
    cfg = write(tmp_path, "c.json", {"space": {"name": name}})
    start = time.perf_counter()
    assert run(["describe", "--config", cfg]) == 1
    assert time.perf_counter() - start < 1
    assert limit in capsys.readouterr().err


@pytest.mark.parametrize("name", ["zd:12", "free:8"])
def test_largest_supported_rank_is_described(tmp_path, name):
    cfg = write(tmp_path, "c.json", {"space": {"name": name}})
    assert run(["describe", "--config", cfg, "--out", str(tmp_path / "d.json")]) == 0


def test_describe_affine3(tmp_path):
    cfg = write(tmp_path, "c.json", {"space": {"name": "affine:3"}})
    out = tmp_path / "d.json"
    assert run(["describe", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["group_order"] == 6
    assert doc["result"]["stabilizer_order"] == 2
    assert doc["result"]["coset_count"] == 3
    assert doc["header"]["coordinate_rule"]


def test_ratios_csv_is_deterministic_and_correct(tmp_path):
    cfg = write(
        tmp_path,
        "r.json",
        {
            "space": {"name": "zd:2"},
            "window": {"core_radius": 8, "halo_radius": 9},
            "E": [[1, 0]],
            "family": {"kind": "boxes", "sizes": list(range(1, 9))},
        },
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["ratios", "--config", cfg, "--format", "csv", "--out", str(out1)]) == 0
    assert run(["ratios", "--config", cfg, "--format", "csv", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    import csv

    lines = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
    rows = list(csv.DictReader(lines))
    assert [r["ratio_out"] for r in rows] == [f"1/{n}" for n in range(1, 9)]


def test_doubling_failure_exits_2_with_witness(tmp_path):
    cfg = write(
        tmp_path,
        "d.json",
        {
            "space": {"name": "zd:2"},
            "window": {"core_radius": 12, "halo_radius": 13},
            "E": [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]],
            "family": {"kind": "boxes", "sizes": [10]},
        },
    )
    out = tmp_path / "doubling.json"
    assert run(["doubling", "--config", cfg, "--out", str(out)]) == 2
    witness = json.loads((tmp_path / "doubling.json.witness.json").read_text())
    assert witness["witness"]["failing_sets"] == ["box:10"]


def test_paradox_pipeline_and_verify_round_trip(tmp_path):
    cfg = write(
        tmp_path,
        "p.json",
        {
            "space": {"name": "free:2"},
            "window": {"core_radius": 3, "halo_radius": 4},
            "E": [[], [1], [-1], [2], [-2]],
        },
    )
    out = tmp_path / "para.json"
    assert run(["paradox", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["stage"] == "verified"

    dec = tmp_path / "dec.json"
    dec.write_text(json.dumps(doc["result"]["decomposition"]))
    vcfg = write(
        tmp_path,
        "v.json",
        {"space": {"name": "free:2"}, "decomposition": str(dec)},
    )
    vout = tmp_path / "verify.json"
    assert run(["verify-decomposition", "--config", vcfg, "--out", str(vout)]) == 0

    # mutate one point across pieces: verification must fail and name it
    data = doc["result"]["decomposition"]
    moved = data["A"][0][1].pop()
    data["A"][1][1].append(moved)
    dec.write_text(json.dumps(data))
    assert run(["verify-decomposition", "--config", vcfg, "--out", str(vout)]) == 2
    witness = json.loads((tmp_path / "verify.json.witness.json").read_text())
    assert witness["witness"]["failures"]


def test_harem_explicit_graph(tmp_path):
    good = write(
        tmp_path,
        "g.json",
        {"graph": {"left": 2, "right": 4, "edges": [[0, 0], [0, 1], [1, 2], [1, 3]]}, "k": 2},
    )
    assert run(["harem", "--config", good]) == 0
    bad = write(
        tmp_path,
        "b.json",
        {"graph": {"left": 2, "right": 4, "edges": [[0, 0], [1, 0], [1, 1], [1, 2]]}, "k": 2},
    )
    out = tmp_path / "h.json"
    assert run(["harem", "--config", bad, "--out", str(out)]) == 2
    witness = json.loads((tmp_path / "h.json.witness.json").read_text())
    assert witness["witness"]["side"] in ("left", "right")


HALL_FAILS = {"graph": {"left": 2, "right": 4, "edges": [[0, 0], [1, 0], [1, 1], [1, 2]]}, "k": 2}


@pytest.mark.parametrize(
    "out, blocked, reason",
    [
        ("missing/o.json", None, "No such file or directory"),
        ("taken", "taken", "Is a directory"),
        ("o.json", "o.json.witness.json", "Is a directory"),
    ],
    ids=["missing-directory", "out-is-a-directory", "witness-is-a-directory"],
)
def test_unwritable_out_exits_1_and_leaves_no_report(tmp_path, capsys, out, blocked, reason):
    # a write that once ended in a traceback; when only the witness cannot be
    # written, the report written before it is removed
    if blocked:
        (tmp_path / blocked).mkdir()
    cfg = write(tmp_path, "c.json", HALL_FAILS)
    refused = str(tmp_path / (blocked or out))
    assert run(["harem", "--config", cfg, "--out", str(tmp_path / out)]) == 1
    assert capsys.readouterr() == ("", f"error: cannot write {refused}: {reason}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({"c.json", blocked or "c.json"})


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_stdout_on_a_closed_pipe_exits_1_with_one_error_line(tmp_path, unbuffered):
    # once a BrokenPipeError traceback (unbuffered), or exit 0 followed by an
    # "Exception ignored" line and exit 120 when the interpreter flushed stdout
    cfg = write(tmp_path, "c.json", {"space": {"name": "free:2"}})
    src = os.path.dirname(os.path.dirname(cellspaces.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cellspaces.cli", "describe", "--config", cfg],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == f"error: cannot write standard output: {os.strerror(errno.EPIPE)}\n"


class _FullStdout(io.StringIO):
    """A standard output on a device with no space left."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_stdout_with_no_space_left_exits_1_with_one_error_line(tmp_path, monkeypatch, capsys):
    # the write that once escaped main as an OSError traceback
    cfg = write(tmp_path, "c.json", {"space": {"name": "free:2"}})
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    assert run(["describe", "--config", cfg]) == 1
    reason = os.strerror(errno.ENOSPC)
    assert capsys.readouterr().err == f"error: cannot write standard output: {reason}\n"


@pytest.mark.parametrize(
    "graph",
    [
        {"left": 2, "right": 4, "edges": [[0, 0], [0, 1], [-1, 2], [-1, 3]]},
        {"left": 2, "right": 4, "edges": [[0, 0], [0, 1], [2, 2], [2, 3]]},
        {"left": 2, "right": 4, "edges": [[0, 0], [0, 4], [1, 2], [1, 3]]},
        {"left": 2, "right": 4, "edges": [[0, 0], [0, 1], [1, "2"], [1, 3]]},
        {"left": 2, "right": 4, "edges": [[0, 0], [0, 1], [1, 2, 3]]},
        {"left": -1, "right": 2, "edges": []},
    ],
    ids=[
        "negative-index",
        "x-out-of-range",
        "y-out-of-range",
        "string-index",
        "triple",
        "negative-size",
    ],
)
def test_harem_rejects_bad_graph_block(tmp_path, capsys, graph):
    cfg = write(tmp_path, "g.json", {"graph": graph, "k": 2})
    assert run(["harem", "--config", cfg]) == 1
    assert "graph" in capsys.readouterr().err


@pytest.mark.parametrize(
    "E",
    [[["a"]], [[1.5]], [[True]], ["ab"], [1]],
    ids=["string-letter", "float-letter", "bool-letter", "string-word", "int-word"],
)
def test_bad_free_group_letters_exit_1(tmp_path, E):
    cfg = write(
        tmp_path,
        "c.json",
        {"space": {"name": "free:2"}, "window": {"core_radius": 1, "halo_radius": 2}, "E": E},
    )
    src = os.path.dirname(os.path.dirname(cellspaces.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "cellspaces.cli", "paradox", "--config", cfg],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_measures_and_transfer_commands(tmp_path):
    cfg = write(tmp_path, "m.json", {"space": {"name": "affine:5"}})
    assert run(["measures", "--config", cfg]) == 0
    assert run(["transfer", "--config", cfg]) == 0
    dil = write(
        tmp_path, "t.json", {"space": {"name": "affine:5"}, "subgroup": "dilations"}
    )
    out = tmp_path / "t.out.json"
    assert run(["transfer", "--config", dil, "--out", str(out)]) == 2


def test_axioms_command(tmp_path):
    cfg = write(
        tmp_path,
        "a.json",
        {"space": {"name": "free:2"}, "window": {"core_radius": 2, "halo_radius": 3}},
    )
    assert run(["axioms", "--config", cfg]) == 0


def test_folner_search_command(tmp_path):
    cfg = write(
        tmp_path,
        "f.json",
        {
            "space": {"name": "zd:1"},
            "window": {"core_radius": 12, "halo_radius": 13},
            "E": [[1], [-1]],
            "epsilon": "1/4",
            "family": {"kind": "boxes", "sizes": [1, 2, 3, 4, 5, 6]},
        },
    )
    out = tmp_path / "f.out.json"
    assert run(["folner-search", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["found"] == "box:5"


def _hyperoct_decomposition(space):
    """A decomposition on hyperoct:2 (it need not verify); its coset keys
    serialise as nested lists."""
    sd = space.sd
    g0 = sd.G0.elements()
    E = ExpansionSet.of(
        [space.coset(sd.pair(g0[i], sd.H.element(v))) for i, v in ((0, (0, 0)), (3, (1, 0)), (5, (0, -1)))]
    )
    window = space.ball_window(2, 3)
    keys = [e.key for e in E]
    A = {k: window.core[i::3] for i, k in enumerate(keys)}
    B = {k: window.core if i == 0 else () for i, k in enumerate(keys)}
    D = Decomposition(E=E, A=A, B=B, scope=window)
    return D, decomposition_to_json(space, D)


def _unreduced_free_decomposition(space):
    """The closed-form free:2 decomposition, written with the identity coset
    as the unreduced word [1, -1] and one point as [1, 2, -2]."""
    D = canonical_free_decomposition(space, space.ball_window(2, 3))
    data = json.loads(json.dumps(decomposition_to_json(space, D)))
    data["E"] = [k or [1, -1] for k in data["E"]]
    for family in (data["A"], data["B"]):
        for row in family:
            row[0] = row[0] or [1, -1]
            row[1] = [{"g": [1, 2, -2]} if p == {"g": [1]} else p for p in row[1]]
    return D, data


@pytest.mark.parametrize(
    "name, make",
    [("hyperoct:2", _hyperoct_decomposition), ("free:2", _unreduced_free_decomposition)],
    ids=["hyperoct2-nested-keys", "free2-unreduced-words"],
)
def test_decomposition_file_round_trip(tmp_path, name, make):
    space = space_by_name(name)
    D, data = make(space)
    data = json.loads(json.dumps(data))
    back = decomposition_from_json(space, data)
    assert back.E == D.E
    assert list(back.pieces()) == list(D.pieces())
    assert back.scope == D.scope

    dec = tmp_path / "dec.json"
    dec.write_text(json.dumps(data))
    cfg = write(tmp_path, "v.json", {"space": {"name": name}, "decomposition": str(dec)})
    out = tmp_path / "v.out.json"
    report = verify_decomposition(space, D)
    code = run(["verify-decomposition", "--config", cfg, "--out", str(out)])
    assert code == (0 if report.passed else 2)
    checks = json.loads(out.read_text())["result"]["checks"]
    assert checks == [{"name": c.name, "ok": c.ok, "witness": c.witness} for c in report.checks]


def _expect_config_error(tmp_path, capsys, command, cfg) -> str:
    path = write(tmp_path, "c.json", cfg)
    assert run([command, "--config", path, "--out", str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    return err


ZD2_RATIOS = {
    "space": {"name": "zd:2"},
    "window": {"core_radius": 2, "halo_radius": 3},
    "E": [[1, 0]],
    "family": {"kind": "boxes", "sizes": [1, 2]},
}
AFFINE5 = {"space": {"name": "affine:5"}}
BOXES = {"kind": "boxes", "sizes": [1, 2]}
BALLS = {"kind": "balls", "radii": [1]}
TRANSLATIONS = [[0, 0], [1, 0], [0, -1], [2, -1]]
HYPEROCT2_BOXES = {
    "space": {"name": "hyperoct:2"},
    "window": {"core_radius": 5, "halo_radius": 6},
    "E": [[[1, 2], t] for t in TRANSLATIONS],
    "family": {"kind": "boxes", "sizes": [2, 4]},
}
FREE2_BALLS = {
    "space": {"name": "free:2"},
    "window": {"core_radius": 1, "halo_radius": 2},
    "E": [[1]],
    "family": {"kind": "balls", "radii": [1]},
}

# the malformed configs whose whole stderr is pinned, by case id
EXACT_CONFIG_ERRORS = {
    "balls-affine5": "balls family needs a point group (zd:d, free:k or hyperoct:d)",
    "epsilon-not-a-rational": "bad rational 'x': Invalid literal for Fraction: 'x'",
    "unknown-family-kind": "unknown family kind 'stars'",
    "harem-k-0": "k must be a positive integer",
    # the listed weights sum to 6/5, so they make no measure
    "weights-repeated-point": "weights list the point 4 twice",
    "no-window-free2": "infinite space needs a window block",
}
FIFTHS = [[m, "1/5"] for m in range(5)]


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("harem", []),
        ("harem", "abc"),
        ("describe", {"space": "free:2"}),
        ("describe", {"space": {"name": 5}}),
        ("ratios", {**ZD2_RATIOS, "window": [1, 2]}),
        ("ratios", {**ZD2_RATIOS, "E": 5}),
        ("ratios", {**ZD2_RATIOS, "family": {"kind": "boxes", "sizes": 5}}),
        ("ratios", {**ZD2_RATIOS, "family": {"kind": "boxes", "sizes": [2.5]}}),
        ("ratios", {**ZD2_RATIOS, "family": {"kind": "full"}}),
        ("measures", {"space": {"name": "affine:5"}, "measure": {"kind": "weights", "weights": 3}}),
        ("measures", {"space": {"name": "affine:5"}, "measure": {"kind": "point_mass", "at": {}}}),
        ("ratios", {**ZD2_RATIOS, "window": {"core_radius": 2.7, "halo_radius": 3}}),
        ("ratios", {**ZD2_RATIOS, "window": {"core_radius": -2, "halo_radius": 3}}),
        ("ratios", {**ZD2_RATIOS, "window": {"core_radius": True, "halo_radius": 3}}),
        ("ratios", {"space": {"name": "affine:5"}, "window": {"core_radius": 1, "halo_radius": 1}}),
        ("harem", {"graph": {"left": 1, "right": 2, "edges": [[0, 0]]}, "k": [2]}),
        ("verify-decomposition", {"space": {"name": "free:2"}, "decomposition": ["dec.json"]}),
        ("axioms", {**FREE2_BALLS, "window": {"core_radius": 3, "halo_radius": 2}}),
        ("ratios", {**HYPEROCT2_BOXES, "window": {"core_radius": 3, "halo_radius": 2}}),
        ("ratios", {k: v for k, v in ZD2_RATIOS.items() if k != "family"}),
        ("ratios", {**AFFINE5, "E": [[1, 2, 3, 4, 0]], "family": BOXES}),
        ("ratios", {**AFFINE5, "E": [[1, 2, 3, 4, 0]], "family": BALLS}),
        ("ratios", {**FREE2_BALLS, "family": BOXES}),
        ("measures", {**AFFINE5, "measure": {"kind": "weights", "weights": [[0]]}}),
        ("measures", {**AFFINE5, "measure": {"kind": "gaussian"}}),
        (
            "verify-decomposition",
            {"space": {"name": "free:2"}, "decomposition": "no-such-dir/dec.json"},
        ),
        ("folner-search", {**ZD2_RATIOS, "epsilon": "x"}),
        ("ratios", {**ZD2_RATIOS, "family": {"kind": "stars"}}),
        ("harem", {"graph": {"left": 1, "right": 2, "edges": [[0, 0], [0, 1]]}, "k": 0}),
        ("measures", {**AFFINE5, "measure": {"kind": "weights", "weights": FIFTHS + [[4, "1/5"]]}}),
        ("ratios", {k: v for k, v in FREE2_BALLS.items() if k != "window"}),
    ],
    ids=[
        "config-list",
        "config-string",
        "space-string",
        "space-name-int",
        "window-list",
        "E-int",
        "sizes-int",
        "size-float",
        "full-family-infinite",
        "weights-int",
        "point-mass-object",
        "radius-float",
        "radius-negative",
        "radius-bool",
        "window-on-finite-space",
        "k-list",
        "decomposition-path-list",
        "halo-below-core-free2",
        "halo-below-core-hyperoct2",
        "no-family",
        "boxes-affine5",
        "balls-affine5",
        "boxes-free2",
        "weights-not-a-pair",
        "unknown-measure-kind",
        "decomposition-file-unreadable",
        "epsilon-not-a-rational",
        "unknown-family-kind",
        "harem-k-0",
        "weights-repeated-point",
        "no-window-free2",
    ],
)
def test_malformed_config_block_exits_1(request, tmp_path, capsys, command, cfg):
    err = _expect_config_error(tmp_path, capsys, command, cfg)
    message = EXACT_CONFIG_ERRORS.get(request.node.callspec.id)
    assert message is None or err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, cfg, message",
    [
        (
            "measures",
            {**AFFINE5, "measure": {"kind": "point_mass"}},
            "point_mass measure needs an at point",
        ),
        ("folner-search", {**ZD2_RATIOS, "E": []}, "E must be non-empty"),
        (
            "folner-search",
            {**ZD2_RATIOS, "family": {"kind": "boxes", "sizes": []}},
            "the family must be non-empty",
        ),
        ("doubling", {**ZD2_RATIOS, "family": {"kind": "boxes", "sizes": [0]}}, "F must be non-empty"),
        (
            "doubling",
            {**ZD2_RATIOS, "family": {"kind": "boxes", "sizes": []}},
            "the family must be non-empty",
        ),
        (
            "ratios",
            {
                **ZD2_RATIOS,
                "window": {"core_radius": 3, "halo_radius": 4},
                "family": {"kind": "boxes", "sizes": []},
            },
            "the family must be non-empty",
        ),
        (
            "ratios",
            {**ZD2_RATIOS, "window": {"core_radius": 3, "halo_radius": 4}, "E": []},
            "E must be non-empty",
        ),
    ],
    ids=[
        "point-mass-without-at",
        "folner-search-empty-E",
        "folner-search-empty-family",
        "doubling-empty-set",
        "doubling-empty-family",
        "ratios-empty-family",
        "ratios-empty-E",
    ],
)
def test_missing_input_exits_1_with_a_typed_message(tmp_path, capsys, command, cfg, message):
    # the first two once escaped as a KeyError or a bare ValueError from max(),
    # the next three ended in exit 0 with a verdict drawn from no set at all,
    # and the last two in exit 0 with no records
    path = write(tmp_path, "c.json", cfg)
    assert run([command, "--config", path, "--out", str(tmp_path / "o.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _refusal(parse, text) -> str:
    """The interpreter's own message when ``parse(text)`` passes its limit on
    integer-string digits."""
    with pytest.raises(ValueError) as exc:
        parse(text)
    return str(exc.value)


def test_very_long_integer_in_a_loaded_file_exits_1(tmp_path, capsys):
    # the interpreter refuses a 5,000-digit integer with a plain ValueError
    limit = _refusal(json.loads, "1" * 5000)
    cfg = tmp_path / "c.json"
    cfg.write_text('{"space": {"name": "free:2"}, "window": {"core_radius": ' + "1" * 5000 + "}}")
    assert run(["describe", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: cannot read config: {limit}\n"
    dec = tmp_path / "dec.json"
    dec.write_text('{"E": [[' + "1" * 5000 + "]]}")
    path = write(tmp_path, "v.json", {"space": {"name": "free:2"}, "decomposition": str(dec)})
    assert run(["verify-decomposition", "--config", path]) == 1
    assert capsys.readouterr().err == f"error: cannot read decomposition file: {limit}\n"


@pytest.mark.parametrize(
    "epsilon, reason",
    [
        ("1e5000", "exponent above 4300"),
        ("1e10000000", "exponent above 4300"),
        ("1e-10000000", "exponent above 4300"),
        ("1e10_000_000", "exponent above 4300"),
        ("1e4300", None),  # the interpreter's refusal to write 10^4300
    ],
    ids=["1e5000", "1e10000000", "1e-10000000", "1e10_000_000", "1e4300"],
)
def test_huge_decimal_exponent_exits_1_at_once(tmp_path, capsys, epsilon, reason):
    # Fraction takes seconds to parse "1e10000000", and the report could not
    # write 10^4300 as epsilon; both are refused before the search runs
    reason = reason or _refusal(str, 10**4300)
    path = write(tmp_path, "c.json", {**ZD2_RATIOS, "epsilon": epsilon})
    start = time.perf_counter()
    assert run(["folner-search", "--config", path, "--out", str(tmp_path / "o.json")]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"error: bad rational {epsilon!r}: {reason}\n"


@pytest.mark.parametrize("epsilon", ["1/20", "0.05", "5e-2"])
def test_config_rationals_parse_exactly(tmp_path, epsilon):
    path = write(tmp_path, "c.json", {**ZD2_RATIOS, "epsilon": epsilon})
    out = tmp_path / "o.json"
    assert run(["folner-search", "--config", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["epsilon"] == "1/20"


@pytest.mark.parametrize(
    "command, cfg, code",
    [
        ("describe", {"space": {"name": "affine:3"}}, 0),
        ("describe", {"space": "free:2"}, 1),
        (
            "doubling",
            {
                "space": {"name": "zd:2"},
                "E": [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]],
                "family": {"kind": "boxes", "sizes": [10]},
            },
            2,
        ),
    ],
    ids=["describe", "malformed", "doubling-fails"],
)
def test_module_entry_point_matches_main(tmp_path, capsys, command, cfg, code):
    path = write(tmp_path, "c.json", cfg)
    src = os.path.dirname(os.path.dirname(cellspaces.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "cellspaces.cli", command, "--config", path],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8"},
        timeout=60,
    )
    assert run([command, "--config", path]) == code
    assert proc.returncode == code
    assert proc.stdout == capsys.readouterr().out.encode("utf-8")


def _ratio_columns(tmp_path, cfg):
    out = tmp_path / "r.json"
    assert run(["ratios", "--config", write(tmp_path, "r.cfg", cfg), "--out", str(out)]) == 0
    fields = ("set_id", "size", "ratio_out", "ratio_in", "certified")
    return [[r[f] for f in fields] for r in json.loads(out.read_text())["result"]["records"]]


def test_hyperoct2_box_ratios_equal_the_lattice_ones(tmp_path):
    """On hyperoct:2 the translation coset ((1,2), t) moves m to m + t, as t
    does on zd:2, so box families give the same ratios."""
    lattice = {**HYPEROCT2_BOXES, "space": {"name": "zd:2"}, "E": TRANSLATIONS}
    rows = _ratio_columns(tmp_path, HYPEROCT2_BOXES)
    assert len(rows) == 2 * len(TRANSLATIONS)
    assert rows == _ratio_columns(tmp_path, lattice)


@pytest.mark.parametrize(
    "name, E",
    [
        ("zd:2", [[1]]),
        ("zd:2", [[1, 0, 0]]),
        ("zd:2", [["a", 0]]),
        ("zd:2", [[True, 0]]),
        ("affine:5", [[1, 0, 2, 3, 4]]),
        ("affine:5", [[0, 1, 2]]),
        ("hyperoct:2", [[1, 0]]),
        ("hyperoct:2", [[[1, 1], [0, 0]]]),
        ("hyperoct:2", [[[1, 2], [0, 0], [0, 0]]]),
        ("hyperoct:2", [5]),
    ],
    ids=[
        "zd2-short",
        "zd2-long",
        "zd2-string",
        "zd2-bool",
        "affine5-transposition",
        "affine5-short",
        "hyperoct2-flat",
        "hyperoct2-not-signed-perm",
        "hyperoct2-triple",
        "hyperoct2-scalar",
    ],
)
def test_payload_outside_the_group_exits_1(tmp_path, capsys, name, E):
    cfg = {"space": {"name": name}, "E": E, "family": {"kind": "full"}}
    if name != "affine:5":
        cfg.update(window={"core_radius": 1, "halo_radius": 2}, family={"kind": "balls", "radii": [1]})
    _expect_config_error(tmp_path, capsys, "ratios", cfg)


@pytest.mark.parametrize("depth", [900, 100_000], ids=["to-tuple-depth", "json-depth"])
def test_deeply_nested_payload_exits_1(tmp_path, depth):
    """JSON nesting deeper than the stack is refused, not a RecursionError."""
    path = tmp_path / "c.json"
    nested = "[" * depth + "]" * depth
    path.write_text(json.dumps({**ZD2_RATIOS, "E": "@"}).replace('"@"', f"[{nested}]"))
    assert run(["ratios", "--config", str(path)]) == 1


_ABOVE_THE_LIMIT = f", above MAX_ENUMERATED_POINTS = {MAX_ENUMERATED_POINTS}"
_HUGE = f"more than {10**18} points"


@pytest.mark.parametrize(
    "command, cfg, message",
    [
        (
            "axioms",
            {**FREE2_BALLS, "window": {"core_radius": 25, "halo_radius": 25}},
            "the window of radius 25 has 1694577218885 points",
        ),
        (
            "axioms",
            {**FREE2_BALLS, "window": {"core_radius": 10**40, "halo_radius": 1}},
            f"the window of radius {10**40} has {_HUGE}",
        ),
        (
            "ratios",
            {**ZD2_RATIOS, "family": {"kind": "boxes", "sizes": [2, 10**6]}},
            "the box of size 1000000 has 1000000000000 points",
        ),
        (
            "ratios",
            {**HYPEROCT2_BOXES, "family": {"kind": "balls", "radii": [10**30]}},
            f"the ball of radius {10**30} has {_HUGE}",
        ),
        (
            "harem",
            {"graph": {"left": 10**12, "right": 2, "edges": []}},
            "a graph side has 1000000000000 vertices",
        ),
        (
            "ratios",
            {**FREE2_BALLS, "family": {"kind": "balls", "radii": [2, 13, 10**30, 1]}},
            f"the ball of radius {10**30} has {_HUGE}",
        ),
    ],
    ids=[
        "free2-core-25",
        "free2-core-huge",
        "zd2-box",
        "hyperoct2-ball",
        "graph-side",
        "free2-balls-largest",
    ],
)
def test_oversized_enumeration_exits_1_at_once(tmp_path, capsys, command, cfg, message):
    """A window, family set or graph side above the limit is refused from
    its closed-form size, before anything is enumerated; a balls family is
    refused by its largest radius."""
    path = write(tmp_path, "c.json", cfg)
    start = time.perf_counter()
    assert run([command, "--config", path]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"error: {message}{_ABOVE_THE_LIMIT}\n"


def test_boxes_family_is_refused_from_its_largest_box_before_any_is_built(tmp_path, capsys):
    # the two boxes of size 1000 hold 10^6 points each, under the limit
    cfg = {**ZD2_RATIOS, "family": {"kind": "boxes", "sizes": [1000, 1000, 10**6]}}
    path = write(tmp_path, "c.json", cfg)
    start = time.perf_counter()
    assert run(["ratios", "--config", path]) == 1
    assert time.perf_counter() - start < 1
    message = f"the box of size 1000000 has 1000000000000 points{_ABOVE_THE_LIMIT}"
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("d, count", [(4, 3434496), (5, 63897600)])
def test_axioms_on_a_large_hyperoctahedral_group_exit_1_at_once(tmp_path, capsys, d, count):
    # |pts[:8]|·|ball(1)|·|G0|·|ball(2)| semi-actions: 8·13·384·86 at d = 4
    cfg = {"space": {"name": f"hyperoct:{d}"}, "window": {"core_radius": 1, "halo_radius": 1}}
    path = write(tmp_path, "c.json", cfg)
    start = time.perf_counter()
    assert run(["axioms", "--config", path]) == 1
    assert time.perf_counter() - start < 1
    message = f"the sample of the axiom checks has {count} semi-actions{_ABOVE_THE_LIMIT}"
    assert capsys.readouterr().err == f"error: {message}\n"


def test_enumeration_limit_admits_the_free2_radius_12_halo():
    # the halo of a free:2 run at core radius 10 is the largest window allowed
    assert space_by_name("free:2").group.ball_size(12) == MAX_ENUMERATED_POINTS


# quotes, backslashes, control characters and non-ASCII text
_text = st.text(st.characters() | st.sampled_from('"\\\n\t\x00\x1f\x7f\u00e9\u2603'), max_size=6)
_leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.fractions() | _text
# encoded points such as {"g": [1, -2]}, {"t": [0, 3]} and the identity
# {"g": []}, and near misses: a bool letter, a tuple, a second key
_point = st.builds(
    lambda k, w: {k: w}, st.sampled_from(["g", "t"]), st.lists(st.integers(), max_size=3)
)
_near_point = (
    st.builds(lambda w: {"g": w}, st.lists(st.integers() | st.booleans(), min_size=1, max_size=2))
    | st.builds(lambda w: {"g": tuple(w)}, st.lists(st.integers(), max_size=2))
    | st.builds(lambda w: {"g": w, "t": w}, st.lists(st.integers(), max_size=2))
)
_documents = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_text, inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=3)
    | st.lists(_point, max_size=5)
    | st.lists(_point | _near_point | inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_report_writer_matches_json_dumps(doc):
    """The report writer gives the bytes of json.dumps with the CLI's settings."""
    assert report_text(doc) == json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"


def test_report_writer_writes_a_point_list_in_one_call(monkeypatch):
    """A list of encoded points, the identity among them, is written without
    a recursive call per point, whether a payload is a list or the tuple that
    ``encode_point`` gives."""
    calls = [0]
    dump = cli._dump

    def counted(value, nl, out):
        calls[0] += 1
        return dump(value, nl, out)

    monkeypatch.setattr(cli, "_dump", counted)
    points = [{"g": []}, {"g": [1, -2]}, {"t": [3]}, {"g": (1, -2)}, {"g": ()}] * 30
    text = report_text(points)
    assert text == json.dumps(points, sort_keys=True, indent=2) + "\n"
    assert calls[0] == 1


def test_full_size_reports_keep_the_bytes_of_json_dumps(tmp_path, capsys):
    """A free:2 paradox report of 4,373 halo points, and a hyperoct:2
    decomposition with nested coset keys and Z² payloads, are written as
    json.dumps writes them."""
    cfg = write(tmp_path, "p.json", {
        "space": {"name": "free:2"},
        "window": {"core_radius": 5, "halo_radius": 7},
        "E": [[], [1], [-1], [2], [-2]],
    })
    assert run(["paradox", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert len(json.loads(text)["result"]["decomposition"]["scope"]["halo"]) == 4373
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    _, doc = _hyperoct_decomposition(space_by_name("hyperoct:2"))
    assert report_text(doc) == json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"


@pytest.mark.parametrize(
    "subgroup", ["bogus", "all", "", 5, None], ids=["bogus", "all", "empty", "int", "null"]
)
def test_transfer_refuses_unknown_subgroup(tmp_path, capsys, subgroup):
    _expect_config_error(
        tmp_path, capsys, "transfer", {"space": {"name": "affine:5"}, "subgroup": subgroup}
    )


_leaf = (
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats(-2, 3, allow_nan=False)
    | st.text("ab:1-", max_size=4)
)
_json = st.recursive(
    _leaf,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("gtk", max_size=1), inner, max_size=2),
    max_leaves=6,
)
_radius = st.integers(-1, 3) | _leaf
_payload = (
    st.lists(st.integers(-2, 4), max_size=5)
    | st.lists(st.lists(st.integers(-2, 2), max_size=2), max_size=2)
    | _json
)
_CONFIG_BLOCKS = {
    "space": st.fixed_dictionaries(
        {"name": st.sampled_from(["free:2", "zd:1", "zd:2", "hyperoct:2", "affine:3", "affine:5", "zd:x"])}
    )
    | _json,
    "window": st.fixed_dictionaries({"core_radius": _radius, "halo_radius": _radius}) | _json,
    "E": st.lists(_payload, max_size=3) | _json,
    "epsilon": st.sampled_from(["1/4", "0", "x"]) | _json,
    "family": st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["boxes", "balls", "full", "x"]),
            "sizes": st.lists(_radius, max_size=3) | _json,
            "radii": st.lists(_radius, max_size=3) | _json,
        }
    )
    | _json,
    "k": st.integers(-1, 3) | _leaf,
    "graph": st.fixed_dictionaries(
        {
            "left": _radius,
            "right": _radius,
            "edges": st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=4) | _json,
        }
    )
    | _json,
    "measure": st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["uniform", "point_mass", "weights", "x"]),
            "at": st.integers(0, 4) | _payload,
            "weights": st.lists(
                st.lists(st.integers(0, 4) | _payload | st.sampled_from(["1/2", "1", "x"]), max_size=3),
                max_size=3,
            )
            | _json,
        }
    )
    | _json,
    "subgroup": st.sampled_from(["translations", "dilations", "all"]) | _json,
    "decomposition": st.just("missing.json") | _json,
}


# valid configs that the fuzz overrides block by block
_BASES = [
    {
        "space": {"name": "free:2"},
        "window": {"core_radius": 2, "halo_radius": 3},
        "E": [[], [1], [-1], [2], [-2]],
        "family": {"kind": "balls", "radii": [1, 2]},
    },
    {**ZD2_RATIOS, "epsilon": "1/2"},
    {
        "space": {"name": "hyperoct:2"},
        "window": {"core_radius": 2, "halo_radius": 3},
        "E": [[[1, 2], [0, 0]], [[-2, 1], [1, 0]]],
        "family": {"kind": "balls", "radii": [1, 2]},
    },
    {"space": {"name": "affine:5"}, "E": [[1, 2, 3, 4, 0]], "family": {"kind": "full"}},
    {"graph": {"left": 2, "right": 4, "edges": [[0, 0], [0, 1], [1, 2], [1, 3]]}, "k": 2},
]


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(sorted(cli_commands)),
    cfg=st.builds(
        lambda base, blocks: {**base, **blocks},
        st.sampled_from(_BASES),
        st.fixed_dictionaries({}, optional=_CONFIG_BLOCKS),
    )
    | _json,
)
def test_config_fuzz_ends_in_an_exit_code(command, cfg):
    """Any config block shape ends in exit 0, 1 or 2; no exception escapes.
    A witness file is written exactly on exit 2, and exit 1 writes no report."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "o.json")
        code = run([command, "--config", path, "--out", out])
        assert code in (0, 1, 2)
        assert os.path.exists(out + ".witness.json") == (code == 2)
        if code == 1:
            assert not os.path.exists(out)
