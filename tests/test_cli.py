import json

import pytest

from cellspaces import (
    Decomposition,
    ExpansionSet,
    canonical_free_decomposition,
    decomposition_from_json,
    decomposition_to_json,
    space_by_name,
    verify_decomposition,
)
from cellspaces.cli import main


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(args):
    return main(args)


def test_missing_config_exits_1(tmp_path, capsys):
    assert run(["axioms", "--config", str(tmp_path / "nope.json")]) == 1


def test_unknown_command_exits_1(tmp_path):
    cfg = write(tmp_path, "c.json", {"space": {"name": "affine:3"}})
    assert run(["frobnicate", "--config", cfg]) == 1


@pytest.mark.parametrize("name", ["affine:6", "zd:0", "zd:-1", "hyperoct:0"])
def test_bad_space_exits_1(tmp_path, name):
    cfg = write(tmp_path, "c.json", {"space": {"name": name}})
    assert run(["describe", "--config", cfg]) == 1


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
