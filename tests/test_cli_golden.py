"""Byte-identity of every file the CLI writes.

Each case runs one command on a small config and compares the SHA-256 of the
report, of ``<out>.witness.json`` when the command exits 2, and of the CSV of
``ratios`` against digests recorded from a known-good build. A refactor that
changes any output byte fails here.

To record digests for a new case, run ``python tests/test_cli_golden.py``
with the package on ``PYTHONPATH``; it prints the digest table.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from cellspaces.cli import main

FREE2 = {"space": {"name": "free:2"}}
HYPEROCT2 = {
    "space": {"name": "hyperoct:2"},
    "window": {"core_radius": 6, "halo_radius": 8},
    "E": [[[1, 2], v] for v in ([0, 0], [1, 0], [-1, 0], [0, 1], [0, -1], [2, -1])],
    "epsilon": "1/20",
    "family": {"kind": "balls", "radii": [2, 4, 6]},
}
ZD2 = {
    "space": {"name": "zd:2"},
    "window": {"core_radius": 5, "halo_radius": 6},
    "E": [[1, 0], [0, 1]],
    "family": {"kind": "boxes", "sizes": [2, 3, 4]},
}
PARADOX_FREE2 = {
    **FREE2,
    "window": {"core_radius": 3, "halo_radius": 4},
    "E": [[], [1], [-1], [2], [-2]],
}
AFFINE5 = {"space": {"name": "affine:5"}}
# halo = core, so the preimages of the larger balls escape it
FREE2_UNCERTIFIED = {
    **FREE2,
    "window": {"core_radius": 3, "halo_radius": 3},
    "E": [[1], [2], [1, 2]],
    "epsilon": "1/10",
    "family": {"kind": "balls", "radii": [1, 2, 3]},
}

# case id -> (command, config, extra arguments)
CASES = {
    "describe-affine3": ("describe", {"space": {"name": "affine:3"}}, []),
    "describe-hyperoct2": ("describe", {"space": {"name": "hyperoct:2"}}, []),
    "describe-free2-seed": ("describe", FREE2, ["--seed", "7"]),
    "axioms-free2": ("axioms", {**FREE2, "window": {"core_radius": 2, "halo_radius": 3}}, []),
    "axioms-affine5": ("axioms", AFFINE5, []),
    "ratios-zd2-json": ("ratios", ZD2, []),
    "ratios-zd2-csv": ("ratios", ZD2, ["--format", "csv"]),
    "ratios-hyperoct2-json": ("ratios", HYPEROCT2, []),
    "ratios-hyperoct2-csv": ("ratios", HYPEROCT2, ["--format", "csv"]),
    "ratios-hyperoct2-boxes-csv": (
        "ratios",
        {**HYPEROCT2, "family": {"kind": "boxes", "sizes": [2, 4]}},
        ["--format", "csv"],
    ),
    "ratios-affine5-csv": (
        "ratios",
        {**AFFINE5, "E": [[1, 2, 3, 4, 0], [0, 2, 4, 1, 3]], "family": {"kind": "full"}},
        ["--format", "csv"],
    ),
    "ratios-free2-uncertified-json": ("ratios", FREE2_UNCERTIFIED, []),
    "ratios-free2-uncertified-csv": ("ratios", FREE2_UNCERTIFIED, ["--format", "csv"]),
    "folner-search-free2": ("folner-search", FREE2_UNCERTIFIED, []),
    "doubling-free2": ("doubling", {**FREE2_UNCERTIFIED, "E": PARADOX_FREE2["E"]}, []),
    "folner-search-zd1": (
        "folner-search",
        {
            "space": {"name": "zd:1"},
            "window": {"core_radius": 12, "halo_radius": 13},
            "E": [[1], [-1]],
            "epsilon": "1/4",
            "family": {"kind": "boxes", "sizes": [1, 2, 3, 4, 5, 6]},
        },
        [],
    ),
    "folner-search-hyperoct2": ("folner-search", HYPEROCT2, []),
    "doubling-hyperoct2": ("doubling", HYPEROCT2, []),
    "doubling-zd2-fail": (
        "doubling",
        {**ZD2, "E": [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]], "family": {"kind": "boxes", "sizes": [4, 6]}},
        [],
    ),
    "harem-graph-ok": (
        "harem",
        {"graph": {"left": 2, "right": 4, "edges": [[0, 0], [0, 1], [1, 2], [1, 3]]}, "k": 2},
        [],
    ),
    "harem-graph-fail": (
        "harem",
        {"graph": {"left": 2, "right": 4, "edges": [[0, 0], [1, 0], [1, 1], [1, 2]]}, "k": 2},
        [],
    ),
    "harem-graph-k3-fail": (
        "harem",
        {"graph": {"left": 2, "right": 6, "edges": [[0, y] for y in range(4)] + [[1, 4], [1, 5]]}, "k": 3},
        [],
    ),
    "harem-free2": ("harem", {**PARADOX_FREE2, "window": {"core_radius": 2, "halo_radius": 3}}, []),
    "harem-zd2-fail": (
        "harem",
        {"space": {"name": "zd:2"}, "window": {"core_radius": 3, "halo_radius": 4}, "E": [[0, 0], [1, 0]]},
        [],
    ),
    "paradox-free2": ("paradox", PARADOX_FREE2, []),
    "paradox-hyperoct2-fail": ("paradox", HYPEROCT2, []),
    "paradox-zd2-fail": ("paradox", {**ZD2, "E": [[0, 0], [1, 0], [0, 1]]}, []),
    "verify-decomposition-free2": ("verify-decomposition", {**FREE2, "decomposition": "dec.json"}, []),
    "verify-decomposition-free2-fail": (
        "verify-decomposition",
        {**FREE2, "decomposition": "dec-moved.json"},
        [],
    ),
    "measures-affine5": ("measures", AFFINE5, []),
    "measures-affine5-point-mass": (
        "measures", {**AFFINE5, "measure": {"kind": "point_mass", "at": 0}}, []
    ),
    "measures-affine5-weights": (
        "measures",
        {**AFFINE5, "measure": {"kind": "weights", "weights": [[0, "1/2"], [3, "1/2"]]}},
        [],
    ),
    "transfer-affine5": ("transfer", AFFINE5, []),
    "transfer-affine5-dilations": ("transfer", {**AFFINE5, "subgroup": "dilations"}, []),
}

# case id -> (exit code, {written file -> SHA-256}); "out" is the report
GOLDEN = {
    'axioms-affine5': (0, {
        'out': '0ae5f25ffa5a8c65a596eeedd1c868658ad129be8992bd9e325d82a97499f43d',
    }),
    'axioms-free2': (0, {
        'out': 'bedba8b2897dc6a080da0037880c3dfe61a66e8007c94978e6568f55ed6ed430',
    }),
    'describe-affine3': (0, {
        'out': '862c06699460cfdb457b1e02dbe00b193ebe63fe175be466d046f01321d0ed63',
    }),
    'describe-free2-seed': (0, {
        'out': '466491018707a3ae93b10443bb882dd58bd27bf6495adfd37fba68a03d675627',
    }),
    'describe-hyperoct2': (0, {
        'out': 'a1e7155854ea1506b3961491ea4e61ccd085640e6d08d5ce8a6367029ed24a3d',
    }),
    'doubling-free2': (0, {
        'out': '0bd3cef1a89ca34899d25c9034060a93839d6c2c9cb4f143b44f205ae1ce2679',
    }),
    'doubling-hyperoct2': (2, {
        'out': '5fd26040cc581f689c80dc0cc5ef9add430b120f8aeeab696118023d2312b8d3',
        'witness': 'a1450e8fbf6d2e0665842b657db8dee88448ef8ff4a7ac0cc1941d4f14585429',
    }),
    'doubling-zd2-fail': (2, {
        'out': '371e983bfc9b617652923d7702162b960856bbd6465af46c7be4d6883442f8b3',
        'witness': '3679771184b6eb338d4135d917df1053a56bc25cd59705625725367778b6eb66',
    }),
    'folner-search-free2': (0, {
        'out': '131a8e623710ecb09539b51884ec0c2c5133b917d1a0e05aede42da623ad501f',
    }),
    'folner-search-hyperoct2': (0, {
        'out': 'ee9723bb4dfa619f3f05a3181cf0b5b5bc947a4d0f821d3c7f63c22402d58f54',
    }),
    'folner-search-zd1': (0, {
        'out': '880e788ad613bc8ad61249340cb47a7d74bc69e50f8ae0bd388e6552b2560ce7',
    }),
    'harem-free2': (0, {
        'out': '5d25d74d1b1f67ed969dfeef28e534ef40934a00f0728d196c0d50ba4e011423',
    }),
    'harem-graph-fail': (2, {
        'out': 'a86a5ab1fb14b70c90c59df59b09fb63278545d2083bca8baafcc9bc31c0be58',
        'witness': '0b43c93871cdbb09ccf792b78f1fd73a057c1ec6fd56700da2c7285157d7f735',
    }),
    'harem-graph-k3-fail': (2, {
        'out': '7071a6a1fca7c7f847fee4cc1b494f15321ba4c52ace220ba7b827b18092e301',
        'witness': '6f06cb8576927d570c7f1f7d769e0e8243e8b0ec1da5ee5d6ae0752bfaa0fb3f',
    }),
    'harem-graph-ok': (0, {
        'out': '0229df43bb9573c4f738f9178d6f8a90d5929215a33fdca1a44f14d070a00ff0',
    }),
    'harem-zd2-fail': (2, {
        'out': '5f9af1190c11c22ad34af61226b7307774170449ba5fd0a1e11549c8ca7a2dd8',
        'witness': 'd445b995f456e78cffe802122b48ea6dc75ac6a4f0cd35f9daa0bab608b9c026',
    }),
    'measures-affine5': (0, {
        'out': '15296648763fc07e1526378a63b12bfdf86014a6a02a8777ccbe5015b69f8873',
    }),
    'measures-affine5-point-mass': (2, {
        'out': 'd7f832faf8946e99b14ceda0e9e22147029486cfaa620dfabb29b4a357d11e06',
        'witness': '27a5796b25e19988b85b6b1fa4a20ae27e9ed128d449778087dd81b8ff80269b',
    }),
    'measures-affine5-weights': (2, {
        'out': 'dfe3b8a24f1be94c1f7f2ce18591dba04f5688282bb4e4f103f3ba8d10b2d5e9',
        'witness': '1c41186bf1e479be743b3360fcb0965d72d57de445beda43d08f0e6fc66ad29d',
    }),
    'paradox-free2': (0, {
        'out': 'fd5b0f17b18ce10b909d938117dc8980b2f64a0c4e2dea94cf2229e02938d8ed',
    }),
    'paradox-hyperoct2-fail': (2, {
        'out': '7371315dbb76e18255b69117bafe00f6007fd381f71fb2b7dcd0e4a5421be153',
        'witness': '7c5fd7cd3b7b5dbfc1f22383ec0876fe37585b61b718da6c4c3ce1f12c8b849f',
    }),
    'paradox-zd2-fail': (2, {
        'out': '6f56cb4699de22e2e1091bdcd50fb8b571aaedabbf691a2e9aa9ee44aef54c11',
        'witness': '1fbe3b1d8dc2b7bb4107536dca0886c75229f5002fcb987abf0215212b1bd153',
    }),
    'ratios-affine5-csv': (0, {
        'out': 'f0a8d841a9266f6e4a6b626fcb38e3754c6b76964d3951bcfd5ad452fc4373b5',
    }),
    'ratios-free2-uncertified-csv': (0, {
        'out': 'f451611f4ae0b1d422f2702462d3f0dffe676a9fde81b3ab076d7870f5f1b7d1',
    }),
    'ratios-free2-uncertified-json': (0, {
        'out': '1e9fdccfa59d25093d9958e297a44c7169e487370c49da70105efb7f81321df8',
    }),
    'ratios-hyperoct2-boxes-csv': (0, {
        'out': '3037dd78ac3521e6179c5d67c8035a8be08ecd85597b904cf757d2d1668af559',
    }),
    'ratios-hyperoct2-csv': (0, {
        'out': 'a844ac77fd33b3af13b06d3fdc8a6781ebc350ec305bd99fbe34c92755f007e1',
    }),
    'ratios-hyperoct2-json': (0, {
        'out': 'd63854fac4130e068a888a9789278926db9f5fa60c00c8c6d40a17f3358a1f73',
    }),
    'ratios-zd2-csv': (0, {
        'out': 'ed2cd651b73d8d428bed8c64415fb6877b9cb70118fa261a9bf2551897937109',
    }),
    'ratios-zd2-json': (0, {
        'out': '8379d708e5d155cda9e1731131b9e89726b2e7b933a8d94ffbd40a909dcb1677',
    }),
    'transfer-affine5': (0, {
        'out': '83295d32ee2d8c6ec38a531042c58a9b8c9be068fefef82a4e2cf4b3298b6cf5',
    }),
    'transfer-affine5-dilations': (2, {
        'out': 'ac2dddecd9b4be8683ecb3b08eb8cb1a113ddc761cc86d479b40615218e70c54',
        'witness': '3ca618225ecf0416d45124b66742a0dc2556ba1e0d82ef3037c36bf7ec533845',
    }),
    'verify-decomposition-free2': (0, {
        'out': 'f35b73c6e463dfe21fa6bc569c9abe0d2c4e183e816fbbcb1e72250801653b73',
    }),
    'verify-decomposition-free2-fail': (2, {
        'out': 'df2994ec9e38878d255d955c0161bd9d3b983fc3dd81c46fe3119e210eb12b3d',
        'witness': '7373b7d6f9d370f7e4308da49b4ef6e4aea5735e4bc16db71e72d64396a28d35',
    }),
}


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_decompositions(workdir: str) -> None:
    """dec.json from the free:2 paradox report; dec-moved.json with one
    point moved across the A pieces, which verification must refuse."""
    cfg = os.path.join(workdir, "paradox.json")
    out = os.path.join(workdir, "paradox.out")
    with open(cfg, "w") as fh:
        json.dump(PARADOX_FREE2, fh)
    assert main(["paradox", "--config", cfg, "--out", out]) == 0
    with open(out) as fh:
        data = json.load(fh)["result"]["decomposition"]
    with open(os.path.join(workdir, "dec.json"), "w") as fh:
        json.dump(data, fh)
    data["A"][1][1].append(data["A"][0][1].pop())
    with open(os.path.join(workdir, "dec-moved.json"), "w") as fh:
        json.dump(data, fh)


def run_case(case_id: str, workdir: str) -> tuple[int, dict]:
    """Run one case inside ``workdir``; return its exit code and digests."""
    command, cfg, extra = CASES[case_id]
    old = os.getcwd()
    os.chdir(workdir)
    try:
        if "decomposition" in cfg:
            _write_decompositions(workdir)
        with open("cfg.json", "w") as fh:
            json.dump(cfg, fh)
        code = main([command, "--config", "cfg.json", "--out", "report", *extra])
        written = {"out": "report", "witness": "report.witness.json"}
        return code, {k: _sha(p) for k, p in written.items() if os.path.exists(p)}
    finally:
        os.chdir(old)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_cli_output_is_byte_identical(case_id, tmp_path):
    assert run_case(case_id, str(tmp_path)) == GOLDEN[case_id]


if __name__ == "__main__":
    import tempfile

    print("GOLDEN = {")
    for case_id in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            code, digests = run_case(case_id, tmp)
        print(f"    {case_id!r}: ({code}, {{")
        for name in sorted(digests):
            print(f"        {name!r}: {digests[name]!r},")
        print("    }),")
    print("}")
    sys.exit(0)
