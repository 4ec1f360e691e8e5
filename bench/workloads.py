"""The benchmark's three workloads, one per use of the package.

Each workload builds the inputs of one variant, runs one op on them, and
checks the op's outputs against ``oracle`` after the timed region. A
variant is one of the 8 signed letter (or axis) permutations sigma, so all
variants have inputs of the same size. They are isomorphic but do not cost
the same: on free:2 the hashes of some words collide, and one sigma's op
takes up to a quarter longer than another's. A run therefore cycles through
all 8 variants in an order drawn from the seed (``variants``), so every
seed measures the same mix. ``size`` is the core radius; the last entry of
``sizes`` is the size the end-to-end metrics are measured at, and all three
feed the growth exponents of the traced run.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import oracle


def variants(seed: int) -> list:
    """The 8 sigma in the order a run cycles through them."""
    order = list(oracle.SIGMAS)
    random.Random(seed).shuffle(order)
    return order


def setup_variants(cs, workload, seed: int, size: int, outdir: str) -> list:
    """The states of all 8 variants of a workload at one size, in run order."""
    return [workload.setup(cs, sigma, random.Random(8 * seed + i), size, outdir)
            for i, sigma in enumerate(variants(seed))]


def _sigma_tag(sigma: tuple) -> str:
    return f"sigma{sigma[0]}_{sigma[1]}"


def _free2_points(r: int) -> int:
    return 2 * 3**r - 1


def _read_outputs(paths: list) -> tuple[list, int]:
    """Load and delete the JSON reports of one op; also return their bytes."""
    docs = []
    size = 0
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        size += len(data)
        docs.append(json.loads(data))
        os.remove(path)
    return docs, size


class ParadoxFree2:
    """``cellspaces paradox`` on free:2, core radius r, halo radius r + 2."""

    name = "paradox-free2"
    sizes = (4, 5, 6)
    core_points = staticmethod(_free2_points)

    def setup(self, cs, sigma: tuple, rng: random.Random, r: int, outdir: str) -> dict:
        cs.space_by_name("free:2")
        E = oracle.free2_expansion(sigma)
        cfg = {
            "space": {"name": "free:2"},
            "window": {"core_radius": r, "halo_radius": r + 2},
            "E": [list(e) for e in E],
        }
        path = os.path.join(outdir, f"{self.name}-r{r}-{_sigma_tag(sigma)}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return {"r": r, "E": E, "config": path, "outdir": outdir}

    def op(self, cs, state: dict, tag: str) -> dict:
        out = os.path.join(state["outdir"], f"{self.name}-{tag}.json")
        code = cs.cli.main(["paradox", "--config", state["config"], "--out", out])
        return {"code": code, "files": [out]}

    def check(self, state: dict, result: dict) -> tuple[list, int]:
        r = state["r"]
        (doc,), size = _read_outputs(result["files"])
        if "oracle" not in state:
            core, halo = oracle.words_upto(r), oracle.words_upto(r + 2)
            state["oracle"] = (core, halo, len(oracle.free2_graph(core, state["E"])[2]))
        core, halo, interior = state["oracle"]
        res = doc["result"]
        errors = []
        if result["code"] != 0 or res.get("stage") != "verified":
            errors.append(f"paradox exited {result['code']} at stage {res.get('stage')}")
            return errors, size
        if res["interior_size"] != interior or not all(c["ok"] for c in res["checks"]):
            errors.append(f"interior {res['interior_size']} != {interior} or a check failed")
        errors += oracle.check_free2_decomposition(res["decomposition"], core, halo, state["E"])
        return errors, size


class FolnerHyperoct2:
    """``ratios``, ``folner-search``, ``doubling`` and ``paradox`` on one
    hyperoct:2 config: box core of radius c, halo c + 2, balls of radii
    4, 8, ..., c."""

    name = "folner-hyperoct2"
    sizes = (12, 18, 24)
    commands = ("ratios", "folner-search", "doubling", "paradox")
    epsilon = Fraction(1, 20)

    @staticmethod
    def core_points(c: int) -> int:
        return (2 * c + 1) ** 2

    def setup(self, cs, sigma: tuple, rng: random.Random, c: int, outdir: str) -> dict:
        space = cs.space_by_name("hyperoct:2")
        identity = list(space.sd.G0.identity().payload)
        E = oracle.lattice_expansion(sigma)
        radii = list(range(4, c + 1, 4))
        cfg = {
            "space": {"name": "hyperoct:2"},
            "window": {"core_radius": c, "halo_radius": c + 2},
            "E": [[identity, list(v)] for v in E],
            "epsilon": f"{self.epsilon.numerator}/{self.epsilon.denominator}",
            "family": {"kind": "balls", "radii": radii},
        }
        path = os.path.join(outdir, f"{self.name}-c{c}-{_sigma_tag(sigma)}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return {"c": c, "E": E, "radii": radii, "config": path, "outdir": outdir}

    def op(self, cs, state: dict, tag: str) -> dict:
        codes = {}
        files = []
        for cmd in self.commands:
            out = os.path.join(state["outdir"], f"{self.name}-{tag}-{cmd}.json")
            codes[cmd] = cs.cli.main([cmd, "--config", state["config"], "--out", out])
            files.append(out)
            if codes[cmd] == 2:
                files.append(out + ".witness.json")
        return {"codes": codes, "files": files}

    def check(self, state: dict, result: dict) -> tuple[list, int]:
        existing = [p for p in result["files"] if os.path.exists(p)]
        missing = len(result["files"]) - len(existing)
        loaded, size = _read_outputs(existing)
        docs = {doc["command"]: doc for doc in loaded if "command" in doc}
        if missing or set(docs) != set(self.commands):
            return [f"{missing} report files missing"], size
        errors = oracle.check_lattice_outputs(
            docs, result["codes"], state["radii"], state["c"], state["c"] + 2,
            state["E"], self.epsilon,
        )
        return errors, size


class MeasuresFree2:
    """Library sequence on free:2 with core radius r and halo r + 1: the
    uniform measure, the Tarski contradiction against the closed-form
    decomposition, and funcamact of a seeded half of ball(r - 1)."""

    name = "measures-free2"
    sizes = (3, 4, 5)
    core_points = staticmethod(_free2_points)

    def setup(self, cs, sigma: tuple, rng: random.Random, r: int, outdir: str) -> dict:
        space = cs.space_by_name("free:2")
        window = space.ball_window(r, r + 1)
        inner = space.group.ball(r - 1)
        half = rng.sample(inner, len(inner) // 2)
        return {
            "r": r,
            "space": space,
            "window": window,
            "universe": cs.Window(window.core, window.core, "core"),
            "f": cs.indicator(window, half),
            "half": {m.payload for m in half},
            "words": [(x,) for x in sigma],
            "moves": [space.coset(space.group.word([x])) for x in sigma],
        }

    def op(self, cs, state: dict, tag: str) -> dict:
        space = state["space"]
        mu = cs.FAMeasure.uniform(state["universe"])
        D = cs.canonical_free_decomposition(space, state["universe"])
        tarski = cs.tarski_contradiction(space, D, mu)
        moved = [cs.funcamact(space, state["f"], g) for g in state["moves"]]
        return {"mu": mu, "tarski": tarski, "moved": moved}

    def check(self, state: dict, result: dict) -> tuple[list, int]:
        core = oracle.words_upto(state["r"])
        errors = []
        weights = {m.payload: w for m, w in result["mu"].weights.items()}
        if weights != {m: Fraction(1, len(core)) for m in core}:
            errors.append("uniform measure is not 1/|core| on the core")
        expected = oracle.tarski_values(core)
        if tuple(result["tarski"]) != expected:
            errors.append(f"Tarski values {result['tarski']} != {expected}")
        for word, fn in zip(state["words"], result["moved"]):
            got = {m.payload: v for m, v in fn.values.items()}
            if got != oracle.funcamact_values(state["half"], core, word):
                errors.append(f"funcamact under {word} differs from the oracle")
        return errors, 0


WORKLOADS = {w.name: w for w in (ParadoxFree2(), FolnerHyperoct2(), MeasuresFree2())}
