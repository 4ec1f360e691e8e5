"""Benchmark of cellspaces on three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload paradox-free2 --seed 1 --seconds 25 --trace 0

Each workload is a single-process closed loop with one client: the next op
starts when the previous one has returned. Set-up is timed in fresh
interpreters (``setup_probe.py``), the loop warms up before timing, and
every op is checked against ``oracle`` after the timed region. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
``layers.py`` at three sizes instead. The spans of a traced run are written
to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WARMUP_OPS = 2
SETUP_PROBES = 9
TAIL_BEYOND = 10


def import_cellspaces():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "cellspaces", "__init__.py")):
        raise SystemExit(f"bench: no cellspaces sources under {SRC}")
    sys.path.insert(0, SRC)
    import cellspaces
    import cellspaces.cli

    if not os.path.abspath(cellspaces.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported cellspaces from {cellspaces.__file__}, not {SRC}")
    return cellspaces


def oracle_self_check() -> list:
    """The oracles' errors on known values, from a separate interpreter so
    that their memory does not count in the workload's peak."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "oracle.py")],
                          capture_output=True, text=True, timeout=120)
    errors = proc.stdout.splitlines()
    if proc.returncode and not errors:
        errors = [f"oracle self-check exited {proc.returncode}: {proc.stderr[-300:]}"]
    return errors


def setup_seconds(workload: str, seed: int, outdir: str) -> list:
    """Set-up time of the workload in fresh interpreters, one per probe."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), outdir],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


class Runner:
    """Runs ops of one workload, cycling through its 8 variants and keeping
    each op's time and result."""

    def __init__(self, cs, workload, seed: int, size: int, outdir: str, label: str = ""):
        self.cs = cs
        self.workload = workload
        self.size = size
        self.label = label or str(size)  # names the op's output files
        self.states = workloads.setup_variants(cs, workload, seed, size, outdir)
        self.results: list = []
        self.count = 0

    def run(self) -> float:
        gc.collect()
        state = self.states[self.count % len(self.states)]
        tag = f"{self.label}-{self.count}"
        self.count += 1
        start = time.perf_counter()
        try:
            result = self.workload.op(self.cs, state, tag)
        except Exception as exc:  # a raising op is a failed op, not a crash
            result = exc
        elapsed = time.perf_counter() - start
        self.results.append((state, result))
        return elapsed

    def check(self) -> tuple[int, int, list]:
        """(failed ops, output bytes of an op on the first variant, error
        messages)."""
        failed = 0
        size = 0
        errors = []
        for state, result in self.results:
            if isinstance(result, Exception):
                errs = [f"{type(result).__name__}: {result}"]
            else:
                try:
                    errs, nbytes = self.workload.check(state, result)
                    if state is self.states[0]:
                        size = nbytes
                except Exception as exc:  # output the check cannot read fails the op
                    errs = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if errs:
                failed += 1
                errors.extend(errs)
        self.results.clear()
        return failed, size, errors


def tail(times: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, but never below the 75th.

    Below 41 samples the rule alone would pick a percentile under the
    upper quartile (under the median below 21), so the upper quartile is
    reported instead, with fewer than ten samples beyond it."""
    s = sorted(times)
    i = max(len(s) - 1 - TAIL_BEYOND, math.ceil(0.75 * len(s)) - 1)
    return s[i], 100.0 * (i + 1) / len(s)


def growth(sizes: list, values: list) -> float:
    """Least-squares slope of log(value) against log(size); 0 if a value is 0."""
    if min(values) <= 0:
        return 0.0
    xs = [math.log(x) for x in sizes]
    ys = [math.log(y) for y in values]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def measure(cs, workload, seed: int, seconds: float, outdir: str) -> tuple[dict, int, int]:
    size = workload.sizes[-1]
    setups = setup_seconds(workload.name, seed, outdir)
    runner = Runner(cs, workload, seed, size, outdir)
    warm = [runner.run() for _ in range(WARMUP_OPS)]
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(runner.run())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, _, errors = runner.check()
    attempted = len(warm) + len(times)
    p50 = statistics.median(times)
    tail_s, tail_pct = tail(times)
    points = workload.core_points(size)
    for err in errors[:5]:
        print(f"FAIL {err}")
    print(
        f"{workload.name} seed={seed} core={points} points: "
        f"op_s.p50={p50:.4f} s (n={len(times)}), "
        f"op_s.tail={tail_s:.4f} s (p{tail_pct:.0f}, n={len(times)}), "
        f"warm-up ops {', '.join(f'{t:.3f}' for t in warm)} s, "
        f"setup_s={statistics.median(setups):.4f} s (n={len(setups)}), "
        f"fail_ratio={failed}/{attempted}"
    )
    metrics = {
        "op_s.p50": (p50, "s"),
        "op_s.tail": (tail_s, "s"),
        "points_per_s": (points * len(times) / sum(times), "points/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, attempted, failed


def measure_layers(cs, workload, seed: int, seconds: float, outdir: str) -> tuple[dict, int, int]:
    runners = {n: Runner(cs, workload, seed, n, outdir) for n in workload.sizes}
    largest = runners[workload.sizes[-1]]
    for runner in runners.values():
        runner.run()

    counting = layers.CountPass()
    calls = {}
    for n, runner in runners.items():
        counting.counts.clear()
        counting.install()
        try:
            runner.run()
        finally:
            counting.restore()
        calls[n] = dict(counting.counts)

    # Untraced ops at the largest size run on their own runner, in step
    # with the traced ones, so that both see the same variants.
    plain = Runner(cs, workload, seed, workload.sizes[-1], outdir, "untraced")
    plain.count = largest.count
    spans = layers.SpanPass()
    traced: list = []
    untraced: list = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for n, runner in runners.items():
            spans.op = f"{n}:{runner.count}"
            spans.install()
            try:
                t = runner.run()
            finally:
                spans.restore()
            if runner is largest:
                traced.append(t)
        untraced.append(plain.run())

    attempted = sum(len(r.results) for r in (*runners.values(), plain))
    failed = 0
    for runner in (*runners.values(), plain):
        f, size, errors = runner.check()
        failed += f
        if runner is largest:
            out_bytes = size
        for err in errors[:5]:
            print(f"FAIL {err}")

    metrics = layer_metrics(workload, calls, spans, layers.SPAN_NAMES)
    metrics["cli.out_bytes"] = (out_bytes, "bytes")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced),
                                       "ratio")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{workload.name}-seed{seed}.json"), "w") as fh:
        json.dump({"workload": workload.name, "seed": seed, "calls": calls,
                   "spans": spans.records()}, fh)
    print(
        f"{workload.name} seed={seed} traced: {len(traced)} span ops per size "
        f"{list(workload.sizes)}, overhead {metrics['trace.overhead_ratio'][0]:.3f}, "
        f"fail_ratio={failed}/{attempted}"
    )
    return metrics, attempted, failed


def layer_metrics(workload, calls: dict, spans, span_names: tuple) -> dict:
    """Per-op counts and self seconds at the largest size, and growth
    exponents of inclusive seconds across the three sizes."""
    big = workload.sizes[-1]
    core = workload.core_points(big)
    counted = calls[big]
    derived = next(c for op, c in spans.counts.items() if op.startswith(f"{big}:"))

    metrics = {}
    for metric in ("groups.mul.calls", "groups.inverse.calls", "groups.eq.calls",
                   "groups.hash.calls", "spaces.semi_action.calls",
                   "spaces.exact_preimage_point.calls", "spaces.window_set.builds"):
        metrics[metric] = (counted.get(metric, 0), "count")
    metrics["spaces.semi_action.per_point"] = (
        counted.get("spaces.semi_action.calls", 0) / core, "calls/point")
    for metric in ("spaces.preimage.calls", "folner.ratios.calls", "paradox.graph.right",
                   "paradox.graph.edges", "matching.pairs", "matching.witness_size"):
        metrics[metric] = (derived[metric], "count")
    metrics["paradox.interior_ratio"] = (
        derived["interior"] / derived["interior.core"] if derived["interior.core"] else 0.0,
        "ratio")
    metrics["folner.certified_ratio"] = (
        derived["ratios.certified"] / derived["folner.ratios.calls"]
        if derived["folner.ratios.calls"] else 0.0, "ratio")

    own, total = spans.times()
    med = {}  # (self or inclusive, size) -> span -> median seconds per op
    for kind, per_op in (("self", own), ("inclusive", total)):
        for n in workload.sizes:
            ops = [by_name for op, by_name in per_op.items() if op.startswith(f"{n}:")]
            med[kind, n] = {name: statistics.median(t.get(name, 0.0) for t in ops)
                            for name in span_names}
    points = [workload.core_points(n) for n in workload.sizes]
    for span in span_names:
        metric = "cli.main.self_s" if span == "cli.main" else f"{span}.s"
        metrics[metric] = (med["self", big][span], "s")
    for span in span_names:
        inclusive = [med["inclusive", n][span] for n in workload.sizes]
        metrics[f"{span}.growth"] = (growth(points, inclusive), "exponent")
    return metrics


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing keeps set orders, and so the call counts,
        # identical from run to run.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cs = import_cellspaces()
    oracle_errors = oracle_self_check()
    for err in oracle_errors:
        print(f"ORACLE {err}")
    workload = workloads.WORKLOADS[args.workload]
    outdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    try:
        run = measure_layers if args.trace else measure
        metrics, attempted, failed = run(cs, workload, args.seed, args.seconds, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if oracle_errors:
        failed = attempted  # an oracle that fails its known values certifies nothing
        if "success_ratio" in metrics:
            metrics["success_ratio"] = (0.0, "ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
