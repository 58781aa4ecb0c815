"""The ncfree benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads are ``enumerate-cold``,
``product-formula`` and ``lemma-sweep`` (see ``METRICS.md``).  Passes run
one after another, each in a fresh process (``passrun.py``), with no pool:
a pass never sees the memos of the one before.  Passes start until S
seconds have gone, and at least the workload's minimum number run.

With ``--trace 0`` every pass is untraced and the end-to-end metrics are
printed.  With ``--trace 1`` the first half of the time runs untraced
passes and the second half traced ones; the per-layer metrics are printed.
Every item of every pass is checked against its oracle; the last line of
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from config import LEMMA_CHECKS, MIN_PASSES

PASS_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "passrun.py")

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
RUN_LIMIT_S = 150  # no pass starts after this
RUN_DEADLINE_S = 175  # a pass still running then is killed: a run must end inside 180 s


def run_pass(workload: str, seed: int, index: int, traced: bool, timeout: float) -> dict:
    """One pass in a fresh process (see ``passrun.py`` for what it returns)."""
    env = dict(os.environ, PYTHONHASHSEED=str((seed * 1009 + index) % 4294967296))
    proc = subprocess.run(
        [sys.executable, PASS_SCRIPT, "--workload", workload, "--seed", str(seed),
         "--pass", str(index), "--trace", "1" if traced else "0"],
        capture_output=True, text=True, env=env, timeout=timeout, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(calls_per_pass: int, passes: int) -> float:
    """The highest ladder percentile with at least ten of the calls of
    ``passes`` passes beyond it.

    Taken at the workload's minimum pass count, so the percentile is fixed
    by the workload, not by how many passes fit in the time.
    """
    n = calls_per_pass * passes
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * pct / 100)) - 1]


def makespan(times: list[float], workers: int) -> float:
    """Finish time of list scheduling: each task goes to the first free worker."""
    free = [0.0] * workers
    for t in times:
        i = free.index(min(free))
        free[i] += t
    return max(free)


def end_to_end(workload: str, passes: list[dict]) -> tuple[dict, list[str]]:
    walls = [p["wall_s"] for p in passes]
    rates = [p["attempted"] / w for p, w in zip(passes, walls)]
    latencies = [s for p in passes for _, s in p["calls"]]
    pct = tail_percentile(len(passes[0]["calls"]), MIN_PASSES[workload])
    tail = percentile(latencies, pct)
    beyond = sum(1 for s in latencies if s > tail)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    q1, q2, q3 = statistics.quantiles(walls, n=4)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "items_per_s": (statistics.median(rates), "1/s"),
        "call_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "call_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "correct_frac": (1.0 - failed / attempted, "1"),
    }
    notes = [
        f"passes: {len(passes)}, items per pass: {passes[0]['attempted']}",
        f"wall_s quartiles: {q1:.4f} / {q2:.4f} / {q3:.4f} s",
        f"unscaled wall_s median: {statistics.median(p['raw_wall_s'] for p in passes):.4f} s, "
        f"host speed scale median: {statistics.median(p['scale'] for p in passes):.4f}",
        f"call_tail_ms is p{pct:g} of {len(latencies)} calls ({beyond} beyond it)",
        f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} items)",
    ]
    return metrics, notes


def per_layer(workload: str, plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Inner-layer figures from the traced passes; top-level call times
    (per check, per model, and the pool schedule built from them) from the
    untraced passes, where no wrapper slows them."""
    metrics = {}
    for name, (_, unit) in traced[0]["layers"].items():
        metrics[name] = (statistics.median(p["layers"][name][0] for p in traced), unit)

    def per_label_seconds(label: str) -> float:
        return statistics.median(
            sum(s for lab, s in p["calls"] if lab == label) for p in plain
        )

    for model in ("semicircular", "haar", "formal"):
        metrics[f"cumulants.model.{model}.s"] = (per_label_seconds(model), "s")
    names = [name for name, _ in LEMMA_CHECKS]
    check_s = {name: per_label_seconds(name) for name in names}
    for name in names:
        metrics[f"verify.{name}.s"] = (check_s[name], "s")
        metrics[f"verify.{name}.cases"] = (plain[0]["weights"].get(name, 0), "count")
    in_order = [check_s[n] for n in names]
    metrics["verify.pool.makespan2_s"] = (makespan(in_order, 2), "s")
    metrics["verify.pool.lpt2_s"] = (makespan(sorted(in_order, reverse=True), 2), "s")
    overhead = statistics.median(p["wall_s"] for p in traced) / statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead"] = (overhead, "ratio")

    notes = [f"untraced passes: {len(plain)}, traced passes: {len(traced)}",
             f"spans kept {traced[-1]['spans_kept']}, aggregated only {traced[-1]['spans_dropped']}; "
             f"written to .perfbench/trace-{workload}.json"]
    absent = {
        "enumerate-cold": "no cumulant, complement, moment, polynomial or verify call runs here",
        "product-formula": "no CLI or verify call runs here; enumeration memos are warm, so no element is enumerated in the pass",
        "lemma-sweep": "no cumulant, complement, moment, polynomial or CLI call runs here",
    }[workload]
    notes.append(f"metrics that read 0 are absent on this workload: {absent}")
    notes.append("verify.pool.* are computed from the per-check times for 2 workers, not measured")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ncfree benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(MIN_PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "ncfree", "__init__.py")):
        print("run.py: src/ncfree not found; run from the root of an ncfree checkout", file=sys.stderr)
        return 2

    start = time.perf_counter()

    def run_until(traced: bool, until: float, at_least: int, first_index: int) -> list[dict]:
        out = []
        while len(out) < at_least or time.perf_counter() - start < until:
            elapsed = time.perf_counter() - start
            if elapsed > RUN_LIMIT_S:
                break
            out.append(run_pass(args.workload, args.seed, first_index + len(out), traced, RUN_DEADLINE_S - elapsed))
        return out

    try:
        if args.trace:
            plain = run_until(False, args.seconds / 2, 1, 0)
            traced = run_until(True, args.seconds, 1, len(plain))
            passes = plain + traced
            metrics, notes = per_layer(args.workload, plain, traced)
        else:
            passes = run_until(False, args.seconds, MIN_PASSES[args.workload], 0)
            metrics, notes = end_to_end(args.workload, passes)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = {p["values_sha256"] for p in passes}
    for p in passes:
        for failure in p["failures"]:
            print(f"FAILED pass {p['pass']}: {failure}")
    if len(digests) != 1:
        print(f"FAILED: passes computed {len(digests)} different value sets")
    print(f"workload {args.workload}, seed {args.seed}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
