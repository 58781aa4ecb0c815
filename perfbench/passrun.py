"""One pass of one workload, in a process of its own.

    python3 perfbench/passrun.py --workload NAME --seed N --pass K --trace 0|1

Run from the repository root; ``run.py`` starts one of these per pass so
that no pass inherits the memos of another.  Prints one JSON object: the
set-up and pass times, peak RSS, every top-level call's latency, the item
counts and failures, digests of the visit order and of the values, and,
when traced, the per-layer figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time

MAX_FAILURES_SHOWN = 5

# The host's CPU speed can jump by half within a second and drift over
# tens of seconds: on a 2-CPU virtual machine with nothing else running, the
# calibration loop below took 4.3 to 12.3 ms back to back.  A pass therefore
# measures the speed as it goes: the loop runs before and after set-up, then
# each time SEGMENT_S of the pass has gone by, and the times measured in each
# segment are scaled to the speed at which the loop takes CAL_REF_S.  A pass
# of at most FEW_CALLS calls closes a segment after every call instead, so
# that each call's latency is scaled by the speed measured right around it.
# Calibration time is not counted in the pass.
CAL_ITERATIONS = 20_000
CAL_REF_S = 0.006
SEGMENT_S = 0.2
FEW_CALLS = 100


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop of tuple, dict and integer work."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(CAL_ITERATIONS):
        key = (i & 255, 7)
        table[key] = table.get(key, 0) + i * i
    return time.perf_counter() - start


def layer_metrics(tracer, enum_setup_s: float) -> dict:
    """Per-layer figures of a traced pass (top-level call times come from
    untraced passes, see ``run.py``)."""
    from spans import COMPLEMENT, ENUM, JOIN, MOMENT, POLY

    enum_s = tracer.self_seconds(ENUM)
    elements = tracer.counts["annular.enum.elements"]
    examined = tracer.calls(COMPLEMENT, parent="cumulants.main_product_cumulant")
    kept = tracer.calls(("cumulants.kappa_vp",), parent="cumulants.main_product_cumulant")
    out = {
        "annular.enum.s": (enum_s, "s"),
        "annular.enum.elements": (elements, "count"),
        "annular.enum.elements_per_s": (elements / enum_s if elements else 0.0, "1/s"),
        "annular.enum.hit_ratio": (tracer.hit_ratio(ENUM), "ratio"),
        "annular.enum.setup_s": (enum_setup_s, "s"),
        "annular.complement.calls": (tracer.calls(COMPLEMENT), "count"),
        "annular.complement.s": (tracer.self_seconds(COMPLEMENT), "s"),
        "annular.filter.pass_ratio": (kept / examined if examined else 0.0, "ratio"),
        "perm.join.calls": (tracer.calls(JOIN), "count"),
        "perm.join.s": (tracer.self_seconds(JOIN), "s"),
        "spaces.poly.ops": (tracer.calls(POLY), "count"),
        "spaces.poly.s": (tracer.self_seconds(POLY), "s"),
        "spaces.moment.calls": (tracer.calls(MOMENT), "count"),
        "spaces.moment.s": (tracer.self_seconds(MOMENT), "s"),
        "cli.serialize.s": (tracer.self_seconds(("cli.enumerate",)), "s"),
        "cli.bytes": (tracer.counts["cli.bytes"], "B"),
    }
    for fn in ("kappa_n", "kappa_pq", "kappa_vp"):
        name = (f"cumulants.{fn}",)
        out[f"cumulants.{fn}.calls"] = (tracer.calls(name), "count")
        out[f"cumulants.{fn}.hit_ratio"] = (tracer.hit_ratio(name), "ratio")
    for short, fn in (
        ("main", "main_product_cumulant"),
        ("oracle", "oracle_product_cumulant"),
        ("ks", "ks_product_cumulant"),
        ("haar", "haar_kappa_pq"),
    ):
        out[f"cumulants.{short}.s"] = (tracer.self_seconds((f"cumulants.{fn}",)), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cal = calibrate()
    setup_start = time.perf_counter()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import ncfree

    root_src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(ncfree.__file__).startswith(root_src + os.sep):
        print(f"ncfree was imported from {ncfree.__file__}, not from ./src", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, Mismatch

    tracer = None
    if args.trace:
        from spans import ENUM, Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    workload = WORKLOADS[args.workload](tracer)
    workload.setup()
    enum_setup_s = 0.0
    if tracer is not None:
        enum_setup_s = tracer.self_seconds(ENUM)
        tracer.reset()
    items = workload.items(random.Random(f"{args.workload}:{args.seed}:{args.pass_index}"))
    raw_setup_s = time.perf_counter() - setup_start
    next_cal = calibrate()
    setup_s = raw_setup_s * CAL_REF_S / ((cal + next_cal) / 2)
    cal = next_cal

    calls, records, failures = [], [], []
    weights: dict[str, int] = {}
    attempted = failed = 0
    raw_wall_s = wall_s = 0.0
    segment_min_s = 0.0 if len(items) <= FEW_CALLS else SEGMENT_S
    segment_start, segment_first = time.perf_counter(), 0
    for n, item in enumerate(items, 1):
        t1 = time.perf_counter()
        try:
            if tracer is None:
                value = item.call()
            else:
                with tracer.span("bench.item"):
                    value = item.call()
            error = None
        except Exception as exc:  # a crash in the code under test fails the item
            error = f"raised {type(exc).__name__}: {exc}"
        calls.append([item.label, time.perf_counter() - t1])
        attempted += item.weight
        weights[item.label] = weights.get(item.label, 0) + item.weight
        if error is None:
            try:
                records.append(f"{item.key}: {item.check(value)}")
            except Mismatch as exc:
                error = str(exc)
        if error is not None:
            failed += item.weight
            failures.append(f"{item.key}: {error}")
        segment_s = time.perf_counter() - segment_start
        if segment_s >= segment_min_s or n == len(items):
            next_cal = calibrate()
            scale = CAL_REF_S / ((cal + next_cal) / 2)
            raw_wall_s += segment_s
            wall_s += segment_s * scale
            for call in calls[segment_first:]:
                call[1] *= scale
            cal, segment_first = next_cal, len(calls)
            segment_start = time.perf_counter()
    scale = wall_s / raw_wall_s

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "pass": args.pass_index,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": raw_wall_s,
        "scale": scale,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:MAX_FAILURES_SHOWN],
        "calls": calls,
        "weights": weights,
        "order_sha256": hashlib.sha256("\n".join(i.key for i in items).encode()).hexdigest(),
        "values_sha256": hashlib.sha256("\n".join(sorted(records)).encode()).hexdigest(),
    }
    if tracer is not None:
        power = {"s": 1, "1/s": -1}  # how a figure in this unit scales with time
        result["layers"] = {
            name: (value * scale ** power.get(unit, 0), unit)
            for name, (value, unit) in layer_metrics(tracer, enum_setup_s).items()
        }
        out_dir = os.path.join(os.getcwd(), ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"trace-{args.workload}.json"))
        result["spans_kept"] = len(tracer.spans)
        result["spans_dropped"] = tracer.dropped
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
