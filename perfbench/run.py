#!/usr/bin/env python3
"""The apolar benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli_verdicts --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; apolar is imported from `src/` there and
nowhere else.  The workloads, their reasons and the metric definitions are
in `perfbench/RATIONALE.md`; metric names and units come from
`BENCHMARK.json`.

`--trace 0` measures the end-to-end metrics: it runs whole passes of the
workload until `--seconds` have gone by, one caller and one item at a time
(a closed loop), and times each item alone, scaled to a reference host
speed (see "Host speed" in RATIONALE.md).  `--trace 1` gives the
per-layer metrics: it runs a fixed set of passes once untraced and once
with spans recorded, so its counts repeat exactly for a seed, and writes
the spans to `.perfbench_out/`.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the run's
provenance, its error rate with numerator and denominator, and the sample
counts behind each timing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 8  # fresh processes that time set-up, besides the run itself
MAX_FAILURES_SHOWN = 5
PRIME = 2**61 - 1
# Seconds that `_kernel` takes at the reference host speed.  Every reported
# time is scaled to that speed; see "Host speed" in RATIONALE.md.
REFERENCE_KERNEL_S = 0.001
_KERNEL_MATRIX = [[random.Random(f"{i},{j}").randrange(1, PRIME) for j in range(16)]
                  for i in range(16)]


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _kernel() -> None:
    """Fixed work of the kind apolar does: elimination of a 16x16 matrix mod p.

    No pivot search, so the work is the same whatever the entries become.
    """
    m = [row[:] for row in _KERNEL_MATRIX]
    for c, pivot_row in enumerate(m):
        inv = pow(pivot_row[c], PRIME - 2, PRIME)
        for i in range(c + 1, len(m)):
            f = m[i][c] * inv % PRIME
            m[i] = [(a - f * b) % PRIME for a, b in zip(m[i], pivot_row)]


def host_speed() -> float:
    """Seconds `_kernel` takes right now: the fastest of three runs, GC off."""
    best = math.inf
    gc.disable()
    try:
        for _ in range(3):
            started = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - started)
    finally:
        gc.enable()
    return best


def _scale(seconds: float, before: float, after: float) -> float:
    """A wall time taken between two kernel timings, at the reference speed."""
    return seconds * REFERENCE_KERNEL_S / ((before + after) / 2)


def _load_workload(name: str, seed: int):
    """Import apolar from this checkout, build the workload and its first pass.

    Returns the workload, its first pass, and the seconds all of that took
    (the set-up time of this process), raw and at the reference speed.
    """
    if not (SRC / "apolar" / "__init__.py").is_file():
        _fail(f"no apolar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    before = host_speed()
    started = time.perf_counter()
    import apolar

    if not Path(apolar.__file__).resolve().is_relative_to(SRC.resolve()):
        _fail(f"imported apolar from {apolar.__file__}, not from {SRC}")
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    first = workload.make_pass(0)
    setup = time.perf_counter() - started
    return workload, first, {"raw": setup, "scaled": _scale(setup, before, host_speed())}


def _probe_setup(name: str, seed: int) -> dict:
    """Set-up time of a fresh process, as that process measures it."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        _fail(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _attempt(workload, item):
    """Run one item; return (seconds, plain output, error message or None)."""
    started = time.perf_counter()
    try:
        raw = workload.call(item)
    except Exception as exc:  # a raising item is a failed item, not a crash
        return time.perf_counter() - started, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    try:
        output, error = workload.check(item, raw)
    except Exception as exc:  # malformed output
        return elapsed, None, f"check raised {type(exc).__name__}: {exc}"
    return elapsed, output, error


def _percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": _commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _timings(times: list[float], pass_rates: list[float], tail_percentile: float) -> dict:
    tail, _ = _percentile(times, tail_percentile)
    return {
        "items_per_s": statistics.median(pass_rates),
        "item_p50_ms": statistics.median(times) * 1000,
        "item_tail_ms": tail * 1000,
    }


def timed_run(workload, first, seconds: float) -> dict:
    """Whole passes, one item at a time, until `seconds` have gone by.

    The host speed is timed before and after every item, outside the item's
    own time.  The rate is the median over passes, so a slow stretch of the
    machine moves one pass rather than the run.
    """
    raw: tuple[list, list] = ([], [])  # item times, pass rates
    scaled: tuple[list, list] = ([], [])
    speeds: list[float] = []
    failures: list[str] = []
    passes = 0
    started = time.perf_counter()
    before = host_speed()
    while passes == 0 or time.perf_counter() - started < seconds:
        raw_pass, scaled_pass, verified = [], [], 0
        for item in first if passes == 0 else workload.make_pass(passes):
            elapsed, _, error = _attempt(workload, item)
            after = host_speed()
            raw_pass.append(elapsed)
            scaled_pass.append(_scale(elapsed, before, after))
            speeds.append(after)
            before = after
            if error is None:
                verified += 1
            else:
                failures.append(f"pass {passes} {item.klass}: {error}")
        for (times, rates), pass_times in ((raw, raw_pass), (scaled, scaled_pass)):
            times += pass_times
            rates.append(verified / sum(pass_times))
        passes += 1
    classes = len(first)
    tail_percentile = 100 * (classes - workload.tail_class + 0.5) / classes
    _, beyond = _percentile(raw[0], tail_percentile)
    return {
        "passes": passes,
        "wall_s": time.perf_counter() - started,
        "items": len(raw[0]),
        "failures": failures,
        "metrics": _timings(*scaled, tail_percentile),
        "raw_metrics": _timings(*raw, tail_percentile),
        "kernel_s": {"median": statistics.median(speeds), "min": min(speeds), "max": max(speeds)},
        "tail": {"percentile": tail_percentile, "beyond": beyond},
    }


def traced_run(workload, first, out_path: Path) -> dict:
    """The same items untraced and traced; their outputs must agree."""
    from tracer import Tracer, layer_metrics

    items = [it for p in range(workload.trace_passes)
             for it in (first if p == 0 else workload.make_pass(p))]
    failures: list[str] = []
    plain_time = traced_time = 0.0
    scales: list[float] = []  # per traced item, to the reference host speed
    tracer = Tracer()
    # each item runs untraced and then traced, back to back, so that a slow
    # stretch of the machine lands on both sides of the overhead ratio
    before = host_speed()
    for item in items:
        elapsed, plain, error = _attempt(workload, item)
        between = host_speed()
        plain_time += _scale(elapsed, before, between)
        if error is not None:
            failures.append(f"untraced {item.klass}: {error}")
        with tracer.installed(), tracer.item(item.klass):
            _, output, error = _attempt(workload, item)
        before = host_speed()
        _, start, end = tracer.items[-1]
        scales.append(_scale(1.0, between, before))
        traced_time += (end - start) * scales[-1]
        if error is not None:
            failures.append(f"traced {item.klass}: {error}")
        elif output != plain:
            failures.append(f"traced {item.klass}: output differs from the untraced run")
    metrics = layer_metrics(tracer, scales)
    metrics["trace.overhead_ratio"] = traced_time / plain_time
    try:
        out_path.parent.mkdir(exist_ok=True)
        tracer.write(out_path)
    except OSError as exc:
        print(f"perfbench: could not write spans: {exc}", file=sys.stderr)
    return {
        "items": len(items),
        "spans": len(tracer.spans),
        "spans_file": str(out_path.relative_to(ROOT)),
        "untraced_s": plain_time,
        "traced_s": traced_time,
        "failures": failures,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        _fail(f"unknown workload {args.workload!r}")

    workload, first, own_setup = _load_workload(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps(own_setup))
        return 0

    report = {"provenance": _provenance(args)}
    if args.trace:
        run = traced_run(workload, first,
                         ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}.spans.jsonl.gz")
        metrics, wanted = run.pop("metrics"), spec["per_layer"]
        attempted = 2 * run["items"]
    else:
        setups = [own_setup] + [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        run = timed_run(workload, first, args.seconds)
        metrics, wanted = run.pop("metrics"), spec["end_to_end"]
        metrics["setup_s"] = statistics.median(s["scaled"] for s in setups)
        run["raw_metrics"]["setup_s"] = statistics.median(s["raw"] for s in setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted = run.pop("items")
        run["samples"] = {"items": attempted, "passes": run.pop("passes"), "setup": len(setups)}
    failed = len(run["failures"])
    run["error_rate"] = {"value": failed / attempted, "failed": failed, "attempted": attempted}
    run["failures"] = run["failures"][:MAX_FAILURES_SHOWN]
    report.update(run)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        _fail(f"metrics not measured: {missing}")
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
