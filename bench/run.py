"""Benchmark of lineops: four seeded workloads through the public API.

    python3 bench/run.py --workload q-growth --seed 1 --seconds 20 --trace 0

One closed-loop client in one process: each pass runs the workload's task
list once, in order, and passes repeat until ``--seconds`` have elapsed.
Every output is checked after its pass, outside the timed region.

``--trace 0`` reports the end-to-end metrics (setup_s, wall_s, peak_rss_mb,
orbit_p50_ms, orbit_p99_ms) with tracing off.  Set-up is timed in several
fresh processes and the median reported.  Times are scaled to a reference
machine speed (see CAL_SHARE below).  ``--trace 1`` reports the
per-layer metrics from a traced run, plus the tracing overhead, and writes
the spans to ``bench/out/``.  Every metric is printed with its unit on
stderr; the last line of stdout is one JSON object.

The program is built from ``src/`` of the checkout this file sits in; the
benchmark refuses to run without it.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import deque
from fractions import Fraction
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("q-growth", "nf-suite", "ff-orbits", "pp-planes")
SETUP_SAMPLES = 5   # fresh processes whose set-up is timed
MIN_PASSES = 3      # per measured run, however short --seconds is
RUN_TIMEOUT_S = 170  # for all processes of one run together

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "orbit_p50_ms": "ms", "orbit_p99_ms": "ms"}

# Times are reported at a reference machine speed.  The speed of this
# process is sampled with a fixed calibration kernel, run after tasks for
# CAL_SHARE of the measured time.  Each task time is scaled by
# REF_SLICE_S / (median time of the kernel runs that follow it, or of the
# last CAL_WINDOW runs when fewer follow it).  On a shared machine the
# speed of one core drifts by a third within minutes; the scaled times
# drift far less.
CAL_SHARE = 0.05
CAL_WINDOW = 9
REF_SLICE_S = 0.0015
SETUP_SLICES = 30


class BenchError(Exception):
    pass


def _import_lineops():
    """Put the checkout's src first on the path and import from it."""
    if not os.path.isfile(os.path.join(SRC, "lineops", "__init__.py")):
        raise BenchError(f"no lineops package under {SRC}")
    sys.path.insert(0, SRC)
    import lineops
    if not os.path.abspath(lineops.__file__).startswith(SRC + os.sep):
        raise BenchError(f"lineops imported from {lineops.__file__}, "
                         f"not from {SRC}")


# ---------------------------------------------------------------------------
# inside one workload process

def calibration_slice() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    The work mixes what lineops spends its time on: Fraction arithmetic,
    products of small-integer tuples modulo a prime, and hashing tuples.
    """
    t0 = time.perf_counter()
    seen = {}
    a = (3, 5, 1, 4)
    for i in range(1, 150):
        key = (Fraction(i, 7) * Fraction(3, i + 2), i % 13, gcd(i, 360))
        seen[key] = seen.get(key, 0) + 1
        b = (i % 7, i * 3 % 7, i * 5 % 7, i % 5)
        prod = [0] * 7
        for j, x in enumerate(a):
            for k, y in enumerate(b):
                prod[j + k] = (prod[j + k] + x * y) % 7
        seen[tuple(prod)] = i
    return time.perf_counter() - t0


def speed(slices) -> float:
    """Factor that scales a time measured here to the reference speed."""
    return REF_SLICE_S / statistics.median(slices)


def run_passes(plan, seconds: float, min_passes: int, tracer=None) -> dict:
    """Repeat the task lists; time every task, then check its output.

    With a tracer, each task's spans carry its pass and name, and the layer
    metrics of every pass are collected.
    """
    from tracer import layer_metrics
    clock = time.perf_counter
    raw_s, scaled_s, layers, first_spans = {}, {}, [], []
    recent = deque(maxlen=CAL_WINDOW)
    slices = []
    passes = attempted = failed = 0
    work_s = cal_s = 0.0
    deadline = clock() + seconds
    while passes < min_passes or clock() < deadline:
        tasks = plan.pass_tasks(passes)
        outputs, unscaled = [], []
        for i, task in enumerate(tasks):
            if tracer is not None:
                tracer.task = f"p{passes}:{task.name}"
            t0 = clock()
            try:
                out = (True, task.run())
            except Exception:
                out = (False, traceback.format_exc())
            dt = clock() - t0
            outputs.append(out)
            raw_s.setdefault(task.name, []).append(dt)
            unscaled.append((task.name, dt))
            work_s += dt
            if cal_s >= CAL_SHARE * work_s and i < len(tasks) - 1:
                continue
            batch = [calibration_slice()]
            while cal_s + sum(batch) < CAL_SHARE * work_s:
                batch.append(calibration_slice())
            cal_s += sum(batch)
            slices += batch
            recent.extend(batch)
            factor = speed(batch if len(batch) >= CAL_WINDOW else recent)
            for name, t in unscaled:
                scaled_s.setdefault(name, []).append(t * factor)
            unscaled = []
        passes += 1
        if tracer is not None:
            spans = tracer.take()
            if not layers:
                first_spans = spans
            layers.append(layer_metrics(spans))
        for task, (ran, value) in zip(tasks, outputs):
            attempted += 1
            fault = task.check(value) if ran else value
            if fault is not None:
                failed += 1
                print(f"check failed: {task.name}: {fault}", file=sys.stderr)
    orbits = [t.name for t in plan.pass_tasks(0) if t.orbit]
    res = {"passes": passes, "layers": layers, "spans": first_spans,
           "speed": speed(slices), "attempted": attempted, "failed": failed}
    for prefix, task_s in (("", scaled_s), ("raw_", raw_s)):
        medians = {name: statistics.median(v) for name, v in task_s.items()}
        # a pass, with each task at its median time over the run
        res[prefix + "wall_s"] = sum(medians.values())
        # per dynamics-run task, its median time over the run
        res[prefix + "orbit_s"] = [medians[name] for name in orbits]
    return res


def timed_setup(workload: str, seed: int):
    """(plan, setup seconds, speed factor) in a fresh process."""
    t0 = time.perf_counter()
    _import_lineops()
    import workloads
    plan = workloads.setup(workload, seed)
    setup_s = time.perf_counter() - t0
    return plan, setup_s, speed([calibration_slice()
                                 for _ in range(SETUP_SLICES)])


def child_setup(workload: str, seed: int) -> dict:
    _, setup_s, setup_speed = timed_setup(workload, seed)
    return {"setup_s": setup_s, "speed": setup_speed}


def child_measure(workload: str, seed: int, seconds: float) -> dict:
    plan, setup_s, setup_speed = timed_setup(workload, seed)
    res = run_passes(plan, seconds, MIN_PASSES)
    res["setup_s"] = setup_s
    res["setup_speed"] = setup_speed
    res["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024)
    del res["layers"], res["spans"]
    return res


def child_trace(workload: str, seed: int, seconds: float) -> dict:
    """Untraced passes, then traced passes, then the probes."""
    _import_lineops()
    import probes
    import tracer as tr
    import workloads
    t = tr.Tracer()
    t.task = "setup"
    t.install()
    try:
        plan = workloads.setup(workload, seed)
    finally:
        t.uninstall()
    setup_spans = t.take()
    plain = run_passes(plan, seconds / 2, 2)
    t.install()
    try:
        traced = run_passes(plan, seconds / 2, 2, tracer=t)
    finally:
        t.uninstall()
    metrics = tr.pass_summary(traced["layers"],
                              tr.layer_metrics(setup_spans))
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    metrics.update(probes.field_rates(plan.field_inputs))
    attempted = plain["attempted"] + traced["attempted"] + 1
    failed = plain["failed"] + traced["failed"]
    metrics["cli.seq_json_s"], fault = probes.cli_seq_json(SRC)
    if fault is not None:
        failed += 1
        print(f"check failed: cli seq --json: {fault}", file=sys.stderr)
    metrics["failed_frac"] = failed / attempted
    path = _write_spans(workload, seed, setup_spans + traced["spans"])
    print(f"{workload} seed {seed}: {traced['passes']} traced passes; "
          f"spans of set-up and the first traced pass in "
          f"{os.path.relpath(path, ROOT)}", file=sys.stderr)
    return {"metrics": metrics, "attempted": attempted, "failed": failed}


def _write_spans(workload: str, seed: int, spans) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    with open(path, "w") as f:
        json.dump({"fields": ["name", "start", "end", "parent", "task"],
                   "spans": [s[:5] for s in spans]}, f)
    return path


# ---------------------------------------------------------------------------
# the parent: fresh processes, then one result line

def _spawn(role: str, args) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process still running after "
                         f"{RUN_TIMEOUT_S} s in all")
    if proc.returncode != 0:
        raise BenchError(f"{role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _orbit_metrics(orbit_s) -> dict:
    ms = [s * 1000 for s in orbit_s]
    return {"orbit_p50_ms": statistics.median(ms),
            "orbit_p99_ms": _quantile(ms, 99)}


def end_to_end(args) -> dict:
    setups = [_spawn("setup", args) for _ in range(SETUP_SAMPLES - 1)]
    m = _spawn("measure", args)
    setups.append({"setup_s": m["setup_s"], "speed": m["setup_speed"]})
    values = {
        "setup_s": statistics.median(s["setup_s"] * s["speed"]
                                     for s in setups),
        "wall_s": m["wall_s"],
        "peak_rss_mb": m["peak_rss_mb"],
        **_orbit_metrics(m["orbit_s"]),
    }
    raw = {"setup_s": statistics.median(s["setup_s"] for s in setups),
           "wall_s": m["raw_wall_s"], **_orbit_metrics(m["raw_orbit_s"])}
    print(f"{args.workload} seed {args.seed}: {m['passes']} passes, "
          f"{len(m['orbit_s'])} orbit samples, {SETUP_SAMPLES} set-ups; "
          f"speed factor {m['speed']:.4f}; unscaled: "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
          file=sys.stderr)
    metrics = {k: {"value": v, "unit": END_TO_END[k]}
               for k, v in values.items()}
    return {"correct": m["failed"] == 0, "attempted": m["attempted"],
            "failed": m["failed"], "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def per_layer(args) -> dict:
    r = _spawn("trace", args)
    metrics = {k: {"value": v, "unit": _unit(k)}
               for k, v in sorted(r["metrics"].items())}
    return {"correct": r["failed"] == 0, "attempted": r["attempted"],
            "failed": r["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "measure", "trace"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    args.deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        if args.child == "setup":
            result = child_setup(args.workload, args.seed)
        elif args.child == "measure":
            result = child_measure(args.workload, args.seed, args.seconds)
        elif args.child == "trace":
            result = child_trace(args.workload, args.seed, args.seconds)
        else:
            _import_lineops()
            result = per_layer(args) if args.trace else end_to_end(args)
            for k, m in result["metrics"].items():
                print(f"  {k:40s} {m['value']:>16.6g} {m['unit']}",
                      file=sys.stderr)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
