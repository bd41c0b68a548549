"""End-to-end benchmark of the F2PM reproduction.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload paper-pipeline --seed 1 --seconds 10 --trace 0

Each invocation is one process running one workload (``workloads.py``)
with ``jobs=1`` and BLAS pinned to one thread: set-up, repeated
``SETUP_REPS`` times, then ops until ``--seconds`` have passed. Inputs
derive from ``--seed`` (see ``workloads.derive``); the artifact store
lives in a fresh directory under ``.e2ebench-work/``, removed at exit.

End-to-end metrics, each reported for every workload:

* ``setup_s`` — the median set-up repetition: the benchmark's imports
  (and so the program's) in a fresh interpreter, input generation, any
  policy fit and a small warm-up op, each calibrated by the kernel
  samples paced through it;
* ``sim_s_per_s`` — node-seconds simulated or controlled per second,
  the median over the run's ops (scenario-sweep: the geometric mean over
  presets of each preset's rate);
* ``peak_rss_mb`` — ``ru_maxrss`` of the process.

Each op's timings are in seconds calibrated by the kernel samples taken
during that op (see ``harness``); the raw values, the time of one op
(``pipeline_s``; paper-pipeline's whole run) and the scenario-sweep warm
rerun (``campaign.warm_ms``) are reported beside them. The last stdout line
is ``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer ones. A traced
run alternates untraced and traced ops on the same inputs; traced ops
wrap each layer's entry points (``tracing.py``), must reproduce the
untraced outputs exactly, and their spans are written to
``.e2ebench-work/traces/``. The line before the last is a full report:
environment, raw and calibrated values, calibration samples, per-op
checks and output digests. Digests are recorded, never gated on.

A per-layer metric the workload does not exercise reads 0, as does a
percentile with fewer than ten samples beyond it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

T0 = time.perf_counter()
HERE = Path(__file__).resolve().parent

SETUP_REPS = 3
#: One set-up in a fresh interpreter, as every CLI run pays it: the
#: imports, the inputs, any fit and the warm-up op. Repeated in one
#: process, the first set-up also paid one-time costs the later ones
#: skipped, and the median jumped between the two kinds. The kernel is
#: paced through it from the first import on, and its time is excluded;
#: prints the raw seconds, the calibration factor and the mean sample.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
src, here, name, seed, work, array = sys.argv[1:]
sys.path[:0] = [src, here]
import harness
cal = harness.Calibrator(array=array == "1", since=t0)
cal.pace(force=True)
from pathlib import Path
from workloads import WORKLOADS
cal.pace(force=True)
wl = WORKLOADS[name](int(seed), Path(work))
wl.setup()
cal.pace(force=True)
wl.warmup(cal)
cal.pace(force=True)
print(time.perf_counter() - t0 - cal.spent, cal.factor(cal.samples),
      sum(cal.samples) / len(cal.samples))
"""
#: Pinned to one thread before numpy loads: an unpinned LS-SVM fit leans
#: on the shared second core, which the single-threaded kernel cannot
#: calibrate.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "sim_s_per_s": "s/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in
       ("system", "core", "ml", "serving", "rejuvenation", "campaign", "store")},
    "trace.unattributed_s": "s",
    "system.sim_s": "s",
    "system.run_ms_p50": "ms",
    "system.run_ms_p75": "ms",
    "system.fallback_runs": "count",
    "system.step_ms_p50": "ms",
    "system.step_ms_p99": "ms",
    "core.aggregate_s": "s",
    "core.select_s": "s",
    "core.rows": "count",
    **{f"ml.train_s.{fam}": "s" for fam in
       ("svm", "svm2", "m5p", "reptree", "linear", "lasso")},
    "ml.validate_s": "s",
    "ml.svr_iters": "count",
    "ml.compile_s": "s",
    "ml.compile_kept_frac": "frac",
    "ml.predict_s": "s",
    "ml.rows_per_call": "count",
    "rejuvenation.tick_ms_p50": "ms",
    "rejuvenation.tick_ms_p99": "ms",
    "rejuvenation.ticks": "count",
    "rejuvenation.restarts": "count",
    "rejuvenation.restarts_deferred": "count",
    "rejuvenation.crashes": "count",
    "store.cold_overhead_s": "s",
    "store.warm_ms_per_cell": "ms",
    "store.bytes": "bytes",
    "campaign.cells_run": "count",
    "campaign.cells_cached": "count",
    "campaign.warm_ms": "ms",
    "pipeline_s": "s",
    "calib.ms": "ms",
    "calib.factor": "ratio",
    "raw.setup_s": "s",
    "raw.pipeline_s": "s",
    "raw.sim_s_per_s": "s/s",
    "raw.warm_ms": "ms",
    "trace.op_s": "s",
    "trace.overhead_frac": "frac",
}

#: Per-op counts (and program-timed seconds) reported as the median over
#: a run's traced ops.
OP_COUNTS = (
    "system.fallback_runs", "core.rows", "ml.validate_s", "ml.svr_iters",
    "ml.compile_kept_frac", "rejuvenation.restarts",
    "rejuvenation.restarts_deferred", "rejuvenation.crashes", "store.bytes",
    "campaign.cells_run",
) + tuple(f"ml.train_s.{fam}" for fam in ("svm", "svm2", "m5p", "reptree", "linear", "lasso"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("paper-pipeline", "scenario-sweep", "fleet-testbed", "fleet-scale"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: no src/repro here; run from the root of a repository checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy loads
        os.environ[var] = "1"
    os.environ.pop("F2PM_OBS", None)  # observability at its default: on
    work_root = root / ".e2ebench-work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["F2PM_CACHE_DIR"] = str(work / "cache")
    sys.path.insert(0, str(root / "src"))
    try:
        return run(args, root, work, work_root)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, root: Path, work: Path, work_root: Path) -> int:
    import harness
    import tracing
    from workloads import WORKLOADS, fresh_op_state

    wl = WORKLOADS[args.workload](args.seed, work)
    setup = measure_setup(args, root, work, wl.array_kernel)
    wl.setup()
    wl.warmup()

    cal = harness.Calibrator(array=wl.array_kernel)
    rec = tracing.Recorder() if args.trace else None
    cal.rec = rec
    plain, traced = [], []
    crashed = 0
    start = time.perf_counter()
    k = 0
    while True:
        for ops, tracer in ((plain, None), (traced, rec)) if rec else ((plain, None),):
            fresh_op_state()
            if tracer is not None:
                tracer.op = str(k)
            try:
                ops.extend(wl.op(k, cal, tracer))
            except Exception:  # a failed op is counted, not fatal
                traceback.print_exc()
                crashed += 1
        k += 1
        enough = k >= (1 if rec is not None else wl.min_ops)
        if enough and time.perf_counter() - start >= args.seconds:
            break

    mains = [o for o in plain if not o.warm]
    if not mains:
        print(f"error: every {args.workload} op failed", file=sys.stderr)
        return 1
    warms = [o for o in plain if o.warm]

    def factor(o):
        return cal.factor(o.kernel)

    raw = {
        "pipeline_s": med(o.seconds for o in mains),
        "sim_s_per_s": med(wl.rate(o) for o in mains),
    }
    calibrated = {
        "pipeline_s": med(o.seconds * factor(o) for o in mains),
        "sim_s_per_s": med(wl.rate(o) / factor(o) for o in mains),
    }
    if warms:
        raw["warm_ms"] = med(o.seconds for o in warms) * 1e3
        calibrated["warm_ms"] = med(o.seconds * factor(o) for o in warms) * 1e3
    raw["setup_s"] = med(setup["reps_s"])
    calibrated["setup_s"] = med(setup["reps_calibrated_s"])
    calibrated["peak_rss_mb"] = harness.peak_rss_mb()

    # A traced op must reproduce its untraced twin's outputs exactly.
    twins = {o.label: o for o in plain}
    for o in traced:
        if o.label not in twins or o.digests != twins[o.label].digests:
            o.problems.append(f"traced op {o.label} outputs differ from the untraced op")
    every = plain + traced
    failed = crashed + sum(1 for o in every if o.problems)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": harness.environment(root, BLAS_THREAD_VARS, cal),
        "raw": raw,
        "calibrated": calibrated,
        "calibration": {
            "samples": len(cal.samples),
            "mean_ms": statistics.fmean(cal.samples) * 1e3,
            "op_factors": [factor(o) for o in mains],
            "kernel_s": cal.spent,
            "run_s": time.perf_counter() - T0,
        },
        "setup": setup,
        "ops": [
            {"label": o.label, "warm": o.warm, "seconds": o.seconds,
             "rate": None if o.warm else wl.rate(o), "factor": factor(o),
             "kernel_ms": statistics.fmean(o.kernel) * 1e3,
             "problems": o.problems, "digests": o.digests}
            for o in every
        ],
    }
    if rec is None:
        metrics = {name: {"value": calibrated[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        values = layer_metrics(traced, rec, cal, factor, raw, calibrated)
        report["layers"] = values
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        traces = work_root / "traces"
        traces.mkdir(exist_ok=True)
        rec.write(traces / f"{args.workload}-seed{args.seed}.json")

    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": len(every) + crashed,
                      "failed": failed, "metrics": metrics}))
    return 0


def measure_setup(args, root: Path, work: Path, array_kernel: bool) -> dict:
    """Time set-up ``SETUP_REPS`` times, each in a fresh interpreter and
    calibrated by the kernel samples paced through it (raw and
    calibrated seconds, and the mean kernel sample per repetition)."""
    out: dict[str, list[float]] = {"reps_s": [], "reps_calibrated_s": [], "kernel_ms": []}
    for i in range(SETUP_REPS):
        probe = [sys.executable, "-c", SETUP_PROBE, str(root / "src"), str(HERE),
                 args.workload, str(args.seed), str(work / f"setup-{i}"),
                 str(int(array_kernel))]
        child = subprocess.run(probe, capture_output=True, text=True, check=True,
                               timeout=120)
        rep, factor, kernel = map(float, child.stdout.splitlines()[-1].split())
        out["reps_s"].append(rep)
        out["reps_calibrated_s"].append(rep * factor)
        out["kernel_ms"].append(kernel * 1e3)
    return out


def med(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(traced, rec, cal, factor, raw, calibrated) -> dict[str, float]:
    """Per-layer values of a traced run, seconds calibrated by each
    op's own *factor*."""
    import harness
    import tracing

    mains = [o for o in traced if not o.warm]
    warms = [o for o in traced if o.warm]
    per_op = {o.label: tracing.OpTrace(rec, o.label) for o in traced}
    out: dict[str, float] = {}

    def op_sum(o, name):
        return sum(per_op[o.label].by_name.get(name, ())) * factor(o)

    def pooled_ms(name):
        return [d * 1e3 * factor(o) for o in mains
                for d in per_op[o.label].by_name.get(name, ())]

    def pct(values, q):
        v = harness.tail_percentile(values, q)
        return 0.0 if v is None else v

    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = med(per_op[o.label].self_s[layer] * factor(o)
                                     for o in mains)
    out["trace.unattributed_s"] = med((o.seconds - per_op[o.label].covered_s)
                                      * factor(o) for o in mains)
    out["system.sim_s"] = med(sum(o.work) for o in mains)
    runs = pooled_ms("TestbedSimulator.run_once")
    out["system.run_ms_p50"] = pct(runs, 50)
    out["system.run_ms_p75"] = pct(runs, 75)
    steps = pooled_ms("FleetSource.step")
    out["system.step_ms_p50"] = pct(steps, 50)
    out["system.step_ms_p99"] = pct(steps, 99)
    for metric, name in (("core.aggregate_s", "aggregate_history"),
                         ("core.select_s", "LassoFeatureSelector.fit"),
                         ("ml.compile_s", "compile_predictor"),
                         ("ml.predict_s", "model.predict")):
        out[metric] = med(op_sum(o, name) for o in mains)
    rows = [r for o in mains for r in o.predict_rows]
    out["ml.rows_per_call"] = statistics.fmean(rows) if rows else 0.0
    ticks = [(b - a) * 1e3 * factor(o) for o in mains
             for a, b in zip(o.tick_starts, o.tick_starts[1:])]
    out["rejuvenation.tick_ms_p50"] = pct(ticks, 50)
    out["rejuvenation.tick_ms_p99"] = pct(ticks, 99)
    out["rejuvenation.ticks"] = med(len(o.tick_starts) for o in mains)
    for name in OP_COUNTS:
        scaled = name.endswith("_s")
        out[name] = med(o.counts.get(name, 0.0) * (factor(o) if scaled else 1.0)
                        for o in mains)
    out["store.cold_overhead_s"] = out["store.self_s"]
    if warms:
        cells = sum(o.counts["campaign.cells_cached"] for o in warms)
        store_s = sum(per_op[o.label].self_s["store"] * factor(o) for o in warms)
        out["store.warm_ms_per_cell"] = store_s / cells * 1e3
        out["campaign.cells_cached"] = med(o.counts["campaign.cells_cached"] for o in warms)
        out["campaign.warm_ms"] = calibrated["warm_ms"]
    out["calib.ms"] = statistics.fmean(cal.samples) * 1e3
    out["calib.factor"] = med(factor(o) for o in mains)
    out["pipeline_s"] = calibrated["pipeline_s"]
    for name, value in raw.items():
        out[f"raw.{name}"] = value
    traced_s = med(o.seconds * factor(o) for o in mains)
    out["trace.op_s"] = traced_s
    out["trace.overhead_frac"] = traced_s / calibrated["pipeline_s"] - 1.0
    return out


if __name__ == "__main__":
    sys.exit(main())
