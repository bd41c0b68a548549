"""Steadiness runs and the committed record.

Runs ``run.py`` on each workload once per seed, one process at a time,
then once traced, and writes ``RECORD.json``: the environment, the
calibration nominal, per workload and metric the median and the
interquartile spread (as a share of the median) of both the raw and the
calibrated values, a flag where calibration did not lower the spread,
the slope of log seconds per node-second on log kernel sample over the
set's ops (1 where the work slows with the host as the kernel does),
and the traced run's layer table with its op counts. ``--second``
repeats the set untraced and records each median's shift from the
first set. Exits 1 if any op, traced or not, failed its checks. From
the root of a checkout::

    python3 e2ebench/steady.py --runs 10 --seconds 10
    python3 e2ebench/steady.py --runs 10 --seconds 10 --second
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-pipeline", "scenario-sweep", "fleet-testbed", "fleet-scale")
LAYERS = ("system", "core", "ml", "serving", "rejuvenation", "campaign", "store")

#: Modules no workload measures, and why.
UNMEASURED = {
    "parallel": "every workload runs jobs=1; 2 vCPUs are too few to measure scaling",
    "faults": "no workload corrupts its inputs",
    "core.sanitize": "no workload sets a sanitize policy",
    "obs": "left on, as a CLI run has it; its cost sits inside every layer",
}


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark process; returns (report, result)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(report_line)["report"], json.loads(result_line)


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def slope(xs: list[float], ys: list[float]) -> "float | None":
    """Least-squares slope of log(ys) on log(xs)."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    var = sum((x - mx) ** 2 for x in lx)
    if var == 0:
        return None
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / var


def summarize(reports: list[dict], results: list[dict]) -> dict:
    out: dict = {"runs": len(reports), "seeds": [r["seed"] for r in reports]}
    metrics = {}
    for name in reports[0]["calibrated"]:
        cal = [r["calibrated"][name] for r in reports]
        entry = {"calibrated_median": statistics.median(cal),
                 "calibrated_spread": spread(cal)}
        if name in reports[0]["raw"]:
            raw = [r["raw"][name] for r in reports]
            entry.update(raw_median=statistics.median(raw), raw_spread=spread(raw))
            entry["calibration_lowers_spread"] = entry["calibrated_spread"] < entry["raw_spread"]
        metrics[name] = entry
    out["metrics"] = metrics
    kernel = [r["calibration"]["mean_ms"] for r in reports]
    mains = [o for r in reports for o in r["ops"] if not o["warm"]]
    env = reports[0]["environment"]
    out["calib_kernel"] = env["calib_kernel"]
    out["calib_nominal_ms"] = env["calib_nominal_ms"]
    out["kernel_mean_ms"] = {"min": min(kernel), "max": max(kernel)}
    out["kernel_share"] = statistics.median(
        r["calibration"]["kernel_s"] / r["calibration"]["run_s"] for r in reports)
    # 1.0 where the work slows with the host exactly as the kernel does.
    out["work_vs_kernel_slope"] = slope([o["kernel_ms"] for o in mains],
                                        [1.0 / o["rate"] for o in mains])
    out["run_s"] = {"median": statistics.median(r["calibration"]["run_s"] for r in reports),
                    "max": max(r["calibration"]["run_s"] for r in reports)}
    out["attempted"] = sum(x["attempted"] for x in results)
    out["failed"] = sum(x["failed"] for x in results)
    out["digests"] = {str(r["seed"]): [o["digests"] for o in r["ops"]][:1] for r in reports}
    return out


def layer_table(report: dict) -> dict:
    values = report["layers"]
    selfs = {layer: values[f"{layer}.self_s"] for layer in LAYERS}
    selfs["unattributed"] = values["trace.unattributed_s"]
    total = sum(selfs.values())
    return {
        "self_s": selfs,
        "share": {k: v / total for k, v in selfs.items()},
        "dominant": max(LAYERS, key=lambda k: selfs[k]),
        "overhead_frac": values["trace.overhead_frac"],
        "values": values,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    p.add_argument("--second", action="store_true",
                   help="repeat the set and record each median's shift")
    args = p.parse_args(argv)

    out = HERE / "RECORD.json"
    record = json.loads(out.read_text()) if out.exists() else {"workloads": {}}
    record["unmeasured"] = UNMEASURED
    failed = 0
    for workload in args.workloads:
        reports, results = [], []
        for seed in range(1, args.runs + 1):
            report, result = bench(workload, seed, args.seconds, 0)
            reports.append(report)
            results.append(result)
            print(f"{workload} seed {seed}: {result['metrics']}", flush=True)
        entry = summarize(reports, results)
        failed += entry["failed"]
        if args.second:
            first = record["workloads"][workload]["metrics"]
            for name, m in entry["metrics"].items():
                m["shift_from_first"] = (
                    m["calibrated_median"] / first[name]["calibrated_median"] - 1.0)
            record["workloads"][workload]["second"] = entry
        else:
            traced, result = bench(workload, 1, args.seconds, 1)
            entry["layers"] = layer_table(traced)
            # Traced ops must also reproduce their untraced twins' outputs.
            entry["layers"].update(attempted=result["attempted"], failed=result["failed"])
            failed += result["failed"]
            record["workloads"][workload] = entry
            record["environment"] = reports[0]["environment"]
            record["settings"] = {"runs": args.runs, "seconds": args.seconds}
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if failed:
        print(f"error: {failed} ops failed their checks", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
