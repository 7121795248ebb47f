"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 --trace 0 --out perfbench/baseline/untraced.json
    python3 perfbench/collect.py --workload field-degree3 --seeds 1-5 --trace 0

For every workload and metric it prints the median and the spread, the
distance between the first and third quartiles (``statistics.quantiles`` with
n=4) as a share of the median.  ``--out`` keeps every run's record and result.
Runs go one at a time, each as its own ``run.py`` process.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def spread(values: list[float]) -> float:
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else float("nan")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,12345")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write every run here as JSON")
    args = parser.parse_args(argv)

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    runs = []
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            run = {"workload": workload, "seed": seed,
                   "record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}
            runs.append(run)
            res = run["result"]
            shown = {k: round(v["value"], 4) for k, v in res["metrics"].items()
                     if not k.endswith(".errors")}
            print(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']} {shown if args.trace == 0 else ''}", flush=True)

    summary = {}
    section = "per_layer" if args.trace else "end_to_end"
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        for spec in bench[section]:
            values = [r["result"]["metrics"][spec["name"]]["value"] for r in mine]
            row = {"median": median(values), "min": min(values), "max": max(values)}
            if len(values) >= 2:
                row["spread"] = spread(values)
            summary.setdefault(workload, {})[spec["name"]] = row
            if args.trace == 0:
                print(f"{workload:14s} {spec['name']:12s} median={row['median']:.4f} "
                      f"spread={row.get('spread', float('nan')):.4f} bound={spec.get('bound')}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"summary": summary, "runs": runs}, indent=1,
                                       sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
