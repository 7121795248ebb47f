"""octoweak verification benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload default-run --seed 1 --seconds 30 --trace 0

Each run starts one fresh child interpreter (``worker.py``) with ``src`` on
``PYTHONPATH`` and BLAS pinned to one thread, then several short set-up
probes, one process at a time.  The second to last line of standard output is
the full record: environment, per-suite times, the gate's findings and, when
traced, the per-layer detail.  The last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` ones of BENCHMARK.json,
with ``--trace 1`` the ``per_layer`` ones.  See README.md for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("default-run", "algebra-sweep", "field-degree3")

#: Fresh interpreters whose import-to-config time gives setup_s.
SETUP_PROBES = 9

#: Whole-run limit; the child is killed past it.
RUN_LIMIT_S = 170.0

BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OCTOWEAK_SEED"}
    env.update(BLAS_THREADS, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


def run_child(args: list[str], timeout: float) -> dict:
    """Run worker.py to completion and parse its last output line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, worker_env: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": worker_env["numpy"],
        "blas": worker_env["blas"],
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples_override": args.samples,
    }


def metric_specs(section: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[section]


def pick(values: dict, section: str) -> dict:
    out = {}
    for spec in metric_specs(section):
        if spec["name"] not in values:
            raise BenchError(f"metric {spec['name']} was not measured")
        out[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    return out


def bench(args) -> tuple[dict, dict]:
    if not (ROOT / "src" / "octoweak" / "__init__.py").is_file():
        raise BenchError(f"no octoweak sources under {ROOT / 'src'}")
    common = [f"workload={args.workload}", f"seed={args.seed}"]
    if args.samples is not None:
        common.append(f"samples={args.samples}")
    start = time.monotonic()
    work = run_child(["mode=run", *common, f"seconds={args.seconds}", f"trace={args.trace}"],
                     RUN_LIMIT_S)
    probes = []
    for _ in range(SETUP_PROBES):
        left = RUN_LIMIT_S - (time.monotonic() - start)
        probes.append(run_child(["mode=probe", *common], left))
    setups = [p["setup_s"] for p in probes]

    imported = Path(work["env"].pop("octoweak_file")).resolve()
    if not imported.is_relative_to((ROOT / "src").resolve()):
        raise BenchError(f"imported octoweak from {imported}, not from src")
    correct = work["correct"] and work.get("trace", {}).get("deterministic", True)
    record = {k: v for k, v in work.items() if k not in ("env", "trace")}
    record.update(env=environment(args, work["env"]), setup_probe_s=setups,
                  wall_setup_probe_s=[p["wall_setup_s"] for p in probes],
                  numpy_import_s=[p["numpy_s"] for p in probes])
    if args.trace:
        record["trace"] = work["trace"]
        metrics = pick(work["trace"]["metrics"], "per_layer")
    else:
        metrics = pick({"verify_s": work["verify_s"], "setup_s": median(setups),
                        "peak_rss_mb": work["peak_rss_mb"]}, "end_to_end")
    result = {"correct": bool(correct), "attempted": work["attempted"],
              "failed": work["failed"], "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--samples", type=int,
                        help="override every suite's draw count (smoke tests only)")
    args = parser.parse_args(argv)
    try:
        record, result = bench(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
