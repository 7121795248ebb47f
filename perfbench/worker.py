"""Benchmark child process: one workload in a fresh interpreter.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON object
as its last line.  Two modes:

    python3 perfbench/worker.py mode=probe workload=NAME seed=N
    python3 perfbench/worker.py mode=run workload=NAME seed=N seconds=S trace=0|1 [samples=K]

It drives only octoweak's public entry points: ``cli.build_parser`` and
``cli.resolve_config`` for the configuration, ``suites.run_suite`` once per
suite in registration order, and ``suites.render_json``, each timed from
outside.  Only the standard library is imported before set-up is timed.
"""

import contextlib
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: CLI arguments (before --seed) that select each workload.
WORKLOADS = {
    "default-run": [],
    "algebra-sweep": ["--config", os.path.join(HERE, "workloads", "algebra-sweep.cfg")],
    "field-degree3": ["--config", os.path.join(HERE, "workloads", "field-degree3.cfg")],
}

#: Suite families whose summed run_suite time is reported.
FAMILIES = {
    "algebra": (
        "ip-moves", "zvengrowski", "ab-identities", "grading-closure",
        "lorentz-algebra", "infinitesimal-dc", "double-cover",
        "rotation-unitarity", "boost-selfconj", "gamma5", "prop4-dichotomy",
        "composition-law", "alternativity",
    ),
    "fields": ("prop1-A", "prop1-B", "prop2"),
    "gauge": ("prop3", "prop5", "lemma3", "lemma4"),
}

#: Samples per pass at the contracted draw counts, and the contracted
#: default tolerances; a verdict reached with fewer samples or looser
#: tolerances is not the verdict the benchmark asks for.
CONTRACT_SAMPLES = {"default-run": 9821, "algebra-sweep": 30321, "field-degree3": 700}
CONTRACT_TOLERANCES = {"tol_exact": 1e-12, "tol_series": 1e-8}

#: Key of the render_json call among a pass's spans.
RENDER = "<render>"


def cli_argv(spec: dict) -> list[str]:
    argv = WORKLOADS[spec["workload"]] + ["--seed", spec["seed"]]
    if "samples" in spec:
        argv += ["--samples", spec["samples"]]
    return argv


def set_up(argv: list[str]):
    """Import octoweak and build its configuration.

    Returns (cfg, seconds, numpy_s).  numpy, which octoweak imports first
    thing, is imported on its own at the start and timed as ``numpy_s``: its
    import is the same work for every version of the program, so it measures
    the host's speed at set-up (see calibrate.at_reference_set_up).
    """
    start = time.perf_counter()
    import numpy  # noqa: F401

    numpy_s = time.perf_counter() - start
    from octoweak import cli

    cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
    return cfg, time.perf_counter() - start, numpy_s


def run_pass(cfg):
    """One verification run, timed per run_suite call and for rendering.

    ``suite_s`` and ``render_s`` are wall times; ``spans`` keeps each call's
    (start, end) for :func:`at_reference_speed`.
    """
    from octoweak import suites

    spans, reports, crashes = {}, [], {}
    for sid in cfg.suites:
        start = time.perf_counter()
        try:
            reports.append(suites.run_suite(sid, cfg))
        except Exception as exc:  # one broken suite must not end the run
            crashes[sid] = exc
        spans[sid] = (start, time.perf_counter())
    start = time.perf_counter()
    text = suites.render_json(reports, cfg)
    spans[RENDER] = (start, time.perf_counter())
    return {"suite_s": {sid: end - start for sid, (start, end) in spans.items() if sid != RENDER},
            "render_s": spans[RENDER][1] - spans[RENDER][0], "spans": spans,
            "reports": reports, "crashes": crashes, "text": text}


def at_reference_speed(p: dict, cal) -> None:
    """Restate a pass's times at the calibrator's reference speed, in place.

    Each call's wall time, less the calibration calls inside it, is scaled
    by the host speed measured during that call: the speed drifts within a
    pass, and a long gauge suite can run at another speed than the pass as
    a whole.  The wall times move to ``wall_suite_s`` and ``wall_render_s``;
    ``speed`` is the host speed over the whole pass, for the record.
    """
    work = {sid: (end - start - cal.inside(start, end)) * cal.speed(start, end)
            for sid, (start, end) in p["spans"].items()}
    first, last = min(s for s, _ in p["spans"].values()), max(e for _, e in p["spans"].values())
    p["wall_suite_s"], p["wall_render_s"] = p["suite_s"], p["render_s"]
    p["render_s"] = work.pop(RENDER)
    p["suite_s"] = work
    p["speed"] = cal.speed(first, last)


def gate_pass(cfg, result) -> tuple[dict, set]:
    """Problems of each suite in a pass, judged on its own rendered row.

    Returns the problems by suite id and the ids whose only problem is the
    recorded prop1 precision finding.
    """
    import gate
    from octoweak import suites

    problems = {sid: [f"raised {type(exc).__name__}: {exc}"]
                for sid, exc in result["crashes"].items()}
    findings = set()
    for report in result["reports"]:
        sid = report.suite_id
        checked = gate.check_report(suites.render_json([report], cfg))
        problems[sid] = checked.get(sid, checked.get("<report>", ["row missing from report"]))
        if gate.is_precision_finding(sid, cfg.field_degree, report.max_residual, problems[sid]):
            findings.add(sid)
    return problems, findings


def family_of(suite_id: str) -> str:
    return next((fam for fam, ids in FAMILIES.items() if suite_id in ids), "other")


def contract_problems(cfg, samples: int, expected_samples: int | None) -> list[str]:
    found = [f"{key} is {getattr(cfg, key)!r}, not {val!r}"
             for key, val in CONTRACT_TOLERANCES.items() if getattr(cfg, key) != val]
    if expected_samples is not None and samples != expected_samples:
        found.append(f"{samples} samples per pass, not {expected_samples}")
    return found


def summarise(cfg, passes: list[dict], expected_samples: int | None = None) -> dict:
    """Per-suite medians over the passes, the gate's verdict and counts.

    ``expected_samples`` is the workload's contracted sample count, or None
    when the draw counts were overridden.
    """
    from statistics import median

    suite_s = {sid: median(p["suite_s"][sid] for p in passes) for sid in cfg.suites}
    render_s = median(p["render_s"] for p in passes)
    family_s = {fam: 0.0 for fam in FAMILIES}
    for sid, sec in suite_s.items():
        fam = family_of(sid)
        family_s[fam] = family_s.get(fam, 0.0) + sec
    attempted = failed = flagged = 0
    problems, findings = {}, set()
    for p in passes:
        found, known = gate_pass(cfg, p)
        attempted += len(found)
        flagged += sum(1 for v in found.values() if v)
        failed += sum(1 for sid, v in found.items() if v and sid not in known)
        problems.update((sid, v) for sid, v in found.items() if v)
        findings |= known
    same = all(p["text"] == passes[0]["text"] for p in passes)
    samples = sum(r.samples for r in passes[0]["reports"])
    contract = contract_problems(cfg, samples, expected_samples)
    return {
        "passes": len(passes),
        "pass_verify_s": [sum(p["suite_s"].values()) + p["render_s"] for p in passes],
        "suite_s": suite_s,
        "render_s": render_s,
        "verify_s": sum(suite_s.values()) + render_s,
        "family_s": family_s,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": flagged / attempted,
        "problems": problems,
        "max_residual": {r.suite_id: r.max_residual for r in passes[0]["reports"]},
        "precision_findings": sorted(findings),
        "deterministic": same,
        "contract_problems": contract,
        "correct": failed == 0 and same and not contract,
        "samples": samples,
        "text": passes[0]["text"],
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy as np
    import octoweak

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {"numpy": np.__version__, "blas": blas, "octoweak_file": octoweak.__file__}


def main(argv: list[str]) -> int:
    spec = dict(arg.partition("=")[::2] for arg in argv)
    cfg, setup_s, numpy_s = set_up(cli_argv(spec))
    import calibrate

    if spec["mode"] == "probe":
        print('{"setup_s": %r, "wall_setup_s": %r, "numpy_s": %r}'
              % (calibrate.at_reference_set_up(setup_s, numpy_s), setup_s, numpy_s))
        return 0

    import json
    from statistics import median

    seconds = float(spec["seconds"])
    traced_run = spec["trace"] == "1"
    passes, lengths = [], []
    start = time.perf_counter()
    # Whole passes until the next one would end past ``seconds``.  A traced
    # run makes one, the base of trace_overhead, in wall time and without
    # calibration; an untraced run reports its times at the reference speed.
    with contextlib.nullcontext() if traced_run else calibrate.Calibrator() as cal:
        while True:
            began = time.perf_counter()
            passes.append(run_pass(cfg))
            lengths.append(time.perf_counter() - began)
            if traced_run or time.perf_counter() - start + median(lengths) > seconds:
                break
    if cal is not None:
        for p in passes:
            at_reference_speed(p, cal)
    expected = None if "samples" in spec else CONTRACT_SAMPLES[spec["workload"]]
    summary = summarise(cfg, passes, expected)
    out = {k: v for k, v in summary.items() if k != "text"}
    out.update(worker_setup_s=setup_s, worker_numpy_s=numpy_s, peak_rss_mb=peak_rss_mb(),
               env=environment())
    if cal is not None:
        kernel_s = cal.kernel_s()
        out.update(pass_speed=[p["speed"] for p in passes], kernel_calls=len(kernel_s),
                   kernel_median_s=median(kernel_s),
                   wall_verify_s=median(sum(p["wall_suite_s"].values()) + p["wall_render_s"]
                                        for p in passes))
    if traced_run:
        import traced

        out["trace"] = traced.trace_run(cfg, cli_argv(spec), summary, run_pass)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
