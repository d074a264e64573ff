"""coldsim benchmark: one workload per process, or every workload with ``--all``.

    python3 perfbench/run.py --workload cu-simulate --seed 3 --seconds 35 --trace 0
    python3 perfbench/run.py --all --seed 0

A run generates its inputs from ``--seed``, then alternates timed set-ups
and timed repetitions of the workload until ``--seconds`` have passed and
at least MIN_REPS repetitions have run.  ``setup_s`` is the fastest set-up
(see ``measure``) and ``run_s`` the median repetition.  Every repetition is
checked; one whose outputs fail a check counts as failed.  With
``--trace 1`` the run alternates untraced and traced repetitions and
reports per-layer metrics instead, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (checked repetitions), ``failed`` and ``metrics``.
The lines before it are a readable report: every end-to-end metric with
its unit, the check results, the digest of the simulated users and the
environment.  ``--all`` runs each workload in a fresh process, untraced and
traced, and prints a summary table.

The gated end-to-end metrics and every per-layer metric, with their units,
are read from ``BENCHMARK.json`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402  (stdlib only; the library loads after the BLAS pin)

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NAMES = ("cu-train", "cu-simulate", "planted", "http-oracle")
SETUP_SLICE_S, MIN_REPS = 0.3, 6

QUALITY = ("cold_ndcg20", "cold_recall20", "overall_ndcg20", "warm_ndcg20")
# end-to-end metrics that are reported but not gated: name -> (unit, better);
# the gated ones are listed, with their units, in BENCHMARK.json
REPORTED = {
    **{name: ("ratio", "higher") for name in QUALITY},
    "oracle_calls_per_s": ("1/s", "higher"), "fail_ratio": ("ratio", "lower"),
}


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def pin_blas_threads() -> int:
    """Cap the BLAS thread count at the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        n = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(n, nproc))
    return nproc


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "coldsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "nproc": nproc, "commit": commit, "src_sha256": src.hexdigest()[:16]}


class LabelCalls:
    """Counts the coupled filter's oracle label calls and their failures.

    The trainer swallows a failed label and only logs a total, so the
    counter wraps the labeler that ``pipeline.oracle_labeler`` builds.  It
    stays installed for the whole process, set-ups included, and costs one
    Python call per label.
    """

    def __init__(self):
        self.attempts = self.failures = 0

    def install(self, module) -> bool:
        """Wrap ``module.oracle_labeler``; False if the module has none."""
        original = module.__dict__.get("oracle_labeler")
        if original is None:
            return False

        def oracle_labeler(*args, **kwargs):
            label = original(*args, **kwargs)

            def counted(user, item):
                self.attempts += 1
                try:
                    return label(user, item)
                except Exception:
                    self.failures += 1
                    raise
            return counted

        module.oracle_labeler = oracle_labeler
        return True


@dataclass
class Measurement:
    setup_times: list = field(default_factory=list)
    setup_tracers: list = field(default_factory=list)
    plain: list = field(default_factory=list)       # untraced repetition times
    traced: list = field(default_factory=list)      # traced repetition times
    tracers: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)


def set_up(workload, traced: bool, m: Measurement):
    """Set up for at least SETUP_SLICE_S, at least once; return the last state."""
    began, state = perf_counter(), None
    while state is None or perf_counter() - began < SETUP_SLICE_S:
        state = None
        gc.collect()
        tracer = spans.Tracer().install() if traced else None
        start = perf_counter()
        try:
            state = workload.setup()
        finally:
            m.setup_times.append(perf_counter() - start)
            if tracer:
                tracer.restore()
                m.setup_tracers.append(tracer)
    return state


def repetition(workload, state, traced: bool):
    """One checked run of the timed section: (seconds, outcome, tracer or None)."""
    gc.collect()
    tracer = spans.Tracer().install() if traced else None
    start = perf_counter()
    outcome = workload.run_checked(state)
    elapsed = perf_counter() - start
    if tracer:
        tracer.restore()
    return elapsed, outcome, tracer


def measure(workload, seconds: float, traced: bool) -> Measurement:
    """Set-ups and checked repetitions, interleaved, for ``seconds``.

    Each repetition runs on the state of the set-ups just before it.
    Repetitions go on until ``seconds`` have passed and at least MIN_REPS
    have run; in trace mode plain and traced repetitions alternate.

    A shared host's speed moves in steps of up to 1.6x that last from a
    second to minutes.  Set-ups mostly take milliseconds, so their median
    falls on whichever step dominates the run; the work is deterministic
    and contention only adds time, so ``setup_s`` is the fastest set-up,
    and spreading the set-ups over the whole run lets them meet a fast
    step.  Repetitions take seconds and average over short steps; for them
    the median is the steadier figure.
    """
    m = Measurement()
    began = perf_counter()
    while not (perf_counter() - began >= seconds
               and len(m.plain) + len(m.traced) >= MIN_REPS
               and (m.traced or not traced)):
        state = set_up(workload, traced, m)
        trace_this = traced and len(m.plain) > len(m.traced)
        elapsed, outcome, tracer = repetition(workload, state, trace_this)
        del state
        (m.traced if trace_this else m.plain).append(elapsed)
        if tracer:
            m.tracers.append(tracer)
        m.outcomes.append(outcome)
    return m


def check_repeatable(outcomes) -> None:
    """Every repetition must reproduce the first one's simulation and quality."""
    first = outcomes[0]
    for out in outcomes[1:]:
        if out.digest != first.digest:
            out.problems.append("simulated users differ between repetitions")
        if out.quality != first.quality:
            out.problems.append("quality metrics differ between repetitions")


def fail_ratio(outcomes, labels: LabelCalls) -> float:
    """Failed oracle and label calls over attempted ones, in the whole process."""
    failed = labels.failures + sum(out.oracle_failures for out in outcomes)
    attempted = labels.attempts + sum(out.decisions + out.oracle_failures
                                      for out in outcomes)
    return failed / attempted if attempted else 0.0


def end_to_end(outcomes, labels, setup_s, run_s) -> dict:
    """Every end-to-end metric; None where the workload does not produce it."""
    first = outcomes[0]
    values = {name: first.quality.get(name) for name in QUALITY}
    values.update(setup_s=setup_s, run_s=run_s,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  oracle_calls_per_s=first.requests / run_s if first.requests else None,
                  fail_ratio=fail_ratio(outcomes, labels))
    return values


def run_one(args) -> int:
    if not (ROOT / "src" / "coldsim" / "__init__.py").is_file():
        print(f"benchmark: no coldsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    contract = load_contract()
    nproc = pin_blas_threads()
    import workloads

    labels = LabelCalls()
    labels_counted = labels.install(sys.modules["coldsim.pipeline"])
    stderr_handler = logging.StreamHandler(sys.stderr)
    stderr_handler.setLevel(logging.WARNING)
    logging.getLogger("coldsim").addHandler(stderr_handler)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[args.size],
                                                 workdir)
    traced = bool(args.trace)
    try:
        workload.inputs()
        m = measure(workload, args.seconds, traced)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = m.outcomes
    check_repeatable(outcomes)
    setup_s, run_s = min(m.setup_times), statistics.median(m.plain)
    e2e = end_to_end(outcomes, labels, setup_s, run_s)
    failed = sum(1 for out in outcomes if out.problems)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"setups {len(m.setup_times)}  repetitions {len(m.plain)} plain"
          f" + {len(m.traced)} traced")
    print("  setup times (s): " + " ".join(f"{t:.4f}" for t in m.setup_times))
    print(f"  setup median {statistics.median(m.setup_times):.6g} s, "
          f"fastest {setup_s:.6g} s")
    print(f"  repetition median {run_s:.6g} s, fastest {min(m.plain):.6g} s")
    print("  repetition times (s): " + " ".join(f"{t:.4f}" for t in m.plain)
          + ("  traced: " + " ".join(f"{t:.4f}" for t in m.traced)
             if m.traced else ""))
    reported = {e["name"]: (e["unit"], e["better"]) for e in contract["end_to_end"]}
    for name, (unit, better) in {**reported, **REPORTED}.items():
        value = e2e[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<20} {shown:>12} {unit:<6} ({better} is better)")
    print(f"  label calls: {labels.attempts}, failed {labels.failures}"
          if labels_counted else
          "  label calls not counted: coldsim.pipeline.oracle_labeler is absent")
    for i, out in enumerate(outcomes):
        for problem in out.problems:
            print(f"  CHECK FAILED (repetition {i}): {problem}")
    print(f"  checks: {len(outcomes) - failed} of {len(outcomes)} repetitions passed")
    if outcomes[0].digest:
        print(f"  simulated-users digest: {outcomes[0].digest}")
    print(f"  env: {json.dumps(environment(nproc), sort_keys=True)}")

    if traced:
        values = per_layer(m, outcomes[0], e2e, run_s)
        metrics = {p["name"]: {"value": values[p["name"]], "unit": p["unit"]}
                   for p in contract["per_layer"]}
        for layer in sorted({a for t in m.tracers for a in t.absent}):
            print(f"  absent layer: {layer}")
    else:
        metrics = {e["name"]: {"value": e2e[e["name"]], "unit": e["unit"]}
                   for e in contract["end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


def per_layer(m: Measurement, outcome, e2e, run_s) -> dict:
    """One set-up plus one timed repetition, seen layer by layer."""
    values = spans.layer_metrics(
        [(1 / len(m.setup_tracers), t) for t in m.setup_tracers]
        + [(1 / len(m.tracers), t) for t in m.tracers])
    traced_s = statistics.median(m.traced)
    values["trace.run_s"] = traced_s
    values["trace.overhead_pct"] = (traced_s - run_s) / run_s * 100
    values["trace.absent_layers"] = len({a for t in m.tracers for a in t.absent})
    values["refiner.adoption_ratio"] = outcome.adoption_ratio
    values["refiner.fallback_ratio"] = outcome.fallback_ratio
    values["refiner.oracle_calls_per_s"] = e2e["oracle_calls_per_s"] or 0.0
    values["refiner.fail_ratio"] = e2e["fail_ratio"]
    for name in QUALITY:
        values[f"quality.{name}"] = e2e[name] or 0.0
    return values


def run_all(args) -> int:
    """Each workload in a fresh process, untraced then traced; a summary table."""
    gated = [m["name"] for m in load_contract()["end_to_end"]]
    results, status = {}, 0
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit code {done.returncode}")
                status = 1
                continue
            results[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print("\nsummary (untraced run_s vs traced run_s gives the tracing overhead)")
    for name in NAMES:
        plain = results.get(f"{name}/trace0", {})
        traced = results.get(f"{name}/trace1", {})
        m, t = plain.get("metrics", {}), traced.get("metrics", {})
        cells = [f"{k}={m[k]['value']:.4g}{m[k]['unit']}" for k in gated if k in m]
        if "trace.overhead_pct" in t:
            cells.append(f"overhead={t['trace.overhead_pct']['value']:.1f}%")
        ok = plain.get("correct") and traced.get("correct")
        print(f"  {name:<12} {'ok' if ok else 'FAILED':<7} {'  '.join(cells)}")
        status |= 0 if ok else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="coldsim benchmark")
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced, in fresh processes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "toy"), default="bench",
                        help="toy sizes are for the smoke test only")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
