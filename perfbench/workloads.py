"""The four benchmark workloads: inputs, set-up, timed section and checks.

Each workload has three phases.  ``inputs`` builds what the benchmark owns
(the generated corpus files, the HTTP oracle stub) and is not timed.
``setup`` makes the program calls that prepare the workload and is timed
as ``setup_s``.  ``run`` is the timed section.  It also checks its outputs,
after the timed calls, and lists what failed in the returned ``Outcome``.
Why each workload exists is written in ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import traceback
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from coldsim import corpus as cs_corpus
from coldsim import evaluation, pipeline, refiner, synthetic
from coldsim.config import default_config, resolve_seeds

import grouped_corpus as bench_corpus

HERE = Path(__file__).resolve().parent
EVAL_K = 20
TRAIN_EPOCHS = 1         # backbone and filter epochs on cu-train
TASKS = ("overall", "warm", "cold")


@dataclass(frozen=True)
class Size:
    """Input sizes; ``bench`` is what the benchmark measures, ``toy`` is for the smoke test."""

    cu_scale: float          # share of the CiteULike counts
    label_pairs: int         # positives in the coupled filter's label pool
    eval_users: int
    http_cold: int           # cold items on http-oracle
    http_label_pairs: int
    stub_delay_ms: float
    planted: dict = field(default_factory=dict)        # dataset arguments
    planted_patch: dict = field(default_factory=dict)  # config on top of criterion 5
    planted_bars: bool = True   # criterion 5's quality bars; they need its full size


# criterion 5 of the acceptance suite: the planted two-cluster setup
PLANTED_SEEDS = 5
PLANTED_PATCH = {
    "backbone": {"dim": 16, "lr": 0.3, "max_epochs": 250, "patience": 250,
                 "batch_size": 256},
    "content": {"dim": 64},
    "filter": {"hidden": 32, "out": 16, "lr": 3e-3, "batch_size": 128,
               "max_epochs": 25, "patience": 8, "label_pairs": 800},
    "refiner": {"oracle": "planted", "k": 40},
    "warmup": {"lr": 0.1, "steps": 1500},
    "eval": {"k": 20, "users": 2000},
}

SIZES = {
    "bench": Size(cu_scale=1 / 16, label_pairs=2000, eval_users=2000,
                  http_cold=30, http_label_pairs=100, stub_delay_ms=2.0,
                  planted={"n_users": 200, "n_warm": 100, "n_cold": 20}),
    "toy": Size(cu_scale=1 / 64, label_pairs=60, eval_users=50,
                http_cold=4, http_label_pairs=10, stub_delay_ms=0.0,
                planted={"n_users": 40, "n_warm": 16, "n_cold": 4,
                         "groups_per_cluster": 1},
                planted_patch={"backbone": {"max_epochs": 20, "patience": 20},
                               "filter": {"max_epochs": 3, "label_pairs": 40},
                               "refiner": {"k": 10}, "warmup": {"steps": 100}},
                planted_bars=False),
}


@dataclass
class Outcome:
    """What one timed run produced, for the checks and the report."""

    quality: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    decisions: int = 0            # simulation decisions counted from the outputs
    requests: int = 0             # HTTP requests the stub served, labels included
    oracle_failures: int = 0
    adoption_ratio: float = 0.0
    fallback_ratio: float = 0.0
    problems: list[str] = field(default_factory=list)


def cu_config(seed: int, size: Size, epochs: int, **refiner_patch) -> dict:
    cfg = default_config()
    cfg["backbone"]["max_epochs"] = epochs
    cfg["backbone"]["eval_users"] = size.eval_users
    cfg["filter"].update(max_epochs=epochs, label_pairs=size.label_pairs,
                         eval_users=size.eval_users)
    cfg["refiner"].update(refiner_patch)
    cfg["eval"]["users"] = size.eval_users
    return resolve_seeds(cfg, seed)


def sim_digest(sims) -> str:
    """Short hash of every cold item's simulated users, in item order."""
    doc = [[int(item), [int(u) for u in sims[item].users],
            bool(sims[item].fallback_used)] for item in sorted(sims)]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


def evaluate_tasks(model, split, cfg, tasks, prefix=""):
    out = {}
    for task in tasks:
        report = evaluation.evaluate(model, split, task=task, k=EVAL_K,
                                     n_users=cfg["eval"]["users"],
                                     seed=cfg["eval"]["seed"])
        out[f"{prefix}{task}_ndcg20"] = report.ndcg
        out[f"{prefix}{task}_recall20"] = report.recall
    return out


def simulation_outcome(split, sims, decision_log, out: Outcome) -> None:
    out.digest = sim_digest(sims)
    out.decisions = len(decision_log)
    out.oracle_failures += sum(s.failures for s in sims.values())
    if len(decision_log):
        out.adoption_ratio = evaluation.adoption_rate(decision_log).rate
    out.fallback_ratio = sum(bool(s.fallback_used) for s in sims.values()) / len(sims)
    missing = set(split.cold_items) - {i for i, s in sims.items() if s.users}
    if missing:
        out.problems.append(f"{len(missing)} cold items without a simulation "
                            f"(e.g. {min(missing)})")


def check_frozen(backbone, warmed, split, out: Outcome) -> None:
    """Warmup must leave user rows and warm item rows bitwise untouched."""
    if warmed.user_emb.tobytes() != backbone.user_emb.tobytes():
        out.problems.append("warmup changed user rows")
    warm = np.asarray(sorted(split.warm_items))
    if warmed.item_emb[warm].tobytes() != backbone.item_emb[warm].tobytes():
        out.problems.append("warmup changed warm item rows")


def check_quality(out: Outcome) -> None:
    for name, value in out.quality.items():
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            out.problems.append(f"{name}={value} is not a finite ratio in [0, 1]")


class Workload:
    name = ""

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.seed, self.size, self.workdir = seed, size, workdir

    def inputs(self) -> None:
        """Benchmark-owned preparation, outside ``setup_s``."""

    def setup(self):
        raise NotImplementedError

    def run(self, state) -> Outcome:
        raise NotImplementedError

    def run_checked(self, state) -> Outcome:
        """``run``, with an exception turned into a failed check."""
        try:
            return self.run(state)
        except Exception as exc:  # noqa: BLE001 - a crashed repetition is a failed one
            traceback.print_exc(file=sys.stderr)
            return Outcome(problems=[f"{type(exc).__name__}: {exc}"])

    def close(self) -> None:
        """Release what ``inputs`` started."""

    def write_corpus(self) -> Path:
        data = bench_corpus.make_grouped_corpus(self.seed, scale=self.size.cu_scale)
        return bench_corpus.write_corpus(data, self.workdir / "corpus")

    def load_and_split(self, cold_frac: float = bench_corpus.COLD_FRAC):
        log, catalog = cs_corpus.load_citeulike(self.corpus_dir)
        split = cs_corpus.make_cold_split(log, cold_frac=cold_frac, seed=self.seed)
        return log, catalog, split


class CuTrain(Workload):
    name = "cu-train"

    def inputs(self):
        self.corpus_dir = self.write_corpus()
        self.cfg = cu_config(self.seed, self.size, TRAIN_EPOCHS)

    def setup(self):
        return self.load_and_split()

    def run(self, state) -> Outcome:
        log, catalog, split = state
        pipe = pipeline.build_pipeline(log, catalog, split, self.cfg)
        out = Outcome()
        out.quality = evaluate_tasks(pipe.backbone, split, self.cfg, ("warm",))
        epochs = len(pipe.backbone.history)
        if epochs != TRAIN_EPOCHS:
            out.problems.append(f"backbone ran {epochs} epochs, not {TRAIN_EPOCHS}")
        for name, filt in (("B", pipe.filter_b), ("L", pipe.filter_l)):
            if filt is None:
                out.problems.append(f"filter {name} missing")
                continue
            towers = (filt.user_tower, filt.item_tower)
            if not all(np.isfinite(w).all() for t in towers for w in t.params().values()):
                out.problems.append(f"filter {name} has non-finite weights")
        check_quality(out)
        return out


class CuSimulate(Workload):
    name = "cu-simulate"

    def inputs(self):
        self.corpus_dir = self.write_corpus()
        self.cfg = cu_config(self.seed, self.size, 0)

    def setup(self):
        log, catalog, split = self.load_and_split()
        return split, pipeline.build_pipeline(log, catalog, split, self.cfg)

    def run(self, state) -> Outcome:
        split, pipe = state
        decision_log = refiner.DecisionLog()
        sims = pipeline.simulate_all(pipe, self.cfg, decision_log=decision_log)
        warmed = pipeline.warm_from_simulations(pipe, sims, self.cfg)
        out = Outcome()
        out.quality = evaluate_tasks(warmed, split, self.cfg, TASKS)
        simulation_outcome(split, sims, decision_log, out)
        check_frozen(pipe.backbone, warmed, split, out)
        check_quality(out)
        return out


class Planted(Workload):
    name = "planted"

    def inputs(self):
        cfg = default_config()
        for patches in (PLANTED_PATCH, self.size.planted_patch):
            for section, patch in patches.items():
                cfg[section].update(patch)
        # criterion 5 sets its bars on planted seeds 0-4; the workload seed picks one
        self.planted_seed = self.seed % PLANTED_SEEDS
        self.cfg = resolve_seeds(cfg, self.planted_seed)

    def setup(self):
        data = synthetic.make_two_cluster_dataset(seed=self.planted_seed,
                                                  **self.size.planted)
        split = synthetic.make_planted_split(data, seed=self.planted_seed)
        return data, split, refiner.PlantedOracle(data.truth)

    def run(self, state) -> Outcome:
        data, split, oracle = state
        cfg = self.cfg
        pipe = pipeline.build_pipeline(data.log, data.catalog, split, cfg,
                                       oracle=oracle)
        decision_log = refiner.DecisionLog()
        sims = pipeline.simulate_all(pipe, cfg, decision_log=decision_log)
        warmed = pipeline.warm_from_simulations(pipe, sims, cfg)
        sims_nr = pipeline.simulate_all(pipe, cfg, skip_refine=True)
        warmed_nr = pipeline.warm_from_simulations(pipe, sims_nr, cfg)

        out = Outcome()
        out.quality = evaluate_tasks(warmed, split, cfg, ("overall", "cold"))
        out.quality.update(evaluate_tasks(warmed_nr, split, cfg, ("cold",),
                                          prefix="no_refine_"))
        out.quality.update(evaluate_tasks(pipe.backbone, split, cfg, ("cold",),
                                          prefix="unwarmed_"))
        simulation_outcome(split, sims, decision_log, out)
        check_frozen(pipe.backbone, warmed, split, out)
        check_quality(out)
        full, no_r = out.quality["cold_ndcg20"], out.quality["no_refine_cold_ndcg20"]
        unwarmed = out.quality["unwarmed_cold_ndcg20"]
        if not self.size.planted_bars:
            return out
        if not full >= 5 * unwarmed:
            out.problems.append(f"cold NDCG {full:.4f} < 5x unwarmed {unwarmed:.4f}")
        if not full >= no_r:
            out.problems.append(f"cold NDCG {full:.4f} < no-refinement {no_r:.4f}")
        return out


class HttpOracleWorkload(Workload):
    name = "http-oracle"

    def inputs(self):
        self.corpus_dir = self.write_corpus()
        self.stub = subprocess.Popen(
            [sys.executable, str(HERE / "oracle_stub.py"),
             "--delay-ms", str(self.size.stub_delay_ms)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        port = int(self.stub.stdout.readline())
        self.base_url = f"http://127.0.0.1:{port}"
        n_items = bench_corpus.scaled_counts(self.size.cu_scale)[1]
        # the smallest cold fraction whose floor still yields http_cold items
        self.cold_frac = self.size.http_cold / n_items + 0.5 / n_items
        self.cfg = cu_config(self.seed, self.size, 0, oracle="http",
                             endpoint=self.base_url + "/decide", timeout=10.0,
                             max_inflight=min(2, len(os.sched_getaffinity(0))))
        self.cfg["filter"]["label_pairs"] = self.size.http_label_pairs

    def stub_requests(self) -> int:
        with urllib.request.urlopen(self.base_url + "/count", timeout=10) as resp:
            return int(json.load(resp)["requests"])

    def setup(self):
        return self.load_and_split(self.cold_frac)

    def run(self, state) -> Outcome:
        log, catalog, split = state
        before = self.stub_requests()
        pipe = pipeline.build_pipeline(log, catalog, split, self.cfg)
        decision_log = refiner.DecisionLog()
        sims = pipeline.simulate_all(pipe, self.cfg, decision_log=decision_log)
        path = self.workdir / "decisions.jsonl"
        decision_log.save(path)
        reloaded = refiner.DecisionLog.load(path)
        first_pass = self.stub_requests()
        rerun = pipeline.simulate_all(pipe, self.cfg, decision_log=reloaded)

        out = Outcome()
        simulation_outcome(split, sims, decision_log, out)
        out.requests = first_pass - before  # labels and simulation queries
        if self.stub_requests() != first_pass:
            out.problems.append("rerun from the reloaded decision log queried the oracle")
        if sim_digest(rerun) != out.digest or len(reloaded) != len(decision_log):
            out.problems.append("rerun from the reloaded decision log changed the simulation")
        return out

    def close(self):
        stub = getattr(self, "stub", None)
        if stub is None:
            return
        stub.stdin.close()
        try:
            stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            stub.kill()
            stub.wait(timeout=10)
        stub.stdout.close()


WORKLOADS = {w.name: w for w in (CuTrain, CuSimulate, Planted, HttpOracleWorkload)}
