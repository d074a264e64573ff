"""Spans around calls into the ``coldsim`` layers, recorded from outside.

Tracing replaces a function by a timing wrapper in every ``coldsim`` module
that binds it (``rank_by_score``, for example, is imported into
``backbone``, ``filtering`` and ``evaluation``), and replaces methods on
their class.  :meth:`Tracer.restore` puts every original back.  A target
that no longer exists is reported as absent rather than raising, so a
later refactor of the library does not break the benchmark.

Each span knows the span that caused it: the enclosing span on the same
thread, or, for a span opened on a worker thread (the HTTP oracle's
in-flight pool), the innermost open span of the main thread.  A layer's
self time is its span's duration minus the union of its child spans.
"""

from __future__ import annotations

import importlib
import math
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter


@dataclass(frozen=True)
class Target:
    layer: str        # aggregate the spans under this name
    module: str       # defining module
    attr: str         # "function" or "Class.method"
    kind: str = ""    # "oracle", "lookup", "eval" or "labeler": extra counters


TARGETS = (
    Target("corpus.load", "coldsim.corpus", "load_citeulike"),
    Target("corpus.split", "coldsim.corpus", "make_cold_split"),
    Target("content.embed", "coldsim.content", "MockContentProvider.embed"),
    Target("backbone.train", "coldsim.backbone", "train_backbone"),
    Target("backbone.validate", "coldsim.backbone", "validation_ndcg"),
    Target("backbone.step", "coldsim.backbone", "bpr_step"),
    Target("filtering.train_b", "coldsim.filtering", "train_behavior_filter"),
    Target("filtering.train_l", "coldsim.filtering", "train_coupled_filter"),
    Target("filtering.validate", "coldsim.filtering", "filter_validation_ndcg"),
    Target("filtering.batch", "coldsim.filtering", "behavior_bpr_batch"),
    Target("filtering.batch", "coldsim.filtering", "coupled_ce_batch"),
    Target("filtering.topk", "coldsim.filtering", "topk_candidates"),
    Target("metrics.rank", "coldsim.metrics", "rank_by_score"),
    Target("refiner.label", "coldsim.pipeline", "oracle_labeler", "labeler"),
    Target("refiner.context", "coldsim.refiner", "build_context"),
    Target("refiner.oracle", "coldsim.refiner", "PlantedOracle.decide", "oracle"),
    Target("refiner.oracle", "coldsim.refiner", "ThresholdOracle.decide", "oracle"),
    Target("refiner.oracle", "coldsim.refiner", "HttpOracle.decide", "oracle"),
    Target("refiner.cache", "coldsim.refiner", "DecisionLog.lookup", "lookup"),
    Target("refiner.decisionlog_io", "coldsim.refiner", "DecisionLog.save"),
    Target("refiner.decisionlog_io", "coldsim.refiner", "DecisionLog.load"),
    Target("warmup.warm", "coldsim.warmup", "warm_all_cold"),
    Target("warmup.item", "coldsim.warmup", "optimize_cold_embedding"),
    Target("evaluation.eval", "coldsim.evaluation", "evaluate", "eval"),
)


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    failures: int = 0
    hits: int = 0
    users: int = 0
    latencies: list = field(default_factory=list)


class _Frame:
    __slots__ = ("start", "children")

    def __init__(self, start: float):
        self.start = start
        self.children: list[tuple[float, float]] = []


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Tracer:
    """Installs the wrappers; aggregates spans per layer while installed."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self.absent: list[str] = []
        self.spans = 0
        self._restore: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._main_stack: list[_Frame] = []

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list[_Frame]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, layer: str, frame: _Frame, stack, end: float) -> LayerStats:
        stack.pop()
        duration = end - frame.start
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack and stack is not self._main_stack
            else None)
        with self._lock:
            if parent is not None:
                parent.children.append((frame.start, end))
            st = self.stats.setdefault(layer, LayerStats())
            st.calls += 1
            st.total_s += duration
            st.self_s += duration - _covered(frame.children, frame.start, end)
            self.spans += 1
        return st

    def _wrap(self, target: Target, fn, failure_types):
        tracer, layer, kind = self, target.layer, target.kind

        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = _Frame(perf_counter())
            stack.append(frame)
            failed = False
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except failure_types:
                failed = True
                raise
            finally:
                end = perf_counter()
                st = tracer._close(layer, frame, stack, end)
                with tracer._lock:
                    if kind == "oracle":
                        st.latencies.append(end - frame.start)
                        st.failures += failed
                    elif kind == "lookup" and result is not None:
                        st.hits += 1
                    elif kind == "eval" and result is not None:
                        st.users += getattr(result, "n_users", 0)

        if kind == "labeler":
            label_target = Target(layer, target.module, target.attr)

            def make_labeler(*args, **kwargs):
                return tracer._wrap(label_target, fn(*args, **kwargs),
                                    failure_types)
            return make_labeler
        return traced

    # -- installing and restoring ------------------------------------------
    def install(self, targets=TARGETS) -> "Tracer":
        oracle_error = _lookup("coldsim.refiner", "OracleError") or Exception
        for target in targets:
            owner_path, _, name = target.attr.rpartition(".")
            owner = _lookup(target.module, owner_path) if owner_path else \
                _import(target.module)
            raw = owner.__dict__.get(name) if owner is not None else None
            if raw is None:
                self.absent.append(f"{target.layer} ({target.module}.{target.attr})")
                continue
            failures = oracle_error if target.kind == "oracle" else ()
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(target, raw.__func__, failures))
            else:
                wrapped = self._wrap(target, raw, failures)
            if owner_path:
                self._swap(owner, name, wrapped)
                continue
            # a plain function: rebind it wherever a coldsim module imported it
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "coldsim" and \
                        getattr(mod, name, None) is raw:
                    self._swap(mod, name, wrapped)
        return self

    def _swap(self, owner, name: str, new) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def restore(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


def _import(module: str):
    try:
        return importlib.import_module(module)
    except ImportError:
        return None


def _lookup(module: str, path: str):
    obj = _import(module)
    for part in path.split(".") if path else ():
        obj = getattr(obj, part, None)
    return obj


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q / 100 * len(ordered))))
    return ordered[rank - 1]


def layer_metrics(weighted: list[tuple[float, Tracer]]) -> dict[str, float]:
    """Per-layer metrics of a weighted sum of traced executions.

    Weighting each of n set-ups and each of m timed repetitions by 1/n and
    1/m describes one set-up plus one repetition.  Latency percentiles pool
    every call.
    """
    merged: dict[str, LayerStats] = {}
    for weight, tracer in weighted:
        for layer, st in tracer.stats.items():
            m = merged.setdefault(layer, LayerStats())
            m.calls += weight * st.calls
            m.self_s += weight * st.self_s
            m.total_s += weight * st.total_s
            m.failures += weight * st.failures
            m.hits += weight * st.hits
            m.users += weight * st.users
            m.latencies.extend(st.latencies)

    def get(layer) -> LayerStats:
        return merged.get(layer, LayerStats())

    out = {}
    for layer in ("corpus.load", "corpus.split", "content.embed",
                  "backbone.train", "backbone.validate", "backbone.step",
                  "filtering.train_b", "filtering.train_l",
                  "filtering.validate", "filtering.batch", "filtering.topk",
                  "metrics.rank", "refiner.label", "refiner.context",
                  "refiner.oracle", "refiner.decisionlog_io", "warmup.warm",
                  "evaluation.eval"):
        out[f"{layer}_s"] = get(layer).self_s
    for name, layer in (("content.embed_calls", "content.embed"),
                        ("backbone.steps", "backbone.step"),
                        ("filtering.topk_calls", "filtering.topk"),
                        ("metrics.rank_calls", "metrics.rank"),
                        ("refiner.label_calls", "refiner.label"),
                        ("refiner.context_calls", "refiner.context"),
                        ("refiner.oracle_calls", "refiner.oracle"),
                        ("warmup.items", "warmup.item")):
        out[name] = get(layer).calls
    oracle = get("refiner.oracle")
    out["refiner.oracle_failures"] = oracle.failures
    out["refiner.oracle_p50_ms"] = percentile(oracle.latencies, 50) * 1e3
    out["refiner.oracle_p99_ms"] = percentile(oracle.latencies, 99) * 1e3
    out["refiner.cache_hits"] = get("refiner.cache").hits
    item = get("warmup.item")
    out["warmup.item_us"] = item.total_s / item.calls * 1e6 if item.calls else 0.0
    ev = get("evaluation.eval")
    out["evaluation.ms_per_1k_users"] = (ev.total_s / ev.users * 1e6
                                         if ev.users else 0.0)
    out["trace.spans"] = sum(w * t.spans for w, t in weighted)
    return out
