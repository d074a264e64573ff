"""Refining simulation: query a yes/no oracle over filtered candidates.

For each (candidate user, cold item) pair the refiner builds a
query-dependent context from the user's history, renders the fixed prompt,
asks the oracle, and keeps the accepted users.  Also exports instruction
fine-tuning data (prompt/completion JSONL) for training an external oracle.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import re
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import store
from .backbone import draw_accepted, ordered_subsample
from .content import HttpSession, post_with_retries
from .corpus import ColdWarmSplit, ItemCatalog, lexsorted
from .filtering import CandidateSet, TwoTowerFilter
from .metrics import row_chunks, row_dots

logger = logging.getLogger(__name__)

PROMPT_TEMPLATE = ("Given the user interacted with [{history}], determine "
                   "whether the user will interacted the [{item}] by "
                   "answering Yes or No.")

_FIRST_WORD_RE = re.compile(r"[A-Za-z]+")


class OracleError(RuntimeError):
    """Transport-level oracle failure (after retries)."""


class OracleParseError(OracleError):
    """The oracle answered, but with neither yes nor no."""


@dataclass(frozen=True)
class ContextBlock:
    """The oracle contexts of one pass, one row per (user, query item) pair.

    ``users`` and ``items`` are int64 arrays; row ``j`` of the (rows,
    top_l) int64 array ``hist`` holds user ``j``'s history items ranked by
    similarity to item ``j``, padded with -1.  ``titles`` is every item's
    title, indexed by item id.
    """

    users: np.ndarray
    items: np.ndarray
    hist: np.ndarray
    titles: list[str]

    def __len__(self) -> int:
        return len(self.users)

    def take(self, rows) -> "ContextBlock":
        """The block of ``rows``, in that order."""
        return ContextBlock(self.users[rows], self.items[rows], self.hist[rows],
                            self.titles)

    def history(self, j: int) -> list[int]:
        """Row ``j``'s context items, most similar first."""
        row = self.hist[j]
        return row[row >= 0].tolist()


@dataclass
class OracleDecision:
    value: int
    raw: str
    latency: float = 0.0


class FinetuneRecord(NamedTuple):
    prompt: str
    completion: str


def build_context(users, items, item_vectors: np.ndarray, train_items,
                  titles: list[str], top_l: int = 10) -> ContextBlock:
    """Each (user, item) pair's ``top_l`` history items most similar to the
    item: one :class:`ContextBlock`, one row per pair, in pair order.

    ``train_items``, ``item_vectors`` (the context filter's item tower over
    the whole catalog) and ``titles`` are indexed by user or item id.
    Similarity is the dot product of filter vectors; ties break by ascending
    item id, and an empty history gives an empty context.  A BLAS product's
    bits can depend on a row's position in it, so each item's similarities
    come from one product over its rows' histories, in row order.  The
    rows of one history length are then ranked together, one ``lexsort``
    on (-similarity, item id) along each row of their (rows, length) block.
    """
    if top_l < 1:
        raise ValueError(f"top_l must be >= 1, got {top_l}")
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    # rows grouped by item, stably: each item's histories lie together
    by_item = np.argsort(items, kind="stable")
    histories = [train_items[u] for u in users[by_item].tolist()]
    lens = np.array([len(h) for h in histories], dtype=np.int64)
    hist_ids = np.fromiter(itertools.chain.from_iterable(histories),
                           dtype=np.int64, count=int(lens.sum()))
    starts = np.cumsum(lens) - lens
    group_items, firsts = np.unique(items[by_item], return_index=True)
    queries = np.asarray(item_vectors[group_items], dtype=np.float64)
    bounds = np.append(starts[firsts], len(hist_ids)).tolist()
    sims = np.empty(len(hist_ids))
    for query, lo, hi in zip(queries, bounds, bounds[1:]):
        sims[lo:hi] = item_vectors[hist_ids[lo:hi]] @ query
    hist = np.full((len(lens), top_l), -1, dtype=np.int64)
    for n in np.unique(lens[lens > 0]).tolist():
        rows = np.flatnonzero(lens == n)
        cols = starts[rows, None] + np.arange(n)
        ids = hist_ids[cols]
        order = np.lexsort((ids, -sims[cols]), axis=-1)[:, :top_l]
        hist[by_item[rows], :order.shape[1]] = np.take_along_axis(ids, order, 1)
    return ContextBlock(users, items, hist, titles)


def render_prompt(block: ContextBlock, j: int) -> str:
    """Render the fixed yes/no prompt for row ``j`` of a block, byte-exact.

    Context titles are double-quoted and comma-joined inside the first
    bracket pair; an empty context renders ``[]``.
    """
    return next(_prompts(block.take([j])))


def _prompts(block: ContextBlock):
    """Every row's prompt, in row order, from one walk over the block's rows
    as Python lists, each context title quoted once."""
    titles = block.titles
    quoted = {i: f'"{titles[i]}"' for i in np.unique(block.hist).tolist()
              if i >= 0}
    for item, row in zip(block.items.tolist(), block.hist.tolist()):
        item_text = titles[item]
        if not item_text:
            raise ValueError("item content must be non-empty")
        history = ", ".join([quoted[i] for i in row if i >= 0])
        yield PROMPT_TEMPLATE.format(history=history, item=item_text)


def parse_yes_no(text: str) -> int:
    """First alphabetic token, case-insensitive; anything else is a parse error."""
    m = _FIRST_WORD_RE.search(text)
    word = m.group(0).lower() if m else ""
    if word == "yes":
        return 1
    if word == "no":
        return 0
    raise OracleParseError(f"unrecognized oracle answer: {text!r}")


class PlantedOracle:
    """Deterministic oracle backed by an injected ground-truth pair set."""

    kind = "planted"

    def __init__(self, true_pairs):
        self.true_pairs = set(true_pairs)

    def decide(self, block: ContextBlock) -> list[OracleDecision]:
        """One membership test of (user, item) per row, in order."""
        return [OracleDecision(value=1, raw="Yes") if pair in self.true_pairs
                else OracleDecision(value=0, raw="No")
                for pair in zip(block.users.tolist(), block.items.tolist())]


class ThresholdOracle:
    """Accepts when the item's raw vector is cosine-close to the context mean.

    An empty context is always a no.
    """

    kind = "mock-threshold"

    def __init__(self, content_matrix: np.ndarray, tau: float = 0.3):
        self.content_matrix = np.asarray(content_matrix, dtype=np.float64)
        self.tau = tau

    def decide(self, block: ContextBlock) -> list[OracleDecision]:
        """One cosine test per row, in order; rows may mix items.

        Rows of one context length go in ``row_chunks`` of (rows, width)
        sums, each adding one ``hist`` column at a time: a row's context is
        added in order, as ``X[items].mean(axis=0)`` adds it at widths
        above 1, so its bits do not depend on which rows share its chunk."""
        vectors = self.content_matrix
        sizes, yes = (block.hist >= 0).sum(axis=1), np.zeros(len(block), bool)
        for n in np.unique(sizes[sizes > 0]).tolist():
            for rows in row_chunks(np.flatnonzero(sizes == n), vectors.shape[1]):
                hist = block.hist[rows, :n]
                means = vectors[hist[:, 0]]
                for j in range(1, n):
                    means += vectors[hist[:, j]]
                means /= n
                item_vecs = vectors[block.items[rows]]
                denom = np.sqrt(row_dots(item_vecs, item_vecs)) * \
                    np.sqrt(row_dots(means, means))
                cos = np.divide(row_dots(item_vecs, means), denom,
                                out=np.zeros(len(rows)), where=denom > 0)
                yes[rows] = cos >= self.tau
        return [OracleDecision(value=1, raw="Yes") if y
                else OracleDecision(value=0, raw="No") for y in yes.tolist()]


class HttpOracle:
    """Oracle served over HTTP: POST ``{"prompt": ...}``, read ``{"answer": ...}``.

    With ``chat=True`` the same prompt is wrapped as a chat completion
    request ``{"messages": [{"role": "user", "content": prompt}]}`` and the
    first message text of the response is parsed instead.  Requests run on
    one pool of ``max_inflight`` threads that lives as long as the oracle,
    so a ``decide`` call keeps that many requests in flight across item
    boundaries, and each thread sends them on its own kept-alive
    connection (:class:`~coldsim.content.HttpSession`).
    """

    kind = "http"

    def __init__(self, url: str, timeout: float = 30.0, retries: int = 3,
                 backoff: float = 0.5, chat: bool = False,
                 max_inflight: int = 8):
        self.retries = retries
        self.backoff = backoff
        self.chat = chat
        self.max_inflight = max(1, max_inflight)
        self._pool = ThreadPoolExecutor(max_workers=self.max_inflight,
                                        thread_name_prefix="coldsim-oracle")
        self._session = HttpSession(url, timeout)

    def _answer(self, doc: dict) -> str:
        if not self.chat:
            return doc["answer"]
        if "messages" in doc:
            return doc["messages"][0]["content"]
        if "choices" in doc:
            return doc["choices"][0]["message"]["content"]
        raise OracleError("chat response carries no messages")

    def _ask(self, block: ContextBlock, j: int) -> OracleDecision | OracleError:
        prompt = render_prompt(block, j)
        body = {"messages": [{"role": "user", "content": prompt}]} \
            if self.chat else {"prompt": prompt}
        start = time.perf_counter()
        try:
            answer = post_with_retries(self._session, body, self._answer,
                                       OracleError, "oracle",
                                       retries=self.retries,
                                       backoff=self.backoff)
            latency = time.perf_counter() - start
            return OracleDecision(value=parse_yes_no(answer), raw=answer,
                                  latency=latency)
        except OracleError as exc:
            return exc

    def decide(self, block: ContextBlock) -> list[OracleDecision | OracleError]:
        """Every row's answer, in order, or the error it failed with.

        All rows go to the pool at once; each worker renders its own
        prompt.  Once ``max_inflight`` answers in a row, in row order,
        have failed every retry (a parse error does not count, and ends
        the streak), the endpoint is taken for dead: requests not yet
        started are cancelled and come back as an :class:`OracleError`
        saying so, while those in flight finish.  Any other exception
        cancels them too, then propagates.
        """
        futures = [self._pool.submit(self._ask, block, j)
                   for j in range(len(block))]
        answers, streak = [], 0
        try:
            for future in futures:
                if streak == self.max_inflight:
                    break
                answers.append(future.result())
                failed = isinstance(answers[-1], OracleError) and \
                    not isinstance(answers[-1], OracleParseError)
                streak = streak + 1 if failed else 0
        finally:
            # cancel what has not started, and let what has finish
            rest = futures[len(answers):]
            cancelled = [future.cancel() for future in rest]
            wait(rest)
        for future, not_sent in zip(rest, cancelled):
            answers.append(OracleError(
                f"oracle request not sent: {streak} requests in a row failed "
                f"before it") if not_sent else future.result())
        return answers


class DecisionLog:
    """Per-run record of oracle decisions, doubling as a rerun cache.

    Cache keys include a prompt hash so a changed context re-queries.  The
    JSONL persistence writes one object per decision with fields
    ``user, item, z, raw, oracle`` (plus the prompt hash).
    """

    def __init__(self):
        self.records: list[dict] = []
        self._cache: dict[tuple, OracleDecision] = {}

    def __len__(self) -> int:
        return len(self.records)

    @staticmethod
    def prompt_hash(prompt: str) -> str:
        """The short prompt hash that keys the cache and is persisted as ``ph``."""
        return hashlib.sha1(prompt.encode("utf-8")).hexdigest()[:16]

    def lookup(self, user, item, oracle_kind, ph: str) -> OracleDecision | None:
        return self._cache.get((user, item, oracle_kind, ph))

    def record(self, user, item, oracle_kind, ph: str,
               decision: OracleDecision) -> None:
        self._cache[(user, item, oracle_kind, ph)] = decision
        self.records.append({"user": int(user), "item": int(item),
                             "z": int(decision.value), "raw": decision.raw,
                             "oracle": oracle_kind, "ph": ph})

    def save(self, path: str | Path) -> None:
        store.write_atomic(path, "".join(
            json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n"
            for rec in self.records))

    @classmethod
    def load(cls, path: str | Path) -> "DecisionLog":
        """The log saved at ``path``; blank lines are skipped.

        A line that is not a JSON object with ``user``, ``item``, ``z``,
        ``raw`` and ``oracle`` raises a ValueError naming the path and the
        1-based line number.
        """
        log = cls()
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    key = (rec["user"], rec["item"], rec["oracle"],
                           rec.get("ph"))
                    log._cache[key] = OracleDecision(value=rec["z"],
                                                     raw=rec["raw"])
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    raise ValueError(f"{path}, line {number}: not a decision "
                                     f"record ({type(exc).__name__}: {exc})"
                                     ) from exc
                log.records.append(rec)
        return log


@dataclass
class SimulateConfig:
    k: int = 20
    context_len: int = 10
    fallback_to_top1: bool = True


@dataclass
class SimulationResult:
    item: int
    users: list[int]
    fallback_used: bool = False
    failures: int = 0
    decided: int = 0    # oracle answers, fresh or served from the decision log


def refine_all(candidate_sets: list[CandidateSet], client,
               item_vectors: np.ndarray, train_items: list[list[int]],
               titles: list[str], top_l: int = 10,
               decision_log: DecisionLog | None = None
               ) -> list[tuple[list[int], int]]:
    """Keep the candidates the oracle accepts, preserving rank order, for
    every candidate set of one pass.

    ``item_vectors`` (the context filter's) and ``titles`` are indexed by
    item id.  The pass's contexts come from one :func:`build_context` call,
    and the rows the ``decision_log`` cannot answer go to one
    ``client.decide`` call.  Prompts are rendered and hashed only to key
    the log.  Decisions are logged in item order, then candidate order.

    Returns (accepted users, oracle failure count) per candidate set.
    Raises :class:`OracleError` naming the first item, in order, whose every
    call failed, but only after every answer of the pass is logged; partial
    failures drop those users with a warning.  An empty candidate set, or an
    item given twice, raises ValueError: a pass asks each (user, item) once.
    """
    items = [cand.item for cand in candidate_sets]
    if len(set(items)) < len(items):
        twice = sorted({i for i in items if items.count(i) > 1})
        raise ValueError(f"refine_all got items {twice} more than once in "
                         f"one pass")
    if not all(cand.users for cand in candidate_sets):
        raise ValueError("refine requires a non-empty candidate set")
    users = [u for cand in candidate_sets for u in cand.users]
    block = build_context(users, [c.item for c in candidate_sets for _ in c.users],
                          item_vectors, train_items, titles, top_l)
    phs = cached = [None] * len(block)      # per row: the logged decision
    if decision_log is not None:
        phs = [DecisionLog.prompt_hash(prompt) for prompt in _prompts(block)]
        cached = [decision_log.lookup(u, i, client.kind, ph) for u, i, ph
                  in zip(users, block.items.tolist(), phs)]
    asked = [j for j, hit in enumerate(cached) if hit is None]
    fresh = dict(zip(asked, client.decide(block.take(asked)) if asked else ()))

    results, dead, start = [], [], 0
    for cand in candidate_sets:
        rows = range(start, start + len(cand.users))
        start = rows.stop
        decided, failures = {}, 0
        for j in rows:
            answer = fresh.get(j, cached[j])
            if isinstance(answer, OracleError):
                failures += 1
                logger.warning("oracle call failed: %s", answer)
                continue
            decided[users[j]] = answer
            if decision_log is not None and j in fresh:
                decision_log.record(users[j], cand.item, client.kind, phs[j],
                                    answer)
        if failures:
            logger.warning("item %s: %d of %d oracle calls failed", cand.item,
                           failures, sum(j in fresh for j in rows))
        if not decided:
            dead.append(cand.item)
        results.append(([u for u in cand.users if u in decided
                         and decided[u].value == 1], failures))
    # raise only once every answer of the pass is logged: answers are paid for
    if dead:
        raise OracleError(f"every oracle call failed for item {dead[0]}")
    return results


def refine(candidates: CandidateSet, client, item_vectors: np.ndarray,
           train_items: list[list[int]], titles: list[str], top_l: int = 10,
           decision_log: DecisionLog | None = None) -> tuple[list[int], int]:
    """:func:`refine_all` over one candidate set: (accepted users, failures)."""
    return refine_all([candidates], client, item_vectors, train_items, titles,
                      top_l, decision_log)[0]


def prepare_finetune_data(split: ColdWarmSplit, catalog: ItemCatalog,
                          filt: TwoTowerFilter, content_matrix: np.ndarray,
                          n_users: int, mode: str = "offline", seed: int = 0,
                          n_positives: int | None = None,
                          negatives=None, top_l: int = 10,
                          out_path: str | Path | None = None) -> list[FinetuneRecord]:
    """Build prompt/completion records for oracle fine-tuning.

    Offline mode pairs each sampled warm-train positive with one uniformly
    sampled unobserved item: exactly one Yes and one No record per
    positive.  Online mode additionally pairs each positive having an
    explicit negative (from ``negatives``, a set of (user, item) pairs)
    with that negative, keeping every emitted pairing 1:1.

    Context is built against the item being judged, so the Yes and No
    prompts of one positive differ.  Records are optionally written as
    JSONL with fields ``prompt`` and ``completion``.
    """
    if mode not in ("offline", "online"):
        raise ValueError(f"mode must be 'offline' or 'online', got {mode!r}")
    if len(split.warm_train) == 0:
        raise ValueError("no positives available")
    if mode == "online" and negatives is None:
        raise ValueError("online mode requires explicit negatives")

    rng = np.random.default_rng(seed)
    positives = ordered_subsample(rng, lexsorted(split.warm_train), n_positives)
    index = split.index(n_users)
    warm = np.asarray(split.warm_items, dtype=np.int64)

    neg_by_user: dict[int, list[int]] = {}
    if negatives is not None:
        for u, i in sorted(negatives):
            neg_by_user.setdefault(u, []).append(i)

    plan = []   # slots: (positive, draws an unobserved warm item)
    for k, u in enumerate(positives[:, 0].tolist()):
        if mode == "online" and neg_by_user.get(u):
            plan.append((k, False))     # a pick among u's explicit negatives
        plan.append((k, True))
    users = positives[[k for k, _ in plan], 0]
    is_neg = np.asarray([neg for _, neg in plan], dtype=bool)

    def exhausted(slot):
        # exact fallback keeps the 1:1 pairing whenever a negative exists
        unread = ~index.train.contains(np.full(len(warm), users[slot]), warm)
        pool = np.flatnonzero(unread)
        return pool[[rng.integers(len(pool))]] if len(pool) else None

    draws, ok = draw_accepted(
        rng, [len(warm) if neg else len(neg_by_user[positives[k][0]])
              for k, neg in plan],
        # an online pick indexes its user's negatives, not the warm items
        lambda s, a: is_neg[s] & index.train.contains(
            users[s], warm[np.where(is_neg[s], a[:, 0], 0)]),
        exhausted=exhausted)

    item_vectors = filt.item_tower.forward(content_matrix)
    titles = [catalog.title(i) for i in range(len(content_matrix))]

    def make_record(user, item, completion):
        # one call per record: a context never depends on other records
        block = build_context([user], [item], item_vectors, index.train_items,
                              titles, top_l)
        return FinetuneRecord(render_prompt(block, 0), completion)

    records: list[FinetuneRecord] = []
    dropped = 0
    for slot, (k, neg) in enumerate(plan):
        u, i = positives[k].tolist()
        if not ok[slot]:
            dropped += 1
            continue
        j = int(warm[draws[slot, 0]]) if neg else neg_by_user[u][draws[slot, 0]]
        records.append(make_record(u, i, "Yes"))
        records.append(make_record(u, j, "No"))
    if dropped:
        logger.warning("%d positives dropped: their users have no unobserved "
                       "warm item", dropped)

    if out_path is not None:
        store.write_atomic(out_path, "".join(
            json.dumps({"prompt": rec.prompt, "completion": rec.completion},
                       ensure_ascii=False, sort_keys=True) + "\n"
            for rec in records))
    return records
