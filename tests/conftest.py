import contextlib
import threading
from http.server import ThreadingHTTPServer

import numpy as np
import pytest

from coldsim.corpus import ColdWarmSplit, InteractionLog
from coldsim.refiner import ContextBlock
from coldsim.synthetic import make_two_cluster_dataset, make_planted_split


def write_citeulike_fixture(root, per_user_items, metadata):
    """metadata: list of (raw_id, title, abstract)."""
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "users.dat", "w", encoding="utf-8") as fh:
        for items in per_user_items:
            fh.write(" ".join(str(i) for i in items) + "\n")
    with open(root / "items.tsv", "w", encoding="utf-8") as fh:
        for raw, title, abstract in metadata:
            fh.write(f"{raw}\t{title}\t{abstract}\n")
    return root


def write_movielens_fixture(root, ratings, movies):
    """ratings: (user, item, rating, ts) tuples; movies: (id, title, genres)."""
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "ratings.dat", "w", encoding="utf-8") as fh:
        for u, i, r, ts in ratings:
            fh.write(f"{u}::{i}::{r}::{ts}\n")
    with open(root / "movies.dat", "w", encoding="utf-8") as fh:
        for mid, title, genres in movies:
            fh.write(f"{mid}::{title}::{genres}\n")
    return root


@pytest.fixture
def toy_log():
    # 6 users x 5 items, every item covered
    pairs = [(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 3),
             (3, 2), (3, 4), (4, 3), (4, 0), (5, 4), (5, 1)]
    return InteractionLog.from_pairs(6, 5, pairs)


@pytest.fixture(scope="session")
def planted():
    data = make_two_cluster_dataset(seed=0)
    split = make_planted_split(data, seed=0)
    return data, split


def tiny_cluster_setup(seed=0, n_users=40, n_warm=16, n_cold=4,
                       groups_per_cluster=1):
    data = make_two_cluster_dataset(n_users=n_users, n_warm=n_warm,
                                    n_cold=n_cold,
                                    groups_per_cluster=groups_per_cluster,
                                    seed=seed)
    split = make_planted_split(data, seed=seed)
    return data, split


def as_tuples(pairs):
    """An (n, 2) pair array as a list of (user, item) tuples of ints."""
    return [tuple(p) for p in pairs.tolist()]


def pair_split(pairs, warm):
    """Split whose warm-train list is ``pairs`` (in order) over ``warm``."""
    return ColdWarmSplit(warm_items=list(warm), cold_items=[],
                         warm_train=list(pairs), warm_val=[], warm_test=[],
                         cold_val=[], cold_test=[], seed=0, cold_frac=0.0)


def context_block(rows, titles):
    """A :class:`~coldsim.refiner.ContextBlock` built by hand: one row per
    (user, query item, context items) triple, context items most similar
    first; ``titles`` holds every item's title by id."""
    hist = np.full((len(rows), max([1] + [len(h) for _, _, h in rows])), -1,
                   dtype=np.int64)
    for j, (_, _, history) in enumerate(rows):
        hist[j, :len(history)] = history
    return ContextBlock(users=np.array([r[0] for r in rows], dtype=np.int64),
                        items=np.array([r[1] for r in rows], dtype=np.int64),
                        hist=hist, titles=list(titles))


@contextlib.contextmanager
def http_server(handler, server_class=ThreadingHTTPServer):
    """A local ``server_class`` on a free port, serving ``handler`` on a
    thread until the block ends; ``server.base_url`` is its address.

    The server polls for shutdown every 10 ms rather than every 0.5 s, so
    stopping it does not stall the test.
    """
    server = server_class(("127.0.0.1", 0), handler)
    server.base_url = f"http://127.0.0.1:{server.server_address[1]}"
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
