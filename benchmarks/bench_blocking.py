"""Per-layer microbenchmark: blocked candidates from the join to ``merged.db``.

Fixed inputs: one two-shard session over ``BuildConfig.small(seed=42)``
(serial executor, SQLite stores), built once per module.  Three timings:

* ``candidates`` — ``CandidateBlocker.candidates(k=25)`` under all four
  metrics over shard 0's stored engine, the join each shard worker runs
  in its ``blocking`` stage,
* ``store_round_trip`` — shard 0's join written into an empty
  ``blocked_pairs`` table and read back as columns,
* ``merged_write`` — ``MergedCandidateStore.write`` of both candidate
  tables from the session's own per-shard and cross-shard sets (captured
  from the session's sweep).

The engine is opened once per test, so Generalized Jaccard runs with a
warm pair cache after the first round.  Run with ``PYTHONPATH=src python
-m pytest benchmarks/bench_blocking.py -q``.  Several rounds per timing;
this is a measurement, not a CI gate.
"""

from __future__ import annotations

import sqlite3
from unittest import mock

import pytest

from repro.blocking import CandidateBlocker
from repro.core import BuildConfig
from repro.io.store import _DDL, _read_blocked_pairs, _write_blocked_pairs
from repro.shard import MergedCandidateStore, ShardedBenchmarkSession, ShardPlan
from repro.similarity.engine import SimilarityEngine

ROUNDS = 8
K = 25


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """``(shard artifacts, merged-store writes)`` of one session.

    The sweep runs with a stand-in for ``MergedCandidateStore`` that
    keeps each ``write``'s arguments, so the timed writes get exactly the
    sets the session's sink receives.
    """
    writes: dict[str, tuple] = {}

    class CapturingSink:
        def __init__(self, path) -> None:
            pass

        def write(self, table_key, shard_sets, cross_sets, **kwargs):
            writes[table_key] = (shard_sets, cross_sets, kwargs)

        def close(self) -> None:
            pass

    plan = ShardPlan.create(2, base_config=BuildConfig.small(seed=42), seed=42)
    built = ShardedBenchmarkSession(
        plan,
        executor="serial",
        store_backend="sqlite",
        store_dir=tmp_path_factory.mktemp("session"),
    )
    shard_ids, shards, summaries, _, _ = built._build_shards()
    with mock.patch("repro.shard.session.MergedCandidateStore", CapturingSink):
        built._sweep(shard_ids, shards, {}, summaries)
    return shards, writes


def _time(benchmark, call):
    return benchmark.pedantic(call, rounds=ROUNDS, warmup_rounds=1)


def test_candidates(benchmark, session):
    stored = session[0][0]
    engine = SimilarityEngine.open(stored)
    offers = list(stored.cleansed.offers)
    blocker = CandidateBlocker(
        engine, offers=offers, group_labels=[offer.cluster_id for offer in offers]
    )
    assert len(engine.metric_names) == 4
    blocked = _time(
        benchmark, lambda: blocker.candidates(k=K, metrics=engine.metric_names)
    )
    assert len(blocked) == len(stored.blocked_candidates)


def test_store_round_trip(benchmark, session):
    blocked = session[0][0].blocked_candidates
    connection = sqlite3.connect(":memory:")
    connection.executescript(_DDL)

    def round_trip():
        connection.execute("DELETE FROM blocked_pairs")
        _write_blocked_pairs(connection, blocked)
        return _read_blocked_pairs(
            connection,
            blocked.blocker,
            k=blocked.k,
            metrics=blocked.metrics,
            n_queries=blocked.n_queries,
        )

    back = _time(benchmark, round_trip)
    assert len(back) == len(blocked)
    assert back.score.tolist() == blocked.score.tolist()


def test_merged_write(benchmark, session, tmp_path):
    writes = session[1]
    assert set(writes) == {"completed", "join_only"}

    def write():
        store = MergedCandidateStore(tmp_path / "merged.db")
        try:
            return [
                len(store.write(key, shard_sets, cross_sets, **kwargs))
                for key, (shard_sets, cross_sets, kwargs) in writes.items()
            ]
        finally:
            store.close()

    counts = _time(benchmark, write)
    assert all(count > 0 for count in counts)
