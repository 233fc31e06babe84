"""The merged-candidate writer and its reopen refusals, on hand-built sets.

``MergedCandidateStore.write`` streams the same rows
:func:`~repro.shard.merge.merge_candidate_sets` dedups in memory through
one ``INSERT OR IGNORE`` per table, so both shapes must keep the same
first-win survivors, and the merged file's ``offers`` table must hold
exactly the offers those survivors name.  ``StoredMergedCandidates.open``
refuses a file it cannot serve with a typed
:class:`~repro.errors.StoreError` naming the file and the table.
"""

import pickle
import sqlite3

import numpy as np
import pytest

from repro.blocking import BlockedPairSet, CandidateBlocker
from repro.corpus.schema import ProductOffer
from repro.errors import StoreError
from repro.shard import (
    MergedCandidateStore,
    StoredMergedCandidates,
    merge_candidate_sets,
)
from repro.similarity.engine import SimilarityEngine

K = 3
METRICS = ("cosine", "dice")


def _blocker(rows):
    """A blocker over ``(offer_id, cluster_id, title)`` rows."""
    offers = [
        ProductOffer(offer_id=offer_id, cluster_id=cluster, title=title)
        for offer_id, cluster, title in rows
    ]
    return CandidateBlocker(
        SimilarityEngine([offer.title for offer in offers]),
        offers=offers,
        group_labels=[offer.cluster_id for offer in offers],
    )


def _blocked(blocker, pairs):
    row_a, row_b, score, metric, query_row, rank = zip(*pairs)
    return BlockedPairSet(
        blocker,
        row_a=row_a,
        row_b=row_b,
        score=score,
        metric_id=[METRICS.index(name) for name in metric],
        query_row=query_row,
        rank=rank,
        k=K,
        metrics=METRICS,
        n_queries=len(blocker),
    )


SHARD_0 = [
    ("s0:a", "s0:x", "exatron vortex 2tb drive"),
    ("s0:b", "s0:x", "exatron vortex drive 2tb"),
    ("s0:c", "s0:y", "soniq tranquil headphones"),
    ("s0:z", "s0:w", "gardening trowel never paired"),
]
SHARD_1 = [
    ("s1:d", "s1:u", "soniq tranquil headphones black"),
    ("s1:e", "s1:u", "soniq tranquil black headphones"),
]


@pytest.fixture()
def sets():
    """Two within-shard joins plus one cross set that repeats one of
    shard 0's pair keys, its offers in the opposite row order."""
    shard_0 = _blocked(
        _blocker(SHARD_0),
        [(0, 1, 0.9, "cosine", 0, 0), (1, 2, 0.2, "dice", 1, 1)],
    )
    shard_1 = _blocked(_blocker(SHARD_1), [(0, 1, 0.8, "cosine", 0, 0)])
    # Rows: s0:b, s0:a, s0:c | s1:d, s1:e — row pair (0, 1) is the key
    # (s0:a, s0:b) again, surfaced with another score, metric and
    # direction; the first (within-shard) row must win.
    cross_rows = [SHARD_0[1], SHARD_0[0], SHARD_0[2], *SHARD_1]
    partition = np.array([0, 0, 0, 1, 1], dtype=np.intp)
    cross = _blocked(
        _blocker(cross_rows),
        [
            (2, 3, 0.7, "cosine", 2, 0),
            (0, 1, 0.1, "dice", 0, 2),
            (1, 4, 0.3, "dice", 4, 1),
        ],
    )
    shard_sets = [(0, shard_0), (1, shard_1)]
    cross_sets = [((0, 1), cross, partition)]
    return shard_sets, cross_sets


def _rows(merged):
    return [
        (
            pair.offer_a,
            pair.offer_b,
            pair.label,
            pair.score,
            pair.metric,
            pair.provenance,
        )
        for pair in merged
    ]


def _write(path, sets, table_keys=("completed", "join_only")):
    shard_sets, cross_sets = sets
    store = MergedCandidateStore(path)
    try:
        return {
            # join_only gets shard 0's join alone: the two tables differ.
            key: store.write(
                key,
                shard_sets if key == "completed" else shard_sets[:1],
                cross_sets,
                k=K,
                metrics=METRICS,
                n_shards=2,
            )
            for key in table_keys
        }
    finally:
        store.close()


class TestStreamedWriter:
    def test_tables_equal_the_in_memory_merge(self, tmp_path, sets):
        shard_sets, cross_sets = sets
        views = _write(tmp_path / "merged.db", sets)
        for key, shards in (
            ("completed", shard_sets),
            ("join_only", shard_sets[:1]),
        ):
            expected = merge_candidate_sets(
                shards, cross_sets, k=K, metrics=METRICS, n_shards=2
            )
            assert _rows(views[key]) == _rows(expected)
            assert len(views[key]) == len(expected)
            assert views[key].pair_keys() == expected.pair_keys()

    def test_first_win_row_survives_the_repeated_key(self, tmp_path, sets):
        completed = _write(tmp_path / "merged.db", sets)["completed"]
        by_key = {
            tuple(sorted((pair.offer_a.offer_id, pair.offer_b.offer_id))): pair
            for pair in completed
        }
        assert len(by_key) == len(completed) == 5
        winner = by_key[("s0:a", "s0:b")]
        assert (winner.score, winner.metric, winner.provenance) == (
            0.9,
            "cosine",
            "shard:0→0:cosine",
        )
        assert winner.label == 1
        cross = by_key[("s0:c", "s1:d")]
        assert cross.provenance == "shard:0→1:cosine"
        assert cross.label == 0
        # The query row is shard 1's offer: the direction follows it.
        assert by_key[("s0:a", "s1:e")].provenance == "shard:1→0:dice"

    def test_offers_hold_each_referenced_offer_once(self, tmp_path, sets):
        path = tmp_path / "merged.db"
        views = _write(path, sets)
        with sqlite3.connect(path) as connection:
            stored = [
                offer_id
                for (offer_id,) in connection.execute(
                    "SELECT offer_id FROM offers ORDER BY rowid"
                )
            ]
        # First-seen order over the completed stream, then nothing new
        # from join_only (its offers are a subset); s0:z is never named.
        assert stored == ["s0:a", "s0:b", "s0:c", "s1:d", "s1:e"]
        referenced = {
            offer.offer_id
            for view in views.values()
            for pair in view
            for offer in (pair.offer_a, pair.offer_b)
        }
        assert set(stored) == referenced


class TestReopenRefusals:
    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.db"
        with pytest.raises(StoreError, match="absent.db.*'completed'"):
            StoredMergedCandidates.open(path, "completed")

    def test_table_never_written(self, tmp_path, sets):
        path = tmp_path / "merged.db"
        _write(path, sets, table_keys=("completed",))
        with pytest.raises(StoreError, match="merged.db.*'join_only'"):
            StoredMergedCandidates.open(path, "join_only")
        # Unpickling a view reopens it the same way.
        view = StoredMergedCandidates(
            path, "join_only", k=K, metrics=METRICS, n_shards=2
        )
        with pytest.raises(StoreError, match="never written"):
            pickle.loads(pickle.dumps(view))

    def test_schema_mismatch(self, tmp_path, sets):
        path = tmp_path / "merged.db"
        _write(path, sets)
        with sqlite3.connect(path) as connection:
            connection.execute(
                "UPDATE meta SET value = '99' WHERE key = 'schema'"
            )
        connection.close()
        with pytest.raises(StoreError, match="merged.db.*'completed'.*schema"):
            StoredMergedCandidates.open(path, "completed")

    def test_written_table_reopens(self, tmp_path, sets):
        path = tmp_path / "merged.db"
        written = _write(path, sets)["completed"]
        reopened = pickle.loads(pickle.dumps(written))
        assert (reopened.k, reopened.metrics, reopened.n_shards) == (
            K,
            METRICS,
            2,
        )
        assert _rows(reopened) == _rows(written)
