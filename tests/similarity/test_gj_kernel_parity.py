"""Bit-exactness pins for the id-native Generalized-Jaccard kernel.

The engine scores Generalized Jaccard straight off its CSR token columns,
with Jaro–Winkler token-pair scores from a corpus-level
:class:`~repro.similarity.features.TokenTable`.  These tests pin its
values bitwise: a sha256 over seeded row pairs of the small corpus
(recorded before the kernel moved off Python token sets), agreement
with the scalar reference at 1e-9, identical values through views,
``concat``, store-opened engines and appends that reorder the token
ranks, cache hits equal to cache misses, and two threads sharing one
engine.
"""

import hashlib
import sys
import threading

import numpy as np
import pytest

from repro.io.store import open_store, write_store
from repro.similarity import features
from repro.similarity.engine import SimilarityEngine
from repro.similarity.features import BoundedPairCache
from repro.similarity.token_based import generalized_jaccard_similarity

# sha256 of the float64 GJ values of ``_seeded_pairs`` on the small corpus.
PINNED_SHA256 = "f281439afcab789dd4a0aac888e23695d872cc94e0113f6fcc77c1b8a2ef9d03"


def _sha(values: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype="<f8").tobytes()
    ).hexdigest()


def _seeded_pairs(titles: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """6000 random row pairs plus near-duplicate pairs of title-sorted rows."""
    n = len(titles)
    rng = np.random.default_rng(20240)
    rand_a = rng.integers(0, n, 6000)
    rand_b = rng.integers(0, n, 6000)
    order = np.argsort(np.array(titles, dtype=object), kind="stable")
    near_a = np.concatenate([order[:-d] for d in (1, 2, 3)])
    near_b = np.concatenate([order[d:] for d in (1, 2, 3)])
    return np.concatenate([rand_a, near_a]), np.concatenate([rand_b, near_b])


@pytest.fixture(scope="module")
def titles(cleansed_small):
    return [offer.title for offer in cleansed_small.offers]


@pytest.fixture(scope="module")
def pairs(titles):
    return _seeded_pairs(titles)


@pytest.fixture(scope="module")
def reference(titles, pairs):
    return SimilarityEngine(titles).generalized_jaccard_pairs(*pairs)


class TestPinnedValues:
    def test_values_match_the_pinned_sha(self, reference, pairs):
        assert reference.shape == pairs[0].shape
        assert _sha(reference) == PINNED_SHA256

    def test_agrees_with_the_scalar_reference(self, titles, pairs, reference):
        picks = np.random.default_rng(3).choice(reference.size, 1500, replace=False)
        scalar = [
            generalized_jaccard_similarity(titles[a], titles[b])
            for a, b in zip(pairs[0][picks], pairs[1][picks])
        ]
        np.testing.assert_allclose(reference[picks], scalar, rtol=0, atol=1e-9)

    def test_cache_hits_equal_cache_misses(self, titles, pairs, reference):
        engine = SimilarityEngine(titles)
        half = pairs[0].size // 2
        # Warm both caches on half the pairs, then score everything: the
        # first half is served from the GJ cache, the rest from warm JW.
        engine.generalized_jaccard_pairs(pairs[0][half:], pairs[1][half:])
        np.testing.assert_array_equal(
            engine.generalized_jaccard_pairs(*pairs), reference
        )
        np.testing.assert_array_equal(
            engine.generalized_jaccard_pairs(*pairs), reference
        )

    def test_tiny_caches_restart_without_changing_values(
        self, titles, pairs, reference
    ):
        engine = SimilarityEngine(titles, gj_cache_entries=16)
        np.testing.assert_array_equal(
            engine.generalized_jaccard_pairs(*pairs), reference
        )
        assert len(engine._gj_cache) <= 16
        assert len(engine._token_table) <= 16

    def test_string_entry_runs_the_same_kernel(self, titles, pairs, reference):
        picks = np.arange(0, reference.size, 7)
        values = features.generalized_jaccard_batch(
            [titles[a] for a in pairs[0][picks]],
            [titles[b] for b in pairs[1][picks]],
        )
        np.testing.assert_array_equal(values, reference[picks])


class TestEngineShapes:
    def test_view_shares_the_token_table(self, titles, pairs, reference):
        engine = SimilarityEngine(titles)
        rows = np.random.default_rng(5).permutation(len(titles))[:1500]
        view = engine.view(rows)
        assert view._token_table is engine._token_table
        local = np.empty(len(titles), dtype=np.intp)
        local[rows] = np.arange(rows.size)
        inside = np.isin(pairs[0], rows) & np.isin(pairs[1], rows)
        np.testing.assert_array_equal(
            view.generalized_jaccard_pairs(
                local[pairs[0][inside]], local[pairs[1][inside]]
            ),
            reference[inside],
        )

    def test_concat_starts_a_fresh_table(self, titles, pairs, reference):
        cut = len(titles) // 3
        left = SimilarityEngine(titles[:cut])
        right = SimilarityEngine(titles[cut:])
        left.generalized_jaccard_pairs([0, 1], [2, 3])  # build left's table
        combined = SimilarityEngine.concat([left, right])
        assert combined._token_table is not left._token_table
        np.testing.assert_array_equal(
            combined.generalized_jaccard_pairs(*pairs), reference
        )

    def test_store_opened_engine(self, artifacts_small, tmp_path):
        write_store(tmp_path / "shard-0000", artifacts_small, shard=0)
        opened = open_store(tmp_path / "shard-0000", strict=True).engine
        built = artifacts_small.engine
        assert opened._token_table is not built._token_table
        rows_a, rows_b = _seeded_pairs(built.titles)
        np.testing.assert_array_equal(
            opened.generalized_jaccard_pairs(rows_a, rows_b),
            built.generalized_jaccard_pairs(rows_a, rows_b),
        )

    def test_append_rebuilds_ranks_and_reuses_jw_scores(
        self, titles, pairs, reference, monkeypatch
    ):
        engine = SimilarityEngine(titles)
        np.testing.assert_array_equal(
            engine.generalized_jaccard_pairs(*pairs), reference
        )
        table = engine._token_table
        cached = len(table)
        old_ranks = table.ordering()[1].copy()
        # New tokens that sort before every existing one shift all ranks.
        added = engine.append(
            [f"{titles[0]} 0000a", "0000b 0000c " + titles[1], titles[2]]
        )
        ranks = table.ordering()[1]
        assert ranks.size > old_ranks.size
        assert not np.array_equal(ranks[: old_ranks.size], old_ranks)

        # Old pairs, with a fresh GJ cache, re-score from the JW cache.
        calls = []
        real = features.jaro_winkler_similarity_batch

        def counting(lefts, rights, **kwargs):
            calls.append(len(lefts))
            return real(lefts, rights, **kwargs)

        monkeypatch.setattr(features, "jaro_winkler_similarity_batch", counting)
        engine._gj_cache = BoundedPairCache()
        np.testing.assert_array_equal(
            engine.generalized_jaccard_pairs(*pairs), reference
        )
        assert calls == [] and len(table) == cached

        rows_a = np.repeat(added, 40)
        rows_b = np.tile(np.arange(40), added.size)
        fresh = SimilarityEngine([*titles, *(engine.titles[i] for i in added)])
        np.testing.assert_array_equal(
            engine.generalized_jaccard_pairs(rows_a, rows_b),
            fresh.generalized_jaccard_pairs(rows_a, rows_b),
        )


class TestThreads:
    def test_two_threads_on_one_engine(self, titles, pairs, reference):
        engine = SimilarityEngine(titles)
        results: dict[int, np.ndarray] = {}
        barrier = threading.Barrier(2)

        def score(slot: int) -> None:
            barrier.wait()
            results[slot] = engine.generalized_jaccard_pairs(*pairs)

        threads = [threading.Thread(target=score, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        np.testing.assert_array_equal(results[0], reference)
        np.testing.assert_array_equal(results[1], reference)

    def test_concurrent_views_fill_the_jw_cache_once(
        self, titles, pairs, reference
    ):
        # More threads than cores and a short switch interval: a lost or
        # doubled cache update would leave duplicate or unsorted keys, or
        # a different entry count than a serial fill.
        serial = SimilarityEngine(titles)
        serial.generalized_jaccard_pairs(*pairs)
        engine = SimilarityEngine(titles)
        slices = np.array_split(np.arange(pairs[0].size), 6)
        results: dict[int, np.ndarray] = {}
        barrier = threading.Barrier(len(slices))

        def score(slot: int) -> None:
            rows = slices[slot]
            barrier.wait()
            view = engine.view(np.arange(len(titles)))
            results[slot] = view.generalized_jaccard_pairs(
                pairs[0][rows], pairs[1][rows]
            )

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=score, args=(i,)) for i in range(len(slices))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        np.testing.assert_array_equal(
            np.concatenate([results[i] for i in range(len(slices))]), reference
        )
        keys = engine._token_table._jw_keys
        assert np.all(np.diff(keys) > 0)
        assert keys.size == len(serial._token_table)
