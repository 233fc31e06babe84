"""Parity tests for the batched Generalized-Jaccard kernel.

``generalized_jaccard_batch`` is pinned against the scalar
``generalized_jaccard_similarity`` reference at 1e-9 (they agree exactly)
on randomized token sets and on every edge branch: empty sets, identical
sets, thresholds at and beyond 1.0, and duplicate titles deduped through
canonical token-set keys — mirroring ``test_features.py``.  The engine's
``generalized_jaccard_pairs`` wrapper and its bounded shared cache are
covered at the same tolerance.
"""

import random
import threading

import numpy as np
import pytest

from repro.similarity.engine import SimilarityEngine
from repro.similarity.features import BoundedPairCache, generalized_jaccard_batch
from repro.similarity.token_based import generalized_jaccard_similarity

_VOCAB = [
    "exatron", "vortexdisk", "veltrix", "stormrider", "soniq", "tranquil",
    "lumora", "photon", "graphics", "card", "drive", "internal", "wireless",
    "headphones", "smartphone", "2tb", "4tb", "8gb", "12gb", "128gb",
    "black", "white", "blue", "gddr6", "sata", "ssd", "hdd", "pro", "max",
    "2tb.", "4tbs", "vortexdsk", "stormryder", "hedphones",  # near-misses
]


def _random_titles(n: int, seed: int, *, min_tokens: int = 0) -> list[str]:
    rng = random.Random(seed)
    return [
        " ".join(rng.choices(_VOCAB, k=rng.randint(min_tokens, 8)))
        for _ in range(n)
    ]


def _reference(lefts, rights, threshold):
    return [
        generalized_jaccard_similarity(left, right, threshold=threshold)
        for left, right in zip(lefts, rights)
    ]


class TestBatchScalarParity:
    @pytest.mark.parametrize("threshold", [0.8, 0.5, 0.95])
    def test_random_token_sets(self, threshold):
        rng = random.Random(threshold)
        titles = _random_titles(80, seed=21)
        lefts = [rng.choice(titles) for _ in range(600)]
        rights = [rng.choice(titles) for _ in range(600)]
        batch = generalized_jaccard_batch(lefts, rights, threshold=threshold)
        np.testing.assert_allclose(
            batch, _reference(lefts, rights, threshold), atol=1e-9
        )

    def test_accepts_pretokenized_sets(self):
        lefts = [{"exatron", "vortexdisk"}, {"soniq"}]
        rights = [{"exatron", "vortexdsk"}, {"soniq", "tranquil"}]
        batch = generalized_jaccard_batch(lefts, rights)
        np.testing.assert_allclose(batch, _reference(lefts, rights, 0.8), atol=1e-9)

    def test_empty_sets(self):
        lefts = ["", "", "exatron drive", ""]
        rights = ["", "exatron drive", "", "soniq"]
        batch = generalized_jaccard_batch(lefts, rights)
        assert batch[0] == 1.0  # two empty sets are identical
        assert batch[1] == 0.0 and batch[2] == 0.0 and batch[3] == 0.0
        np.testing.assert_allclose(batch, _reference(lefts, rights, 0.8), atol=1e-9)

    def test_threshold_exactly_one_reduces_to_plain_jaccard(self):
        titles = _random_titles(40, seed=3)
        rng = random.Random(5)
        lefts = [rng.choice(titles) for _ in range(200)]
        rights = [rng.choice(titles) for _ in range(200)]
        batch = generalized_jaccard_batch(lefts, rights, threshold=1.0)
        np.testing.assert_allclose(
            batch, _reference(lefts, rights, 1.0), atol=1e-9
        )

    def test_threshold_beyond_one_rejects_even_identical_tokens(self):
        lefts = ["exatron drive", "exatron drive", "", ""]
        rights = ["exatron drive", "exatron disk", "", "soniq"]
        batch = generalized_jaccard_batch(lefts, rights, threshold=1.5)
        # Identical non-empty sets score 0.0: no token pair can reach the
        # threshold.  The empty-set rules still apply first.
        assert batch[0] == 0.0 and batch[1] == 0.0
        assert batch[2] == 1.0 and batch[3] == 0.0
        np.testing.assert_allclose(batch, _reference(lefts, rights, 1.5), atol=1e-9)

    def test_misaligned_raises(self):
        with pytest.raises(ValueError):
            generalized_jaccard_batch(["a"], [])
        with pytest.raises(ValueError):
            generalized_jaccard_batch(["a"], ["a"], keys=([0], [0, 1]))

    def test_empty_batch(self):
        assert generalized_jaccard_batch([], []).shape == (0,)


class TestCanonicalKeyDedup:
    def test_duplicate_titles_score_once_through_the_cache(self):
        # Four rows, two distinct token sets: every cross pair collapses to
        # one canonical key pair, so the cache holds exactly one entry.
        titles = ["exatron vortex drive", "soniq tranquil headphones"]
        lefts = [titles[0], titles[0], titles[1], titles[1]]
        rights = [titles[1], titles[1], titles[0], titles[0]]
        keys = ([0, 0, 1, 1], [1, 1, 0, 0])
        cache = BoundedPairCache()
        batch = generalized_jaccard_batch(lefts, rights, keys=keys, cache=cache)
        assert len(cache) == 1
        np.testing.assert_allclose(batch, _reference(lefts, rights, 0.8), atol=1e-9)
        # A second call is served fully from the cache, identically.
        again = generalized_jaccard_batch(lefts, rights, keys=keys, cache=cache)
        np.testing.assert_array_equal(batch, again)

    def test_cache_without_keys_raises(self):
        # Call-local canonical ids restart at 0 on every call, so a shared
        # cache would serve the first call's (0, 1) score to the second.
        cache = BoundedPairCache()
        with pytest.raises(ValueError, match="keys"):
            generalized_jaccard_batch(
                ["sandisk ultra 32gb"], ["sandisc ultra 64gb"], cache=cache
            )
        assert len(cache) == 0

    def test_corpus_keys_keep_cached_scores_apart(self):
        cache = BoundedPairCache()
        first = generalized_jaccard_batch(
            ["sandisk ultra 32gb"], ["sandisc ultra 64gb"],
            keys=([0], [1]), cache=cache,
        )
        second = generalized_jaccard_batch(
            ["exatron vortex drive"], ["soniq tranquil headphones"],
            keys=([2], [3]), cache=cache,
        )
        assert first[0] == pytest.approx(0.4857, abs=1e-4)
        assert second[0] == 0.0

    def test_identical_keys_shortcut_without_cache_entries(self):
        cache = BoundedPairCache()
        batch = generalized_jaccard_batch(
            ["exatron drive", ""],
            ["exatron drive", ""],
            keys=([0, 1], [0, 1]),
            cache=cache,
        )
        np.testing.assert_array_equal(batch, [1.0, 1.0])
        assert len(cache) == 0


class TestBoundedPairCache:
    def test_capacity_bound_evicts_least_recently_used(self):
        cache = BoundedPairCache(capacity=2)
        cache.put_many([((0, 1), 0.1), ((0, 2), 0.2)])
        cache.get_many([(0, 1)])  # refresh (0, 1)
        cache.put_many([((0, 3), 0.3)])
        assert len(cache) == 2
        assert cache.get_many([(0, 1), (0, 2), (0, 3)]) == {
            (0, 1): 0.1,
            (0, 3): 0.3,
        }

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            BoundedPairCache(capacity=0)

    def test_concurrent_readers_and_writers_stay_consistent(self):
        cache = BoundedPairCache(capacity=256)

        def worker(offset):
            for i in range(300):
                key = (offset, i % 64)
                cache.put_many([(key, float(i))])
                cache.get_many([key, (1 - offset, i % 64)])

        threads = [threading.Thread(target=worker, args=(t,)) for t in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) <= 256


class TestEnginePairsBatch:
    @pytest.fixture(scope="class")
    def engine_and_titles(self):
        titles = _random_titles(48, seed=77)
        titles += ["", "exatron vortex 2tb", "exatron vortex 2tb"]
        return SimilarityEngine(titles), titles

    def test_engine_pairs_match_scalar(self, engine_and_titles):
        engine, titles = engine_and_titles
        rng = random.Random(9)
        rows_a = [rng.randrange(len(titles)) for _ in range(400)]
        rows_b = [rng.randrange(len(titles)) for _ in range(400)]
        batch = engine.generalized_jaccard_pairs(rows_a, rows_b)
        reference = [
            generalized_jaccard_similarity(titles[a], titles[b])
            for a, b in zip(rows_a, rows_b)
        ]
        np.testing.assert_allclose(batch, reference, atol=1e-9)

    def test_views_share_the_bounded_cache(self, engine_and_titles):
        engine, titles = engine_and_titles
        view = engine.view([4, 0, 9, 2])
        assert view._gj_cache is engine._gj_cache
        scores = view.generalized_jaccard_pairs([0, 1], [2, 3])
        reference = [
            generalized_jaccard_similarity(titles[4], titles[9]),
            generalized_jaccard_similarity(titles[0], titles[2]),
        ]
        np.testing.assert_allclose(scores, reference, atol=1e-9)

    def test_cache_bound_is_configurable(self):
        engine = SimilarityEngine(
            _random_titles(16, seed=5, min_tokens=1), gj_cache_entries=8
        )
        engine.generalized_jaccard_pairs(
            np.repeat(np.arange(16), 16), np.tile(np.arange(16), 16)
        )
        assert len(engine._gj_cache) <= 8
