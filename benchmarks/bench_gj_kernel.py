"""Per-layer microbenchmark: Generalized-Jaccard rescoring and its JW block.

Fixed inputs: the small corpus (seed 42) and the pairs the build's top-k
search rescores — 256 seeded query rows against their top-48 cosine
candidates (the engine's prefilter width).  Four timings:

* ``gj_cold`` — a fresh engine: empty pair cache and JW token-pair cache,
* ``gj_warm_jw`` — empty pair cache, JW cache warm (the kernel minus JW),
* ``gj_warm`` — both caches warm (dedup plus pair-cache hits),
* ``jw_block`` — ``jaro_winkler_similarity_batch`` alone on the distinct
  token pairs those GJ pairs need.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_gj_kernel.py
-q``.  Several rounds per timing; this is a measurement, not a CI gate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cleansing import CleansingPipeline
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.similarity.engine import SimilarityEngine
from repro.similarity.features import BoundedPairCache, jaro_winkler_similarity_batch

ROUNDS = 8
QUERIES = 256
PREFILTER = 48


@pytest.fixture(scope="module")
def titles() -> list[str]:
    corpus = CorpusGenerator(CorpusConfig.small()).generate().corpus
    return [offer.title for offer in CleansingPipeline().run(corpus).offers]


@pytest.fixture(scope="module")
def pairs(titles) -> tuple[np.ndarray, np.ndarray]:
    engine = SimilarityEngine(titles)
    queries = np.sort(
        np.random.default_rng(42).choice(len(titles), QUERIES, replace=False)
    )
    cosine = engine.scores_batch(queries, "cosine")
    cosine[np.arange(QUERIES), queries] = -np.inf
    top = np.argpartition(-cosine, PREFILTER - 1, axis=1)[:, :PREFILTER]
    return np.repeat(queries, PREFILTER), top.ravel()


def test_gj_cold(benchmark, titles, pairs):
    values = benchmark.pedantic(
        lambda engine: engine.generalized_jaccard_pairs(*pairs),
        setup=lambda: ((SimilarityEngine(titles),), {}),
        rounds=ROUNDS,
    )
    assert values.shape == pairs[0].shape


def test_gj_warm_jw(benchmark, titles, pairs):
    engine = SimilarityEngine(titles)
    expected = engine.generalized_jaccard_pairs(*pairs)

    def cold_pair_cache():
        engine._gj_cache = BoundedPairCache()
        return (), {}

    values = benchmark.pedantic(
        lambda: engine.generalized_jaccard_pairs(*pairs),
        setup=cold_pair_cache,
        rounds=ROUNDS,
    )
    np.testing.assert_array_equal(values, expected)


def test_gj_warm(benchmark, titles, pairs):
    engine = SimilarityEngine(titles)
    expected = engine.generalized_jaccard_pairs(*pairs)
    values = benchmark.pedantic(
        lambda: engine.generalized_jaccard_pairs(*pairs), rounds=ROUNDS
    )
    np.testing.assert_array_equal(values, expected)


def test_jw_block(benchmark, titles, pairs):
    engine = SimilarityEngine(titles)
    engine.generalized_jaccard_pairs(*pairs)
    table = engine._token_table
    tokens, ranks, _ = table.ordering()
    keys = table._jw_keys
    lo, hi = keys >> 32, keys & 0xFFFFFFFF
    first = np.where(ranks[lo] < ranks[hi], lo, hi)
    lefts = [tokens[i] for i in first.tolist()]
    rights = [tokens[i] for i in (lo + hi - first).tolist()]
    scores = benchmark.pedantic(
        jaro_winkler_similarity_batch, args=(lefts, rights), rounds=ROUNDS
    )
    np.testing.assert_array_equal(scores, table._jw_values)
    print(f"\n[gj] {pairs[0].size} GJ pairs, {keys.size} distinct JW token pairs")
