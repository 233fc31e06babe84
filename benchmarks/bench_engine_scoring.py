"""Per-layer microbenchmark: the engine's query-block scoring entry points.

Fixed inputs: the small corpus (seed 42), 256 seeded query rows, the
same rows as external token sets (each with one out-of-vocabulary token
added, so they are not corpus rows), and a 200-row seeded subset for
``pairwise_matrix``.  For each token metric (cosine, Dice, Generalized
Jaccard) it times

* ``scores_batch`` — the dense query-vs-universe block,
* ``top_k_scores_batch`` — the same block plus self-exclusion and top-k
  selection (``k=25``, the blocking join's width),
* ``external_top_k_batch`` — the serving path over external token sets,
* ``pairwise_matrix`` — the exact symmetric matrix of the subset.

Each engine is built once per test, so Generalized Jaccard runs with a
warm pair cache after the first round (the external path has no pair
cache and rescoring stays cold).  Run with ``PYTHONPATH=src python -m
pytest benchmarks/bench_engine_scoring.py -q``.  Several rounds per
timing; this is a measurement, not a CI gate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cleansing import CleansingPipeline
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.similarity.engine import SimilarityEngine
from repro.text.tokenize import tokenize

ROUNDS = 8
QUERIES = 256
SUBSET = 200
K = 25
METRICS = ("cosine", "dice", "generalized_jaccard")


@pytest.fixture(scope="module")
def titles() -> list[str]:
    corpus = CorpusGenerator(CorpusConfig.small()).generate().corpus
    return [offer.title for offer in CleansingPipeline().run(corpus).offers]


@pytest.fixture(scope="module")
def queries(titles) -> np.ndarray:
    rng = np.random.default_rng(42)
    return np.sort(rng.choice(len(titles), QUERIES, replace=False))


@pytest.fixture(scope="module")
def external(titles, queries) -> list[set[str]]:
    return [set(tokenize(titles[row])) | {"zzoov"} for row in queries.tolist()]


@pytest.fixture(scope="module")
def subset(titles) -> np.ndarray:
    rng = np.random.default_rng(7)
    return np.sort(rng.choice(len(titles), SUBSET, replace=False))


def _time(benchmark, call):
    return benchmark.pedantic(call, rounds=ROUNDS, warmup_rounds=1)


@pytest.mark.parametrize("metric", METRICS)
def test_scores_batch(benchmark, titles, queries, metric):
    engine = SimilarityEngine(titles)
    block = _time(benchmark, lambda: engine.scores_batch(queries, metric))
    assert block.shape == (QUERIES, len(titles))


@pytest.mark.parametrize("metric", METRICS)
def test_top_k_scores_batch(benchmark, titles, queries, metric):
    engine = SimilarityEngine(titles)
    results = _time(
        benchmark, lambda: engine.top_k_scores_batch(queries, metric, k=K)
    )
    assert len(results) == QUERIES
    assert all(len(chosen) == K for chosen, _ in results)


@pytest.mark.parametrize("metric", METRICS)
def test_external_top_k_batch(benchmark, titles, external, metric):
    engine = SimilarityEngine(titles)
    results = _time(
        benchmark, lambda: engine.external_top_k_batch(external, metric, k=K)
    )
    assert len(results) == QUERIES
    assert all(len(chosen) == K for chosen, _ in results)


@pytest.mark.parametrize("metric", METRICS)
def test_pairwise_matrix(benchmark, titles, subset, metric):
    engine = SimilarityEngine(titles)
    matrix = _time(benchmark, lambda: engine.pairwise_matrix(subset, metric))
    assert matrix.shape == (SUBSET, SUBSET)
    np.testing.assert_array_equal(matrix, matrix.T)
