"""Edge-case titles through every engine scoring entry point.

The parity fixtures in ``test_engine.py`` use titles of 2–8 tokens, so
they never reach the empty-set branches of the token metrics.  Here the
universe and the external queries include empty titles, all-punctuation
titles (which tokenize to the empty set) and titles whose tokens occur
nowhere else (out of vocabulary, for external queries).  Every entry
point — ``scores_batch``, ``external_scores_batch``,
``top_k_scores_batch``, ``external_top_k_batch``, ``rank``,
``pairwise_matrix`` and ``pair_features_batch`` — is checked against the
scalar ``token_based`` references, and the Generalized-Jaccard fallback's
empty-pair value (0.0 outside the prefilter, 1.0 when rescored exactly)
is pinned.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity import engine as engine_module
from repro.similarity.engine import SimilarityEngine
from repro.similarity.token_based import (
    cosine_similarity,
    dice_similarity,
    generalized_jaccard_similarity,
    jaccard_similarity,
    overlap_coefficient,
)
from repro.text.tokenize import tokenize

TITLES = [
    "",
    "!!!",
    "alpha beta",
    "--- ...",
    "alpha beta gamma",
    "zyzzyva quokka",  # tokens nowhere else in the universe
    "beta",
    "alpha betta gama",  # near misses: soft Generalized-Jaccard matches
    "",
]
QUERIES = [
    set(),
    set(tokenize("?!")),  # all punctuation: the empty set
    {"oovone", "oovtwo"},  # all out of vocabulary
    {"alpha", "oovone"},  # half out of vocabulary
    {"alpha", "beta"},  # a duplicate of a universe title
]
REFERENCES = {
    "cosine": cosine_similarity,
    "dice": dice_similarity,
    "generalized_jaccard": generalized_jaccard_similarity,
}
METRICS = tuple(REFERENCES)
EMPTY_ROWS = [row for row, title in enumerate(TITLES) if not tokenize(title)]


def _reference(metric, lefts, rights) -> np.ndarray:
    scalar = REFERENCES[metric]
    return np.array([[scalar(left, right) for right in rights] for left in lefts])


def _expected_top_k(scores: np.ndarray, k: int) -> tuple[list[int], np.ndarray]:
    """Top ``k`` finite entries by (-score, index), the engine's order."""
    valid = np.flatnonzero(scores > -np.inf)
    order = valid[np.lexsort((valid, -scores[valid]))][:k]
    return order.tolist(), scores[order]


@pytest.fixture(scope="module")
def engine():
    # prefilter >= universe size: Generalized Jaccard is exact everywhere.
    return SimilarityEngine(TITLES, prefilter=len(TITLES))


def test_titles_cover_the_edge_branches(engine):
    assert EMPTY_ROWS == [0, 1, 3, 8]  # two empty, two all-punctuation
    assert any(not q for q in QUERIES)
    assert any(q and not q & set(engine.vocabulary) for q in QUERIES)


@pytest.mark.parametrize("metric", METRICS)
def test_scores_batch(engine, metric):
    rows = np.arange(len(TITLES))
    np.testing.assert_allclose(
        engine.scores_batch(rows, metric),
        _reference(metric, TITLES, TITLES),
        rtol=0,
        atol=1e-9,
    )


@pytest.mark.parametrize("metric", METRICS)
def test_external_scores_batch(engine, metric):
    np.testing.assert_allclose(
        engine.external_scores_batch(QUERIES, metric),
        _reference(metric, [sorted(q) for q in QUERIES], TITLES),
        rtol=0,
        atol=1e-9,
    )


@pytest.mark.parametrize("metric", METRICS)
def test_top_k_scores_batch(engine, metric):
    reference = _reference(metric, TITLES, TITLES)
    rows = list(range(len(TITLES)))
    results = engine.top_k_scores_batch(rows, metric, k=4)
    for row, (chosen, scores) in zip(rows, results):
        expected = reference[row].copy()
        expected[row] = -np.inf  # each query excludes itself
        want_rows, want_scores = _expected_top_k(expected, 4)
        assert chosen == want_rows
        np.testing.assert_allclose(scores, want_scores, rtol=0, atol=1e-9)


@pytest.mark.parametrize("metric", METRICS)
def test_external_top_k_batch(engine, metric):
    reference = _reference(metric, [sorted(q) for q in QUERIES], TITLES)
    results = engine.external_top_k_batch(QUERIES, metric, k=4)
    assert len(results) == len(QUERIES)
    for expected, (chosen, scores) in zip(reference, results):
        want_rows, want_scores = _expected_top_k(expected, 4)
        assert chosen == want_rows
        np.testing.assert_allclose(scores, want_scores, rtol=0, atol=1e-9)


@pytest.mark.parametrize("metric", METRICS)
def test_rank(engine, metric):
    candidates = list(range(len(TITLES)))
    reference = _reference(metric, TITLES, TITLES)
    for query in range(len(TITLES)):
        ranked = engine.rank(query, candidates, metric)
        expected = reference[query]
        order = np.lexsort((np.arange(expected.size), -expected))
        assert [pos for pos, _ in ranked] == order.tolist()
        np.testing.assert_allclose(
            [score for _, score in ranked], expected[order], rtol=0, atol=1e-9
        )


@pytest.mark.parametrize("metric", METRICS)
def test_pairwise_matrix(engine, metric):
    rows = np.arange(len(TITLES))
    expected = _reference(metric, TITLES, TITLES)
    np.fill_diagonal(expected, 1.0)
    np.testing.assert_allclose(
        engine.pairwise_matrix(rows, metric), expected, rtol=0, atol=1e-9
    )


def test_pair_features_batch(engine):
    pairs = [(a, b) for a in range(len(TITLES)) for b in range(len(TITLES))]
    features = engine.pair_features_batch(pairs)
    scalars = (
        jaccard_similarity,
        cosine_similarity,
        dice_similarity,
        overlap_coefficient,
    )
    expected = np.array(
        [[scalar(TITLES[a], TITLES[b]) for scalar in scalars] for a, b in pairs]
    )
    np.testing.assert_allclose(features, expected, rtol=0, atol=1e-9)


def test_gj_fallback_scores_empty_pairs_zero():
    """Outside the prefilter two empty sets score 0.0; exact GJ says 1.0."""
    engine = SimilarityEngine(TITLES, prefilter=0)
    exact = engine.generalized_jaccard_pairs([0], [1])
    assert exact.tolist() == [1.0]
    assert generalized_jaccard_similarity(TITLES[0], TITLES[1]) == 1.0
    block = engine.scores_batch(EMPTY_ROWS, "generalized_jaccard")
    assert (block[:, EMPTY_ROWS] == 0.0).all()
    external = engine.external_scores_batch([set()], "generalized_jaccard")
    assert (external[0, EMPTY_ROWS] == 0.0).all()
    # Non-empty pairs fall back to plain Jaccard.
    rows = np.arange(len(TITLES))
    jaccard = np.array([[jaccard_similarity(a, b) for b in TITLES] for a in TITLES])
    both_empty = np.isin(rows, EMPTY_ROWS)[:, None] & np.isin(rows, EMPTY_ROWS)
    np.testing.assert_allclose(
        engine.scores_batch(rows, "generalized_jaccard"),
        np.where(both_empty, 0.0, jaccard),
        rtol=0,
        atol=1e-9,
    )


def test_gj_prefilter_one_rescores_one_empty_pair_per_query():
    """With ``prefilter=1`` at most one empty pair per query is exact."""
    engine = SimilarityEngine(TITLES, prefilter=1)
    for block in (
        engine.scores_batch(EMPTY_ROWS, "generalized_jaccard"),
        engine.external_scores_batch([set(), set()], "generalized_jaccard"),
    ):
        empty_pairs = block[:, EMPTY_ROWS]
        assert set(np.unique(empty_pairs).tolist()) <= {0.0, 1.0}
        # At most one exact 1.0 per query; the rest is the 0.0 fallback.
        assert ((empty_pairs == 1.0).sum(axis=1) <= 1).all()
        assert ((empty_pairs == 0.0).sum(axis=1) >= len(EMPTY_ROWS) - 1).all()


@st.composite
def score_blocks(draw):
    """Score blocks with frequent ties, wide ``-inf`` masks and all-``-inf``
    rows."""
    n_queries = draw(st.integers(min_value=1, max_value=12))
    width = draw(st.integers(min_value=1, max_value=10))
    values = st.sampled_from((-np.inf, 0.0, 0.25, 0.5, 1.0))
    block = np.array(
        [[draw(values) for _ in range(width)] for _ in range(n_queries)]
    )
    for row in draw(st.sets(st.integers(0, n_queries - 1))):
        block[row] = -np.inf
    return block, draw(st.integers(min_value=1, max_value=width + 2))


@settings(max_examples=300, deadline=None)
@given(score_blocks())
def test_block_top_k_equals_scalar_selection(case):
    """The block-wise ``_top_k`` selects what a per-row scalar pass does."""
    block, k = case
    engine = SimilarityEngine(["alpha"])
    # Chunks of 5 queries, so a block spans several selection chunks.
    with mock.patch.object(engine_module, "_BATCH_ROWS", 5):
        top = engine._top_k(block.shape[0], lambda rows: block[rows].copy(), k)
    assert len(top) == block.shape[0]
    for scores, (chosen, chosen_scores) in zip(block, top):
        want_rows, want_scores = _expected_top_k(scores, k)
        assert chosen == want_rows
        assert chosen_scores.tolist() == want_scores.tolist()
    expected_ranks = [rank for rows, _ in top for rank in range(len(rows))]
    assert top.rank.tolist() == expected_ranks


def test_view_treats_tokens_the_root_appended_as_out_of_vocabulary():
    """A view keeps its creation-time columns; the root's later tokens
    must count toward a query's size and intersect nothing."""
    root = SimilarityEngine(["alpha beta", "gamma delta", "alpha gamma"])
    view = root.view([0, 1])
    root.append(["zeta eta"])
    cold = SimilarityEngine(["alpha beta", "gamma delta"])
    query = [{"zeta", "alpha"}]
    for metric in METRICS:
        np.testing.assert_array_equal(
            view.external_scores_batch(query, metric),
            cold.external_scores_batch(query, metric),
        )
        [(rows, scores)] = view.external_top_k_batch(query, metric, k=2)
        [(cold_rows, cold_scores)] = cold.external_top_k_batch(
            query, metric, k=2
        )
        assert rows == cold_rows
        np.testing.assert_array_equal(scores, cold_scores)
