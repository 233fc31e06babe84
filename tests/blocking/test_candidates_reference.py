"""The array-native candidate join equals the per-pair reference loop.

Hypothesis draws small universes from a tiny vocabulary, so scores tie
often, titles repeat and some titles are empty.  It also draws duplicate
offer ids, retired rows, every exclusion mode and ``k`` up to past the
number of live rows.  ``CandidateBlocker.candidates`` and
``with_group_positives`` must give exactly the pairs of the reference in
``reference_blocking.py``: same rows, metrics, ranks and order, and
bitwise-equal scores.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_blocking import reference_candidates, reference_group_positives
from repro.blocking import CandidateBlocker
from repro.corpus.schema import ProductOffer
from repro.similarity.engine import SimilarityEngine

WORDS = ("alpha", "beta", "gamma", "delta", "alpah", "gama")
TOKEN_METRICS = ("cosine", "dice", "generalized_jaccard")


@st.composite
def universes(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    titles = [
        " ".join(draw(st.lists(st.sampled_from(WORDS), max_size=4)))
        for _ in range(n)
    ]
    offer_ids = [f"o{draw(st.integers(0, n - 1))}" for _ in range(n)]
    labels = [f"c{draw(st.integers(0, 2))}" for _ in range(n)]
    retired = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    prefilter = draw(st.sampled_from((1, 3, 48)))
    engine = SimilarityEngine(titles, prefilter=prefilter)
    if retired:
        engine.retire(sorted(retired))
    offers = [
        ProductOffer(offer_id=offer_id, cluster_id=label, title=title)
        for offer_id, label, title in zip(offer_ids, labels, titles)
    ]
    with_offers = draw(st.booleans())
    blocker = CandidateBlocker(
        engine,
        offers=offers if with_offers else None,
        group_labels=labels,
    )
    return blocker, n


@st.composite
def joins(draw):
    blocker, n = draw(universes())
    metrics = tuple(
        draw(
            st.lists(
                st.sampled_from(TOKEN_METRICS),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
    )
    query_rows = draw(
        st.none() | st.lists(st.integers(0, n - 1), max_size=2 * n)
    )
    mode = draw(st.sampled_from(("none", "group", "partition")))
    options = {}
    if mode == "group":
        options["exclude_same_group"] = True
    elif mode == "partition":
        options["exclude_same_partition"] = np.array(
            [draw(st.integers(0, 2)) for _ in range(n)]
        )
    k = draw(st.integers(min_value=1, max_value=n + 2))
    return blocker, query_rows, dict(k=k, metrics=metrics, **options)


def _rows(blocked):
    return [
        (pair.row_a, pair.row_b, pair.score, pair.metric, pair.query_row, pair.rank)
        for pair in blocked
    ]


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(joins())
def test_candidates_equal_the_per_pair_reference(join):
    blocker, query_rows, options = join
    blocked = blocker.candidates(query_rows, **options)
    expected = reference_candidates(blocker, query_rows, **options)
    assert _rows(blocked) == expected
    assert len(blocked) == len(expected)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(joins())
def test_group_positives_equal_the_per_pair_reference(join):
    blocker, query_rows, options = join
    blocked = blocker.candidates(query_rows, **options)
    expected = reference_group_positives(blocker, _rows(blocked))
    assert _rows(blocked.with_group_positives()) == expected
