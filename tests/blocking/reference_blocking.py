"""The per-pair candidate join, kept as an independent reference.

``CandidateBlocker.candidates`` and ``BlockedPairSet.with_group_positives``
run array-native: block-wise top-k selection, then one vectorized
first-win dedup over int64 offer-identity keys.  This module is the
per-query, per-pair loop they replaced.  It scores each query row with
``SimilarityEngine.scores_batch``, applies the exclusions itself, selects
the top ``k`` finite entries by (-score, row) one query at a time, and
dedups through a Python set of keys.  The property tests in
``test_candidates_reference.py`` check that both paths give identical
pairs, scores included.
"""

from __future__ import annotations

import numpy as np


def select_top_k(scores: np.ndarray, k: int) -> list[int]:
    """Top ``k`` finite entries ordered by (-score, index).

    ``-inf`` marks excluded entries; the selection widens past them no
    matter how many there are.
    """
    valid = np.flatnonzero(scores > -np.inf)
    k = min(k, valid.size)
    if k <= 0:
        return []
    sub = scores[valid]
    if k < valid.size:
        kth_score = sub[np.argpartition(-sub, k - 1)[k - 1]]
        tied = np.flatnonzero(sub >= kth_score)
        order = np.lexsort((valid[tied], -sub[tied]))
        chosen = valid[tied[order][:k]]
    else:
        order = np.lexsort((valid, -sub))
        chosen = valid[order]
    return [int(i) for i in chosen]


def pair_key(blocker, a: int, b: int) -> tuple[str, str] | tuple[int, int] | None:
    """Unordered offer-identity key of rows ``a``/``b``.

    Offer ids when the blocker has offers, row ids otherwise; ``None``
    when both rows carry the same offer (never a pair).
    """
    ids = blocker.offer_ids
    key_a, key_b = (a, b) if ids is None else (ids[a], ids[b])
    if key_a == key_b:
        return None
    return (key_a, key_b) if key_a < key_b else (key_b, key_a)


def reference_candidates(
    blocker,
    query_rows=None,
    *,
    k: int,
    metrics=("cosine",),
    exclude_same_group: bool = False,
    exclude_same_partition=None,
) -> list[tuple]:
    """``(row_a, row_b, score, metric, query_row, rank)`` per pair.

    Surfacing order is metrics in the given order, then queries in the
    given order, then rank; each offer pair is kept at its first
    surfacing.
    """
    engine = blocker.engine
    queries = (
        list(range(len(engine))) if query_rows is None else list(query_rows)
    )
    labels = blocker.group_labels
    retired = np.ones(len(engine), dtype=bool)
    retired[engine.live_rows()] = False
    partition = (
        None
        if exclude_same_partition is None
        else np.asarray(exclude_same_partition)
    )
    seen: set = set()
    pairs: list[tuple] = []
    for metric in metrics:
        block = engine.scores_batch(queries, metric)
        for position, query in enumerate(queries):
            scores = block[position].copy()
            scores[query] = -np.inf
            scores[retired] = -np.inf
            if exclude_same_group:
                same = [label == labels[query] for label in labels]
                scores[np.array(same, dtype=bool)] = -np.inf
            if partition is not None:
                scores[partition == partition[query]] = -np.inf
            for rank, candidate in enumerate(select_top_k(scores, k)):
                key = pair_key(blocker, query, candidate)
                if key is None or key in seen:
                    continue
                seen.add(key)
                a, b = min(query, candidate), max(query, candidate)
                pairs.append(
                    (a, b, float(scores[candidate]), metric, query, rank)
                )
    return pairs


def reference_group_positives(blocker, pairs: list[tuple]) -> list[tuple]:
    """``pairs`` plus every unsurfaced within-group pair (metric ``group``).

    Groups in sorted label order, then row pairs ``a < b`` in row order;
    each completed pair scores its cosine through the engine's pair
    features, with ``query_row = a`` and rank ``-1``.
    """
    seen = {
        key
        for pair in pairs
        if (key := pair_key(blocker, pair[0], pair[1])) is not None
    }
    members: dict[str, list[int]] = {}
    for row, label in enumerate(blocker.group_labels):
        members.setdefault(label, []).append(row)
    missing: list[tuple[int, int]] = []
    for label in sorted(members):
        rows = members[label]
        for i, a in enumerate(rows):
            for b in rows[i + 1 :]:
                key = pair_key(blocker, a, b)
                if key is not None and key not in seen:
                    seen.add(key)
                    missing.append((a, b))
    completed = list(pairs)
    if missing:
        scores = blocker.engine.pair_features_batch(
            missing, metrics=("cosine",)
        )[:, 0]
        completed.extend(
            (a, b, float(score), "group", a, -1)
            for (a, b), score in zip(missing, scores)
        )
    return completed
