"""Engine-backed candidate blocking (the materialization-free pair source).

The paper's benchmark hands every matcher pre-materialized pair sets; this
module is the stage that removes that requirement.  A
:class:`CandidateBlocker` runs a batched top-k sparse join over a
:class:`~repro.similarity.engine.SimilarityEngine`'s token-incidence
matrix — chunked sparse row products, so the dense score block stays
bounded no matter how many offers are blocked — and yields a
:class:`BlockedPairSet` of scored candidate pairs with per-metric
provenance.  Same-cluster candidates can be kept (matcher training wants
the positives *and* the hard cross-cluster negatives the join surfaces) or
excluded by integer group id, compared chunk by chunk instead of through
the dense ``(queries, universe)`` boolean mask the pair generator used to
build.

Candidates stay numpy columns from the engine's
:class:`~repro.similarity.engine.TopK` selection through the first-win
dedup (one ``np.unique`` over int64 offer-identity keys) to the store
and the merged-candidate writer; :class:`BlockedPair` is only the
per-pair view that iteration yields.

Blocked candidates label themselves from cluster identity, so
``BlockedPairSet.to_dataset`` produces a normal
:class:`~repro.core.datasets.PairDataset` any pair-wise matcher can train
and evaluate on — see
:meth:`repro.eval.runner.ExperimentRunner.run_pairwise_from_blocking`.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import KW_ONLY, dataclass

import numpy as np

from repro.core.datasets import LabeledPair, PairDataset
from repro.corpus.schema import ProductOffer
from repro.similarity.engine import SimilarityEngine

__all__ = ["BlockedPair", "BlockedPairSet", "CandidateBlocker"]


@dataclass(frozen=True)
class BlockedPair:
    """One candidate pair surfaced by blocking (the iteration view).

    ``query_row``/``rank`` record provenance: the pair first appeared as
    the ``rank``-th candidate (0-based) of ``query_row``'s top-k list
    under ``metric``.  ``row_a < row_b`` always; ``score`` is the
    similarity under the surfacing metric.
    """

    row_a: int
    row_b: int
    score: float
    metric: str
    query_row: int
    rank: int


def _concat(parts: Sequence[np.ndarray], dtype=np.intp) -> np.ndarray:
    return np.concatenate([np.empty(0, dtype=dtype), *parts])


def _first_wins(keys: np.ndarray) -> np.ndarray:
    """Ascending positions of each key's first occurrence.

    The first-win dedup: a key surfaces once, where it first appears;
    negative keys (an offer paired with itself) never surface.
    """
    valid = np.flatnonzero(keys >= 0)
    _, first = np.unique(keys[valid], return_index=True)
    return valid[np.sort(first)]


@dataclass(eq=False, repr=False)
class BlockedPairSet:
    """The deduplicated candidate pairs of one blocking sweep, as columns.

    Pair ``i`` is ``(row_a[i], row_b[i])`` with ``score[i]``, surfaced as
    the ``rank[i]``-th candidate of ``query_row[i]`` under metric
    ``metric_names[metric_id[i]]``.  ``metric_names`` defaults to
    ``metrics`` (the metrics the join ran); it is longer when pairs carry
    another label, such as the completed ``"group"`` positives.  Columns
    may be given as any integer / float sequences.  Iterating yields
    :class:`BlockedPair` views in surfacing order; ``dataclasses.replace``
    rebinds the same columns to another blocker over the same rows.
    """

    blocker: "CandidateBlocker"
    _: KW_ONLY
    row_a: np.ndarray
    row_b: np.ndarray
    score: np.ndarray
    metric_id: np.ndarray
    query_row: np.ndarray
    rank: np.ndarray
    k: int
    metrics: tuple[str, ...]
    n_queries: int
    metric_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        for column in ("row_a", "row_b", "metric_id", "query_row", "rank"):
            values = np.asarray(getattr(self, column), dtype=np.intp)
            setattr(self, column, values.reshape(-1))
        self.score = np.asarray(self.score, dtype=np.float64).reshape(-1)
        if self.metric_names is None:
            self.metric_names = self.metrics
        self.metric_names = tuple(self.metric_names)

    def __len__(self) -> int:
        return self.row_a.size

    def __iter__(self) -> Iterator[BlockedPair]:
        names = self.metric_names
        for row_a, row_b, score, metric, query_row, rank in zip(
            self.row_a.tolist(),
            self.row_b.tolist(),
            self.score.tolist(),
            self.metric_id.tolist(),
            self.query_row.tolist(),
            self.rank.tolist(),
        ):
            yield BlockedPair(
                row_a, row_b, score, names[metric], query_row, rank
            )

    @property
    def pairs(self) -> list[BlockedPair]:
        """Every pair as a :class:`BlockedPair`, materialized."""
        return list(self)

    def metric_labels(self) -> np.ndarray:
        """Each pair's metric name, as an object array."""
        return np.array(self.metric_names, dtype=object)[self.metric_id]

    def labels(self) -> np.ndarray:
        """Each pair's cluster-identity label (1 = same cluster)."""
        group_ids = self.blocker._group_ids
        if group_ids is None:
            raise ValueError("labels need a blocker built with group labels")
        return (group_ids[self.row_a] == group_ids[self.row_b]).astype(np.intp)

    def pair_keys(self) -> set[tuple[str, str]]:
        """Unordered offer-id keys, comparable to ``LabeledPair.key()``."""
        ids = self.blocker.offer_ids
        if ids is None:
            raise ValueError("blocker was built without offers")
        keys: set[tuple[str, str]] = set()
        for row_a, row_b in zip(self.row_a.tolist(), self.row_b.tolist()):
            a, b = ids[row_a], ids[row_b]
            keys.add((a, b) if a <= b else (b, a))
        return keys

    def to_dataset(self, name: str) -> PairDataset:
        """Label candidates from cluster identity into a ``PairDataset``.

        Pairs keep their surfacing order; provenance records the metric
        (``"blocking:cosine"`` …) so downstream profiling can distinguish
        blocked pairs from materialized ones.
        """
        offers = self.blocker.offers
        if offers is None or self.blocker.group_labels is None:
            raise ValueError(
                "to_dataset needs a blocker built with offers and group labels"
            )
        dataset = PairDataset(name=name)
        dataset.pairs = [
            LabeledPair(
                pair_id=f"{name}-{position:06d}",
                offer_a=offers[row_a],
                offer_b=offers[row_b],
                label=label,
                provenance=f"blocking:{metric}",
            )
            for position, (row_a, row_b, label, metric) in enumerate(
                zip(
                    self.row_a.tolist(),
                    self.row_b.tolist(),
                    self.labels().tolist(),
                    self.metric_labels().tolist(),
                )
            )
        ]
        return dataset

    def summary(self) -> dict[str, int]:
        positives = 0
        if self.blocker.group_labels is not None:
            positives = int(self.labels().sum())
        return {
            "all": len(self),
            "pos": positives,
            "neg": len(self) - positives,
        }

    def with_group_positives(self) -> "BlockedPairSet":
        """This set plus every within-group pair the join did not surface.

        Supervised training data takes its positives from the ground-truth
        clusters and lets the join supply the hard negatives, so no
        positive is ever lost to a low-similarity noise offer.  One raw
        join serves both the gated join-only recall recording and this
        training-shaped completed set without running the top-k sweep
        twice.  Returns a new set; pairs keep their order with the
        completed positives appended (metric ``"group"``, rank ``-1``,
        cosine score) in group order, then row order.
        """
        blocker = self.blocker
        group_ids = blocker._group_ids
        if group_ids is None:
            raise ValueError("with_group_positives needs group labels")
        # Every within-group row pair (a, b), a < b: rows sorted by
        # (group, row), each paired with the rest of its group after it.
        order = np.argsort(group_ids, kind="stable").astype(np.intp)
        grouped = group_ids[order]
        group_end = np.searchsorted(grouped, grouped, side="right")
        position = np.arange(order.size)
        partners = group_end - position - 1
        first = np.repeat(position, partners)
        offset = np.arange(first.size) - np.repeat(
            np.cumsum(partners) - partners, partners
        )
        rows_a, rows_b = order[first], order[first + 1 + offset]
        keys = blocker._pair_keys(rows_a, rows_b)
        keys[np.isin(keys, blocker._pair_keys(self.row_a, self.row_b))] = -1
        missing = _first_wins(keys)
        rows_a, rows_b = rows_a[missing], rows_b[missing]
        scores = blocker.engine.attribute_view().pair_metrics(
            rows_a, rows_b, ("cosine",)
        )[:, 0]
        names = self.metric_names
        if "group" not in names:
            names = (*names, "group")
        return BlockedPairSet(
            blocker,
            row_a=np.concatenate([self.row_a, rows_a]),
            row_b=np.concatenate([self.row_b, rows_b]),
            score=np.concatenate([self.score, scores]),
            metric_id=np.concatenate(
                [self.metric_id, np.full(rows_a.size, names.index("group"))]
            ),
            query_row=np.concatenate([self.query_row, rows_a]),
            rank=np.concatenate([self.rank, np.full(rows_a.size, -1)]),
            k=self.k,
            metrics=self.metrics,
            n_queries=self.n_queries,
            metric_names=names,
        )


class CandidateBlocker:
    """Batched top-k candidate join over one engine's title universe.

    ``offers`` and ``group_labels`` (one cluster/product label per engine
    row) are optional: without them the blocker still yields row-indexed
    pairs, but labeling (``to_dataset``) and offer-id keying
    (``pair_keys``) need them.

    When the engine's universe spans *multiple corpora* (e.g. a
    :meth:`SimilarityEngine.concat` over several shards' engines), offer
    ids and cluster labels must be globally namespaced by the caller
    (``s<shard>:<id>``): raw per-corpus ids collide across shards, which
    would both merge unrelated clusters into one group id and make the
    offer-identity dedup treat distinct offers as duplicates of each
    other.  See :mod:`repro.shard` for the namespacing helpers.
    """

    def __init__(
        self,
        engine: SimilarityEngine,
        *,
        offers: Sequence[ProductOffer] | None = None,
        group_labels: Sequence[str] | None = None,
    ) -> None:
        if offers is not None and len(offers) != len(engine):
            raise ValueError(
                f"{len(offers)} offers for an engine of {len(engine)} rows"
            )
        if group_labels is not None and len(group_labels) != len(engine):
            raise ValueError(
                f"{len(group_labels)} group labels for an engine of "
                f"{len(engine)} rows"
            )
        self.engine = engine
        self.offers = None if offers is None else list(offers)
        self.group_labels = None if group_labels is None else list(group_labels)
        self.offer_ids = (
            None
            if self.offers is None
            else [offer.offer_id for offer in self.offers]
        )
        self._group_ids: np.ndarray | None = (
            None
            if self.group_labels is None
            else np.unique(np.asarray(self.group_labels), return_inverse=True)[1]
        )
        # Candidate pairs dedup on *offer identity* when known: a split
        # carrying the same offer id on two rows must neither pair an
        # offer with itself nor emit the same offer pair twice.  Without
        # offer ids, row identity is the best available key.
        if self.offer_ids is not None:
            interned: dict[str, int] = {}
            self._pair_keys_by_row = np.array(
                [
                    interned.setdefault(offer_id, len(interned))
                    for offer_id in self.offer_ids
                ],
                dtype=np.intp,
            )
            self._key_span = len(interned)
        else:
            self._pair_keys_by_row = np.arange(len(engine), dtype=np.intp)
            self._key_span = len(engine)

    @classmethod
    def over_entries(
        cls,
        engine: SimilarityEngine,
        entries: Sequence[tuple[str, ProductOffer]],
        offer_rows: dict[str, int],
    ) -> "CandidateBlocker":
        """A blocker over one split's ``(cluster_id, offer)`` entries.

        The split becomes a cheap :meth:`SimilarityEngine.view` over the
        corpus-level engine — no re-tokenization — and candidates are
        confined to the split, so blocked training pairs can never leak
        offers from another split.
        """
        rows = [offer_rows[offer.offer_id] for _, offer in entries]
        return cls(
            engine.view(rows),
            offers=[offer for _, offer in entries],
            group_labels=[cluster_id for cluster_id, _ in entries],
        )

    def __len__(self) -> int:
        return len(self.engine)

    def _pair_keys(self, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        """Unordered offer-identity dedup keys of aligned row pairs.

        ``-1`` where both rows carry the same offer (never a pair).
        """
        key_a = self._pair_keys_by_row[rows_a].astype(np.int64)
        key_b = self._pair_keys_by_row[rows_b].astype(np.int64)
        keys = (
            np.minimum(key_a, key_b) * self._key_span
            + np.maximum(key_a, key_b)
        )
        keys[key_a == key_b] = -1
        return keys

    def candidates(
        self,
        query_rows: Sequence[int] | None = None,
        *,
        k: int,
        metrics: Sequence[str] = ("cosine",),
        exclude_same_group: bool = False,
        exclude_same_partition: Sequence[int] | np.ndarray | None = None,
    ) -> BlockedPairSet:
        """Top-``k`` candidates of every query row under each metric.

        Results merge across metrics and mirrored queries on unordered
        offer-identity pairs (row pairs when the blocker has no offers) —
        a pair surfaced from both sides, under two metrics, or through a
        duplicated offer id appears once, attributed to its first
        surfacing (metrics in the given order, queries in the given
        order, then by rank), and an offer never pairs with its own
        duplicate row.  With ``exclude_same_group`` the query's own
        cluster is masked by group id; the default keeps same-cluster
        candidates, which is what labeled matcher training wants.

        ``exclude_same_partition`` (one integer partition id per universe
        row) restricts every query to candidates from a *different*
        partition: the cross-corpus join, where the universe concatenates
        several shards' rows and only cross-shard pairs are wanted — each
        shard's offers query every other shard's sub-universe, and
        within-shard pairs are left to that shard's own join.  The
        comparison rides the engine's chunked group exclusion, so no
        ``(queries, universe)`` boolean matrix is materialized.

        Supervised training data completes the join with
        :meth:`BlockedPairSet.with_group_positives`.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        queries = (
            np.arange(len(self.engine), dtype=np.intp)
            if query_rows is None
            else np.asarray(list(query_rows), dtype=np.intp)
        )
        group_ids = self._group_ids
        if exclude_same_group and group_ids is None:
            raise ValueError("exclude_same_group needs group labels")
        partition = None
        if exclude_same_partition is not None:
            if exclude_same_group:
                raise ValueError(
                    "exclude_same_group and exclude_same_partition are "
                    "exclusive (a partition already masks the query's own "
                    "sub-universe, clusters and all)"
                )
            partition = np.asarray(exclude_same_partition).ravel()
            if partition.size != len(self.engine):
                raise ValueError(
                    f"exclude_same_partition covers {partition.size} rows, "
                    f"engine has {len(self.engine)}"
                )

        exclude_groups = None
        if exclude_same_group:
            exclude_groups = (group_ids[queries], group_ids)
        elif partition is not None:
            exclude_groups = (partition[queries], partition)

        # Every metric's top-k as columns, in surfacing order: metric,
        # then query, then rank.
        tops = [
            self.engine.top_k_scores_batch(
                queries, metric, k=k, exclude_groups=exclude_groups
            )
            for metric in metrics
        ]
        query_row = queries[_concat([top.query for top in tops])]
        candidate = _concat([top.row for top in tops])
        score = _concat([top.score for top in tops], np.float64)
        rank = _concat([top.rank for top in tops])
        metric_ids = np.repeat(
            np.arange(len(tops), dtype=np.intp), [top.row.size for top in tops]
        )
        keep = _first_wins(self._pair_keys(query_row, candidate))
        query_row, candidate = query_row[keep], candidate[keep]
        return BlockedPairSet(
            self,
            row_a=np.minimum(query_row, candidate),
            row_b=np.maximum(query_row, candidate),
            score=score[keep],
            metric_id=metric_ids[keep],
            query_row=query_row,
            rank=rank[keep],
            k=k,
            metrics=tuple(metrics),
            n_queries=int(queries.size),
        )
