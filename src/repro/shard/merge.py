"""Merging per-shard and cross-shard results into one session view.

Two merges happen at the end of a sharded session:

* :func:`merge_candidate_sets` folds every shard's own blocking join and
  every cross-shard sweep join into one deduplicated
  :class:`MergedCandidates` set.  Each candidate carries directional
  provenance ``shard:<i>→<j>:<metric>`` — the pair first surfaced as a
  query from shard ``i`` against shard ``j``'s sub-universe under
  ``metric`` (``i == j`` for within-shard candidates, metric ``group``
  for ground-truth positives completed after the join).  Dedup runs on
  globally namespaced unordered offer-id keys, and sets are consumed in
  deterministic (shard, then shard-pair) order, so the merged set is
  byte-identical regardless of worker count or completion order.

* :func:`merge_benchmarks` / :func:`merge_corpora` build the merged
  benchmark view: per-variant pair/multi-class datasets concatenated
  across shards in shard order with namespaced offers, which a plain
  :class:`~repro.eval.runner.ExperimentRunner` consumes unchanged.

Both merges exist in two physical shapes.  The historical in-memory
shape materializes python lists (:class:`MergedCandidates`).  The
out-of-core shape streams the *same* row generator through one
``executemany`` per table into a self-contained SQLite file
(:class:`MergedCandidateStore` → ``merged.db``) whose dedup is an
``INSERT OR IGNORE`` over canonical unordered pair keys, and serves the
result back as :class:`StoredMergedCandidates` — a lazy query view with
windowed iteration and SQL aggregates, duck-type compatible with
:class:`MergedCandidates` so recall and dataset consumers run unchanged
without a merged copy in RAM.  One shared generator feeds both shapes,
so python-set dedup and SQL first-win dedup see identical insertion
order and keep byte-identical survivors.
"""

from __future__ import annotations

import json
import sqlite3
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.blocking.candidates import BlockedPairSet
from repro.core.benchmark import WDCProductsBenchmark
from repro.core.datasets import LabeledPair, MulticlassDataset, PairDataset
from repro.corpus.schema import ProductOffer, SyntheticCorpus
from repro.errors import StoreError
from repro.io.store import OFFER_COLUMNS, offer_to_row, row_to_offer
from repro.shard.namespace import namespace_id, namespace_offer, namespace_offers

__all__ = [
    "MergedCandidate",
    "MergedCandidates",
    "MergedCandidateStore",
    "StoredMergedCandidates",
    "MERGED_SCHEMA",
    "merge_candidate_sets",
    "merge_benchmarks",
    "merge_corpora",
]

MERGED_SCHEMA = 1


@dataclass(frozen=True)
class MergedCandidate:
    """One candidate pair of the merged session-level set.

    ``offer_a``/``offer_b`` are globally namespaced; ``provenance`` is
    ``shard:<i>→<j>:<metric>`` with ``i`` the querying shard and ``j`` the
    shard whose sub-universe surfaced the candidate.
    """

    offer_a: ProductOffer
    offer_b: ProductOffer
    label: int
    score: float
    metric: str
    provenance: str


class MergedCandidates:
    """The session-wide deduplicated candidate set.

    Duck-type compatible with
    :class:`~repro.blocking.candidates.BlockedPairSet` where it matters
    (``pair_keys`` / ``k`` / ``metrics`` / ``__len__`` / ``summary`` /
    ``to_dataset``), so :func:`~repro.blocking.recall.blocking_recall`
    measures it against a (merged, namespaced) reference unchanged.
    """

    def __init__(
        self,
        pairs: list[MergedCandidate],
        *,
        k: int,
        metrics: tuple[str, ...],
        n_shards: int,
    ) -> None:
        self.pairs = pairs
        self.k = k
        self.metrics = metrics
        self.n_shards = n_shards

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[MergedCandidate]:
        return iter(self.pairs)

    def pair_keys(self) -> set[tuple[str, str]]:
        """Unordered (namespaced) offer-id keys, as ``LabeledPair.key()``."""
        keys: set[tuple[str, str]] = set()
        for pair in self.pairs:
            a, b = pair.offer_a.offer_id, pair.offer_b.offer_id
            keys.add((a, b) if a <= b else (b, a))
        return keys

    def to_dataset(self, name: str) -> PairDataset:
        """The merged candidates as one labeled ``PairDataset``."""
        dataset = PairDataset(name=name)
        dataset.pairs = [
            LabeledPair(
                pair_id=f"{name}-{position:07d}",
                offer_a=pair.offer_a,
                offer_b=pair.offer_b,
                label=pair.label,
                provenance=pair.provenance,
            )
            for position, pair in enumerate(self.pairs)
        ]
        return dataset

    def summary(self) -> dict[str, int]:
        positives = sum(pair.label for pair in self.pairs)
        cross = sum(
            1 for pair in self.pairs if not _is_within_shard(pair.provenance)
        )
        return {
            "all": len(self.pairs),
            "pos": positives,
            "neg": len(self.pairs) - positives,
            "cross_shard": cross,
        }

    def per_provenance_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for pair in self.pairs:
            counts[pair.provenance] = counts.get(pair.provenance, 0) + 1
        return counts


def _is_within_shard(provenance: str) -> bool:
    _, _, tail = provenance.partition(":")
    direction, _, _ = tail.partition(":")
    source, _, target = direction.partition("→")
    return source == target


def provenance_tag(query_shard: int, candidate_shard: int, metric: str) -> str:
    """The canonical ``shard:<i>→<j>:<metric>`` provenance string."""
    return f"shard:{int(query_shard)}→{int(candidate_shard)}:{metric}"


def _blocked_rows(
    blocked: BlockedPairSet,
    shard_of_row: np.ndarray | int,
    offers: dict[str, ProductOffer],
) -> Iterator[tuple]:
    """``blocked``'s pairs (already namespaced) as merged rows.

    ``shard_of_row`` maps engine rows to shard ids — a scalar for a
    within-shard set, the partition array for a cross-shard sweep.  Each
    row is ``(key_a, key_b, offer_a, offer_b, label, score, metric,
    provenance)``: the canonical unordered offer-id key, then the stored
    fields.  The columns are built with array ops over the set's columns;
    provenance is a lookup of one tag per (query shard, candidate shard,
    metric) combination present.  Every offer a row names lands in
    ``offers`` on first sight (row order, ``offer_a`` before ``offer_b``).
    """
    blocker = blocked.blocker
    row_offers = blocker.offers
    if row_offers is None or blocker.group_labels is None:
        raise ValueError("merging needs blockers built with offers and labels")
    ids = np.array(blocker.offer_ids, dtype=object)
    row_a, row_b, query = blocked.row_a, blocked.row_b, blocked.query_row
    named = np.column_stack((row_a, row_b)).ravel()
    _, seen = np.unique(named, return_index=True)
    for row in named[np.sort(seen)].tolist():
        offers.setdefault(ids[row], row_offers[row])
    a, b = ids[row_a], ids[row_b]
    swap = a > b
    shards = np.broadcast_to(
        np.asarray(shard_of_row, dtype=np.intp), ids.shape
    )
    query_shard = shards[query]
    candidate_shard = shards[np.where(row_a == query, row_b, row_a)]
    names = blocked.metric_names
    combo = (
        query_shard * (int(shards.max(initial=0)) + 1) + candidate_shard
    ) * len(names) + blocked.metric_id
    _, first, tag_of_pair = np.unique(
        combo, return_index=True, return_inverse=True
    )
    tags = np.array(
        [
            provenance_tag(
                query_shard[pair], candidate_shard[pair], names[metric]
            )
            for pair, metric in zip(first, blocked.metric_id[first].tolist())
        ],
        dtype=object,
    )
    return zip(
        np.where(swap, b, a).tolist(),
        np.where(swap, a, b).tolist(),
        a.tolist(),
        b.tolist(),
        blocked.labels().tolist(),
        blocked.score.tolist(),
        blocked.metric_labels().tolist(),
        tags[tag_of_pair].tolist(),
    )


def _merged_rows(
    shard_sets: Sequence[tuple[int, BlockedPairSet]],
    cross_sets: Sequence[tuple[tuple[int, int], BlockedPairSet, np.ndarray]],
    offers: dict[str, ProductOffer],
) -> Iterator[tuple]:
    """Stream every merged row, duplicates included, in merge order.

    Consumes ``shard_sets`` then ``cross_sets`` in the given order (the
    session passes shard order, then lexicographic pair order).  Both
    merge shapes read this one stream and keep the first row per key —
    a python set in :func:`merge_candidate_sets`, ``INSERT OR IGNORE``
    in :meth:`MergedCandidateStore.write` — so they keep identical
    survivors.  A duplicate names the same two offers as the row that
    won, so ``offers`` ends up holding exactly the survivors' offers.
    """
    for shard, blocked in shard_sets:
        yield from _blocked_rows(blocked, int(shard), offers)
    for _, blocked, partition in cross_sets:
        yield from _blocked_rows(blocked, partition, offers)


def merge_candidate_sets(
    shard_sets: Sequence[tuple[int, BlockedPairSet]],
    cross_sets: Sequence[tuple[tuple[int, int], BlockedPairSet, np.ndarray]],
    *,
    k: int,
    metrics: Sequence[str],
    n_shards: int,
) -> MergedCandidates:
    """Fold per-shard joins and cross-shard sweeps into one candidate set.

    ``shard_sets`` holds ``(shard, blocked)`` per shard; ``cross_sets``
    holds ``((i, j), blocked, partition)`` per shard pair, with
    ``partition`` mapping the combined engine's rows to shard ids.  Both
    are consumed in the given order, and all blockers must carry
    namespaced offers/labels, so dedup keys are globally unique and the
    merge is deterministic by construction.
    """
    offers: dict[str, ProductOffer] = {}
    seen: set[tuple[str, str]] = set()
    pairs: list[MergedCandidate] = []
    for key_a, key_b, a, b, label, score, metric, provenance in _merged_rows(
        shard_sets, cross_sets, offers
    ):
        if (key_a, key_b) in seen:
            continue
        seen.add((key_a, key_b))
        pairs.append(
            MergedCandidate(
                offer_a=offers[a],
                offer_b=offers[b],
                label=label,
                score=score,
                metric=metric,
                provenance=provenance,
            )
        )
    return MergedCandidates(
        pairs, k=k, metrics=tuple(metrics), n_shards=n_shards
    )


# --------------------------------------------------------------------- #
# Out-of-core merged views (merged.db)
# --------------------------------------------------------------------- #
_MERGED_TABLES = {
    "completed": "candidates_completed",
    "join_only": "candidates_join_only",
}

_MERGED_OFFER_SQL = ", ".join(
    f"{name} {'REAL' if name == 'price' else 'TEXT'}"
    + (" PRIMARY KEY" if name == "offer_id" else "")
    for name in OFFER_COLUMNS
)

_MERGED_DDL = [
    "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)",
    f"CREATE TABLE offers ({_MERGED_OFFER_SQL})",
    *(
        f"""CREATE TABLE {table} (
            key_a TEXT NOT NULL,
            key_b TEXT NOT NULL,
            offer_a TEXT NOT NULL REFERENCES offers (offer_id),
            offer_b TEXT NOT NULL REFERENCES offers (offer_id),
            label INTEGER NOT NULL,
            score REAL NOT NULL,
            metric TEXT NOT NULL,
            provenance TEXT NOT NULL,
            UNIQUE (key_a, key_b)
        )"""
        for table in _MERGED_TABLES.values()
    ),
]

_OFFER_PLACEHOLDERS = ", ".join("?" for _ in OFFER_COLUMNS)


class MergedCandidateStore:
    """Write side of ``merged.db`` — the session-level candidate sink.

    Self-contained by design: the merged file carries its own
    (namespaced) offers table, so reading merged candidates back never
    touches a per-shard store.  Dedup happens *in* the database — the
    candidate tables are unique over canonical unordered pair keys and
    rows arrive via ``INSERT OR IGNORE`` in canonical merge order, so
    the surviving rows equal the in-memory python-set dedup exactly.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Recreate from scratch: the sink is derived data, rebuilt by
        # every sweep, so a stale file must never contribute rows.
        if self.path.exists():
            self.path.unlink()
        self._connection = sqlite3.connect(self.path)
        self._connection.execute("PRAGMA journal_mode=MEMORY")
        self._connection.execute("PRAGMA synchronous=OFF")
        with self._connection:
            for statement in _MERGED_DDL:
                self._connection.execute(statement)
            self._connection.execute(
                "INSERT INTO meta VALUES ('schema', ?)", (str(MERGED_SCHEMA),)
            )

    def write(
        self,
        table_key: str,
        shard_sets: Sequence[tuple[int, BlockedPairSet]],
        cross_sets: Sequence[
            tuple[tuple[int, int], BlockedPairSet, np.ndarray]
        ],
        *,
        k: int,
        metrics: Sequence[str],
        n_shards: int,
    ) -> "StoredMergedCandidates":
        """Stream one candidate table and return its lazy query view.

        The merge's rows go through one ``executemany`` of ``INSERT OR
        IGNORE`` straight from the generator — nothing is materialized,
        and the table's unique key keeps the first row per pair.  Every
        offer the stream named is inserted once afterwards, in first-seen
        order.
        """
        table = _MERGED_TABLES[table_key]
        offers: dict[str, ProductOffer] = {}
        connection = self._connection
        with connection:
            connection.executemany(
                f"INSERT OR IGNORE INTO {table} "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                _merged_rows(shard_sets, cross_sets, offers),
            )
            connection.executemany(
                f"INSERT OR IGNORE INTO offers VALUES ({_OFFER_PLACEHOLDERS})",
                map(offer_to_row, offers.values()),
            )
            connection.executemany(
                "INSERT OR REPLACE INTO meta VALUES (?, ?)",
                (
                    (f"{table_key}:k", str(int(k))),
                    (f"{table_key}:metrics", json.dumps(list(metrics))),
                    (f"{table_key}:n_shards", str(int(n_shards))),
                ),
            )
        return StoredMergedCandidates(
            self.path,
            table_key,
            k=int(k),
            metrics=tuple(metrics),
            n_shards=int(n_shards),
        )

    def close(self) -> None:
        self._connection.close()


def _reopen_stored_merged(path: str, table_key: str) -> "StoredMergedCandidates":
    return StoredMergedCandidates.open(path, table_key)


class StoredMergedCandidates:
    """Lazy, windowed query view over one ``merged.db`` candidate table.

    Duck-type compatible with :class:`MergedCandidates` (``pair_keys`` /
    ``k`` / ``metrics`` / ``__len__`` / ``__iter__`` / ``summary`` /
    ``per_provenance_counts`` / ``to_dataset``), but nothing is resident:
    iteration pages through the table in rowid order ``window`` rows at a
    time (offers resolved per window from the merged file's own offers
    table), and the aggregates are SQL.  ``.pairs`` exists as an explicit
    materialization escape hatch for callers that genuinely need a list.
    """

    def __init__(
        self,
        path: Path | str,
        table_key: str,
        *,
        k: int,
        metrics: tuple[str, ...],
        n_shards: int,
        window: int = 2048,
    ) -> None:
        if table_key not in _MERGED_TABLES:
            raise ValueError(
                f"table_key must be one of {sorted(_MERGED_TABLES)}, got "
                f"{table_key!r}"
            )
        self.path = Path(path)
        self.table_key = table_key
        self.k = k
        self.metrics = metrics
        self.n_shards = n_shards
        self.window = window
        self._table = _MERGED_TABLES[table_key]
        self._connection_cache: sqlite3.Connection | None = None
        self._length: int | None = None

    @classmethod
    def open(cls, path: Path | str, table_key: str) -> "StoredMergedCandidates":
        """Reopen a view from the metadata persisted beside the table.

        Raises :class:`~repro.errors.StoreError` naming the file and the
        table when the file cannot be read, carries another schema, or
        never had this table written.
        """
        where = f"merged store {path} (table {table_key!r})"
        try:
            connection = sqlite3.connect(
                f"file:{Path(path)}?mode=ro", uri=True
            )
            try:
                meta = dict(connection.execute("SELECT key, value FROM meta"))
            finally:
                connection.close()
        except sqlite3.Error as error:
            raise StoreError(f"{where} cannot be read: {error}") from error
        if meta.get("schema") != str(MERGED_SCHEMA):
            raise StoreError(
                f"{where} has schema {meta.get('schema')!r}, expected "
                f"{MERGED_SCHEMA}"
            )
        try:
            return cls(
                path,
                table_key,
                k=int(meta[f"{table_key}:k"]),
                metrics=tuple(json.loads(meta[f"{table_key}:metrics"])),
                n_shards=int(meta[f"{table_key}:n_shards"]),
            )
        except KeyError as error:
            raise StoreError(
                f"{where} was never written: no {error.args[0]!r} meta row"
            ) from error

    def __reduce__(self):
        return (_reopen_stored_merged, (str(self.path), self.table_key))

    @property
    def _connection(self) -> sqlite3.Connection:
        if self._connection_cache is None:
            self._connection_cache = sqlite3.connect(
                f"file:{self.path}?mode=ro", uri=True, check_same_thread=False
            )
        return self._connection_cache

    def close(self) -> None:
        if self._connection_cache is not None:
            self._connection_cache.close()
            self._connection_cache = None

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        if self._length is None:
            (self._length,) = self._connection.execute(
                f"SELECT COUNT(*) FROM {self._table}"
            ).fetchone()
        return self._length

    def _window_offers(
        self, rows: list[tuple]
    ) -> dict[str, ProductOffer]:
        wanted = sorted({row[1] for row in rows} | {row[2] for row in rows})
        offers: dict[str, ProductOffer] = {}
        for start in range(0, len(wanted), 512):
            chunk = wanted[start : start + 512]
            marks = ", ".join("?" for _ in chunk)
            for values in self._connection.execute(
                f"SELECT {', '.join(OFFER_COLUMNS)} FROM offers "
                f"WHERE offer_id IN ({marks})",
                chunk,
            ):
                offer = row_to_offer(values)
                offers[offer.offer_id] = offer
        return offers

    def __iter__(self) -> Iterator[MergedCandidate]:
        last_rowid = 0
        while True:
            rows = self._connection.execute(
                f"SELECT rowid, offer_a, offer_b, label, score, metric, "
                f"provenance FROM {self._table} WHERE rowid > ? "
                f"ORDER BY rowid LIMIT ?",
                (last_rowid, self.window),
            ).fetchall()
            if not rows:
                return
            offers = self._window_offers(rows)
            for rowid, a, b, label, score, metric, provenance in rows:
                yield MergedCandidate(
                    offer_a=offers[a],
                    offer_b=offers[b],
                    label=label,
                    score=score,
                    metric=metric,
                    provenance=provenance,
                )
            last_rowid = rows[-1][0]

    @property
    def pairs(self) -> list[MergedCandidate]:
        """Materialized list — the explicit opt-out from laziness."""
        return list(self)

    def pair_keys(self) -> set[tuple[str, str]]:
        return {
            (key_a, key_b)
            for key_a, key_b in self._connection.execute(
                f"SELECT key_a, key_b FROM {self._table}"
            )
        }

    def to_dataset(self, name: str) -> PairDataset:
        dataset = PairDataset(name=name)
        dataset.pairs = [
            LabeledPair(
                pair_id=f"{name}-{position:07d}",
                offer_a=pair.offer_a,
                offer_b=pair.offer_b,
                label=pair.label,
                provenance=pair.provenance,
            )
            for position, pair in enumerate(self)
        ]
        return dataset

    def summary(self) -> dict[str, int]:
        total, positives = self._connection.execute(
            f"SELECT COUNT(*), COALESCE(SUM(label), 0) FROM {self._table}"
        ).fetchone()
        cross = sum(
            count
            for provenance, count in self._connection.execute(
                f"SELECT provenance, COUNT(*) FROM {self._table} "
                "GROUP BY provenance"
            )
            if not _is_within_shard(provenance)
        )
        return {
            "all": total,
            "pos": positives,
            "neg": total - positives,
            "cross_shard": cross,
        }

    def per_provenance_counts(self) -> dict[str, int]:
        return dict(
            self._connection.execute(
                f"SELECT provenance, COUNT(*) FROM {self._table} "
                "GROUP BY provenance ORDER BY MIN(rowid)"
            )
        )


# --------------------------------------------------------------------- #
# Merged benchmark view
# --------------------------------------------------------------------- #
def _merge_pair_datasets(
    datasets: Sequence[tuple[int, PairDataset]], name: str
) -> PairDataset:
    merged = PairDataset(name=name)
    for shard, dataset in datasets:
        merged.pairs.extend(
            LabeledPair(
                pair_id=namespace_id(shard, pair.pair_id),
                offer_a=namespace_offer(pair.offer_a, shard),
                offer_b=namespace_offer(pair.offer_b, shard),
                label=pair.label,
                provenance=pair.provenance,
            )
            for pair in dataset.pairs
        )
    return merged


def _merge_multiclass(
    datasets: Sequence[tuple[int, MulticlassDataset]], name: str
) -> MulticlassDataset:
    offers: list[ProductOffer] = []
    labels: list[str] = []
    for shard, dataset in datasets:
        offers.extend(namespace_offers(dataset.offers, shard))
        labels.extend(namespace_id(shard, label) for label in dataset.labels)
    return MulticlassDataset(name=name, offers=offers, labels=labels)


def merge_benchmarks(
    benchmarks: Sequence[WDCProductsBenchmark],
    *,
    shard_ids: Sequence[int] | None = None,
) -> WDCProductsBenchmark:
    """Concatenate per-shard benchmarks into one namespaced benchmark.

    Every shard must cover the same variant keys (the session spawns all
    shards from one base config, so they do); datasets are concatenated in
    shard order with ``s<i>:``-prefixed offer/pair ids and multi-class
    labels, producing ``merged-``-named datasets an
    :class:`~repro.eval.runner.ExperimentRunner` trains on unchanged.

    ``shard_ids`` names the shard behind each benchmark (default: the
    positional ``0..n-1``).  A degraded session passes the *surviving*
    shard ids here, so namespaces in the merged view always refer to the
    plan's shard numbering, never to a compacted survivor index.
    """
    if not benchmarks:
        raise ValueError("merge_benchmarks needs at least one benchmark")
    if shard_ids is None:
        shard_ids = range(len(benchmarks))
    shard_ids = list(shard_ids)
    if len(shard_ids) != len(benchmarks):
        raise ValueError(
            f"shard_ids covers {len(shard_ids)} shards but "
            f"{len(benchmarks)} benchmarks were given"
        )
    reference = benchmarks[0]
    for other in benchmarks[1:]:
        for attribute in (
            "train_sets",
            "valid_sets",
            "test_sets",
            "multiclass_train",
            "multiclass_valid",
            "multiclass_test",
        ):
            if set(getattr(other, attribute)) != set(
                getattr(reference, attribute)
            ):
                raise ValueError(
                    f"shard benchmarks disagree on {attribute} variants; "
                    "merged views need homogeneous shard configs"
                )
    merged = WDCProductsBenchmark()
    for attribute in ("train_sets", "valid_sets", "test_sets"):
        target = getattr(merged, attribute)
        for key, dataset in getattr(reference, attribute).items():
            target[key] = _merge_pair_datasets(
                [
                    (shard, getattr(benchmark, attribute)[key])
                    for shard, benchmark in zip(shard_ids, benchmarks)
                ],
                name=f"merged-{dataset.name}",
            )
    for attribute in ("multiclass_train", "multiclass_valid", "multiclass_test"):
        target = getattr(merged, attribute)
        for key, dataset in getattr(reference, attribute).items():
            target[key] = _merge_multiclass(
                [
                    (shard, getattr(benchmark, attribute)[key])
                    for shard, benchmark in zip(shard_ids, benchmarks)
                ],
                name=f"merged-{dataset.name}",
            )
    return merged


def merge_corpora(
    corpora: Sequence[SyntheticCorpus],
    *,
    shard_ids: Sequence[int] | None = None,
) -> SyntheticCorpus:
    """One namespaced corpus over every shard's cleansed offers.

    Cluster metadata (category / family) carries over with namespaced
    cluster and family ids, so cluster-level consumers (pre-training
    cluster extraction, profiling) see the same structure they would on a
    single corpus.  ``shard_ids`` names the shard behind each corpus
    (default positional) — degraded sessions pass survivor ids.
    """
    if shard_ids is None:
        shard_ids = range(len(corpora))
    shard_ids = list(shard_ids)
    if len(shard_ids) != len(corpora):
        raise ValueError(
            f"shard_ids covers {len(shard_ids)} shards but "
            f"{len(corpora)} corpora were given"
        )
    merged = SyntheticCorpus()
    for shard, corpus in zip(shard_ids, corpora):
        merged.extend(namespace_offers(corpus.offers, shard))
        for cluster_id, (category, family_id) in corpus._cluster_meta.items():
            merged.register_cluster_meta(
                namespace_id(shard, cluster_id),
                category=category,
                family_id=namespace_id(shard, family_id),
            )
    return merged
