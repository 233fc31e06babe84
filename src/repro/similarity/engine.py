"""The shared, vectorized similarity backend of the Figure-2 pipeline.

Every similarity-hungry stage — corner-case selection (§3.4), offer
splitting (§3.5) and pair generation (§3.6) — needs the same four title
metrics (Cosine, Dice, Generalized Jaccard, LSA embedding) over the same
title universe.  ``SimilarityEngine`` tokenizes that universe **once**,
precomputes the sparse token-incidence matrix, the token-set sizes and the
dense embedding matrix, and then serves every metric through batched
NumPy/SciPy kernels:

* ``scores_batch`` / ``scores`` — similarities of query rows against the
  whole universe (Generalized Jaccard is rescored exactly on a
  cosine-prefiltered candidate set, exactly like the paper's top-k use),
* ``top_k_batch`` / ``top_k_scores_batch`` / ``top_k`` — most-similar
  lookups with self-exclusion, exclusion masks and group exclusion,
  selected a whole score block at a time into :class:`TopK` columns,
* ``external_scores_batch`` / ``external_top_k_batch`` — the same for
  query token sets that are *not* part of the universe (the serving
  path), numerically identical to append-then-score-then-retire
  (out-of-vocabulary query tokens count toward set sizes but intersect
  nothing),
* ``rank`` — exact ranking of an explicit candidate subset for a query,
* ``pairwise_matrix`` — exact symmetric similarity matrix of a subset,
* ``view`` — a cheap sub-engine over a row subset (no re-tokenization),
  which is how per-split pair generation and per-cluster splitting reuse
  the corpus-level precomputation,
* ``attribute_view`` / ``pair_features_batch`` — the matcher-facing
  featurization layer: per-attribute sparse token views (title built-in,
  further attributes registered with ``register_attribute``) whose
  token-set metrics over N explicit pairs are a handful of sparse matrix
  ops (see :mod:`repro.similarity.features`).

One scoring core serves all of them.  Every incidence matrix comes from
:func:`~repro.similarity.features.token_incidence` and every canonical
token-set id from :func:`~repro.similarity.features.canonical_keys`;
every token metric is one call of
:func:`~repro.similarity.features.token_metric`, which broadcasts over
query blocks, candidate subsets and pairwise matrices alike.  Internal
and external queries share one chunked block scorer, one
Generalized-Jaccard prefilter-rescore and one top-k loop; they differ only
in where query rows come from and in the rescoring call (internal rows
use the cached ``generalized_jaccard_pairs``; external token sets the
uncached ``generalized_jaccard_batch``, so a query never writes the
shared pair cache).

The sparse/dense kernels release the GIL, so independent corner-case-ratio
builds can share one engine across worker threads.

A *root* engine is also mutable (``append`` / ``retire``):
amortized-O(delta) row-block appends into capacity-doubling CSR buffers
(the vocabulary grows append-only, so existing column ids never move) and
tombstone retirement.  Embeddings are invalidated lazily
(``refresh_embeddings``), the canonical token-set keys keep the shared
:class:`BoundedPairCache` coherent across mutations, the
:class:`TokenTable`'s Jaro–Winkler cache is keyed on column ids and so
survives them (its token ranks are re-derived lazily), and
``row_signatures`` serves a per-delta-version cached
:class:`~repro.similarity.signatures.RowSignatures` summary.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterator, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from repro.errors import EmbeddingsDroppedWarning
from repro.similarity.embedding import LsaEmbeddingModel
from repro.similarity.features import (
    TOKEN_METRICS,
    AttributeView,
    BoundedPairCache,
    CanonicalKeys,
    TokenTable,
    canonical_keys,
    generalized_jaccard_batch,
    token_incidence,
    token_metric,
)
from repro.similarity.signatures import RowSignatures
from repro.text.tokenize import tokenize

__all__ = ["SimilarityEngine", "TopK"]

_GEN_JACCARD_PREFILTER = 48
_BATCH_ROWS = 256  # cap on dense (queries x universe) score blocks
_GJ_CACHE_ENTRIES = 1 << 20  # per-corpus Generalized-Jaccard pair cache bound
_TOKEN_SCORED = ("cosine", "dice", "generalized_jaccard")


def _grow(buffer: np.ndarray, used: int, extra: int) -> np.ndarray:
    """``buffer`` with room for ``used + extra`` rows, doubling to amortize."""
    needed = used + extra
    if buffer.shape[0] >= needed:
        return buffer
    capacity = max(needed, 2 * buffer.shape[0], 16)
    grown = np.empty((capacity, *buffer.shape[1:]), dtype=buffer.dtype)
    grown[:used] = buffer[:used]
    return grown


def _block_top_k(
    block: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Top ``k`` finite entries of every row of a score block, at once.

    Each row's ``k``-th largest score comes from one ``np.partition``;
    the entries at or above it that are finite (``-inf`` marks
    exclusions, and the selection widens past them however many there
    are, so a row keeps every finite entry when it has fewer than ``k``)
    go through one ``np.lexsort`` by (row, -score, column), and each row
    is cut at rank ``k``.  Returns aligned ``(row, column, score, rank)``
    arrays grouped by row.
    """
    width = block.shape[1]
    kept = block > -np.inf
    if 0 < k < width:
        # Introselect is data-sensitive: on serving-path score rows
        # (mostly zeros) partitioning the negated row at k - 1 measured
        # about twice as fast as the row itself at width - k, and no
        # slower over whole blocking-join blocks.
        kth = -np.partition(-block, k - 1, axis=1)[:, k - 1]
        kept &= block >= kth[:, None]
    # flatnonzero + divmod: far cheaper than a 2-D np.nonzero.
    rows, columns = np.divmod(np.flatnonzero(kept), width)
    scores = block[rows, columns]
    order = np.lexsort((columns, -scores, rows))
    rows, columns, scores = rows[order], columns[order], scores[order]
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    cut = rank < k
    return rows[cut], columns[cut], scores[cut], rank[cut]


class TopK(Sequence):
    """The top-k entries of a query batch, held as flat columns.

    Entry ``i`` is universe row ``row[i]`` with similarity ``score[i]``
    at rank ``rank[i]`` (0-based) of query position ``query[i]``'s list.
    Entries are grouped by query position, ascending, and ordered by
    (-score, row) inside a query.  As a sequence it holds one ``(rows,
    scores)`` pair per query — ``rows`` a list of ints, ``scores`` the
    aligned array — for callers that consume queries one at a time.
    """

    __slots__ = ("query", "row", "score", "rank", "_starts")

    def __init__(
        self,
        query: np.ndarray,
        row: np.ndarray,
        score: np.ndarray,
        rank: np.ndarray,
        n_queries: int,
    ) -> None:
        self.query = query
        self.row = row
        self.score = score
        self.rank = rank
        self._starts = np.searchsorted(query, np.arange(n_queries + 1))

    def __len__(self) -> int:
        return self._starts.size - 1

    def __getitem__(self, position: int) -> tuple[list[int], np.ndarray]:
        position = range(len(self))[position]
        start, stop = self._starts[position], self._starts[position + 1]
        return self.row[start:stop].tolist(), self.score[start:stop]

    def __iter__(self) -> Iterator[tuple[list[int], np.ndarray]]:
        starts = self._starts.tolist()
        for start, stop in zip(starts, starts[1:]):
            yield self.row[start:stop].tolist(), self.score[start:stop]


class _RowBuffers:
    """Capacity-doubling CSR row storage behind a mutable engine.

    ``csr_matrix`` arrays are fixed-length, so the first mutation copies
    them into these buffers once (this also lifts store-opened engines
    out of their read-only memory maps); every further append writes
    into spare capacity, which makes N row-block appends amortized
    O(total rows appended) rather than O(N × corpus).
    """

    __slots__ = (
        "data", "indices", "indptr", "sizes", "keys", "retired",
        "rows", "nnz", "n_retired",
    )

    def __init__(
        self, matrix: csr_matrix, set_sizes: np.ndarray, token_keys: np.ndarray
    ) -> None:
        self.rows = int(matrix.shape[0])
        self.nnz = int(matrix.indptr[self.rows])
        self.data = np.array(matrix.data[: self.nnz], dtype=np.float64)
        self.indices = np.array(matrix.indices[: self.nnz], dtype=np.int64)
        self.indptr = np.array(matrix.indptr[: self.rows + 1], dtype=np.int64)
        self.sizes = np.array(set_sizes[: self.rows], dtype=np.float64)
        self.keys = np.array(token_keys[: self.rows], dtype=np.intp)
        self.retired = np.zeros(self.rows, dtype=bool)
        self.n_retired = 0

    def append_rows(
        self, block: csr_matrix, keys: np.ndarray, sizes: np.ndarray
    ) -> None:
        """Append ``block``'s binary CSR rows with their keys and set sizes."""
        extra_rows, extra_nnz = block.shape[0], int(block.nnz)
        rows, nnz = self.rows, self.nnz
        self.data = _grow(self.data, nnz, extra_nnz)
        self.indices = _grow(self.indices, nnz, extra_nnz)
        self.indptr = _grow(self.indptr, rows + 1, extra_rows)
        self.sizes = _grow(self.sizes, rows, extra_rows)
        self.keys = _grow(self.keys, rows, extra_rows)
        self.retired = _grow(self.retired, rows, extra_rows)
        self.data[nnz : nnz + extra_nnz] = 1.0
        self.indices[nnz : nnz + extra_nnz] = block.indices
        self.indptr[rows + 1 : rows + 1 + extra_rows] = nnz + block.indptr[1:]
        self.sizes[rows : rows + extra_rows] = sizes
        self.keys[rows : rows + extra_rows] = keys
        self.retired[rows : rows + extra_rows] = False
        self.rows += extra_rows
        self.nnz += extra_nnz


class SimilarityEngine:
    """Precomputed batch similarity over a fixed title universe."""

    METRICS = ("cosine", "dice", "generalized_jaccard", "lsa_embedding")

    def __init__(
        self,
        titles: Sequence[str],
        *,
        embedding_model: LsaEmbeddingModel | None = None,
        prefilter: int = _GEN_JACCARD_PREFILTER,
        attributes: Mapping[str, Sequence[str | None]] | None = None,
        gj_cache_entries: int = _GJ_CACHE_ENTRIES,
    ) -> None:
        self.titles = list(titles)
        self.prefilter = prefilter
        self.token_sets: list[set[str]] = [
            set(tokenize(title)) for title in self.titles
        ]
        self.vocabulary: dict[str, int] = {}
        self._matrix, self._set_sizes = token_incidence(
            self.token_sets, self.vocabulary
        )

        self._attributes: dict[str, list[str | None]] = {}
        self._attribute_views: dict[str, AttributeView] = {}
        if attributes:
            for name, texts in attributes.items():
                self.register_attribute(name, texts)

        self._embeddings: np.ndarray | None = None
        if embedding_model is not None:
            self._embeddings = embedding_model.embed_many(self.titles)

        # Canonical id per distinct token set: rows with identical token
        # sets share an id, so the Generalized-Jaccard pair cache (bounded,
        # lock-protected, shared with every view) dedupes duplicate titles.
        self._token_keys = canonical_keys(self.token_sets)
        self._gj_cache = BoundedPairCache(gj_cache_entries)
        # Token ranks and the Jaro–Winkler token-pair cache; built on
        # first Generalized-Jaccard use, never here or in append().
        self._token_table = TokenTable(self.vocabulary, gj_cache_entries)
        self._init_mutation_state(embedding_model=embedding_model)

    def _init_mutation_state(
        self, *, embedding_model: LsaEmbeddingModel | None = None
    ) -> None:
        self._embedding_model = embedding_model
        self._embeddings_stale = False
        self._retired: np.ndarray | None = None
        self._canon: CanonicalKeys | None = None
        self._is_view = False
        self._growable: _RowBuffers | None = None
        self._signature_cache: tuple[int, RowSignatures] | None = None
        self.delta_version = 0

    @classmethod
    def _from_parts(
        cls,
        titles: list[str],
        token_sets: list[set[str]],
        matrix: csr_matrix,
        set_sizes: np.ndarray,
        embeddings: np.ndarray | None,
        prefilter: int,
        token_keys: np.ndarray,
        gj_cache: BoundedPairCache,
        vocabulary: dict[str, int],
        token_table: TokenTable | None = None,
    ) -> "SimilarityEngine":
        """An engine over prebuilt parts; a fresh token table unless shared."""
        engine = cls.__new__(cls)
        engine.titles = titles
        engine.prefilter = prefilter
        engine.token_sets = token_sets
        engine.vocabulary = vocabulary
        engine._token_table = (
            TokenTable(vocabulary, gj_cache.capacity)
            if token_table is None
            else token_table
        )
        engine._matrix = matrix
        engine._set_sizes = set_sizes
        engine._embeddings = embeddings
        engine._token_keys = token_keys
        engine._gj_cache = gj_cache
        engine._attributes = {}
        engine._attribute_views = {}
        engine._init_mutation_state()
        return engine

    @classmethod
    def open(cls, store) -> "SimilarityEngine":
        """An engine over a shard's on-disk artifact store, memory-mapped.

        ``store`` is anything exposing ``engine_parts()``, such as a
        :class:`~repro.io.store.StoredShard`.  The incidence matrix's CSR
        arrays, the set sizes, token-set keys and embeddings come back as
        read-only memory maps over the store's sidecar files, so opening
        costs page-table setup, not a deserialized copy; everything else
        (``view()``, ``concat``, scoring) works unchanged on top.
        """
        parts = store.engine_parts()
        if parts is None:
            raise ValueError(
                f"store {store!r} holds no engine (built without one?)"
            )
        return cls._from_parts(
            titles=parts["titles"],
            token_sets=parts["token_sets"],
            matrix=parts["matrix"],
            set_sizes=parts["set_sizes"],
            embeddings=parts["embeddings"],
            prefilter=parts["prefilter"],
            token_keys=parts["token_keys"],
            gj_cache=parts["gj_cache"],
            vocabulary=parts["vocabulary"],
        )

    @classmethod
    def concat(
        cls,
        engines: Sequence["SimilarityEngine"],
        *,
        prefilter: int | None = None,
        gj_cache_entries: int = _GJ_CACHE_ENTRIES,
        strict_embeddings: bool | None = None,
    ) -> "SimilarityEngine":
        """One combined engine over several engines' universes, in order.

        The cross-shard counterpart of :meth:`view`: rows of the combined
        engine are the concatenation of the input engines' rows, reusing
        their token sets and set sizes so no title is re-tokenized.  Only
        the incidence matrix is rebuilt (per-engine vocabularies differ, so
        columns must be remapped onto one merged vocabulary) and token-set
        keys are re-canonicalized globally, which lets the fresh
        Generalized-Jaccard pair cache dedupe duplicate titles *across*
        the inputs.

        Embeddings are dropped: each input engine's LSA model is fitted on
        its own corpus, so their vectors are not comparable — the combined
        engine serves the token metrics only (``metric_names`` reflects
        that).  ``strict_embeddings`` controls how the drop surfaces when
        any input actually carries embeddings: ``None`` (default) emits
        :class:`~repro.errors.EmbeddingsDroppedWarning`, ``True`` raises
        :class:`ValueError`, and ``False`` acknowledges the drop silently.
        """
        if not engines:
            raise ValueError("concat needs at least one engine")
        if any(engine._embeddings is not None for engine in engines):
            if strict_embeddings:
                raise ValueError(
                    "concat drops embeddings (per-corpus LSA spaces are "
                    "not comparable); pass strict_embeddings=False to "
                    "acknowledge the drop"
                )
            if strict_embeddings is None:
                warnings.warn(
                    EmbeddingsDroppedWarning(
                        "SimilarityEngine.concat drops the input engines' "
                        "embeddings; the combined engine serves token "
                        "metrics only (pass strict_embeddings=False to "
                        "acknowledge, strict_embeddings=True to forbid)"
                    ),
                    stacklevel=2,
                )
        if any(engine._retired is not None for engine in engines):
            raise ValueError(
                "cannot concat an engine with retired rows; concat "
                "engine.view(engine.live_rows()) instead"
            )
        titles = [title for engine in engines for title in engine.titles]
        token_sets = [
            tokens for engine in engines for tokens in engine.token_sets
        ]
        vocabulary: dict[str, int] = {}
        matrix, set_sizes = token_incidence(token_sets, vocabulary)
        return cls._from_parts(
            titles=titles,
            token_sets=token_sets,
            matrix=matrix,
            set_sizes=set_sizes,
            embeddings=None,
            prefilter=(
                min(engine.prefilter for engine in engines)
                if prefilter is None
                else prefilter
            ),
            token_keys=canonical_keys(token_sets),
            gj_cache=BoundedPairCache(gj_cache_entries),
            vocabulary=vocabulary,
        )

    def view(self, indices: Sequence[int]) -> "SimilarityEngine":
        """A sub-engine over ``indices`` sharing this engine's precomputation.

        The view is itself a full :class:`SimilarityEngine` whose universe is
        the selected rows (in the given order); building it slices arrays
        instead of re-tokenizing or re-embedding.  Registered attributes
        carry over, and any already-built attribute view is sliced rather
        than rebuilt.
        """
        rows = np.asarray(list(indices), dtype=np.intp)
        usable_embeddings = (
            None
            if self._embeddings is None or self._embeddings_stale
            else self._embeddings[rows]
        )
        engine = SimilarityEngine._from_parts(
            titles=[self.titles[int(i)] for i in rows],
            token_sets=[self.token_sets[int(i)] for i in rows],
            matrix=self._matrix[rows],
            set_sizes=self._set_sizes[rows],
            embeddings=usable_embeddings,
            prefilter=self.prefilter,
            token_keys=self._token_keys[rows],
            gj_cache=self._gj_cache,
            vocabulary=self.vocabulary,
            token_table=self._token_table,
        )
        engine._is_view = True
        if self._retired is not None:
            sliced = self._retired[rows]
            engine._retired = sliced if sliced.any() else None
        engine._attributes = {
            name: [texts[int(i)] for i in rows]
            for name, texts in self._attributes.items()
        }
        engine._attribute_views = {
            name: view.slice(rows) for name, view in self._attribute_views.items()
        }
        return engine

    def __len__(self) -> int:
        return len(self.titles)

    @property
    def metric_names(self) -> tuple[str, ...]:
        if self._embeddings is None or self._embeddings_stale:
            return ("cosine", "dice", "generalized_jaccard")
        return self.METRICS

    # ------------------------------------------------------------------ #
    # Live deltas: append / retire on a root engine
    # ------------------------------------------------------------------ #
    def _require_mutable(self) -> None:
        if self._is_view:
            raise ValueError(
                "views are immutable; append/retire on the root engine"
            )
        if self._attributes:
            raise ValueError(
                "cannot mutate an engine with registered attributes; "
                "attribute rows cannot be extended incrementally"
            )

    def _canonical_keys(self) -> CanonicalKeys:
        """The ``frozenset(tokens) -> canonical key`` map, rebuilt lazily.

        ``__init__``/``concat`` discard this map after assigning keys;
        the first mutation reconstructs it so appended duplicate titles
        keep sharing keys (and therefore shared
        :class:`BoundedPairCache` entries) with their existing rows.  The
        map carries its next free key, so later appends stay O(delta).
        """
        if self._canon is None:
            self._canon = CanonicalKeys(
                zip(map(frozenset, self.token_sets), self._token_keys.tolist())
            )
        return self._canon

    def _ensure_growable(self) -> None:
        if self._growable is None:
            self._growable = _RowBuffers(
                self._matrix, self._set_sizes, self._token_keys
            )

    def _refresh_from_buffers(self) -> None:
        buffers = self._growable
        self._matrix = csr_matrix(
            (
                buffers.data[: buffers.nnz],
                buffers.indices[: buffers.nnz],
                buffers.indptr[: buffers.rows + 1],
            ),
            shape=(buffers.rows, max(len(self.vocabulary), 1)),
            copy=False,
        )
        self._set_sizes = buffers.sizes[: buffers.rows]
        self._token_keys = buffers.keys[: buffers.rows]
        self._retired = (
            buffers.retired[: buffers.rows] if buffers.n_retired else None
        )
        self.delta_version += 1
        self._signature_cache = None
        # The cached title view wraps the pre-mutation matrix.
        self._attribute_views.pop("title", None)

    def append(self, titles: Sequence[str]) -> np.ndarray:
        """Append new title rows; returns their row indices.

        Amortized O(delta): rows land in capacity-doubling CSR buffers,
        the vocabulary grows append-only (existing column ids never
        move, so prior scores are unaffected), and canonical token-set
        keys extend the existing numbering so the shared
        Generalized-Jaccard pair cache stays coherent.  Embeddings are
        *invalidated*, not recomputed — ``lsa_embedding`` disappears
        from ``metric_names`` until :meth:`refresh_embeddings`.
        """
        self._require_mutable()
        new_titles = [str(title) for title in titles]
        if not new_titles:
            return np.empty(0, dtype=np.intp)
        new_sets = [set(tokenize(title)) for title in new_titles]
        new_keys = canonical_keys(new_sets, self._canonical_keys())
        # Column ids for new tokens are assigned in lexicographic token
        # order, so the grown vocabulary is deterministic regardless of
        # set iteration order.
        block, sizes = token_incidence(
            [sorted(tokens) for tokens in new_sets], self.vocabulary
        )
        start = len(self.titles)
        self._ensure_growable()
        self._growable.append_rows(block, new_keys, sizes)
        self.titles.extend(new_titles)
        self.token_sets.extend(new_sets)
        if self._embeddings is not None:
            self._embeddings_stale = True
        self._refresh_from_buffers()
        return np.arange(start, len(self.titles), dtype=np.intp)

    def retire(self, rows: Sequence[int]) -> np.ndarray:
        """Tombstone rows: excluded from every top-k, never re-indexed.

        Row numbering is stable (``len(self)`` counts total rows ever
        appended), so retirement is O(delta) and existing row references
        stay valid.  Retiring an unknown or already-retired row raises.
        """
        self._require_mutable()
        row_array = np.unique(np.asarray(list(rows), dtype=np.intp))
        if row_array.size == 0:
            return row_array
        if row_array[0] < 0 or row_array[-1] >= len(self):
            raise IndexError(
                f"retire rows out of range for engine of {len(self)} rows"
            )
        self._ensure_growable()
        buffers = self._growable
        already = buffers.retired[row_array]
        if already.any():
            raise ValueError(
                f"rows already retired: {row_array[already].tolist()}"
            )
        buffers.retired[row_array] = True
        buffers.n_retired += int(row_array.size)
        self._refresh_from_buffers()
        return row_array

    def live_rows(self) -> np.ndarray:
        """Row indices that have not been retired, ascending."""
        if self._retired is None:
            return np.arange(len(self), dtype=np.intp)
        return np.flatnonzero(~self._retired).astype(np.intp)

    @property
    def live_count(self) -> int:
        if self._retired is None:
            return len(self)
        return int(len(self) - np.count_nonzero(self._retired))

    def is_retired(self, row: int) -> bool:
        if self._retired is None:
            return False
        return bool(self._retired[int(row)])

    def refresh_embeddings(
        self, model: LsaEmbeddingModel | None = None
    ) -> None:
        """Re-embed every title after appends invalidated the LSA space.

        Appends only mark embeddings stale (the paper's LSA space is
        corpus-fitted, so per-delta incremental updates would change its
        semantics); this is the explicit, whole-corpus refresh point.
        """
        if model is None:
            model = self._embedding_model
        if model is None:
            raise ValueError(
                "no embedding model to refresh with; pass one explicitly"
            )
        self._embedding_model = model
        self._embeddings = model.embed_many(self.titles)
        self._embeddings_stale = False

    def row_signatures(self) -> RowSignatures:
        """Signature summary over the live rows, cached per delta version.

        The cross-shard signature index consumes these; caching on
        ``delta_version`` keeps the summary coherent across mutations
        without recomputing it per query.
        """
        cached = self._signature_cache
        if cached is not None and cached[0] == self.delta_version:
            return cached[1]
        base = self if self._retired is None else self.view(self.live_rows())
        signatures = RowSignatures.from_engine(base)
        self._signature_cache = (self.delta_version, signatures)
        return signatures

    # ------------------------------------------------------------------ #
    # Per-attribute featurization views
    # ------------------------------------------------------------------ #
    def register_attribute(self, name: str, texts: Sequence[str | None]) -> None:
        """Attach a per-row textual attribute (description, brand, …).

        Registration only stores the texts; the sparse token view is built
        lazily on first :meth:`attribute_view` access and cached, so every
        matcher sharing the engine tokenizes each attribute at most once.
        """
        texts = list(texts)
        if len(texts) != len(self):
            raise ValueError(
                f"attribute {name!r} has {len(texts)} rows, engine has {len(self)}"
            )
        self._attributes[name] = texts
        self._attribute_views.pop(name, None)

    def has_attribute(self, name: str) -> bool:
        return name == "title" or name in self._attributes

    def attribute_names(self) -> tuple[str, ...]:
        return ("title", *self._attributes)

    def attribute_view(self, name: str = "title") -> AttributeView:
        """The cached sparse token view over ``name``'s texts.

        ``"title"`` wraps this engine's own incidence matrix (no extra
        tokenization); other attributes must have been registered.
        """
        cached = self._attribute_views.get(name)
        if cached is None:
            if name in self._attributes:
                cached = AttributeView(self._attributes[name])
            elif name == "title":
                cached = AttributeView.over_engine_titles(self)
            else:
                raise KeyError(
                    f"unknown attribute {name!r}; registered: {self.attribute_names()}"
                )
            self._attribute_views[name] = cached
        return cached

    def pair_features_batch(
        self,
        pairs: Sequence[tuple[int, int]],
        *,
        attribute: str = "title",
        metrics: Sequence[str] = TOKEN_METRICS,
    ) -> np.ndarray:
        """Token-set metric features for N explicit ``(row_a, row_b)`` pairs.

        Returns a ``(len(pairs), len(metrics))`` block computed by the
        attribute's sparse pair kernel — the batched replacement for
        calling the scalar metric functions pair by pair.
        """
        pair_array = np.asarray(list(pairs), dtype=np.intp).reshape(-1, 2)
        return self.attribute_view(attribute).pair_metrics(
            pair_array[:, 0], pair_array[:, 1], metrics
        )

    # ------------------------------------------------------------------ #
    # Batched query-vs-universe scoring
    # ------------------------------------------------------------------ #
    def _require_embeddings(self) -> np.ndarray:
        if self._embeddings is None:
            raise ValueError("engine built without an embedding model")
        if self._embeddings_stale:
            raise ValueError(
                "embeddings are stale after append(); call "
                "refresh_embeddings() to rebuild the LSA space"
            )
        return self._embeddings

    def scores_batch(self, query_indices: Sequence[int], metric: str) -> np.ndarray:
        """``(len(queries), len(universe))`` similarity block for ``metric``.

        Generalized Jaccard scores are exact on each query's top
        ``prefilter`` cosine candidates and fall back to plain Jaccard (a
        lower bound) elsewhere — identical to the semantics the pair
        generator has always used for top-k search.
        """
        queries = np.asarray(list(query_indices), dtype=np.intp)
        if queries.size == 0:
            return np.zeros((0, len(self)), dtype=np.float64)
        if metric == "lsa_embedding":
            embeddings = self._require_embeddings()
            raw = embeddings[queries] @ embeddings.T
            return np.clip(raw, 0.0, 1.0)
        return self._query_scores(
            self._matrix[queries],
            self._set_sizes[queries],
            metric,
            lambda positions, candidates: self.generalized_jaccard_pairs(
                queries[positions], candidates
            ),
        )

    def scores(self, query_index: int, metric: str) -> np.ndarray:
        """Similarity of one query title to every title in the universe."""
        return self.scores_batch([query_index], metric)[0]

    def generalized_jaccard_pairs(
        self, rows_a: Sequence[int], rows_b: Sequence[int]
    ) -> np.ndarray:
        """Exact Generalized Jaccard of aligned row pairs, batched and cached.

        Pairs are deduped on the corpus-global canonical token-set ids (so
        duplicate titles score once) and served through the per-corpus
        bounded cache every view shares.  Misses are scored straight off
        the CSR token columns, with Jaro–Winkler token-pair scores from
        the corpus token table; see
        :func:`~repro.similarity.features.generalized_jaccard_batch`.
        """
        rows_a = np.asarray(rows_a, dtype=np.intp).ravel()
        rows_b = np.asarray(rows_b, dtype=np.intp).ravel()
        return generalized_jaccard_batch(
            rows_a,
            rows_b,
            keys=(self._token_keys[rows_a], self._token_keys[rows_b]),
            cache=self._gj_cache,
            table=self._token_table,
            columns=(self._matrix.indptr, self._matrix.indices),
        )

    def _query_scores(
        self,
        query_matrix: csr_matrix,
        query_sizes: np.ndarray,
        metric: str,
        rescore: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """Token-metric scores of query rows against the universe.

        The one block scorer behind :meth:`scores_batch` and
        :meth:`external_scores_batch`, which differ only in where query
        rows come from: ``query_matrix`` holds them as incidence rows in
        this engine's column space, ``query_sizes`` their set sizes, and
        ``rescore(positions, rows)`` is the exact Generalized Jaccard of
        aligned (query position, universe row) pairs.  Chunks of
        ``_BATCH_ROWS`` queries keep the dense block bounded.
        """
        if metric not in _TOKEN_SCORED:
            raise ValueError(f"unknown metric: {metric!r}")
        n_queries = query_matrix.shape[0]
        out = np.empty((n_queries, len(self)), dtype=np.float64)
        sizes = self._set_sizes[None, :]
        for start in range(0, n_queries, _BATCH_ROWS):
            rows = slice(start, min(start + _BATCH_ROWS, n_queries))
            intersections = np.asarray(
                (query_matrix[rows] @ self._matrix.T).todense()
            )
            if metric == "generalized_jaccard":
                out[rows] = self._prefiltered_gj(
                    intersections,
                    query_sizes[rows, None],
                    lambda positions, candidates: rescore(
                        positions + start, candidates
                    ),
                )
            else:
                out[rows] = token_metric(
                    metric, intersections, query_sizes[rows, None], sizes
                )
        return out

    def _prefiltered_gj(
        self,
        intersections: np.ndarray,
        query_sizes: np.ndarray,
        rescore: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """Generalized Jaccard of one query block against the universe.

        Exact — ``rescore`` of aligned (query position, universe row)
        pairs — on each query's top ``prefilter`` cosine candidates, plain
        Jaccard (a lower bound) elsewhere.  Outside the prefilter two
        empty sets score 0.0, as they always have, while exact GJ scores
        them 1.0.  The rescored values do not depend on the partition
        order, only on which candidates fall inside the prefilter.
        """
        sizes = self._set_sizes[None, :]
        scores = token_metric("jaccard", intersections, query_sizes, sizes)
        scores[(query_sizes == 0.0) & (sizes == 0.0)] = 0.0
        cosine = token_metric("cosine", intersections, query_sizes, sizes)
        # Retired rows never occupy prefilter slots: a cold rebuild of
        # the live corpus has no such columns, and the delta-parity pin
        # requires both paths to rescore the same candidate set.
        if self._retired is not None:
            cosine[:, self._retired] = -np.inf
        prefilter = min(self.prefilter, self.live_count)
        if prefilter <= 0:
            return scores
        if prefilter < cosine.shape[1]:
            top_block = np.argpartition(-cosine, prefilter - 1, axis=1)[:, :prefilter]
        else:
            top_block = np.broadcast_to(
                np.arange(cosine.shape[1]), cosine.shape
            )
        n_queries, width = top_block.shape
        positions = np.repeat(np.arange(n_queries), width)
        candidates = np.ascontiguousarray(top_block).ravel()
        scores[positions, candidates] = rescore(positions, candidates)
        return scores

    # ------------------------------------------------------------------ #
    # Top-k retrieval
    # ------------------------------------------------------------------ #
    def _top_k(
        self,
        n_queries: int,
        score_block: Callable[[slice], np.ndarray],
        k: int,
    ) -> TopK:
        """The top ``k`` live rows of every query, as :class:`TopK` columns.

        The one selection loop behind :meth:`top_k_scores_batch` and
        :meth:`external_top_k_batch`: ``score_block(rows)`` scores the
        queries ``rows`` (a slice) against the universe with the caller's
        own exclusions already at ``-inf``; retired rows are excluded
        here.  Chunked so the dense score block stays bounded regardless
        of the number of queries; each chunk is selected whole by
        :func:`_block_top_k`.
        """
        parts = []
        for start in range(0, n_queries, _BATCH_ROWS):
            block = score_block(slice(start, min(start + _BATCH_ROWS, n_queries)))
            if self._retired is not None:
                block[:, self._retired] = -np.inf
            query, row, score, rank = _block_top_k(block, k)
            parts.append((query + start, row, score, rank))
        if not parts:
            empty = np.empty(0, dtype=np.intp)
            return TopK(empty, empty, np.empty(0, dtype=np.float64), empty, 0)
        columns = (np.concatenate(column) for column in zip(*parts))
        return TopK(*columns, n_queries)

    def top_k_batch(
        self,
        query_indices: Sequence[int],
        metric: str,
        *,
        k: int,
        exclude: np.ndarray | None = None,
        exclude_groups: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> list[list[int]]:
        """Per-query top-``k`` most similar titles under ``metric``.

        ``exclude`` is an optional boolean mask, either one row of shape
        ``(len(universe),)`` shared by all queries or one row per query of
        shape ``(len(queries), len(universe))``.  ``exclude_groups`` is the
        memory-bounded alternative for the common "skip my own cluster"
        case: a ``(query_group_ids, universe_group_ids)`` pair of integer
        arrays under which each query excludes every universe row sharing
        its group id.  The comparison happens per score chunk, so no
        ``(len(queries), len(universe))`` boolean matrix is ever
        materialized.  Each query always excludes itself.
        """
        return [
            indices
            for indices, _ in self.top_k_scores_batch(
                query_indices, metric, k=k, exclude=exclude,
                exclude_groups=exclude_groups,
            )
        ]

    def top_k_scores_batch(
        self,
        query_indices: Sequence[int],
        metric: str,
        *,
        k: int,
        exclude: np.ndarray | None = None,
        exclude_groups: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> TopK:
        """:meth:`top_k_batch` plus each candidate's similarity score.

        Returns a :class:`TopK`: one ``(indices, scores)`` pair per query
        with ``scores`` aligned to ``indices``, backed by flat query /
        row / score / rank columns — the entry point for consumers
        (candidate blocking) that need the ranked scores as arrays, not
        just the ranking.
        """
        queries = np.asarray(list(query_indices), dtype=np.intp)
        mask = None
        if exclude is not None:
            mask = np.asarray(exclude, dtype=bool)
            if mask.ndim == 1:
                mask = np.broadcast_to(mask, (queries.size, len(self)))
        query_groups = universe_groups = None
        if exclude_groups is not None:
            query_groups = np.asarray(exclude_groups[0]).ravel()
            universe_groups = np.asarray(exclude_groups[1]).ravel()
            if query_groups.size != queries.size:
                raise ValueError(
                    f"exclude_groups has {query_groups.size} query groups, "
                    f"got {queries.size} queries"
                )
            if universe_groups.size != len(self):
                raise ValueError(
                    f"exclude_groups covers {universe_groups.size} universe "
                    f"rows, engine has {len(self)}"
                )

        def score_block(rows: slice) -> np.ndarray:
            block = self.scores_batch(queries[rows], metric)
            # Each query excludes itself.
            block[np.arange(block.shape[0]), queries[rows]] = -np.inf
            if mask is not None:
                block[mask[rows]] = -np.inf
            if universe_groups is not None:
                block[query_groups[rows, None] == universe_groups[None, :]] = -np.inf
            return block

        return self._top_k(queries.size, score_block, k)

    def top_k(
        self,
        query_index: int,
        metric: str,
        *,
        k: int,
        exclude: np.ndarray | None = None,
    ) -> list[int]:
        """Indices of the ``k`` most similar titles under ``metric``."""
        return self.top_k_batch([query_index], metric, k=k, exclude=exclude)[0]

    # ------------------------------------------------------------------ #
    # External queries: token sets outside the universe
    # ------------------------------------------------------------------ #
    def external_scores_batch(
        self, token_sets: Sequence[set[str]], metric: str
    ) -> np.ndarray:
        """``(len(queries), len(universe))`` scores for external token sets.

        Same semantics as :meth:`scores_batch` for the token metrics
        (Generalized Jaccard rescored exactly on the cosine prefilter,
        Jaccard fallback elsewhere); ``lsa_embedding`` is unsupported —
        external titles have no vector in the corpus-fitted LSA space.
        Retired rows keep their scores here (exclusion happens in
        :meth:`external_top_k_batch`) but never occupy prefilter slots.
        """
        queries = [set(tokens) for tokens in token_sets]
        if not queries:
            return np.zeros((0, len(self)), dtype=np.float64)
        if metric == "lsa_embedding":
            raise ValueError(
                "external queries serve token metrics only (no external "
                "title has a vector in the corpus-fitted LSA space)"
            )
        # Out-of-vocabulary query tokens intersect no corpus row but still
        # count toward the query's set size, so external scores equal
        # what append() -> score -> retire() would produce: the identity
        # the serving layer's parity pin rests on.
        query_matrix, query_sizes = token_incidence(
            queries, self.vocabulary, grow=False, width=self._matrix.shape[1]
        )
        corpus_sets = self.token_sets
        # Uncached exact rescoring: external queries have no canonical
        # key (assigning one would mutate shared cache state from the
        # read path), and the values are exact either way.
        return self._query_scores(
            query_matrix,
            query_sizes,
            metric,
            lambda positions, candidates: generalized_jaccard_batch(
                [queries[q] for q in positions.tolist()],
                [corpus_sets[row] for row in candidates.tolist()],
            ),
        )

    def external_top_k_batch(
        self, token_sets: Sequence[set[str]], metric: str, *, k: int
    ) -> TopK:
        """Per-query ``(indices, scores)`` over the live universe.

        The serving-layer entry point: queries are token sets of titles
        *not* in the universe, so there is no self-exclusion — an exact
        duplicate of a corpus title scores 1.0 and is returned.  Retired
        rows are excluded.
        """
        queries = [set(tokens) for tokens in token_sets]
        return self._top_k(
            len(queries),
            lambda rows: self.external_scores_batch(queries[rows], metric),
            k,
        )

    # ------------------------------------------------------------------ #
    # Exact subset scoring (selection and splitting)
    # ------------------------------------------------------------------ #
    def _exact_subset_scores(
        self, query_index: int, candidates: np.ndarray, metric: str
    ) -> np.ndarray:
        """Exact scores of ``query_index`` against explicit candidate rows.

        Unlike :meth:`scores_batch`, Generalized Jaccard is exact for every
        candidate here: candidate subsets on the selection/splitting path
        are small (a DBSCAN group or one cluster's offers), and the paper
        scores them exactly.
        """
        if metric == "lsa_embedding":
            embeddings = self._require_embeddings()
            raw = embeddings[candidates] @ embeddings[query_index]
            return np.clip(raw, 0.0, 1.0)
        if metric == "generalized_jaccard":
            return self.generalized_jaccard_pairs(
                np.full(candidates.size, query_index, dtype=np.intp), candidates
            )
        if metric not in _TOKEN_SCORED:
            raise ValueError(f"unknown metric: {metric!r}")
        intersections = np.asarray(
            (self._matrix[candidates] @ self._matrix[query_index].T).todense()
        ).ravel()
        return token_metric(
            metric,
            intersections,
            self._set_sizes[candidates],
            self._set_sizes[query_index],
        )

    def rank(
        self, query_index: int, candidate_indices: Sequence[int], metric: str
    ) -> list[tuple[int, float]]:
        """Rank candidate rows by descending exact similarity to the query.

        Returns ``(position, score)`` pairs where ``position`` indexes into
        ``candidate_indices``; ties break toward the earlier position, the
        ordering :class:`~repro.similarity.registry.SimilarityRegistry` has
        always produced.
        """
        candidates = np.asarray(list(candidate_indices), dtype=np.intp)
        if candidates.size == 0:
            return []
        scores = self._exact_subset_scores(query_index, candidates, metric)
        order = np.lexsort((np.arange(candidates.size), -scores))
        return [(int(pos), float(scores[pos])) for pos in order]

    def pairwise_matrix(self, indices: Sequence[int], metric: str) -> np.ndarray:
        """Exact symmetric similarity matrix of the given rows.

        The diagonal is fixed at 1.0 (every title matches itself), matching
        the registry's historical ``pairwise_scores`` contract.
        """
        rows = np.asarray(list(indices), dtype=np.intp)
        m = rows.size
        if m == 0:
            return np.zeros((0, 0), dtype=np.float64)
        if metric == "lsa_embedding":
            embeddings = self._require_embeddings()[rows]
            matrix = np.clip(embeddings @ embeddings.T, 0.0, 1.0)
        elif metric == "generalized_jaccard":
            matrix = np.zeros((m, m), dtype=np.float64)
            upper_i, upper_j = np.triu_indices(m, k=1)
            if upper_i.size:
                scores = self.generalized_jaccard_pairs(
                    rows[upper_i], rows[upper_j]
                )
                matrix[upper_i, upper_j] = scores
                matrix[upper_j, upper_i] = scores
        elif metric in _TOKEN_SCORED:
            block = self._matrix[rows]
            sizes = self._set_sizes[rows]
            matrix = token_metric(
                metric,
                np.asarray((block @ block.T).todense()),
                sizes[:, None],
                sizes[None, :],
            )
        else:
            raise ValueError(f"unknown metric: {metric!r}")
        np.fill_diagonal(matrix, 1.0)
        return matrix
