"""Batched featurization kernels shared by the matcher stack.

The Section-5 matchers historically scored every pair with scalar metric
functions — quadratic Python-call overhead on top of work that is, per
pair, a handful of arithmetic operations.  This module provides the
corpus-level counterpart of :class:`~repro.similarity.engine.SimilarityEngine`
for *pair-shaped* workloads:

* :func:`token_incidence`, :func:`canonical_keys` and
  :func:`token_metric` — the scoring core every engine path shares: the
  one builder of binary token-incidence matrices, the one canonical
  token-set id assignment, and the one broadcasting formula for the
  Jaccard, cosine, Dice and overlap metrics with the scalar empty-set
  rules.
* :class:`AttributeView` — a sparse token-incidence view over one textual
  attribute (title, description, brand, a serialized offer, …).  All
  token-set metrics of N explicit pairs (Jaccard, cosine, Dice, overlap)
  come out of one sparse row-product per chunk instead of N Python calls,
  and :meth:`AttributeView.hashed_incidence` folds the view's vocabulary
  through a :class:`~repro.text.vectorize.HashingVectorizer` once so binary
  hashed features are a sparse matmul away.
* :func:`levenshtein_similarity_batch` — a chunked NumPy edit-distance DP
  over padded char-code arrays.  The row recurrence's left-to-right
  dependency is resolved with a prefix-minimum scan, so each DP row is one
  vectorized step over the whole batch.
* :func:`jaro_winkler_similarity_batch` — the standard greedy Jaro match
  loop run position-wise across the batch (the per-string inner scan
  becomes a masked argmax), followed by vectorized transposition counting
  and prefix boosting.
* :func:`generalized_jaccard_batch` — Generalized Jaccard with soft token
  matching over N explicit pairs, computed on CSR token columns.
  Requested pairs are deduped by canonical token-set key, shared tokens
  drop out by sorted membership, every symmetric-difference token pair is
  scored through a :class:`TokenTable` (lexicographic column ranks plus a
  Jaro–Winkler token-pair cache; only misses reach
  :func:`jaro_winkler_similarity_batch`), and the greedy threshold
  matching runs as a masked argmax across all pairs at once.
  :class:`BoundedPairCache` is its thread-safe, bounded score cache.  Both
  caches belong to one corpus and are shared by every engine view.

All kernels are drop-in parity replacements for the scalar functions in
``similarity/token_based.py`` and ``similarity/character_based.py``; the
test-suite pins them together at 1e-9.
"""

from __future__ import annotations

import threading
from collections.abc import Collection, Iterable, Sequence
from itertools import islice

import numpy as np
from scipy.sparse import csr_matrix

from repro.similarity.token_based import DEFAULT_SOFT_THRESHOLD
from repro.text.tokenize import tokenize

__all__ = [
    "AttributeView",
    "BoundedPairCache",
    "TOKEN_METRICS",
    "TokenTable",
    "CanonicalKeys",
    "canonical_keys",
    "generalized_jaccard_batch",
    "levenshtein_similarity_batch",
    "jaro_winkler_similarity_batch",
    "token_incidence",
    "token_metric",
]

TOKEN_METRICS = ("jaccard", "cosine", "dice", "overlap")

_PAIR_CHUNK = 8192  # rows per sparse pair-product block
_CHAR_CHUNK = 2048  # strings per char-kernel DP block
_GREEDY_CELL_BUDGET = 1 << 23  # dense cells per greedy-matching block (~64 MB)


# --------------------------------------------------------------------- #
# Token incidence and token-set metrics
# --------------------------------------------------------------------- #
def token_incidence(
    token_sets: Sequence[Collection[str]],
    vocabulary: dict[str, int],
    *,
    grow: bool = True,
    width: int | None = None,
) -> tuple[csr_matrix, np.ndarray]:
    """Binary ``(len(token_sets), width)`` token incidence plus set sizes.

    Columns are ``vocabulary`` ids.  With ``grow`` an unseen token gets
    the next id in first-seen order (``vocabulary`` is extended in
    place); without it the token is left out of the matrix but still
    counts toward its row's set size, as an out-of-vocabulary query
    token should.  ``width`` defaults to the vocabulary size (at least 1);
    a known token whose id is ``>= width`` counts as out of vocabulary
    too (an engine view keeps its creation-time width while its root's
    shared vocabulary grows).
    """
    rows: list[int] = []
    cols: list[int] = []
    for row, tokens in enumerate(token_sets):
        for token in tokens:
            col = vocabulary.get(token)
            if col is None:
                if not grow:
                    continue
                col = vocabulary[token] = len(vocabulary)
            elif width is not None and col >= width:
                continue
            rows.append(row)
            cols.append(col)
    matrix = csr_matrix(
        (np.ones(len(rows)), (rows, cols)),
        shape=(len(token_sets), max(len(vocabulary), 1) if width is None else width),
        dtype=np.float64,
    )
    sizes = np.array([len(tokens) for tokens in token_sets], dtype=np.float64)
    return matrix, sizes


class CanonicalKeys(dict):
    """``frozenset(tokens) -> id`` map that carries its next free id.

    The next id is found once, when the map is built; from then on
    :func:`canonical_keys` keeps it current, so assigning ids to a delta
    costs O(delta) instead of a scan over every known set.
    """

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.next_key = max(self.values(), default=-1) + 1


def canonical_keys(
    token_sets: Iterable[Collection[str]], canon: CanonicalKeys | None = None
) -> np.ndarray:
    """One id per token set: equal sets share an id across calls.

    ``canon`` maps each known ``frozenset`` to its id and is extended in
    place (a fresh map when omitted); a new set takes its next free id.
    """
    if canon is None:
        canon = CanonicalKeys()
    next_key = canon.next_key
    keys: list[int] = []
    for tokens in token_sets:
        frozen = frozenset(tokens)
        key = canon.get(frozen)
        if key is None:
            key = canon[frozen] = next_key
            next_key += 1
        keys.append(key)
    canon.next_key = next_key
    return np.array(keys, dtype=np.intp)


def token_metric(
    metric: str, inter: np.ndarray, sizes_a: np.ndarray, sizes_b: np.ndarray
) -> np.ndarray:
    """One token-set metric from intersection counts and set sizes.

    Arguments broadcast, so the same formula scores aligned pairs, one
    query against candidates, or a whole query block against a universe.
    Set sizes are whole numbers, so clamping a denominator at 1 changes
    nothing but the empty cases, which follow the scalar metrics: Jaccard
    and Dice of two empty sets are 1.0, cosine and overlap with an empty
    side are 0.0 (the intersection is 0 there).
    """
    if metric == "cosine":
        return inter / np.sqrt(np.maximum(sizes_a * sizes_b, 1.0))
    if metric == "dice":
        total = sizes_a + sizes_b
        return np.where(total == 0.0, 1.0, 2.0 * inter / np.maximum(total, 1.0))
    if metric == "jaccard":
        union = sizes_a + sizes_b - inter
        return np.where(union == 0.0, 1.0, inter / np.maximum(union, 1.0))
    if metric == "overlap":
        return inter / np.maximum(np.minimum(sizes_a, sizes_b), 1.0)
    raise ValueError(f"unknown token metric: {metric!r}")


# --------------------------------------------------------------------- #
# Sparse per-attribute token views
# --------------------------------------------------------------------- #
class AttributeView:
    """Sparse token-incidence view over one textual attribute.

    ``texts`` may contain ``None`` for missing values; those rows have an
    empty token set and ``present`` False.  Presence follows the *raw*
    string truthiness (an all-punctuation description is present but
    tokenizes to an empty set), matching the scalar featurizers' branch
    conditions exactly.
    """

    def __init__(self, texts: Sequence[str | None]) -> None:
        texts = ["" if text is None else text for text in texts]
        token_sets = [set(tokenize(text)) for text in texts]
        vocabulary: dict[str, int] = {}
        matrix, set_sizes = token_incidence(token_sets, vocabulary)
        self._init_parts(texts, token_sets, list(vocabulary), matrix, set_sizes)

    def _init_parts(
        self,
        texts: list[str],
        token_sets: list[set[str]],
        vocabulary: list[str],
        matrix: csr_matrix,
        set_sizes: np.ndarray,
    ) -> None:
        self.texts = texts
        self.present = np.array([bool(text) for text in texts], dtype=bool)
        self.token_sets = token_sets
        self._vocabulary = vocabulary
        self._matrix = matrix
        self._set_sizes = set_sizes
        self._hashed: dict[tuple[int, int], csr_matrix] = {}

    @classmethod
    def _from_parts(cls, *parts) -> "AttributeView":
        view = cls.__new__(cls)
        view._init_parts(*parts)
        return view

    @classmethod
    def over_engine_titles(cls, engine) -> "AttributeView":
        """A view sharing a :class:`SimilarityEngine`'s title precomputation."""
        return cls._from_parts(
            list(engine.titles),
            engine.token_sets,
            list(engine.vocabulary),  # insertion order == column order
            engine._matrix,
            engine._set_sizes,
        )

    def slice(self, rows: np.ndarray) -> "AttributeView":
        """A sub-view over ``rows`` sharing this view's tokenization."""
        rows = np.asarray(rows, dtype=np.intp)
        return AttributeView._from_parts(
            [self.texts[int(i)] for i in rows],
            [self.token_sets[int(i)] for i in rows],
            self._vocabulary,
            self._matrix[rows],
            self._set_sizes[rows],
        )

    def __len__(self) -> int:
        return len(self.texts)

    def pair_metrics(
        self,
        rows_a: Sequence[int],
        rows_b: Sequence[int],
        metrics: Sequence[str] = TOKEN_METRICS,
    ) -> np.ndarray:
        """``(len(pairs), len(metrics))`` token-set scores for explicit pairs.

        Intersection counts come from chunked sparse row products; every
        metric then reduces to :func:`token_metric` on the counts and the
        per-row set sizes, with the scalar metrics' empty-set semantics.
        """
        unknown = set(metrics) - set(TOKEN_METRICS)
        if unknown:
            raise ValueError(f"unknown token metrics: {sorted(unknown)!r}")
        rows_a = np.asarray(list(rows_a), dtype=np.intp)
        rows_b = np.asarray(list(rows_b), dtype=np.intp)
        if rows_a.shape != rows_b.shape:
            raise ValueError("rows_a and rows_b must be aligned")
        n = rows_a.size
        out = np.empty((n, len(metrics)), dtype=np.float64)
        for start in range(0, n, _PAIR_CHUNK):
            chunk_a = rows_a[start : start + _PAIR_CHUNK]
            chunk_b = rows_b[start : start + _PAIR_CHUNK]
            left = self._matrix[chunk_a]
            right = self._matrix[chunk_b]
            inter = np.asarray(left.multiply(right).sum(axis=1)).ravel()
            sizes_a = self._set_sizes[chunk_a]
            sizes_b = self._set_sizes[chunk_b]
            for col, metric in enumerate(metrics):
                out[start : start + _PAIR_CHUNK, col] = token_metric(
                    metric, inter, sizes_a, sizes_b
                )
        return out

    def hashed_incidence(self, vectorizer) -> csr_matrix:
        """Binary ``(rows, n_features)`` bucket incidence under ``vectorizer``.

        The view's vocabulary is hashed once; the per-row incidence is then
        the sparse product of the token-incidence matrix with the
        (vocab x buckets) selection matrix.  Equals
        ``HashingVectorizer.transform`` row-for-row, cached per
        ``(n_features, seed)``.
        """
        key = (vectorizer.n_features, vectorizer.seed)
        cached = self._hashed.get(key)
        if cached is None:
            n_tokens = len(self._vocabulary)
            buckets = vectorizer.token_buckets(self._vocabulary)
            selector = csr_matrix(
                (np.ones(n_tokens), (np.arange(n_tokens), buckets)),
                shape=(max(n_tokens, 1), vectorizer.n_features),
                dtype=np.float64,
            )
            cached = (self._matrix @ selector).tocsr()
            cached.data = np.ones_like(cached.data)
            self._hashed[key] = cached
        return cached


# --------------------------------------------------------------------- #
# Chunked char-array kernels
# --------------------------------------------------------------------- #
def _encode_strings(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Pad ``strings`` into an int32 code-point matrix (+1 so 0 is padding).

    The whole chunk is encoded as one concatenated UTF-32 buffer and
    scattered into the padded matrix by offset — one ``encode`` per chunk
    instead of one per string.
    """
    lens = np.array([len(s) for s in strings], dtype=np.intp)
    width = max(int(lens.max()) if lens.size else 0, 1)
    codes = np.zeros((len(strings), width), dtype=np.int32)
    joined = "".join(strings)
    if joined:
        flat = (
            np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32).astype(
                np.int32
            )
            + 1
        )
        offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
        rows = np.repeat(np.arange(len(strings)), lens)
        codes[rows, np.arange(len(joined)) - offsets[rows]] = flat
    return codes, lens


def levenshtein_similarity_batch(
    lefts: Sequence[str], rights: Sequence[str]
) -> np.ndarray:
    """Vectorized ``levenshtein_similarity`` over aligned string pairs.

    The classic DP runs one row per left-hand character, with the row's
    sequential ``current[j-1]`` dependency eliminated analytically:
    ``current[j] = j + min_{k<=j}(candidate[k] - k)`` is a prefix-minimum
    scan, so every row is a constant number of whole-batch NumPy ops.
    """
    if len(lefts) != len(rights):
        raise ValueError("left and right string lists must be aligned")
    n = len(lefts)
    out = np.empty(n, dtype=np.float64)
    for start in range(0, n, _CHAR_CHUNK):
        chunk_l = list(lefts[start : start + _CHAR_CHUNK])
        chunk_r = list(rights[start : start + _CHAR_CHUNK])
        distances = _levenshtein_distance_block(chunk_l, chunk_r)
        longest = np.maximum(
            np.array([len(s) for s in chunk_l], dtype=np.float64),
            np.array([len(s) for s in chunk_r], dtype=np.float64),
        )
        block = np.where(
            longest == 0.0, 1.0, 1.0 - distances / np.maximum(longest, 1.0)
        )
        out[start : start + _CHAR_CHUNK] = block
    return out


def _levenshtein_distance_block(
    lefts: list[str], rights: list[str]
) -> np.ndarray:
    left_codes, left_lens = _encode_strings(lefts)
    right_codes, right_lens = _encode_strings(rights)
    n = left_codes.shape[0]
    width_r = right_codes.shape[1]
    col = np.arange(width_r + 1, dtype=np.int32)
    previous = np.broadcast_to(col, (n, width_r + 1)).copy()
    out = right_lens.astype(np.int32).copy()  # rows with empty left side
    max_len = int(left_lens.max()) if n else 0
    for i in range(1, max_len + 1):
        cost = (right_codes != left_codes[:, i - 1 : i]).astype(np.int32)
        candidate = np.minimum(previous[:, 1:] + 1, previous[:, :-1] + cost)
        candidate = np.concatenate(
            [np.full((n, 1), i, dtype=np.int32), candidate], axis=1
        )
        current = np.minimum.accumulate(candidate - col, axis=1) + col
        finished = np.flatnonzero(left_lens == i)
        if finished.size:
            out[finished] = current[finished, right_lens[finished]]
        previous = current
    return out.astype(np.float64)


def jaro_winkler_similarity_batch(
    lefts: Sequence[str],
    rights: Sequence[str],
    *,
    prefix_scale: float = 0.1,
    max_prefix: int = 4,
) -> np.ndarray:
    """Vectorized ``jaro_winkler_similarity`` over aligned string pairs.

    The greedy match loop runs once per left-hand position with the
    per-string window scan expressed as a masked ``argmax`` across the
    batch; transpositions come from compacting matched characters with a
    cumulative-sum scatter.  Identical pairs short-circuit to 1.0 exactly
    like the scalar function (including two empty strings).
    """
    if len(lefts) != len(rights):
        raise ValueError("left and right string lists must be aligned")
    n = len(lefts)
    out = np.empty(n, dtype=np.float64)
    # Chunks of length-sorted pairs pad to their own longest string, not
    # the batch's; a pair's score does not depend on its chunk.
    longest = np.fromiter(
        (max(len(left), len(right)) for left, right in zip(lefts, rights)),
        dtype=np.intp,
        count=n,
    )
    order = np.argsort(longest, kind="stable").tolist()
    for start in range(0, n, _CHAR_CHUNK):
        rows = order[start : start + _CHAR_CHUNK]
        out[rows] = _jaro_winkler_block(
            [lefts[i] for i in rows],
            [rights[i] for i in rows],
            prefix_scale=prefix_scale,
            max_prefix=max_prefix,
        )
    return out


def _jaro_winkler_block(
    lefts: list[str],
    rights: list[str],
    *,
    prefix_scale: float,
    max_prefix: int,
) -> np.ndarray:
    left_codes, left_lens = _encode_strings(lefts)
    right_codes, right_lens = _encode_strings(rights)
    n, width_l = left_codes.shape
    width_r = right_codes.shape[1]

    window = np.maximum(np.maximum(left_lens, right_lens) // 2 - 1, 0)
    left_matched = np.zeros((n, width_l), dtype=bool)
    right_matched = np.zeros((n, width_r), dtype=bool)
    j_index = np.arange(width_r)
    for i in range(width_l):
        candidates = (
            (j_index >= (i - window)[:, None])
            & (j_index < np.minimum(i + window + 1, right_lens)[:, None])
            & ~right_matched
            & (right_codes == left_codes[:, i : i + 1])
            & (left_lens > i)[:, None]
        )
        first = candidates.argmax(axis=1)
        hit_rows = np.flatnonzero(candidates.any(axis=1))
        if hit_rows.size:
            right_matched[hit_rows, first[hit_rows]] = True
            left_matched[hit_rows, i] = True

    matches = left_matched.sum(axis=1)
    max_matches = int(matches.max()) if n else 0
    if max_matches:
        left_compact = _compact_matched(left_codes, left_matched, max_matches)
        right_compact = _compact_matched(right_codes, right_matched, max_matches)
        in_range = np.arange(max_matches) < matches[:, None]
        transpositions = ((left_compact != right_compact) & in_range).sum(axis=1) // 2
    else:
        transpositions = np.zeros(n, dtype=np.intp)

    safe_matches = np.maximum(matches, 1).astype(np.float64)
    jaro = (
        matches / np.maximum(left_lens, 1)
        + matches / np.maximum(right_lens, 1)
        + (matches - transpositions) / safe_matches
    ) / 3.0
    jaro = np.where(matches == 0, 0.0, jaro)
    equal = (left_lens == right_lens) & np.array(
        [left == right for left, right in zip(lefts, rights)]
    )
    jaro = np.where(equal, 1.0, jaro)

    prefix_width = min(max_prefix, width_l, width_r)
    if prefix_width > 0:
        agree = (
            (left_codes[:, :prefix_width] == right_codes[:, :prefix_width])
            & (np.arange(prefix_width) < np.minimum(left_lens, right_lens)[:, None])
        )
        prefix = np.cumprod(agree, axis=1).sum(axis=1)
    else:
        prefix = np.zeros(n, dtype=np.intp)
    return jaro + prefix * prefix_scale * (1.0 - jaro)


def _compact_matched(
    codes: np.ndarray, matched: np.ndarray, max_matches: int
) -> np.ndarray:
    """Gather matched char codes left-to-right into a dense (n, max) block."""
    positions = np.cumsum(matched, axis=1) - 1
    out = np.zeros((codes.shape[0], max_matches), dtype=codes.dtype)
    rows, cols = np.nonzero(matched)
    out[rows, positions[rows, cols]] = codes[rows, cols]
    return out


# --------------------------------------------------------------------- #
# Batched Generalized Jaccard
# --------------------------------------------------------------------- #
class BoundedPairCache:
    """Thread-safe bounded LRU cache over canonical ``(lo, hi)`` pair keys.

    One instance belongs to one corpus: keys must be stable across every
    consumer sharing the cache (the engine uses its corpus-global canonical
    token-set ids, which :meth:`SimilarityEngine.view` slices preserve), and
    all cached values must come from the same scoring configuration (the
    engine always scores at the default soft-match threshold).  Eviction is
    least-recently-used, so the hot pairs of concurrent ratio builds stay
    resident while one-off pairs age out.
    """

    def __init__(self, capacity: int = 1 << 20) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._data: dict[tuple[int, int], float] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get_many(
        self, keys: Iterable[tuple[int, int]]
    ) -> dict[tuple[int, int], float]:
        """The cached subset of ``keys``; every hit is marked recently used."""
        hits: dict[tuple[int, int], float] = {}
        with self._lock:
            data = self._data
            for key in keys:
                value = data.get(key)
                if value is not None:
                    del data[key]  # re-insert to refresh recency
                    data[key] = value
                    hits[key] = value
        return hits

    def put_many(
        self, items: Iterable[tuple[tuple[int, int], float]]
    ) -> None:
        with self._lock:
            data = self._data
            for key, value in items:
                data[key] = value
            excess = len(data) - self.capacity
            if excess > 0:
                for key in list(islice(iter(data), excess)):
                    del data[key]

    # The lock is process-local: engines (and their caches) cross process
    # boundaries when shard builds return from worker processes, so pickling
    # ships the cached scores and rebuilds a fresh lock on the other side.
    def __getstate__(self) -> dict:
        with self._lock:
            return {"capacity": self.capacity, "data": dict(self._data)}

    def __setstate__(self, state: dict) -> None:
        self.capacity = state["capacity"]
        self._data = state["data"]
        self._lock = threading.Lock()


class TokenTable:
    """Corpus-level token order plus a Jaro–Winkler token-pair cache.

    ``vocabulary`` lists the corpus tokens in column order (a
    ``token -> column`` dict iterates that way).  It may grow append-only —
    :meth:`SimilarityEngine.append` never moves an existing column — so
    the table re-derives its lexicographic rank per column lazily, the
    first time it is used after the vocabulary grew.  Ranks order the
    Generalized-Jaccard greedy's tie-breaks; the JW cache is keyed on
    column ids, which is why it survives a rank rebuild.

    Cached values are ``JW(lexicographically smaller token, larger
    token)`` — the orientation the scalar metric scores — under the
    unordered column pair packed into one int64.  The cache is a sorted
    key array searched with ``searchsorted``; once it would exceed
    ``capacity`` entries it restarts from the newest batch.  One table
    belongs to one corpus and is shared by every engine view over it.
    """

    def __init__(self, vocabulary: Collection[str], capacity: int = 1 << 20) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._vocabulary = vocabulary
        self._lock = threading.Lock()
        self._fill_lock = threading.Lock()
        self._tokens: list[str] = []
        self._ranks = np.empty(0, dtype=np.int64)  # column -> rank
        self._by_rank = np.empty(0, dtype=np.int64)  # rank -> column
        self._jw_keys = np.empty(0, dtype=np.int64)
        self._jw_values = np.empty(0, dtype=np.float64)

    def __len__(self) -> int:
        """Cached Jaro–Winkler token pairs."""
        with self._lock:
            return int(self._jw_keys.size)

    def ordering(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """``(tokens, rank of each column, column of each rank)``.

        Rebuilt only when the vocabulary has grown since the last call.
        The old order is one sorted run and appended columns (assigned in
        lexicographic order) another, so the re-sort is a linear merge.
        """
        with self._lock:
            known = len(self._tokens)
            if len(self._vocabulary) != known:
                tokens = list(self._vocabulary)
                by_rank = sorted(
                    [*self._by_rank.tolist(), *range(known, len(tokens))],
                    key=tokens.__getitem__,
                )
                self._by_rank = np.array(by_rank, dtype=np.int64)
                ranks = np.empty(len(tokens), dtype=np.int64)
                ranks[self._by_rank] = np.arange(len(tokens))
                self._ranks = ranks
                self._tokens = tokens
            return self._tokens, self._ranks, self._by_rank

    def jaro_winkler(
        self,
        cols_a: np.ndarray,
        cols_b: np.ndarray,
        tokens: list[str],
        ranks: np.ndarray,
    ) -> np.ndarray:
        """JW of aligned distinct column pairs; only misses are scored."""
        wanted = (np.minimum(cols_a, cols_b) << 32) | np.maximum(cols_a, cols_b)
        out = np.empty(wanted.size, dtype=np.float64)
        missed = self._lookup(wanted, out)
        if not missed.any():
            return out
        misses, where = np.unique(wanted[missed], return_inverse=True)
        scored = np.empty(misses.size, dtype=np.float64)
        # One thread scores at a time, so concurrent ratio builds do not
        # score the same token pairs twice; re-check what landed meanwhile.
        with self._fill_lock:
            todo = self._lookup(misses, scored)
            if todo.any():
                lo = misses[todo] >> 32
                hi = misses[todo] & 0xFFFFFFFF
                first = np.where(ranks[lo] < ranks[hi], lo, hi)
                scored[todo] = jaro_winkler_similarity_batch(
                    [tokens[i] for i in first.tolist()],
                    [tokens[i] for i in (lo + hi - first).tolist()],
                )
                self._insert(misses[todo], scored[todo])
        out[missed] = scored[where]
        return out

    def _lookup(self, keys: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with cached values of ``keys``; returns the misses."""
        with self._lock:
            cached, values = self._jw_keys, self._jw_values
        if cached.size == 0:
            return np.ones(keys.size, dtype=bool)
        # Binary searches run several times faster over sorted queries.
        order = np.argsort(keys)
        slots = np.empty(keys.size, dtype=np.intp)
        slots[order] = np.searchsorted(cached, keys[order])
        np.minimum(slots, cached.size - 1, out=slots)
        found = cached[slots] == keys
        out[found] = values[slots[found]]
        return ~found

    def _insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Merge sorted keys absent from the cache (caller holds the fill lock)."""
        with self._lock:
            if self._jw_keys.size + keys.size > self.capacity:
                self._jw_keys = keys[: self.capacity]
                self._jw_values = values[: self.capacity]
            else:
                slots = np.searchsorted(self._jw_keys, keys)
                self._jw_keys = np.insert(self._jw_keys, slots, keys)
                self._jw_values = np.insert(self._jw_values, slots, values)

    # Process-local locks, as in BoundedPairCache.
    def __getstate__(self) -> dict:
        with self._lock:
            state = dict(self.__dict__)
        del state["_lock"], state["_fill_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._fill_lock = threading.Lock()


TokenSets = Sequence[str | Iterable[str]]


def _as_token_set(value: str | Iterable[str]) -> set[str]:
    if isinstance(value, str):
        return set(tokenize(value))
    if isinstance(value, set):
        return value
    return set(value)


def generalized_jaccard_batch(
    lefts: TokenSets | Sequence[int],
    rights: TokenSets | Sequence[int],
    *,
    threshold: float = DEFAULT_SOFT_THRESHOLD,
    keys: tuple[Sequence[int], Sequence[int]] | None = None,
    cache: BoundedPairCache | None = None,
    table: TokenTable | None = None,
    columns: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Vectorized ``generalized_jaccard_similarity`` over aligned pairs.

    Two input forms share one kernel:

    * ``table`` plus ``columns=(indptr, indices)`` — the engine's form:
      ``lefts``/``rights`` are row ids into those CSR token columns, whose
      column ids index ``table``.
    * otherwise ``lefts``/``rights`` hold raw strings (tokenized
      internally) or token sets, scored through a throwaway table.

    ``keys`` are canonical token-set ids per side — rows with equal ids
    must have equal token sets — so duplicate titles score once; without
    them pairs are canonicalized by frozenset.  Each distinct unordered
    key pair is scored once, through ``cache`` when given.  The cache key
    is the canonical pair, so a cache requires corpus-stable ``keys`` (call-
    local ids would collide across calls) and a consistent ``threshold``.

    Identical tokens are matched outright; every symmetric-difference
    token pair is scored through ``table``'s Jaro–Winkler cache, and the
    greedy descending-score matching runs as a masked argmax across all
    set pairs at once.
    """
    if len(lefts) != len(rights):
        raise ValueError("left and right token-set lists must be aligned")
    if cache is not None and keys is None:
        raise ValueError("a shared cache needs corpus-stable keys")
    if (table is None) != (columns is None):
        raise ValueError("table and columns must be given together")
    n = len(lefts)
    if table is None:
        sets = [_as_token_set(value) for value in (*lefts, *rights)]
        if keys is None:
            ids = canonical_keys(sets)
            keys = (ids[:n], ids[n:])
        vocabulary: dict[str, int] = {}
        indices = np.fromiter(
            (vocabulary.setdefault(t, len(vocabulary)) for s in sets for t in s),
            dtype=np.int64,
        )
        indptr = np.zeros(2 * n + 1, dtype=np.int64)
        np.cumsum([len(s) for s in sets], out=indptr[1:])
        table = TokenTable(vocabulary)
        rows_a = np.arange(n, dtype=np.int64)
        rows_b = rows_a + n
    elif keys is None:
        raise ValueError("row-id input needs canonical token-set keys")
    else:
        indptr, indices = columns
        rows_a = np.asarray(lefts, dtype=np.int64).reshape(-1)
        rows_b = np.asarray(rights, dtype=np.int64).reshape(-1)
    keys_a = np.asarray(keys[0], dtype=np.int64)
    keys_b = np.asarray(keys[1], dtype=np.int64)
    if keys_a.shape != (n,) or keys_b.shape != (n,):
        raise ValueError("keys must align with the pair lists")
    out = np.empty(n, dtype=np.float64)
    if n == 0:
        return out

    sizes_a = indptr[rows_a + 1] - indptr[rows_a]
    sizes_b = indptr[rows_b + 1] - indptr[rows_b]
    both_empty = (sizes_a == 0) & (sizes_b == 0)
    any_empty = (sizes_a == 0) | (sizes_b == 0)
    identical = keys_a == keys_b
    out[any_empty] = 0.0
    out[both_empty] = 1.0
    # Identical non-empty sets match fully at any reachable threshold.  A
    # threshold above 1.0 rejects even identical tokens (scalar
    # semantics), so every non-empty pair then scores 0.0.
    out[identical & ~any_empty] = 1.0 if threshold <= 1.0 else 0.0
    hard = np.flatnonzero(~identical & ~any_empty)
    if hard.size == 0:
        return out
    if threshold > 1.0:
        out[hard] = 0.0
        return out

    # Dedup on canonical unordered key pairs; the first-seen orientation
    # of each distinct pair is the one scored, as the scalar cache did.
    lo = np.minimum(keys_a[hard], keys_b[hard])
    hi = np.maximum(keys_a[hard], keys_b[hard])
    distinct, first, slot_of = np.unique(
        (lo << 32) | hi, return_index=True, return_inverse=True
    )
    values = np.empty(distinct.size, dtype=np.float64)
    missing = np.arange(distinct.size)
    if cache is not None:
        pair_keys = list(
            zip((distinct >> 32).tolist(), (distinct & 0xFFFFFFFF).tolist())
        )
        hits = cache.get_many(pair_keys)
        values[:] = [hits.get(key, np.nan) for key in pair_keys]
        missing = np.flatnonzero(np.isnan(values))  # GJ is never NaN
    if missing.size:
        representatives = hard[first[missing]]
        computed = _generalized_jaccard_rows(
            rows_a[representatives],
            rows_b[representatives],
            indptr,
            indices,
            table,
            threshold=threshold,
        )
        values[missing] = computed
        if cache is not None:
            cache.put_many(
                zip((pair_keys[s] for s in missing.tolist()), computed.tolist())
            )
    out[hard] = values[slot_of]
    return out


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return starts


def _rank_keys(
    rows: np.ndarray, indptr: np.ndarray, indices: np.ndarray, ranks: np.ndarray
) -> np.ndarray:
    """Each row's token ranks as sorted ``pair * n_ranks + rank`` keys."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    pair = np.repeat(np.arange(rows.size, dtype=np.int64), lens)
    positions = np.arange(pair.size) + np.repeat(
        starts - _exclusive_cumsum(lens), lens
    )
    keys = pair * ranks.size + ranks[indices[positions]]
    keys.sort()
    return keys


def _sorted_member(values: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Which entries of ``values`` occur in the sorted array ``pool``."""
    if pool.size == 0:
        return np.zeros(values.size, dtype=bool)
    slots = np.minimum(np.searchsorted(pool, values), pool.size - 1)
    return pool[slots] == values


def _generalized_jaccard_rows(
    rows_a: np.ndarray,
    rows_b: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    table: TokenTable,
    *,
    threshold: float,
) -> np.ndarray:
    """Score distinct, non-trivial (non-empty, non-identical) row pairs.

    Shared tokens are matched outright (only score-1.0 pairs are
    identical-token pairs, and the greedy pass consumes them first), so
    the soft matching is restricted to the symmetric difference.  Each
    side's remaining tokens are sorted by lexicographic rank, so the
    flattened cross product runs in the (token_a, token_b) order of the
    scalar greedy's tie-break and the argmax picks the same pair.
    """
    tokens, ranks, by_rank = table.ordering()
    n_ranks = ranks.size
    n_pairs = rows_a.size
    side_a = _rank_keys(rows_a, indptr, indices, ranks)
    side_b = _rank_keys(rows_b, indptr, indices, ranks)
    shared_a = _sorted_member(side_a, side_b)
    shared_b = _sorted_member(side_b, side_a)
    common = np.bincount(side_a[shared_a] // n_ranks, minlength=n_pairs)
    mass = common.astype(np.float64)
    matches = common.copy()
    total_sizes = (
        np.bincount(side_a // n_ranks, minlength=n_pairs)
        + np.bincount(side_b // n_ranks, minlength=n_pairs)
    ).astype(np.float64)

    rest_a = side_a[~shared_a]
    rest_b = side_b[~shared_b]
    len_a = np.bincount(rest_a // n_ranks, minlength=n_pairs)
    len_b = np.bincount(rest_b // n_ranks, minlength=n_pairs)
    cols_a = by_rank[rest_a % n_ranks]
    cols_b = by_rank[rest_b % n_ranks]
    offsets_a = _exclusive_cumsum(len_a)
    offsets_b = _exclusive_cumsum(len_b)
    counts = len_a * len_b

    # The cross products are flattened row-major and cut into chunks whose
    # padded (pairs, rest_a, rest_b) block stays within a dense-cell
    # budget — one pathologically long title cannot inflate the padding
    # of thousands of small pairs into a multi-GB allocation.
    start = 0
    while start < n_pairs:
        window = slice(start, min(start + _PAIR_CHUNK, n_pairs))
        cells = (
            np.arange(1, window.stop - start + 1)
            * np.maximum.accumulate(len_a[window])
            * np.maximum.accumulate(len_b[window])
        )
        stop = start + max(1, int(np.searchsorted(cells, _GREEDY_CELL_BUDGET, "right")))
        chunk_counts = counts[start:stop]
        local = np.repeat(np.arange(stop - start), chunk_counts)
        within = np.arange(local.size) - _exclusive_cumsum(chunk_counts)[local]
        pair = local + start
        i_a = within // len_b[pair]
        i_b = within - i_a * len_b[pair]
        scores = table.jaro_winkler(
            cols_a[offsets_a[pair] + i_a], cols_b[offsets_b[pair] + i_b], tokens, ranks
        )
        keep = scores >= threshold
        if keep.any():
            _greedy_match(
                pair[keep], i_a[keep], i_b[keep], scores[keep], threshold, mass, matches
            )
        start = stop
    return mass / (total_sizes - matches)


def _greedy_match(
    pair: np.ndarray,
    i_a: np.ndarray,
    i_b: np.ndarray,
    scores: np.ndarray,
    threshold: float,
    mass: np.ndarray,
    matches: np.ndarray,
) -> None:
    """Greedy threshold matching, one masked argmax per round.

    ``scores`` are the token pairs at or above ``threshold``, at their
    cross-product positions ``(i_a, i_b)``; only pairs holding one enter
    the dense block.  Row-major argmax takes the first maximum, the
    scalar metric's (token_a, token_b) tie-break.  ``mass``/``matches``
    accumulate in place.
    """
    live, row = np.unique(pair, return_inverse=True)
    width_b = int(i_b.max()) + 1
    block = np.full((live.size, int(i_a.max()) + 1, width_b), -np.inf)
    block[row, i_a, i_b] = scores
    flat = block.reshape(live.size, -1)
    row_range = np.arange(live.size)
    while True:
        best = flat.argmax(axis=1)
        best_scores = flat[row_range, best]
        hit = np.flatnonzero(best_scores >= threshold)
        if hit.size == 0:
            break
        chosen = best[hit]
        mass[live[hit]] += best_scores[hit]
        matches[live[hit]] += 1
        block[hit, chosen // width_b, :] = -np.inf
        block[hit, :, chosen % width_b] = -np.inf
