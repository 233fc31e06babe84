"""The global signature index behind the cross-shard sweep.

The exhaustive sweep concatenates C(N, 2) engine pairs and runs a full
top-k join per pair — quadratic in shards and, within each pair, bilinear
in rows.  The signature index replaces that sweep's *universe* with the
rows that can actually collide.

Every shard contributes a
:class:`~repro.similarity.signatures.RowSignatures` summary (token
document counts + CSR row structure; built next to the shard, inside the
worker process that built it).  The index merges the counts into one
global frequency order and keeps, per shard, its prefix entries.  For a
shard pair, a row of shard ``i`` stays in the block only if one of its
prefix tokens also prefixes some row of shard ``j`` whose set size lies
inside the row's length window.  The check is exact per ``(token,
size)``: every shard's prefix entries are kept as a sorted array of
``token_id·M + set_size`` keys, so "does the other shard hold this token
at a compatible size" is one segmented binary search — nothing quadratic
is materialized.  A pair with an empty block on either side is skipped
outright (no engine is ever concatenated for it); otherwise the sweep
rescores only the surviving block through the ordinary
:class:`~repro.blocking.candidates.CandidateBlocker` /
:meth:`~repro.similarity.engine.SimilarityEngine.concat` path.

Soundness (see :mod:`repro.similarity.signatures`): any cross-shard
pair reaching the admission threshold under an exact-token metric keeps
both of its rows in the block, and restricting a top-k universe can
only promote surviving candidates — so the signature sweep's merged
candidates are a superset of every exhaustive-sweep pair above the
threshold.  Rows whose *every* counterpart scores below the threshold
are exactly the ones dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.similarity.signatures import (
    RowSignatures,
    global_token_order,
    length_window,
)

__all__ = ["SignatureIndex", "SweepPruneStats"]


@dataclass
class SweepPruneStats:
    """What one sweep pruned, pair by pair and in aggregate.

    ``rows_universe`` counts every row of every shard pair the sweep
    would visit exhaustively (a row is counted once per pair it appears
    in); ``rows_rescored`` counts the rows that survived into blocks.
    ``cells_universe`` / ``cells_rescored`` count the *bilinear* join
    cells (``|i|·|j|`` per pair) the same way — the quantity the pair
    joins actually spend their time on.  ``per_pair`` maps ``"<i>→<j>"``
    to either ``"skipped"`` or the block's row counts and rescored
    fraction.
    """

    mode: str
    threshold: float | None = None
    pairs_total: int = 0
    pairs_skipped: int = 0
    rows_universe: int = 0
    rows_rescored: int = 0
    cells_universe: int = 0
    cells_rescored: int = 0
    per_pair: dict[str, dict | str] = field(default_factory=dict)

    @property
    def pairs_swept(self) -> int:
        return self.pairs_total - self.pairs_skipped

    @property
    def pair_prune_ratio(self) -> float:
        """Fraction of shard pairs never concatenated."""
        if self.pairs_total == 0:
            return 0.0
        return self.pairs_skipped / self.pairs_total

    @property
    def row_prune_ratio(self) -> float:
        """Fraction of pair-sweep rows excluded from rescoring."""
        if self.rows_universe == 0:
            return 0.0
        return 1.0 - self.rows_rescored / self.rows_universe

    @property
    def cell_prune_ratio(self) -> float:
        """Fraction of bilinear join cells excluded from rescoring."""
        if self.cells_universe == 0:
            return 0.0
        return 1.0 - self.cells_rescored / self.cells_universe

    def as_dict(self) -> dict:
        """JSON-ready summary (what ``record_timings.py`` stores)."""
        return {
            "mode": self.mode,
            "threshold": self.threshold,
            "pairs_total": self.pairs_total,
            "pairs_skipped": self.pairs_skipped,
            "pairs_swept": self.pairs_swept,
            "pair_prune_ratio": self.pair_prune_ratio,
            "rows_universe": self.rows_universe,
            "rows_rescored": self.rows_rescored,
            "row_prune_ratio": self.row_prune_ratio,
            "cells_universe": self.cells_universe,
            "cells_rescored": self.cells_rescored,
            "cell_prune_ratio": self.cell_prune_ratio,
            "per_pair": dict(self.per_pair),
        }


class _ShardEntry:
    """One shard's merged-order signature structures.

    ``entry_keys`` encodes every prefix entry as ``token_id·M + size``
    (``M`` = one past the largest set size anywhere in the index) and is
    sorted, so a ``(token, size-window)`` probe against this shard is a
    pair of binary searches over one contiguous key segment.
    """

    __slots__ = (
        "rows",
        "global_ids",
        "set_sizes",
        "entry_keys",
        "size_modulus",
        "empty_rows",
        "n_rows",
    )

    def __init__(
        self,
        summary: RowSignatures,
        local_to_global: np.ndarray,
        threshold: float,
        size_modulus: int,
    ) -> None:
        self.n_rows = summary.n_rows
        self.set_sizes = summary.set_sizes
        self.size_modulus = size_modulus
        self.rows, self.global_ids = summary.prefix_entries(
            local_to_global, threshold
        )
        self.empty_rows = np.flatnonzero(summary.set_sizes == 0)
        if self.global_ids.size:
            sizes = summary.set_sizes[self.rows].astype(np.int64)
            self.entry_keys = np.sort(
                self.global_ids.astype(np.int64) * size_modulus + sizes
            )
        else:
            self.entry_keys = np.empty(0, dtype=np.int64)


class SignatureIndex:
    """Candidate row blocks of shard pairs from merged signatures.

    Built once per sweep from every universe's
    :class:`RowSignatures` summary; ``threshold`` is the top-k admission
    threshold the prefix lengths derive from (see
    :func:`~repro.similarity.signatures.prefix_lengths`).
    """

    def __init__(
        self,
        summaries: Sequence[RowSignatures],
        *,
        threshold: float,
    ) -> None:
        if not summaries:
            raise ValueError("SignatureIndex needs at least one summary")
        self.threshold = float(threshold)
        merged_counts: dict[str, int] = {}
        for summary in summaries:
            for token, count in summary.token_count_map().items():
                merged_counts[token] = merged_counts.get(token, 0) + count
        order = global_token_order(merged_counts)
        self.n_tokens = len(order)
        size_modulus = 2 + int(
            max(
                (
                    summary.set_sizes.max()
                    for summary in summaries
                    if summary.set_sizes.size
                ),
                default=0,
            )
        )
        self._entries: list[_ShardEntry] = []
        for summary in summaries:
            local_to_global = np.array(
                [order[token] for token in summary.tokens], dtype=np.intp
            )
            self._entries.append(
                _ShardEntry(
                    summary,
                    local_to_global,
                    self.threshold,
                    size_modulus,
                )
            )

    @property
    def n_shards(self) -> int:
        return len(self._entries)

    def _surviving_rows(self, entry, other) -> np.ndarray:
        """Rows of ``entry`` with a prefix/length collision into ``other``.

        A prefix entry ``(row, token)`` collides when ``other`` holds the
        same token in some prefix at a set size inside the row's length
        window — set sizes are integers, so the window ``[lo, hi]``
        becomes the key interval ``[token·M + ⌈lo⌉, token·M + ⌊hi⌋]`` and
        the existence check is two ``searchsorted`` calls against
        ``other.entry_keys``.
        """
        keep = np.zeros(entry.n_rows, dtype=bool)
        if entry.global_ids.size and other.entry_keys.size:
            modulus = entry.size_modulus
            lo, hi = length_window(entry.set_sizes, self.threshold)
            lo_size = np.maximum(np.ceil(lo[entry.rows]), 0.0).astype(
                np.int64
            )
            hi_size = np.minimum(
                np.floor(hi[entry.rows]), modulus - 1
            ).astype(np.int64)
            tokens = entry.global_ids.astype(np.int64) * modulus
            left = np.searchsorted(
                other.entry_keys, tokens + lo_size, side="left"
            )
            right = np.searchsorted(
                other.entry_keys, tokens + hi_size, side="right"
            )
            keep[entry.rows[right > left]] = True
        if other.empty_rows.size:
            keep[entry.empty_rows] = True
        return np.flatnonzero(keep)

    def candidate_block(
        self, i: int, j: int
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The row block of pair ``(i, j)``, or ``None``.

        ``None`` means the pair is skipped entirely: no row survives the
        token/length filter on one of the sides.  When a block comes
        back, any admissible pair (exact-token similarity ≥ the
        threshold) has both of its rows inside it.
        """
        entry_i, entry_j = self._entries[i], self._entries[j]
        rows_i = self._surviving_rows(entry_i, entry_j)
        if rows_i.size == 0:
            return None
        rows_j = self._surviving_rows(entry_j, entry_i)
        if rows_j.size == 0:
            return None
        return rows_i, rows_j
