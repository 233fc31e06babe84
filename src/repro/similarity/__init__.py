"""String and embedding similarity metrics (py_stringmatching + fastText stand-in).

Section 3.4 of the paper selects corner-cases by "randomly alternating
between the most similar examples on the product title according to a
variety of similarity metrics: Cosine, DICE and Generalized Jaccard ...
and a fastText embedding model".  ``repro.similarity`` implements those
metrics, several character-based metrics used by the Magellan baseline, an
LSA embedding model replacing fastText, and the alternating
``SimilarityRegistry`` that prevents selection bias toward one metric.
"""

from repro.similarity.token_based import (
    cosine_similarity,
    dice_similarity,
    generalized_jaccard_similarity,
    jaccard_similarity,
    overlap_coefficient,
)
from repro.similarity.character_based import (
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
)
from repro.similarity.embedding import LsaEmbeddingModel
from repro.similarity.engine import SimilarityEngine
from repro.similarity.registry import SimilarityMetric, SimilarityRegistry
from repro.similarity.signatures import (
    SIGNATURE_SAFE_METRICS,
    RowSignatures,
    global_token_order,
    length_window,
    overlap_lower_bound,
    prefix_lengths,
)

__all__ = [
    "cosine_similarity",
    "dice_similarity",
    "generalized_jaccard_similarity",
    "jaccard_similarity",
    "overlap_coefficient",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "levenshtein_distance",
    "levenshtein_similarity",
    "LsaEmbeddingModel",
    "SimilarityEngine",
    "SimilarityMetric",
    "SimilarityRegistry",
    "RowSignatures",
    "SIGNATURE_SAFE_METRICS",
    "global_token_order",
    "length_window",
    "overlap_lower_bound",
    "prefix_lengths",
]
