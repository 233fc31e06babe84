"""Which calls are spanned, and the metrics each workload reports.

``CALLS`` is the instrumentation table: one entry per public call at a
layer boundary, named ``<layer>.<call>``.  ``END_TO_END`` and
``PER_LAYER`` are the metric catalogue; ``BENCHMARK.json`` lists the same
names.  Every per-layer metric records the end-to-end metric and
workload(s) it should move (``moves``), so a change that claims to move
it can be checked against the prediction.  End-to-end metric names are
shared by all four workloads; what one "operation" is (a build, a
session, a match) is defined per workload in ``END_TO_END``.
"""

from __future__ import annotations

from dataclasses import dataclass

from spans import Call

__all__ = [
    "CALLS",
    "END_TO_END",
    "PER_LAYER",
    "WORKER_STAGES",
    "Metric",
]


def _n_first(args, kwargs, result):
    return {"n": len(args[1])}


def _n_arg0(args, kwargs, result):
    return {"n": len(args[0])}


def _n_result(args, kwargs, result):
    return {"n": len(result)}


def _kept(args, kwargs, result):
    return {"in": len(args[1].offers), "out": len(result.offers)}


def _pairs(args, kwargs, result):
    return {"n": len(result.pairs)}


def _cache_keys(args, kwargs):
    # ``get_many`` may receive a generator; materialize it once so the
    # wrapper can count the keys and the cache still sees all of them.
    return (args[0], list(args[1])) + tuple(args[2:]), kwargs


def _cache_hits(args, kwargs, result):
    return {"keys": len(args[1]), "hits": len(result)}


def _live_top_k(args, kwargs, result):
    return {"shard": args[0].shard, "n": len(args[1])}


CALLS: tuple[Call, ...] = (
    Call("repro.core.builder", "CorpusGenerator.generate", "corpus.generate"),
    Call("repro.core.builder", "CleansingPipeline.run", "cleansing.run", _kept),
    Call("repro.core.builder", "group_products", "grouping.batch"),
    Call("repro.serve.live", "IncrementalDBSCAN.__init__", "grouping.incr_init"),
    Call("repro.serve.live", "IncrementalDBSCAN.append", "grouping.incr_append"),
    Call("repro.serve.live", "IncrementalDBSCAN.retire", "grouping.incr_retire"),
    Call("repro.core.builder", "LsaEmbeddingModel.fit", "similarity.embedding_fit"),
    Call("repro.core.builder", "SimilarityEngine.__init__", "similarity.engine_init"),
    Call(
        "repro.similarity.engine",
        "SimilarityEngine.top_k_batch",
        "similarity.top_k",
        _n_first,
    ),
    Call(
        "repro.similarity.engine",
        "SimilarityEngine.top_k_scores_batch",
        "similarity.top_k_scores",
        _n_first,
    ),
    Call(
        "repro.similarity.engine",
        "generalized_jaccard_batch",
        "similarity.gj",
        _n_arg0,
    ),
    Call(
        "repro.similarity.features",
        "BoundedPairCache.get_many",
        "similarity.gj_cache",
        _cache_hits,
        _cache_keys,
    ),
    Call(
        "repro.similarity.features",
        "jaro_winkler_similarity_batch",
        "similarity.jw",
        _n_arg0,
    ),
    Call(
        "repro.similarity.engine",
        "SimilarityEngine.external_top_k_batch",
        "similarity.external_top_k",
        _n_first,
    ),
    Call("repro.similarity.engine", "SimilarityEngine.append", "similarity.append"),
    Call("repro.similarity.engine", "SimilarityEngine.retire", "similarity.retire"),
    Call("repro.core.builder", "select_products", "core.select"),
    Call("repro.core.builder", "split_offers", "core.split"),
    Call("repro.core.builder", "generate_pairs", "core.pairs", _pairs),
    Call(
        "repro.blocking.candidates",
        "CandidateBlocker.candidates",
        "blocking.candidates",
        _n_result,
    ),
    Call("repro.shard.session", "ShardSupervisor.run", "shard.supervise"),
    # The sweep stage boundary: its self time is the sweep time that no
    # instrumented call accounts for (``sweep.uncovered_s``).
    Call("repro.shard.session", "ShardedBenchmarkSession._sweep", "shard.sweep"),
    Call("repro.shard.session", "cross_shard_candidates", "sweep.cross"),
    Call("repro.shard.session", "SignatureIndex.candidate_block", "sweep.prune"),
    Call(
        "repro.shard.session",
        "MergedCandidateStore.write",
        "merge.write",
        _n_result,
    ),
    Call("repro.io.store", "open_store", "store.open"),
    Call("repro.io.store", "verify_store", "store.verify"),
    Call("repro.serve.service", "LiveShard.top_k", "serve.top_k", _live_top_k),
    Call("repro.serve.service", "LiveShard.append", "serve.append"),
    Call("repro.serve.service", "LiveShard.retire", "serve.retire"),
)

# Per-shard build stages read from the session's ``stage_timings``.
WORKER_STAGES = (
    "corpus",
    "cleansing",
    "grouping",
    "embedding",
    "engine",
    "ratios",
    "store",
)

# Layers whose self time is reported (span-name prefixes).
SELF_TIME_LAYERS = (
    "corpus",
    "cleansing",
    "grouping",
    "similarity",
    "core",
    "blocking",
    "shard",
    "sweep",
    "merge",
    "store",
    "serve",
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str  # end-to-end metric @ workload(s) it should move
    bound: float | None = None  # end-to-end only
    why: str = ""


_SERVE = "serve_match, serve_mixed"

END_TO_END: tuple[Metric, ...] = (
    Metric(
        "setup_s", "s", "lower", "", 0.25,
        "the program's import in the fresh run process plus the median of "
        "three workload set-ups (serve: corpus + live-shard bootstrap)",
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", "", 0.2,
        "VmHWM of the workload process, fresh per run",
    ),
    Metric(
        "latency_p50_ms", "ms", "lower", "", 0.25,
        "median latency of one operation: a build, a session, a match "
        "(serve_mixed: a match, append or retire) timed from its due time",
    ),
)


def _m(name, unit, better, moves):
    return Metric(name, unit, better, moves)


PER_LAYER: tuple[Metric, ...] = (
    _m("corpus.generate_s", "s", "lower",
       "latency_p50_ms@build; setup_s@" + _SERVE),
    _m("cleansing.run_s", "s", "lower", "latency_p50_ms@build"),
    _m("cleansing.kept_frac", "ratio", "higher",
       "none: a correctness guard, must not move"),
    _m("grouping.batch_s", "s", "lower", "latency_p50_ms@build"),
    _m("grouping.incr_init_s", "s", "lower", "setup_s@" + _SERVE),
    _m("grouping.incr_append_ms", "ms", "lower",
       "serve.mutation_p50_ms, serve.max_rate_per_s@serve_mixed; "
       "flat on serve_match"),
    _m("grouping.incr_retire_ms", "ms", "lower",
       "serve.mutation_p50_ms, serve.max_rate_per_s@serve_mixed; "
       "flat on serve_match"),
    _m("similarity.embedding_fit_s", "s", "lower",
       "latency_p50_ms@build; setup_s@" + _SERVE),
    _m("similarity.engine_init_s", "s", "lower",
       "latency_p50_ms@build; setup_s@" + _SERVE),
    _m("similarity.top_k_s", "s", "lower",
       "latency_p50_ms@build, latency_p50_ms@session"),
    _m("similarity.top_k_queries", "count", "lower",
       "latency_p50_ms@build, latency_p50_ms@session"),
    _m("similarity.top_k_scores_s", "s", "lower",
       "latency_p50_ms@build, latency_p50_ms@session"),
    _m("similarity.gj_s", "s", "lower",
       "latency_p50_ms@build, latency_p50_ms@session; flat on " + _SERVE),
    _m("similarity.gj_pairs", "count", "lower",
       "latency_p50_ms@build, latency_p50_ms@session"),
    _m("similarity.gj_cache_hit_frac", "ratio", "higher",
       "latency_p50_ms@build, latency_p50_ms@session"),
    _m("similarity.jw_s", "s", "lower",
       "latency_p50_ms@build, latency_p50_ms@session; flat on " + _SERVE),
    _m("similarity.jw_pairs", "count", "lower",
       "latency_p50_ms@build, latency_p50_ms@session"),
    _m("similarity.external_top_k_ms", "ms", "lower",
       "latency_p50_ms@serve_match, serve.max_rate_per_s@serve_match"),
    _m("similarity.external_top_k_queries_per_call", "count", "higher",
       "serve.max_rate_per_s@" + _SERVE),
    _m("similarity.append_ms", "ms", "lower",
       "serve.mutation_p50_ms@serve_mixed"),
    _m("similarity.retire_ms", "ms", "lower",
       "serve.mutation_p50_ms@serve_mixed"),
    _m("core.select_s", "s", "lower", "latency_p50_ms@build"),
    _m("core.split_s", "s", "lower", "latency_p50_ms@build"),
    _m("core.pairs_s", "s", "lower", "latency_p50_ms@build"),
    _m("core.pairs", "count", "higher",
       "none: pair-set size, must not move"),
    _m("core.ratio_overlap", "ratio", "higher", "latency_p50_ms@build"),
    _m("blocking.candidates_s", "s", "lower", "latency_p50_ms@build"),
    _m("blocking.pairs", "count", "higher",
       "none: candidate-set size, must not move"),
    _m("shard.supervise_s", "s", "lower",
       "latency_p50_ms@session; flat on build"),
    *(
        _m(f"shard.worker_stage_s.{stage}", "s", "lower",
           "latency_p50_ms@session; flat on build")
        for stage in WORKER_STAGES
    ),
    _m("shard.retries", "count", "lower", "latency_p50_ms@session"),
    _m("shard.worker_peak_rss_mb", "MB", "lower", "peak_rss_mb@session"),
    _m("sweep.self_join_s", "s", "lower", "latency_p50_ms@session"),
    _m("sweep.cross_s", "s", "lower", "latency_p50_ms@session"),
    _m("sweep.row_prune_frac", "ratio", "higher", "latency_p50_ms@session"),
    _m("sweep.cell_prune_frac", "ratio", "higher", "latency_p50_ms@session"),
    _m("sweep.pair_prune_frac", "ratio", "higher", "latency_p50_ms@session"),
    _m("sweep.uncovered_s", "s", "lower", "latency_p50_ms@session"),
    _m("merge.write_s", "s", "lower",
       "latency_p50_ms, peak_rss_mb@session"),
    _m("merge.rows", "count", "higher",
       "none: merged-candidate count, must not move"),
    _m("store.write_s", "s", "lower", "latency_p50_ms@session"),
    _m("store.open_s", "s", "lower", "latency_p50_ms@session"),
    _m("store.verify_s", "s", "lower", "latency_p50_ms@session"),
    _m("store.bytes_per_offer", "B", "lower", "latency_p50_ms@session"),
    _m("serve.queue_wait_p50_ms", "ms", "lower",
       "latency_p50_ms, serve.max_rate_per_s@" + _SERVE),
    _m("serve.queue_wait_p99_ms", "ms", "lower",
       "serve.max_rate_per_s@" + _SERVE + " (queue wait rises first)"),
    _m("serve.score_ms", "ms", "lower",
       "latency_p50_ms, serve.max_rate_per_s@" + _SERVE),
    _m("serve.merge_ms", "ms", "lower",
       "latency_p50_ms, serve.max_rate_per_s@" + _SERVE),
    _m("serve.queries_per_batch", "count", "higher",
       "serve.max_rate_per_s@" + _SERVE),
    _m("serve.barrier_ms", "ms", "lower",
       "serve.mutation_p90_ms, serve.max_rate_per_s@serve_mixed"),
    _m("serve.mutation_p50_ms", "ms", "lower",
       "serve.max_rate_per_s@serve_mixed; flat on serve_match"),
    _m("serve.mutation_p90_ms", "ms", "lower",
       "none: the mixed tail (end-to-end tails are not gated); flat on "
       "serve_match"),
    _m("serve.executor_busy_frac", "ratio", "lower",
       "serve.max_rate_per_s@" + _SERVE),
    _m("serve.shed", "count", "lower", "none: must stay 0 at the nominal rate"),
    _m("serve.deadline_expired", "count", "lower",
       "none: must stay 0 at the nominal rate"),
    _m("serve.errors", "count", "lower", "none: must stay 0"),
    _m("serve.max_rate_per_s", "1/s", "higher",
       "none: capacity (untraced bisection to 5%, match p90 <= 25 ms); too "
       "noisy on a shared host for an end-to-end bound"),
    _m("loadgen.lag_p99_ms", "ms", "lower",
       "none: validity of serve runs, must stay flat"),
    _m("loadgen.backlog_end", "count", "lower",
       "none: validity of serve runs, must stay flat"),
    *(
        _m(f"{layer}.self_s", "s", "lower",
           "the end-to-end metric of each workload that runs the layer")
        for layer in SELF_TIME_LAYERS
    ),
    _m("trace.uncovered_frac", "ratio", "lower",
       "none: share of the traced window with no layer call running"),
    _m("trace.overhead_frac", "ratio", "lower",
       "none: traced over untraced latency_p50_ms, minus one"),
    _m("trace.spans", "count", "lower", "none: spans recorded per operation"),
)
