"""The four workloads: set-up, timed operations and output checks.

Each ``run_<workload>(ctx)`` returns an :class:`Outcome`: the end-to-end
metrics (measured untraced), the per-layer metrics when ``ctx.trace`` is
set, the operations attempted and failed, and the named output checks.
In a traced run the timed operations run twice, untraced and then under
the span recorder; the difference is the tracing overhead.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import importlib
import resource
import shutil
import tempfile
import time
from collections import defaultdict
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import loadgen
from layers import CALLS, PER_LAYER, SELF_TIME_LAYERS, WORKER_STAGES
from spans import SpanRecorder, covered, instrument, self_times, write_chrome_trace
from stats import median, tail

__all__ = ["Context", "Outcome", "WORKLOADS", "DEFAULT_SEED", "HELD_OUT_SEED"]

DEFAULT_SEED = 42
# Never used while the benchmark or a change is being tuned; a claim must
# also hold here.
HELD_OUT_SEED = 7919

LATENCY_LIMIT_MS = 25.0
# Tails are printed with every run but not gated: on a 2-vCPU VM that
# shares its host, the match p99 of three back-to-back 8 s phases read
# 6.6, 10.0 and 8.1 ms, and even the p90 spread 0.14-0.35 (IQR/median)
# over ten seeds.  The p90 is also the rate search's criterion.
TAIL_CAP = 90.0
MATCH_K = 10
SETUP_REPEATS = 3
MIN_BUILDS = 3
MIN_SESSIONS = 2

# Pair-set fingerprint of BuildConfig.small(seed=42, blocking_top_k=25).
BUILD_PIN = (
    "c76a90a36a82bb597991efbb824a7c7ae4ef55f9d9a90a599d39739ce70e90b8"
)
# Merged-candidate fingerprint of the 2-shard store-backed session, seed 42.
SESSION_PIN = (
    "f976112027ea7d9d472d966f7710bf4ae34488692a09505a8a490d8c880c45b0"
)


@dataclass
class Context:
    root: Path  # checkout root; everything the run writes stays under it
    seed: int
    seconds: float
    trace: bool
    scratch: Path  # <root>/.perfbench, for stores and traces

    def tempdir(self) -> Path:
        self.scratch.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(dir=self.scratch, prefix="run-"))


@dataclass
class Outcome:
    e2e: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


# --------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------- #
def peak_rss_mb() -> float:
    """VmHWM of this process (its peak resident set), in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def import_seconds(modules: Sequence[str]) -> float:
    """Wall time of this fresh process importing the program's ``modules``.

    Must run before anything else imports them.
    """
    started = time.perf_counter()
    for module in modules:
        importlib.import_module(module)
    return time.perf_counter() - started


def timed(fn: Callable):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def repeat_for(seconds: float, minimum: int, op: Callable[[], None]) -> int:
    """Run ``op`` until ``seconds`` have passed and ``minimum`` runs are done."""
    started = time.perf_counter()
    count = 0
    while count < minimum or time.perf_counter() - started < seconds:
        op()
        count += 1
    return count


def batch_e2e(outcome: Outcome, walls: Sequence[float], setup: float) -> None:
    outcome.e2e.update(setup_s=setup, latency_p50_ms=median(walls) * 1e3)
    outcome.info["latency_tail"] = dataclasses.asdict(tail(walls, TAIL_CAP))


class Traced:
    """A span recorder with the layer calls instrumented while it is open."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.windows: list[tuple[float, float]] = []

    def __enter__(self) -> "Traced":
        self.patches = instrument(self.recorder, CALLS)
        return self

    def __exit__(self, *exc) -> None:
        self.recorder.enabled = False
        self.patches.undo()

    def op(self, name: str, fn: Callable):
        """Run one timed operation under a root span, recording on."""
        self.recorder.enabled = True
        try:
            started = time.perf_counter()
            result = self.recorder.span(f"bench.{name}", fn)
            self.windows.append((started, time.perf_counter()))
        finally:
            self.recorder.enabled = False
        return result

    # -- derived numbers ------------------------------------------------ #
    def total(self, name: str) -> float:
        return sum(span.duration for span in self.recorder.named(name))

    def count(self, name: str, key: str = "n") -> int:
        return sum(
            (span.attrs or {}).get(key, 0) for span in self.recorder.named(name)
        )

    def p50_ms(self, name: str) -> float:
        spans = self.recorder.named(name)
        return median([s.duration for s in spans]) * 1e3 if spans else 0.0

    def layer_self_times(self) -> dict[str, float]:
        own = self_times(self.recorder.spans)
        totals: dict[str, float] = defaultdict(float)
        for span in self.recorder.spans:
            totals[span.name.split(".", 1)[0]] += own[span.id]
        return {
            f"{layer}.self_s": totals.get(layer, 0.0)
            for layer in SELF_TIME_LAYERS
        }

    def uncovered_frac(self) -> float:
        """Share of the timed windows with no layer span open on any thread."""
        intervals = [
            (span.start, span.end)
            for span in self.recorder.spans
            if not span.name.startswith("bench.")
        ]
        busy = sum(covered(intervals, lo, hi) for lo, hi in self.windows)
        window_total = sum(hi - lo for lo, hi in self.windows)
        return 1.0 - busy / window_total if window_total else 0.0

    def common(self) -> dict[str, float]:
        """Span-derived metrics of the one traced operation (zero when the
        workload never runs the layer)."""
        gj_keys = self.count("similarity.gj_cache", "keys")
        kept_in = self.count("cleansing.run", "in")
        external = self.recorder.named("similarity.external_top_k")
        layer = {
            "corpus.generate_s": self.total("corpus.generate"),
            "cleansing.run_s": self.total("cleansing.run"),
            "cleansing.kept_frac": (
                self.count("cleansing.run", "out") / kept_in if kept_in else 0.0
            ),
            "grouping.batch_s": self.total("grouping.batch"),
            "grouping.incr_init_s": self.total("grouping.incr_init"),
            "grouping.incr_append_ms": self.p50_ms("grouping.incr_append"),
            "grouping.incr_retire_ms": self.p50_ms("grouping.incr_retire"),
            "similarity.embedding_fit_s": (
                self.total("similarity.embedding_fit")
            ),
            "similarity.engine_init_s": (
                self.total("similarity.engine_init")
            ),
            "similarity.top_k_s": self.total("similarity.top_k"),
            "similarity.top_k_queries": self.count("similarity.top_k"),
            "similarity.top_k_scores_s": (
                self.total("similarity.top_k_scores")
            ),
            "similarity.gj_s": self.total("similarity.gj"),
            "similarity.gj_pairs": self.count("similarity.gj"),
            "similarity.gj_cache_hit_frac": (
                self.count("similarity.gj_cache", "hits") / gj_keys
                if gj_keys
                else 0.0
            ),
            "similarity.jw_s": self.total("similarity.jw"),
            "similarity.jw_pairs": self.count("similarity.jw"),
            "similarity.external_top_k_ms": self.p50_ms(
                "similarity.external_top_k"
            ),
            "similarity.external_top_k_queries_per_call": (
                self.count("similarity.external_top_k") / len(external)
                if external
                else 0.0
            ),
            "similarity.append_ms": self.p50_ms("similarity.append"),
            "similarity.retire_ms": self.p50_ms("similarity.retire"),
            "core.select_s": self.total("core.select"),
            "core.split_s": self.total("core.split"),
            "core.pairs_s": self.total("core.pairs"),
            "core.pairs": self.count("core.pairs"),
            "blocking.candidates_s": self.total("blocking.candidates"),
            "blocking.pairs": self.count("blocking.candidates"),
            "store.open_s": self.total("store.open"),
            "store.verify_s": self.total("store.verify"),
            "merge.write_s": self.total("merge.write"),
            "merge.rows": self.count("merge.write"),
            "shard.supervise_s": self.total("shard.supervise"),
            "sweep.cross_s": self.total("sweep.cross"),
            "trace.uncovered_frac": self.uncovered_frac(),
            "trace.spans": len(self.recorder.spans),
        }
        layer.update(self.layer_self_times())
        return layer


def layer_defaults() -> dict[str, float]:
    """Every per-layer metric at zero: a layer the workload never runs."""
    return {metric.name: 0.0 for metric in PER_LAYER}


def write_trace(ctx: Context, traced: Traced, workload: str, info: dict) -> Path:
    path = ctx.scratch / f"trace-{workload}-seed{ctx.seed}.json"
    write_chrome_trace(path, traced.recorder, info)
    return path


# --------------------------------------------------------------------- #
# build
# --------------------------------------------------------------------- #
def pair_set_sha(artifacts) -> str:
    """sha256 over every pair and multi-class dataset of one build.

    Fields as in tests/core/test_builder_determinism.py's fingerprints,
    in the benchmark's dataset order.
    """
    digest = hashlib.sha256()
    benchmark = artifacts.benchmark
    for attribute in ("train_sets", "valid_sets", "test_sets"):
        for dataset in getattr(benchmark, attribute).values():
            digest.update(f"#{dataset.name}\n".encode())
            for pair in dataset.pairs:
                digest.update(
                    f"{pair.pair_id}|{pair.offer_a.offer_id}|"
                    f"{pair.offer_b.offer_id}|{pair.label}|"
                    f"{pair.provenance}\n".encode()
                )
    for attribute in ("multiclass_train", "multiclass_valid", "multiclass_test"):
        for dataset in getattr(benchmark, attribute).values():
            digest.update(f"#{dataset.name}\n".encode())
            for offer, label in zip(dataset.offers, dataset.labels):
                digest.update(f"{offer.offer_id}|{label}\n".encode())
    return digest.hexdigest()


def build_config(seed: int):
    from repro.core import BuildConfig

    return BuildConfig.small(seed=seed, blocking_top_k=25)


def run_build(ctx: Context) -> Outcome:
    imported = import_seconds(["repro.core"])
    from repro.core import BenchmarkBuilder

    outcome = Outcome()
    ctor = []
    for _ in range(SETUP_REPEATS):
        wall, builder = timed(lambda: BenchmarkBuilder(build_config(ctx.seed)))
        ctor.append(wall)
    setup = imported + median(ctor)

    shas: set[str] = set()

    def one_build(build: Callable):
        wall, artifacts = timed(build)
        shas.add(pair_set_sha(artifacts))
        return wall, artifacts

    walls: list[float] = []
    budget = ctx.seconds / 2 if ctx.trace else ctx.seconds
    repeat_for(
        budget,
        1 if ctx.trace else MIN_BUILDS,
        lambda: walls.append(one_build(builder.build)[0]),
    )
    batch_e2e(outcome, walls, setup)
    outcome.attempted = len(walls)

    if ctx.trace:
        with Traced() as traced:
            wall, artifacts = one_build(lambda: traced.op("build", builder.build))
        outcome.attempted += 1
        layer = layer_defaults()
        layer.update(traced.common())
        timings = artifacts.stage_timings
        layer["core.ratio_overlap"] = (
            sum(v for k, v in timings.items() if k.startswith("ratio:"))
            / timings["ratios"]
        )
        layer["trace.overhead_frac"] = wall / median(walls) - 1
        outcome.layer = layer
        outcome.info["trace_file"] = str(
            write_trace(ctx, traced, "build", {"seed": ctx.seed})
        )

    outcome.checks["build_deterministic"] = len(shas) == 1
    if ctx.seed == DEFAULT_SEED:
        pinned = next(iter(shas))
    else:
        outcome.attempted += 1
        pinned = pair_set_sha(BenchmarkBuilder(build_config(DEFAULT_SEED)).build())
    outcome.checks["build_pair_set_sha_pinned"] = pinned == BUILD_PIN
    outcome.info["pair_set_sha_default_seed"] = pinned
    outcome.e2e["peak_rss_mb"] = peak_rss_mb()
    return outcome


# --------------------------------------------------------------------- #
# session
# --------------------------------------------------------------------- #
def merged_sha(merged) -> str:
    """Fingerprint as in tests/shard/test_session_store.py."""
    digest = hashlib.sha256()
    for pair in merged.pairs:
        digest.update(
            f"{pair.offer_a.offer_id}|{pair.offer_b.offer_id}|{pair.label}|"
            f"{pair.metric}|{pair.provenance}|{pair.score:.9f}\n".encode()
        )
    return digest.hexdigest()


def session_for(seed: int, store_dir: Path):
    from repro.core import BuildConfig
    from repro.shard import ShardedBenchmarkSession, ShardPlan

    plan = ShardPlan.create(2, base_config=BuildConfig.small(seed=seed), seed=seed)
    return ShardedBenchmarkSession(
        plan,
        executor="process",
        max_workers=2,
        store_backend="sqlite",
        store_dir=store_dir,
    )


def check_session(artifacts, seed: int, outcome: Outcome) -> None:
    """Every shard store verifies, the session is whole, and its merged
    candidates match the other sessions of the run (and the pin at the
    default seed)."""
    from repro.io.store import verify_store

    checks = outcome.checks
    verified = all(
        not isinstance(verify_store(shard.directory), str)
        for shard in artifacts.shards
    )
    checks["session_stores_verify"] = (
        checks.get("session_stores_verify", True) and verified
    )
    summary = artifacts.merged_candidates.summary()
    first = outcome.info.setdefault("merged_summary", summary)
    checks["session_complete_and_deterministic"] = (
        checks.get("session_complete_and_deterministic", True)
        and not artifacts.degraded
        and len(artifacts.shards) == 2
        and len(artifacts.merged_candidates) > 0
        and summary == first
    )
    if seed == DEFAULT_SEED and "session_merged_sha_pinned" not in checks:
        sha = merged_sha(artifacts.merged_candidates)
        outcome.info["merged_sha_default_seed"] = sha
        checks["session_merged_sha_pinned"] = sha == SESSION_PIN


def store_bytes_per_offer(artifacts) -> float:
    total = sum(
        path.stat().st_size
        for shard in artifacts.shards
        for path in Path(shard.directory).iterdir()
        if path.is_file()
    )
    return total / artifacts.total_offers()


def run_session(ctx: Context) -> Outcome:
    imported = import_seconds(["repro.core", "repro.shard"])
    outcome = Outcome()
    ctor = []
    for _ in range(SETUP_REPEATS):
        directory = ctx.tempdir()
        wall, _ = timed(lambda: session_for(ctx.seed, directory))
        ctor.append(wall)
        shutil.rmtree(directory)
    setup = imported + median(ctor)

    def one_session(build: Callable) -> tuple[float, object, float]:
        """Build one session in a fresh store; returns (wall, artifacts,
        store bytes per offer).  The store is deleted afterwards."""
        directory = ctx.tempdir()
        try:
            session = session_for(ctx.seed, directory)
            wall, artifacts = timed(lambda: build(session))
            check_session(artifacts, ctx.seed, outcome)
            size = store_bytes_per_offer(artifacts)
            for shard in artifacts.shards:
                shard.close()
            return wall, artifacts, size
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    walls: list[float] = []
    budget = ctx.seconds / 2 if ctx.trace else ctx.seconds
    repeat_for(
        budget,
        1 if ctx.trace else MIN_SESSIONS,
        lambda: walls.append(one_session(lambda s: s.build())[0]),
    )
    batch_e2e(outcome, walls, setup)
    outcome.attempted = len(walls)
    outcome.e2e["peak_rss_mb"] = peak_rss_mb()
    if not ctx.trace:
        return outcome

    layer = layer_defaults()
    with Traced() as traced:
        wall, artifacts, size = one_session(
            lambda s: traced.op("session", s.build)
        )
    outcome.attempted += 1
    layer.update(traced.common())
    timings = artifacts.stage_timings
    for stage in WORKER_STAGES:
        layer[f"shard.worker_stage_s.{stage}"] = sum(
            timings.get(f"shard:{shard}:{stage}", 0.0)
            for shard in artifacts.shard_ids
        )
    layer["store.write_s"] = layer["shard.worker_stage_s.store"]
    layer["store.bytes_per_offer"] = size
    layer["shard.retries"] = float(artifacts.health.retries)
    # Workers have exited (the pool shuts down with the session), so the
    # largest of them is in this process's children's peak RSS.
    layer["shard.worker_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    )
    stats = artifacts.sweep_stats
    layer["sweep.row_prune_frac"] = stats.row_prune_ratio
    layer["sweep.cell_prune_frac"] = stats.cell_prune_ratio
    layer["sweep.pair_prune_frac"] = stats.pair_prune_ratio
    own = self_times(traced.recorder.spans)
    sweeps = traced.recorder.named("shard.sweep")
    layer["sweep.uncovered_s"] = sum(own[span.id] for span in sweeps)
    sweep_ids = {span.id for span in sweeps}
    layer["sweep.self_join_s"] = sum(
        span.duration
        for span in traced.recorder.named("blocking.candidates")
        if span.parent in sweep_ids
    )
    layer["trace.overhead_frac"] = wall / median(walls) - 1
    outcome.layer = layer
    outcome.info["trace_file"] = str(
        write_trace(ctx, traced, "session", {"seed": ctx.seed})
    )
    return outcome


# --------------------------------------------------------------------- #
# serve_match / serve_mixed
# --------------------------------------------------------------------- #
# serve_mixed runs at half the match rate: at 180/s a slow phase of the
# host pushed it into a backlog (a run read p50 13 ms against 3.4 ms).
NOMINAL_RATE = {"serve_match": 200.0, "serve_mixed": 100.0}
# The operations whose latency is reported: on serve_mixed every operation
# of the mix, so mutations (3 in 16) and the matches that waited behind
# one are part of it.
OPERATIONS = {
    "serve_match": ("match",),
    "serve_mixed": ("match", "append", "retire"),
}
# Where the max-rate search starts (it doubles or halves from here).
SEARCH_START = {"serve_match": 1600.0, "serve_mixed": 400.0}
PROBE_SECONDS = 0.5
PROBE_MIN_OPS = 400
SAMPLE_EVERY = 16  # every 16th admitted match is re-checked


def cleansed_offers(seed: int) -> list:
    from repro.cleansing import CleansingPipeline
    from repro.corpus import CorpusConfig, CorpusGenerator

    generated = CorpusGenerator(CorpusConfig.small(seed=seed)).generate()
    return list(CleansingPipeline().run(generated.corpus).offers)


def live_shards(seed: int) -> list:
    """Two live shards over the cleansed small corpus of ``seed``."""
    from repro.serve import LiveShard
    from repro.similarity.engine import SimilarityEngine

    offers = cleansed_offers(seed)
    half = len(offers) // 2
    return [
        LiveShard(
            SimilarityEngine([offer.title for offer in part]), part, shard=shard
        )
        for shard, part in enumerate((offers[:half], offers[half:]))
    ]


@dataclass
class Phase:
    result: loadgen.OpenLoopResult
    stats: object  # repro.serve.ServiceStats
    admitted: list  # match records in admission order
    sampled: list  # (title, answer) pairs to re-check


class Server:
    """Drives one MatchService per phase over the same live shards.

    The program sees only generated titles (matches), offers (appends)
    and ids of earlier appends (retires).
    """

    def __init__(self, shards: list, queries: list[str], fresh: list) -> None:
        self.shards = shards
        self.queries = queries
        self.fresh = fresh
        self.appended = 0

    async def phase(
        self, ops: Sequence[loadgen.Op], sample: bool, timeout: float | None
    ) -> Phase:
        from repro.serve import MatchService

        service = MatchService(
            self.shards,
            max_batch=64,
            # Never shed: overload shows as latency (and, in probes, expiry).
            max_pending=1 << 20,
            default_timeout=timeout,
        )
        appended_ids: list[str] = []
        admitted: list = []
        sampled: list = []

        async def issue(op: loadgen.Op, record: loadgen.Record) -> None:
            if op.kind == "match":
                title = self.queries[op.item]
                admitted.append(record)
                check = sample and len(admitted) % SAMPLE_EVERY == 0
                answers = await service.match([title], k=MATCH_K)
                if check:
                    sampled.append((title, answers[0]))
            elif op.kind == "append":
                offer = dataclasses.replace(
                    self.fresh[op.item],
                    offer_id=f"perfbench-{self.appended}",
                    cluster_id=f"perfbench-c{self.appended}",
                )
                self.appended += 1
                appended_ids.append(offer.offer_id)
                await service.append([offer])
            else:
                await service.retire([appended_ids[op.item]])
            record.ok = True

        async with service:
            result = await loadgen.drive(ops, issue)
            stats = service.stats()
        return Phase(result, stats, admitted, sampled)

    def run(self, ops, sample: bool = False, timeout: float | None = None) -> Phase:
        return asyncio.run(self.phase(ops, sample, timeout))


def reference_answer(shards: list, title: str) -> list[tuple]:
    """Direct per-shard ``top_k``, merged by (-score, shard position, row)."""
    from repro.text.tokenize import tokenize

    tokens = set(tokenize(title))
    merged = []
    for position, shard in enumerate(shards):
        [(rows, scores)] = shard.top_k([tokens], "cosine", k=MATCH_K)
        merged.extend(
            (-float(score), position, int(row)) for row, score in zip(rows, scores)
        )
    merged.sort()
    return [
        (shards[position].offer_at(row).offer_id, shards[position].shard, row, -neg)
        for neg, position, row in merged[:MATCH_K]
    ]


def wrong_answers(shards: list, sampled: list) -> int:
    """How many sampled service answers differ from the direct merge."""
    wrong = 0
    for title, answer in sampled:
        expected = reference_answer(shards, title)
        got = [(m.offer_id, m.shard, m.row, m.score) for m in answer]
        same = len(got) == len(expected) and all(
            g[:3] == e[:3] and abs(g[3] - e[3]) <= 1e-9
            for g, e in zip(got, expected)
        )
        wrong += not same
    return wrong


def cold_parity(shards: list) -> tuple[bool, bool]:
    """Live state of each shard equals a cold rebuild over its live offers."""
    from repro.serve import LiveShard
    from repro.similarity.engine import SimilarityEngine
    from repro.text.tokenize import tokenize

    clusters_equal = scores_equal = True
    for shard in shards:
        offers = shard.live_offers()
        cold = LiveShard(SimilarityEngine([offer.title for offer in offers]), offers)
        clusters_equal &= shard.clusters_sha() == cold.clusters_sha()
        probe = [set(tokenize(offer.title)) for offer in offers[:8]]
        alive = [int(row) for row in shard.engine.live_rows()]
        live = shard.engine.external_scores_batch(probe, "cosine")
        rebuilt = cold.engine.external_scores_batch(probe, "cosine")
        scores_equal &= bool((live[:, alive] == rebuilt).all())
    return clusters_equal, scores_equal


def serve_layers(traced: Traced, phase: Phase, n_shards: int) -> dict[str, float]:
    """Queue wait, scoring and merge per query from the ``top_k`` spans.

    Scoring runs are serialized on the service's executor thread and each
    calls ``LiveShard.top_k`` once per shard with all its queries, in
    admission order; so the k-th run answers the next ``n`` admitted
    queries, where ``n`` is the query count on its spans.
    """
    spans = sorted(traced.recorder.named("serve.top_k"), key=lambda s: s.start)
    runs = [spans[i : i + n_shards] for i in range(0, len(spans), n_shards)]
    waits, scores, merges = [], [], []
    queue = iter(phase.admitted)
    for run in runs:
        for _ in range(run[0].attrs["n"]):
            record = next(queue)
            waits.append(run[0].start - record.due)
            scores.append(run[-1].end - run[0].start)
            merges.append(record.done - run[-1].end)
    result = phase.result
    lo, hi = result.window
    mutations = [
        span
        for name in ("serve.append", "serve.retire")
        for span in traced.recorder.named(name)
    ]
    busy = sorted((s.start, s.end) for s in spans + mutations)
    mutation_latencies = result.latencies("append") + result.latencies("retire")
    stats = phase.stats
    return {
        "serve.queue_wait_p50_ms": median(waits) * 1e3 if waits else 0.0,
        "serve.queue_wait_p99_ms": tail(waits).value * 1e3 if waits else 0.0,
        "serve.score_ms": median(scores) * 1e3 if scores else 0.0,
        "serve.merge_ms": median(merges) * 1e3 if merges else 0.0,
        "serve.queries_per_batch": (
            stats.completed / stats.batches if stats.batches else 0.0
        ),
        "serve.barrier_ms": (
            median([s.duration for s in mutations]) * 1e3 if mutations else 0.0
        ),
        "serve.mutation_p50_ms": (
            median(mutation_latencies) * 1e3 if mutation_latencies else 0.0
        ),
        "serve.mutation_p90_ms": (
            tail(mutation_latencies, cap=90.0).value * 1e3
            if mutation_latencies
            else 0.0
        ),
        "serve.executor_busy_frac": covered(busy, lo, hi) / (hi - lo),
        "serve.shed": float(stats.shed),
        "serve.deadline_expired": float(stats.deadline_expired),
        "serve.errors": float(stats.errors),
        "loadgen.lag_p99_ms": tail(result.lags).value * 1e3,
        "loadgen.backlog_end": float(result.backlog_end),
    }


def max_rate(ctx: Context, server: Server, workload: str, outcome: Outcome) -> float:
    """Untraced bisection for the highest rate meeting the latency limit.

    Run in traced runs only: on a VM that shares its host, its run-to-run
    spread on serve_mixed (0.25 to 0.72 of the median over 5 to 10 seeds)
    is wider than any bound an end-to-end metric may have.
    """
    probe_phases: list[Phase] = []
    pool_size = len(server.queries)
    cycle = loadgen.MIXED_CYCLE if workload == "serve_mixed" else ("match",)

    def probe(probe_rate: float, index: int):
        n_ops = max(PROBE_MIN_OPS, int(probe_rate * PROBE_SECONDS))
        probe_ops = loadgen.schedule(
            ctx.seed * 1000 + 100 + index, probe_rate, n_ops, pool_size, cycle
        )
        # Queries that wait ten limits are dropped, so an overloaded
        # probe fails quickly instead of draining its backlog.
        phase = server.run(probe_ops, timeout=10 * LATENCY_LIMIT_MS / 1e3)
        probe_phases.append(phase)
        return phase.result

    found, probes = loadgen.find_max_rate(
        probe,
        start=SEARCH_START[workload],
        limit_ms=LATENCY_LIMIT_MS,
        cap=TAIL_CAP,
    )
    outcome.info["rate_probes"] = [dataclasses.asdict(p) for p in probes]
    # Overload probes may drop expired queries; anything else is a bug.
    outcome.checks["serve_probes_only_expire"] = all(
        record.ok or record.error.startswith("ServiceDeadlineError")
        for phase in probe_phases
        for record in phase.result.records
    )
    return found


def run_serve(ctx: Context, workload: str) -> Outcome:
    imported = import_seconds(["repro.serve"])
    outcome = Outcome()
    mixed = workload == "serve_mixed"
    cycle = loadgen.MIXED_CYCLE if mixed else ("match",)
    rate = NOMINAL_RATE[workload]
    pool = cleansed_offers(ctx.seed + 1)  # the generator's inputs
    queries = [offer.title for offer in pool]

    walls = []
    for _ in range(SETUP_REPEATS):
        wall, shards = timed(lambda: live_shards(ctx.seed))
        walls.append(wall)
    setup = imported + median(walls)
    server = Server(shards, queries, pool)
    served = [shards]  # every shard set that took traffic, for the checks

    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    ops = loadgen.schedule(ctx.seed, rate, int(rate * seconds), len(pool), cycle)
    nominal = server.run(ops, sample=not mixed)
    phases = [nominal]
    latencies = nominal.result.latencies(*OPERATIONS[workload])
    outcome.e2e.update(setup_s=setup, latency_p50_ms=median(latencies) * 1e3)
    outcome.info["latency_tail"] = dataclasses.asdict(tail(latencies, TAIL_CAP))
    outcome.info["latency_p99"] = dataclasses.asdict(tail(latencies))
    wrong = wrong_answers(shards, nominal.sampled)
    if not mixed:
        outcome.checks["serve_sampled_answers_equal_direct_merge"] = (
            wrong == 0 and len(nominal.sampled) > 0
        )
    outcome.info["sampled_answers"] = len(nominal.sampled)

    outcome.e2e["peak_rss_mb"] = peak_rss_mb()
    if ctx.trace:
        ops = loadgen.schedule(ctx.seed + 1, rate, int(rate * seconds), len(pool), cycle)
        with Traced() as traced:
            # One more set-up, traced, for the corpus and bootstrap layers;
            # its shards replace the served ones for the traced phase.
            shards = traced.op("setup", lambda: live_shards(ctx.seed))
            server = Server(shards, queries, pool)
            phase = traced.op("serve", lambda: server.run(ops))
        phases.append(phase)
        served.append(shards)
        layer = layer_defaults()
        layer.update(traced.common())
        layer.update(serve_layers(traced, phase, len(shards)))
        traced_latencies = phase.result.latencies(*OPERATIONS[workload])
        layer["trace.overhead_frac"] = (
            median(traced_latencies) / median(latencies) - 1
        )
        layer["serve.max_rate_per_s"] = max_rate(ctx, server, workload, outcome)
        outcome.layer = layer
        outcome.info["trace_file"] = str(
            write_trace(ctx, traced, workload, {"seed": ctx.seed})
        )

    # The workload's operations are the nominal (and traced) phases; the
    # overload probes of the rate search are reported in ``info``.
    outcome.attempted = sum(len(p.result.records) for p in phases)
    outcome.failed = sum(p.result.failed for p in phases)
    if mixed:
        parity = [cold_parity(shard_set) for shard_set in served]
        outcome.checks["serve_cold_rebuild_clusters_equal"] = all(
            clusters for clusters, _ in parity
        )
        outcome.checks["serve_cold_rebuild_scores_equal"] = all(
            scores for _, scores in parity
        )
    outcome.checks["serve_no_failed_ops"] = outcome.failed == 0
    return outcome


WORKLOADS = {
    "build": run_build,
    "session": run_session,
    "serve_match": lambda ctx: run_serve(ctx, "serve_match"),
    "serve_mixed": lambda ctx: run_serve(ctx, "serve_mixed"),
}
