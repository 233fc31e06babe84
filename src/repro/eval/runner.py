"""Training/evaluation driver for the Section-5 experiments."""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # circular-import-free hint for from_session
    from repro.shard.session import ShardedArtifacts

from repro.blocking.candidates import CandidateBlocker
from repro.core.benchmark import PairwiseTask
from repro.core.builder import BuildArtifacts
from repro.core.datasets import PairDataset
from repro.corpus.schema import ProductOffer
from repro.core.dimensions import (
    ALL_MULTICLASS_VARIANTS,
    CornerCaseRatio,
    DevSetSize,
    MulticlassVariant,
    PairwiseVariant,
    UnseenRatio,
)
from repro.matchers.base import MulticlassMatcher, PairwiseMatcher
from repro.matchers.ditto import DittoMatcher
from repro.matchers.hiergat import HierGATMatcher
from repro.matchers.magellan import MagellanMatcher
from repro.matchers.rsupcon import RSupConMatcher, RSupConMulticlass
from repro.matchers.serialize import serialize_offer
from repro.matchers.transformer import (
    TrainSettings,
    TransformerMatcher,
    TransformerMulticlass,
)
from repro.matchers.word_cooc import (
    SERIALIZED_ATTRIBUTE,
    WordCoocMatcher,
    WordOccurrenceClassifier,
)
from repro.ml.metrics import PRF1
from repro.nn.pretrain import MiniLM
from repro.similarity.engine import SimilarityEngine

__all__ = [
    "EvalSettings",
    "ExperimentRunner",
    "PairwiseResults",
    "MulticlassResults",
    "PAIRWISE_SYSTEMS",
    "MULTICLASS_SYSTEMS",
]

PAIRWISE_SYSTEMS = ("word_cooc", "magellan", "roberta", "ditto", "hiergat", "rsupcon")
MULTICLASS_SYSTEMS = ("word_occ", "roberta", "rsupcon")
NEURAL_SYSTEMS = ("roberta", "ditto", "hiergat", "rsupcon")


@dataclass(frozen=True)
class EvalSettings:
    """Scale knobs for an experiment run.

    ``from_env`` maps ``REPRO_BENCH_SCALE`` to a preset: ``smoke`` (one
    grid cell, tiny budgets), ``default`` (full grid, one seed), ``full``
    (full grid, three seeds, larger budgets — the paper's protocol).
    """

    seeds: tuple[int, ...] = (0,)
    mlm_steps: int = 250
    matching_steps: int = 2000
    step_budget: int = 600
    pretrain_epochs: int = 12  # R-SupCon stage 1
    corner_ratios: tuple[CornerCaseRatio, ...] = tuple(CornerCaseRatio)
    dev_sizes: tuple[DevSetSize, ...] = tuple(DevSetSize)
    unseen_ratios: tuple[UnseenRatio, ...] = tuple(UnseenRatio)
    # Restriction of the (cc, dev) grid; None = full product.  The default
    # covers the paper's Figure 4/5/6 slices (five cells); "full" runs all
    # nine cells as in Tables 3-5.
    pairwise_cells: tuple[tuple[CornerCaseRatio, DevSetSize], ...] | None = None
    multiclass_cells: tuple[tuple[CornerCaseRatio, DevSetSize], ...] | None = None

    @classmethod
    def smoke(cls) -> "EvalSettings":
        return cls(
            seeds=(0,),
            mlm_steps=120,
            matching_steps=150,
            step_budget=250,
            pretrain_epochs=4,
            corner_ratios=(CornerCaseRatio.CC50,),
            dev_sizes=(DevSetSize.MEDIUM,),
            pairwise_cells=((CornerCaseRatio.CC50, DevSetSize.MEDIUM),),
            multiclass_cells=((CornerCaseRatio.CC50, DevSetSize.MEDIUM),),
        )

    @classmethod
    def default(cls) -> "EvalSettings":
        figure_cells = (
            (CornerCaseRatio.CC80, DevSetSize.MEDIUM),
            (CornerCaseRatio.CC50, DevSetSize.MEDIUM),
            (CornerCaseRatio.CC20, DevSetSize.MEDIUM),
            (CornerCaseRatio.CC50, DevSetSize.SMALL),
            (CornerCaseRatio.CC50, DevSetSize.LARGE),
        )
        return cls(
            pairwise_cells=figure_cells,
            multiclass_cells=(
                (CornerCaseRatio.CC50, DevSetSize.SMALL),
                (CornerCaseRatio.CC50, DevSetSize.MEDIUM),
                (CornerCaseRatio.CC50, DevSetSize.LARGE),
            ),
        )

    @classmethod
    def full(cls) -> "EvalSettings":
        return cls(
            seeds=(0, 1, 2),
            mlm_steps=800,
            matching_steps=3000,
            step_budget=1500,
            pretrain_epochs=25,
        )

    def resolved_pairwise_cells(self) -> tuple[tuple[CornerCaseRatio, DevSetSize], ...]:
        if self.pairwise_cells is not None:
            return self.pairwise_cells
        return tuple(
            (cc, dev) for cc in self.corner_ratios for dev in self.dev_sizes
        )

    def resolved_multiclass_cells(self) -> tuple[tuple[CornerCaseRatio, DevSetSize], ...]:
        if self.multiclass_cells is not None:
            return self.multiclass_cells
        return tuple(
            (cc, dev) for cc in self.corner_ratios for dev in self.dev_sizes
        )

    @classmethod
    def from_env(
        cls, variable: str = "REPRO_BENCH_SCALE", environ=None
    ) -> "EvalSettings":
        """Settings selected by the ambient scale variable.

        ``environ`` binds at call time so test monkeypatching of
        ``os.environ`` is always honored.
        """
        if environ is None:
            environ = os.environ  # repro-lint: disable=RNG004 -- from_env is the documented ambient entry point for benchmark scale selection
        scale = environ.get(variable, "default").lower()
        if scale == "smoke":
            return cls.smoke()
        if scale == "full":
            return cls.full()
        return cls.default()


def _mean_prf1(values: list[PRF1]) -> PRF1:
    return PRF1(
        float(np.mean([v.precision for v in values])),
        float(np.mean([v.recall for v in values])),
        float(np.mean([v.f1 for v in values])),
    )


@dataclass
class PairwiseResults:
    """PRF1 per (system, corner-cases, dev size, unseen), seed-averaged."""

    scores: dict[tuple[str, PairwiseVariant], PRF1] = field(default_factory=dict)
    per_seed: dict[tuple[str, PairwiseVariant, int], PRF1] = field(default_factory=dict)

    def get(self, system: str, variant: PairwiseVariant) -> PRF1 | None:
        return self.scores.get((system, variant))

    def systems(self) -> list[str]:
        return sorted({system for system, _ in self.scores})


@dataclass
class MulticlassResults:
    """Micro-F1 per (system, variant), seed-averaged."""

    scores: dict[tuple[str, MulticlassVariant], float] = field(default_factory=dict)

    def get(self, system: str, variant: MulticlassVariant) -> float | None:
        return self.scores.get((system, variant))


class ExperimentRunner:
    """Trains the matching systems across the benchmark grid.

    ``artifacts`` is either a single-corpus
    :class:`~repro.core.builder.BuildArtifacts` or the merged view of a
    sharded session (:class:`~repro.shard.MergedArtifacts`, obtained via
    :meth:`from_session`) — the runner only reads ``benchmark``,
    ``cleansed``, ``engine``, ``splits`` and ``pretraining_clusters``,
    which both provide.
    """

    def __init__(
        self,
        artifacts: BuildArtifacts,
        *,
        settings: EvalSettings | None = None,
    ) -> None:
        self.artifacts = artifacts
        self.settings = settings if settings is not None else EvalSettings.from_env()
        self._checkpoints: dict[int, MiniLM] = {}
        self._featurization_backend: tuple[SimilarityEngine, dict[str, int]] | None = None

    @classmethod
    def from_session(
        cls,
        session: "ShardedArtifacts",
        *,
        settings: EvalSettings | None = None,
    ) -> "ExperimentRunner":
        """A runner over a sharded session's merged benchmark view.

        Training, evaluation and featurization run on the merged
        (namespaced) datasets and the concatenated engine exactly as they
        would on a single corpus.  Split-scoped blocking helpers
        (:meth:`blocked_pairwise` …) stay per-shard: offer splits belong
        to the shard that split its own corpus — construct a per-shard
        runner from ``session.shards[i]`` for those.
        """
        return cls(session.merged_artifacts(), settings=settings)

    # ------------------------------------------------------------------ #
    def featurization_backend(self) -> tuple[SimilarityEngine, dict[str, int]]:
        """One corpus-level featurization engine shared by all matchers.

        Reuses the build's :class:`SimilarityEngine` when present (its
        title tokenization is already paid for) and registers the
        description/brand/serialized attribute texts the symbolic matchers
        featurize with.  Attribute token views build lazily on first use
        and are then shared across every dataset, grid cell and seed.
        """
        if self._featurization_backend is None:
            offers = self.artifacts.cleansed.offers
            engine = self.artifacts.engine
            if engine is None or len(engine) != len(offers):
                engine = SimilarityEngine([offer.title for offer in offers])
            if not engine.has_attribute("description"):
                engine.register_attribute(
                    "description", [offer.description for offer in offers]
                )
            if not engine.has_attribute("brand"):
                engine.register_attribute("brand", [offer.brand for offer in offers])
            if not engine.has_attribute(SERIALIZED_ATTRIBUTE):
                engine.register_attribute(
                    SERIALIZED_ATTRIBUTE, [serialize_offer(offer) for offer in offers]
                )
            offer_rows = {
                offer.offer_id: row for row, offer in enumerate(offers)
            }
            self._featurization_backend = (engine, offer_rows)
        return self._featurization_backend

    # ------------------------------------------------------------------ #
    # Blocking-sourced candidates (no materialized pair sets)
    # ------------------------------------------------------------------ #
    def blocked_dataset(
        self,
        entries: list[tuple[str, ProductOffer]],
        name: str,
        *,
        k: int = 10,
        metrics: Sequence[str] | None = None,
    ) -> PairDataset:
        """A labeled pair set blocked from one split's raw offers.

        The split becomes a view over the shared featurization engine and
        its candidate pairs come from the top-``k`` join (union over
        ``metrics``, default all engine metrics) plus the ground-truth
        within-cluster positives — no benchmark pair set is read.
        """
        engine, offer_rows = self.featurization_backend()
        blocker = CandidateBlocker.over_entries(engine, entries, offer_rows)
        if metrics is None:
            metrics = blocker.engine.metric_names
        blocked = blocker.candidates(k=k, metrics=metrics)
        return blocked.with_group_positives().to_dataset(name)

    def blocked_pairwise(
        self,
        corner_cases: CornerCaseRatio,
        dev_size: DevSetSize,
        unseen: UnseenRatio = UnseenRatio.SEEN,
        *,
        k: int = 10,
        metrics: Sequence[str] | None = None,
    ) -> PairwiseTask:
        """One pair-wise variant with all three splits blocked, not read.

        Train, validation and test candidates are generated from the raw
        split offers through the blocking join; the benchmark's
        materialized pair sets are never touched, so this is the path a
        million-offer corpus without pre-built pairs would take.
        """
        split = self.artifacts.splits[corner_cases]
        variant = PairwiseVariant(corner_cases, dev_size, unseen)
        prefix = f"blocked-{variant.name}"
        return PairwiseTask(
            variant=variant,
            train=self.blocked_dataset(
                split.train_offers(dev_size), f"{prefix}-train", k=k, metrics=metrics
            ),
            valid=self.blocked_dataset(
                split.valid_offers(), f"{prefix}-valid", k=k, metrics=metrics
            ),
            test=self.blocked_dataset(
                split.test_offers(unseen), f"{prefix}-test", k=k, metrics=metrics
            ),
        )

    def run_pairwise_from_blocking(
        self,
        systems: tuple[str, ...] = ("word_cooc", "magellan"),
        *,
        k: int = 10,
        metrics: Sequence[str] | None = None,
        progress: bool = False,
    ) -> PairwiseResults:
        """Train/evaluate pair-wise systems on blocking-generated candidates.

        The mirror of :meth:`run_pairwise` for corpora without
        materialized pair sets: every (train, valid, test) cell is blocked
        on demand from the raw split offers.  Each split is blocked at
        most once across systems, seeds and unseen ratios — train/valid
        depend only on (cc, dev); only the test split varies with the
        unseen ratio.
        """
        settings = self.settings
        results = PairwiseResults()
        train_sets: dict[tuple[CornerCaseRatio, DevSetSize], PairDataset] = {}
        valid_sets: dict[CornerCaseRatio, PairDataset] = {}
        test_sets: dict[tuple[CornerCaseRatio, UnseenRatio], PairDataset] = {}

        def fit_sets_for(cc, dev):
            split = self.artifacts.splits[cc]
            if (cc, dev) not in train_sets:
                train_sets[(cc, dev)] = self.blocked_dataset(
                    split.train_offers(dev),
                    f"blocked-{cc.label}-{dev.value}-train",
                    k=k,
                    metrics=metrics,
                )
            if cc not in valid_sets:
                valid_sets[cc] = self.blocked_dataset(
                    split.valid_offers(), f"blocked-{cc.label}-valid", k=k, metrics=metrics
                )
            return train_sets[(cc, dev)], valid_sets[cc]

        def test_set_for(cc, unseen):
            key = (cc, unseen)
            if key not in test_sets:
                split = self.artifacts.splits[cc]
                test_sets[key] = self.blocked_dataset(
                    split.test_offers(unseen),
                    f"blocked-{cc.label}-test-{unseen.label.lower()}",
                    k=k,
                    metrics=metrics,
                )
            return test_sets[key]

        for system in systems:
            for corner_cases, dev_size in settings.resolved_pairwise_cells():
                per_unseen: dict[UnseenRatio, list[PRF1]] = {
                    unseen: [] for unseen in settings.unseen_ratios
                }
                for seed in settings.seeds:
                    matcher = self.make_pairwise(system, seed)
                    train, valid = fit_sets_for(corner_cases, dev_size)
                    matcher.fit(train, valid)
                    for unseen in settings.unseen_ratios:
                        variant = PairwiseVariant(corner_cases, dev_size, unseen)
                        test = test_set_for(corner_cases, unseen)
                        score = matcher.evaluate(test)
                        per_unseen[unseen].append(score)
                        results.per_seed[(system, variant, seed)] = score
                for unseen in settings.unseen_ratios:
                    variant = PairwiseVariant(corner_cases, dev_size, unseen)
                    results.scores[(system, variant)] = _mean_prf1(per_unseen[unseen])
                    if progress:
                        score = results.scores[(system, variant)]
                        print(
                            f"  {system:10s} {variant.name:24s} "
                            f"F1={score.f1 * 100:.2f} (blocked)",
                            flush=True,
                        )
        return results

    # ------------------------------------------------------------------ #
    def checkpoint(self, seed: int) -> MiniLM:
        """The pretrained encoder checkpoint (RoBERTa-base analog).

        Built once per seed on corpus clusters that are never part of the
        benchmark, then shared by all neural matchers — mirroring how every
        system in the paper starts from the same public checkpoint.
        """
        if seed not in self._checkpoints:
            # Same serialization as the fine-tuned matchers, so the
            # checkpoint's input distribution matches fine-tuning.
            clusters = self.artifacts.pretraining_clusters(
                serializer=lambda offer: serialize_offer(
                    offer, include_description=False
                )
            )
            texts = [text for _, _, cluster_texts in clusters for text in cluster_texts]
            lm = MiniLM(seed=seed)
            lm.pretrain(texts, steps=self.settings.mlm_steps)
            lm.pretrain_matching(
                clusters,
                steps=self.settings.matching_steps,
                pairs_per_side=48,
                peak_lr=3e-3,
                hard_negative_rate=0.6,
            )
            self._checkpoints[seed] = lm
        return self._checkpoints[seed]

    def _train_settings(self) -> TrainSettings:
        return TrainSettings(step_budget=self.settings.step_budget)

    def make_pairwise(self, system: str, seed: int) -> PairwiseMatcher:
        """Instantiate one pair-wise matching system.

        The symbolic systems featurize through the shared corpus-level
        engine, so they never re-tokenize an offer that any other matcher
        (or dataset) has already touched.
        """
        if system == "word_cooc":
            engine, offer_rows = self.featurization_backend()
            return WordCoocMatcher(seed=seed, engine=engine, offer_rows=offer_rows)
        if system == "magellan":
            engine, offer_rows = self.featurization_backend()
            return MagellanMatcher(seed=seed, engine=engine, offer_rows=offer_rows)
        if system == "roberta":
            return TransformerMatcher(
                settings=self._train_settings(), pretrained=self.checkpoint(seed), seed=seed
            )
        if system == "ditto":
            return DittoMatcher(
                settings=self._train_settings(), pretrained=self.checkpoint(seed), seed=seed
            )
        if system == "hiergat":
            matcher = HierGATMatcher(seed=seed)
            matcher.pretrained = self.checkpoint(seed)
            return matcher
        if system == "rsupcon":
            return RSupConMatcher(
                settings=self._train_settings(),
                pretrain_epochs=self.settings.pretrain_epochs,
                pretrained=self.checkpoint(seed),
                seed=seed,
            )
        raise ValueError(f"unknown pair-wise system: {system!r}")

    def make_multiclass(self, system: str, seed: int) -> MulticlassMatcher:
        """Instantiate one multi-class matching system."""
        if system == "word_occ":
            return WordOccurrenceClassifier(seed=seed)
        if system == "roberta":
            return TransformerMulticlass(
                settings=self._train_settings(), pretrained=self.checkpoint(seed), seed=seed
            )
        if system == "rsupcon":
            return RSupConMulticlass(
                settings=self._train_settings(),
                pretrain_epochs=self.settings.pretrain_epochs,
                pretrained=self.checkpoint(seed),
                seed=seed,
            )
        raise ValueError(f"unknown multi-class system: {system!r}")

    # ------------------------------------------------------------------ #
    def run_pairwise(
        self,
        systems: tuple[str, ...] = PAIRWISE_SYSTEMS,
        *,
        progress: bool = False,
    ) -> PairwiseResults:
        """Train each system per (cc, dev, seed); evaluate on all test sets."""
        settings = self.settings
        benchmark = self.artifacts.benchmark
        results = PairwiseResults()
        for system in systems:
            for corner_cases, dev_size in settings.resolved_pairwise_cells():
                per_unseen: dict[UnseenRatio, list[PRF1]] = {
                    unseen: [] for unseen in settings.unseen_ratios
                }
                for seed in settings.seeds:
                    matcher = self.make_pairwise(system, seed)
                    task = benchmark.pairwise(corner_cases, dev_size, UnseenRatio.SEEN)
                    matcher.fit(task.train, task.valid)
                    for unseen in settings.unseen_ratios:
                        variant = PairwiseVariant(corner_cases, dev_size, unseen)
                        test = benchmark.test_sets[(corner_cases, unseen)]
                        score = matcher.evaluate(test)
                        per_unseen[unseen].append(score)
                        results.per_seed[(system, variant, seed)] = score
                for unseen in settings.unseen_ratios:
                    variant = PairwiseVariant(corner_cases, dev_size, unseen)
                    results.scores[(system, variant)] = _mean_prf1(per_unseen[unseen])
                    if progress:
                        score = results.scores[(system, variant)]
                        print(
                            f"  {system:10s} {variant.name:24s} "
                            f"F1={score.f1 * 100:.2f}",
                            flush=True,
                        )
        return results

    def run_multiclass(
        self,
        systems: tuple[str, ...] = MULTICLASS_SYSTEMS,
        *,
        progress: bool = False,
    ) -> MulticlassResults:
        """Train/evaluate the multi-class systems over their 9 variants."""
        settings = self.settings
        benchmark = self.artifacts.benchmark
        results = MulticlassResults()
        for system in systems:
            for corner_cases, dev_size in settings.resolved_multiclass_cells():
                variant = MulticlassVariant(corner_cases, dev_size)
                scores: list[float] = []
                for seed in settings.seeds:
                    matcher = self.make_multiclass(system, seed)
                    task = benchmark.multiclass(variant.corner_cases, variant.dev_size)
                    matcher.fit(task.train, task.valid)
                    scores.append(matcher.evaluate(task.test))
                results.scores[(system, variant)] = float(np.mean(scores))
                if progress:
                    print(
                        f"  {system:10s} {variant.name:16s} "
                        f"micro-F1={results.scores[(system, variant)] * 100:.2f}",
                        flush=True,
                    )
        return results
