"""The session store as checkpoint: resume keys, adoption, verification.

A sharded session persists and resumes through one
:class:`~repro.io.store.ArtifactStore`: workers write each shard's store,
the supervisor adopts it under the plan's config fingerprint, and a
resumed session opens every shard that still verifies.
"""

import copy
import json
from dataclasses import replace

import pytest

from repro.core import BuildConfig
from repro.core.builder import BenchmarkBuilder
from repro.errors import StoreError
from repro.io.store import (
    STORE_SCHEMA,
    ArtifactStore,
    StoredShard,
    config_fingerprint,
    open_store,
    write_store,
)
from repro.shard import respawn_config

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def artifacts():
    return BenchmarkBuilder(BuildConfig.small(n_products=30)).build()


@pytest.fixture
def base_config():
    return BuildConfig.small(n_products=30)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "ckpt")


def _save(store, shard, artifacts, **kwargs):
    store.save(
        shard,
        artifacts,
        base_fingerprint=config_fingerprint(artifacts.config),
        **kwargs,
    )


def _manifest(store, shard):
    return json.loads((store.shard_dir(shard) / "manifest.json").read_text())


class TestConfigFingerprint:
    def test_equal_configs_fingerprint_equally(self, base_config):
        assert config_fingerprint(base_config) == config_fingerprint(
            BuildConfig.small(n_products=30)
        )

    def test_any_seed_change_changes_the_fingerprint(self, base_config):
        respawned = respawn_config(
            base_config, session_seed=42, shard=0, attempt=2
        )
        assert config_fingerprint(respawned) != config_fingerprint(
            base_config
        )

    def test_store_dir_does_not_change_the_fingerprint(self, base_config):
        # Where a shard is persisted is not what it builds: a moved or
        # copied session root still resumes.
        moved = replace(base_config, store_dir="/elsewhere/shard-0000")
        assert config_fingerprint(moved) == config_fingerprint(base_config)


class TestSaveLoad:
    def test_round_trip(self, store, artifacts, base_config):
        _save(store, 3, artifacts)
        stored = store.open_shard(
            3, base_fingerprint=config_fingerprint(base_config)
        )
        assert isinstance(stored, StoredShard)
        manifest = stored.manifest
        assert manifest["schema"] == STORE_SCHEMA
        assert manifest["shard"] == 3
        assert manifest["attempt"] == 1
        assert manifest["base_fingerprint"] == manifest["config_fingerprint"]

    def test_reseeded_retry_checkpoint_loads_under_the_plan_config(
        self, store, artifacts, base_config
    ):
        built = respawn_config(
            base_config, session_seed=42, shard=0, attempt=2
        )
        # The worker writes the store keyed on the config it built with
        # (only the recorded config matters to the manifest's keys).
        reseeded = copy.copy(artifacts)
        reseeded.config = built
        write_store(store.shard_dir(0), reseeded)
        store.adopt(
            0,
            open_store(store.shard_dir(0), strict=True),
            base_fingerprint=config_fingerprint(base_config),
            attempt=2,
            elapsed=0.5,
        )
        stored = store.open_shard(
            0, base_fingerprint=config_fingerprint(base_config)
        )
        assert stored is not None
        manifest = stored.manifest
        assert manifest["attempt"] == 2
        assert manifest["base_fingerprint"] != manifest["config_fingerprint"]
        assert manifest["build_seed"] == built.seed
        assert manifest["corpus_seed"] == built.corpus.seed
        # The plan's fingerprint is the resume key, not the built one.
        assert (
            store.open_shard(0, base_fingerprint=config_fingerprint(built))
            is None
        )

    def test_absent_checkpoint_is_missing_even_in_strict_mode(
        self, store, base_config
    ):
        fingerprint = config_fingerprint(base_config)
        assert store.open_shard(7, base_fingerprint=fingerprint) is None
        assert (
            store.open_shard(7, base_fingerprint=fingerprint, strict=True)
            is None
        )


class TestVerification:
    def test_foreign_config_is_rejected(self, store, artifacts):
        _save(store, 0, artifacts)
        other = config_fingerprint(BuildConfig.small(n_products=40))
        assert store.open_shard(0, base_fingerprint=other) is None
        with pytest.raises(StoreError, match="fingerprint"):
            store.open_shard(0, base_fingerprint=other, strict=True)

    def test_truncated_payload_is_rejected(self, store, artifacts):
        _save(store, 0, artifacts)
        sidecar = store.shard_dir(0) / "incidence_data.npy"
        sidecar.write_bytes(sidecar.read_bytes()[:-7])
        assert store.open_shard(0) is None
        with pytest.raises(StoreError, match="sha256"):
            store.open_shard(0, strict=True)

    def test_garbage_manifest_is_rejected(self, store, artifacts):
        _save(store, 0, artifacts)
        (store.shard_dir(0) / "manifest.json").write_text("{ not json")
        assert store.open_shard(0) is None
        with pytest.raises(StoreError, match="unreadable"):
            store.open_shard(0, strict=True)

    def test_future_schema_is_rejected(self, store, artifacts):
        _save(store, 0, artifacts)
        manifest = _manifest(store, 0)
        manifest["schema"] = STORE_SCHEMA + 1
        (store.shard_dir(0) / "manifest.json").write_text(json.dumps(manifest))
        assert store.open_shard(0) is None
        with pytest.raises(StoreError, match="store schema"):
            store.open_shard(0, strict=True)

    def test_completed_shards_reports_only_verifiable_ones(
        self, store, artifacts, base_config
    ):
        configs = [base_config] * 4
        for shard in (0, 2, 3):
            _save(store, shard, artifacts)
        (store.shard_dir(3) / "shard.db").write_bytes(b"corrupt")
        assert store.completed_shards(configs) == [0, 2]


class TestInjectableClock:
    """`created_at` comes from the injected clock, not ambient time.time.

    The manifest timestamp is documentation-only (outside every file
    sha256 and both config fingerprints); the injectable clock keeps the
    store free of ambient wall-clock reads (repro-lint RNG004) and lets
    this test pin the stamp exactly.
    """

    def test_manifest_uses_injected_clock(self, store, artifacts):
        _save(store, 0, artifacts, clock=lambda: 1234.5)
        assert _manifest(store, 0)["created_at"] == 1234.5

    def test_clock_does_not_affect_verification(
        self, tmp_path, artifacts, base_config
    ):
        writer = ArtifactStore(tmp_path / "ckpt")
        _save(writer, 0, artifacts, clock=lambda: 7.0)
        # A fresh root over the same directory verifies and opens the
        # shard — the stamp is outside every integrity check.
        reader = ArtifactStore(tmp_path / "ckpt")
        stored = reader.open_shard(
            0, base_fingerprint=config_fingerprint(base_config), strict=True
        )
        assert stored is not None
        assert stored.manifest["created_at"] == 7.0

    def test_default_clock_is_wall_clock(self, store, artifacts):
        import time

        before = time.time()
        _save(store, 0, artifacts)
        assert before <= _manifest(store, 0)["created_at"] <= time.time()


class TestSqliteBackend:
    """The SQLite store as checkpoint: parity, adoption, typed refusal."""

    def test_round_trip_returns_stored_shard(self, store, artifacts):
        _save(store, 0, artifacts)
        stored = store.open_shard(
            0, base_fingerprint=config_fingerprint(artifacts.config),
            strict=True,
        )
        assert isinstance(stored, StoredShard)
        assert len(stored.cleansed.offers) == len(artifacts.cleansed.offers)
        assert len(stored.engine) == len(artifacts.engine)
        assert store.completed_shards([artifacts.config]) == [0]

    def test_adoption_amends_in_place(self, store, artifacts):
        # A worker already wrote the store into the shard's directory.
        write_store(store.shard_dir(2), artifacts)
        before = _manifest(store, 2)
        stored = open_store(store.shard_dir(2), strict=True)
        fingerprint = config_fingerprint(artifacts.config)
        store.adopt(
            2, stored, base_fingerprint=fingerprint, attempt=2, elapsed=1.5
        )
        manifest = _manifest(store, 2)
        assert manifest["shard"] == 2
        assert manifest["attempt"] == 2
        assert manifest["elapsed_seconds"] == 1.5
        assert manifest["base_fingerprint"] == fingerprint
        # No payload file was rewritten, and the adopted handle sees the
        # amended manifest.
        assert manifest["files"] == before["files"]
        assert stored.manifest == manifest and stored.shard == 2
        assert store.open_shard(2, base_fingerprint=fingerprint) is not None

    def test_foreign_directory_adoption_refused(self, store, artifacts, tmp_path):
        write_store(tmp_path / "elsewhere", artifacts)
        stored = open_store(tmp_path / "elsewhere", strict=True)
        with pytest.raises(StoreError, match="cannot adopt"):
            store.adopt(
                1,
                stored,
                base_fingerprint=config_fingerprint(artifacts.config),
                attempt=1,
                elapsed=0.0,
            )

    def test_corruption_is_typed_store_error(self, store, artifacts):
        _save(store, 0, artifacts)
        db = store.shard_dir(0) / "shard.db"
        db.write_bytes(db.read_bytes()[:-32])
        assert store.open_shard(0) is None
        with pytest.raises(StoreError, match="sha256 mismatch"):
            store.open_shard(0, strict=True)

    def test_streamed_verify_never_deserializes_bad_payload(
        self, store, artifacts, monkeypatch
    ):
        # A poisoned database is rejected by the chunked hash alone:
        # SQLite never opens it.
        _save(store, 0, artifacts)
        (store.shard_dir(0) / "shard.db").write_bytes(
            b"SQLite format 3\x00poisoned-not-the-payload"
        )

        def refuse(*args, **kwargs):
            raise AssertionError("an unverified store must not be opened")

        monkeypatch.setattr("repro.io.store.sqlite3.connect", refuse)
        assert store.open_shard(0) is None
        with pytest.raises(StoreError, match="sha256 mismatch"):
            store.open_shard(0, strict=True)
