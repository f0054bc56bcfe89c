"""The build cache's disk tier: codecs, integrity, degradation, CLI.

Pins the disk-tier contract of :mod:`repro.cache` / :mod:`repro.io.artifacts`:

* **round-trips are exact** — catalog and panel ``.npz`` artifacts
  decode dtype- and content-identical to what was encoded;
* **integrity failures rebuild** — corrupted, truncated, wrong-version,
  wrong-kind or invariant-breaking artifacts, and stale JSON catalogs
  of the earlier format, are misses: the builder runs, the bad file is
  republished, and nothing corrupt ever reaches a caller;
* **publication is atomic** — concurrent publishers of one key both
  succeed and readers never observe a partial artifact;
* **degradation is graceful** — an unusable root warns once and falls
  back to in-memory behaviour; ``depth="cache"`` fault plans chaos-test
  the same paths without perturbing results;
* **the CLI works end-to-end** — ``cache warm`` → ``cache info`` →
  ``cache clear``, with a warmed root making later builds bit-identical
  disk hydrations (including the process-global cache via
  ``REPRO_CACHE_ROOT``).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import warnings

import numpy as np
import pytest

from repro import build_simulation, quick_config
from repro.catalog import Interest, InterestCatalog
from repro.cache import (
    CACHE_ROOT_ENV,
    CACHE_SIZE_ENV,
    BuildCache,
    DiskCache,
    build_cache,
    reset_build_cache,
    resolve_cache_root,
    resolve_cache_size,
)
from repro.cli import main
from repro.errors import ArtifactError, ConfigurationError
from repro.faults import FaultPlan, guarded_call
from repro.io.artifacts import (
    ARTIFACT_FORMAT_VERSION,
    CATALOG_CODEC,
    PanelArtifactCodec,
    _digest,
)
from repro.pipeline import (
    build_catalog,
    build_panel,
    catalog_fingerprint,
    panel_fingerprint,
)
from repro.scenarios import ScenarioSpec, SweepRunner, manifest_path_for

FACTOR = 80


def small_config():
    return quick_config(factor=FACTOR)


def build_stages(cache: BuildCache):
    """(catalog, panel) for the small config through ``cache``."""
    config = small_config()
    catalog = build_catalog(config, seed=17, cache=cache)
    panel = build_panel(config, seed=17, catalog=catalog, cache=cache)
    return catalog, panel


def rewrite_catalog_npz(path, *, header=None, redigest=False, **arrays):
    """Rewrite a catalog ``.npz`` with header fields and arrays replaced.

    ``redigest`` recomputes the digest so only the catalog invariants
    (not the digest) can reject the result.
    """
    with np.load(path, allow_pickle=False) as data:
        document = json.loads(str(data["header"][()]))
        contents = {name: data[name] for name in data.files if name != "header"}
    contents.update(arrays)
    document.update(header or {})
    if redigest:
        document["digest"] = _digest(document["topics"], contents)
    with open(path, "wb") as handle:
        np.savez(handle, header=np.array(json.dumps(document)), **contents)


@pytest.fixture
def warmed_disk(tmp_path):
    """A disk tier with the small config's catalog and panel published."""
    disk = DiskCache(tmp_path / "cache")
    build_stages(BuildCache(disk=disk))
    assert len(disk.artifact_paths()) == 2
    return disk


@pytest.fixture
def fresh_global_cache():
    """Isolate tests that point the process-global cache at an env root."""
    reset_build_cache()
    yield
    reset_build_cache()


class TestCodecRoundTrip:
    def test_catalog_round_trip_is_content_exact(self, tmp_path):
        catalog, _ = build_stages(BuildCache())
        path = tmp_path / "artifact.catalog.npz"
        CATALOG_CODEC.encode(catalog, path)
        decoded = CATALOG_CODEC.decode(path)
        assert decoded.to_dicts() == catalog.to_dicts()
        original, hydrated = catalog.to_columns(), decoded.to_columns()
        for name in ("ids", "audiences", "topic_codes"):
            assert getattr(hydrated, name).dtype == getattr(original, name).dtype
            assert np.array_equal(getattr(hydrated, name), getattr(original, name))
        assert hydrated.topics == original.topics
        assert hydrated.names is None

    def test_record_names_survive_the_round_trip(self, tmp_path):
        catalog = InterestCatalog.from_interests(
            [
                Interest(9, "Vintage cameras", "Hobbies", 120),
                Interest(2, "Jazz", "Music", 40),
            ]
        )
        path = tmp_path / "artifact.catalog.npz"
        CATALOG_CODEC.encode(catalog, path)
        assert CATALOG_CODEC.decode(path).to_dicts() == catalog.to_dicts()

    def test_panel_round_trip_is_dtype_and_content_exact(self, tmp_path):
        catalog, panel = build_stages(BuildCache())
        codec = PanelArtifactCodec(catalog)
        path = tmp_path / "artifact.panel.npz"
        codec.encode(panel, path)
        decoded = codec.decode(path)
        original, hydrated = panel.columns, decoded.columns
        assert hydrated.content_equals(original)
        for name in (
            "user_ids",
            "country_index",
            "gender_index",
            "ages",
            "indptr",
            "interest_ids",
        ):
            assert getattr(hydrated, name).dtype == getattr(original, name).dtype
        assert hydrated.country_codes == original.country_codes
        assert decoded.catalog.to_dicts() == catalog.to_dicts()


class TestIntegrity:
    """Any unreadable or tampered artifact is a miss, never a bad load."""

    def _panel_path(self, disk: DiskCache) -> "Path":
        catalog, _ = build_stages(BuildCache())
        return disk.path_for(
            panel_fingerprint(small_config(), 17), PanelArtifactCodec(catalog)
        )

    def _rebuilds_cleanly(self, disk: DiskCache):
        """A fresh cache over ``disk`` must rebuild, not trust, the artifact."""
        reference_catalog, reference_panel = build_stages(BuildCache())
        cache = BuildCache(disk=disk)
        catalog, panel = build_stages(cache)
        info = cache.cache_info()
        assert panel.columns.content_equals(reference_panel.columns)
        assert catalog.to_dicts() == reference_catalog.to_dicts()
        assert info.disk_load_errors >= 1
        return info

    def test_corrupted_panel_rebuilds(self, warmed_disk):
        path = self._panel_path(warmed_disk)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        self._rebuilds_cleanly(warmed_disk)
        # The rebuild republished a good artifact over the corrupt one.
        catalog, _ = build_stages(BuildCache())
        PanelArtifactCodec(catalog).decode(path)

    def test_truncated_panel_rebuilds(self, warmed_disk):
        path = self._panel_path(warmed_disk)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        self._rebuilds_cleanly(warmed_disk)

    def _catalog_path(self, disk: DiskCache) -> "Path":
        return disk.path_for(catalog_fingerprint(small_config(), 17), CATALOG_CODEC)

    def test_wrong_version_rebuilds(self, warmed_disk):
        rewrite_catalog_npz(
            self._catalog_path(warmed_disk),
            header={"format_version": ARTIFACT_FORMAT_VERSION + 1},
        )
        self._rebuilds_cleanly(warmed_disk)

    def test_tampered_payload_fails_the_digest(self, tmp_path):
        catalog, _ = build_stages(BuildCache())
        path = tmp_path / "artifact.catalog.npz"
        CATALOG_CODEC.encode(catalog, path)
        audiences = catalog.all_audience_sizes()
        audiences[0] = 1
        rewrite_catalog_npz(path, audiences=audiences)
        with pytest.raises(ArtifactError, match="digest mismatch"):
            CATALOG_CODEC.decode(path)

    def test_wrong_kind_is_rejected(self, tmp_path):
        catalog, panel = build_stages(BuildCache())
        path = tmp_path / "artifact.catalog.npz"
        CATALOG_CODEC.encode(catalog, path)
        rewrite_catalog_npz(path, header={"kind": "panel"})
        with pytest.raises(ArtifactError, match="kind mismatch"):
            CATALOG_CODEC.decode(path)

    @pytest.mark.parametrize(
        "defect",
        [
            "short audiences",
            "unsorted ids",
            "duplicate ids",
            "code past the table",
            "negative code",
            "negative audience",
            "float ids",
            "topic table not a list",
            "bad digest",
        ],
    )
    def test_invariant_breaking_catalog_rebuilds(self, warmed_disk, defect):
        path = self._catalog_path(warmed_disk)
        columns = CATALOG_CODEC.decode(path).to_columns()
        ids, audiences, codes = (
            np.array(array)
            for array in (columns.ids, columns.audiences, columns.topic_codes)
        )
        edits = {
            "short audiences": {"audiences": audiences[:-1]},
            "unsorted ids": {"ids": ids[::-1]},
            "duplicate ids": {"ids": np.concatenate(([ids[1]], ids[1:]))},
            "code past the table": {
                "topic_codes": np.where(codes == 0, len(columns.topics), codes)
            },
            "negative code": {"topic_codes": codes - 1},
            "negative audience": {"audiences": -audiences},
            "float ids": {"ids": ids.astype(float)},
            "topic table not a list": {"header": {"topics": "Music"}},
            "bad digest": {"header": {"digest": "0" * 64}},
        }[defect]
        rewrite_catalog_npz(path, redigest=defect != "bad digest", **edits)
        with pytest.raises(ArtifactError):
            CATALOG_CODEC.decode(path)
        self._rebuilds_cleanly(warmed_disk)
        CATALOG_CODEC.decode(path)

    def _write_stale_json_catalog(self, path: "Path") -> None:
        """The JSON document the earlier catalog codec wrote."""
        catalog, _ = build_stages(BuildCache())
        payload = {"interests": catalog.to_dicts()}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        document = {
            "format_version": ARTIFACT_FORMAT_VERSION,
            "kind": "catalog",
            "digest": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
            "payload": payload,
        }
        path.write_text(json.dumps(document, sort_keys=True, separators=(",", ":")))

    def test_stale_json_catalog_is_a_miss(self, warmed_disk):
        path = self._catalog_path(warmed_disk)
        stale = path.with_name(path.name.replace(".catalog.npz", ".catalog.json"))
        self._write_stale_json_catalog(stale)
        path.unlink()
        cache = BuildCache(disk=warmed_disk)
        catalog, _ = build_stages(cache)
        info = cache.cache_info()
        assert (info.misses, info.disk_hits, info.disk_load_errors) == (1, 1, 0)
        assert catalog.to_dicts() == build_stages(BuildCache())[0].to_dicts()
        CATALOG_CODEC.decode(path)

    def test_json_bytes_under_the_npz_name_rebuild(self, warmed_disk):
        self._write_stale_json_catalog(self._catalog_path(warmed_disk))
        self._rebuilds_cleanly(warmed_disk)

    def test_absent_artifact_is_a_miss_not_an_error(self, tmp_path):
        cache = BuildCache(disk=DiskCache(tmp_path / "cache"))
        build_stages(cache)
        info = cache.cache_info()
        assert info.misses == 2
        assert info.disk_hits == 0
        assert info.disk_load_errors == 0
        assert info.disk_store_errors == 0

    def test_cleared_memory_rehydrates_from_disk(self, warmed_disk):
        cache = BuildCache(disk=warmed_disk)
        build_stages(cache)
        info = cache.cache_info()
        assert info.disk_hits == 2
        assert info.misses == 0
        cache.clear()
        build_stages(cache)
        assert cache.cache_info().disk_hits == 2


class TestAtomicPublication:
    def test_racing_publishers_both_succeed(self, tmp_path):
        disk = DiskCache(tmp_path / "cache")
        config = small_config()
        key = catalog_fingerprint(config, 17)
        barrier = threading.Barrier(2)
        results, errors = [], []

        def publish():
            cache = BuildCache(disk=disk)
            barrier.wait()
            try:
                results.append(
                    cache.get_or_build(
                        key,
                        lambda: build_catalog(config, seed=17),
                        codec=CATALOG_CODEC,
                    )
                )
                errors.append(cache.cache_info().disk_store_errors)
            except Exception as exc:  # pragma: no cover - fails the assert
                errors.append(exc)

        threads = [threading.Thread(target=publish) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 2
        assert results[0].to_dicts() == results[1].to_dicts()
        # Last-wins with identical content: the surviving file decodes and
        # no stray temp files are left behind.
        decoded = CATALOG_CODEC.decode(disk.path_for(key, CATALOG_CODEC))
        assert decoded.to_dicts() == results[0].to_dicts()
        assert disk.artifact_paths() == [disk.path_for(key, CATALOG_CODEC)]
        assert not list(disk.objects_dir.glob("*.tmp-*"))


class TestGracefulDegradation:
    def test_unusable_root_warns_once_and_stays_in_memory(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        # objects/ cannot be created under a regular file, whoever runs
        # the suite (chmod-based read-only roots are invisible to root).
        cache = BuildCache(disk=DiskCache(blocker / "cache"))
        reference_catalog, reference_panel = build_stages(BuildCache())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            catalog, panel = build_stages(cache)
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "continuing in-memory only" in str(runtime[0].message)
        info = cache.cache_info()
        assert info.disk_store_errors == 2
        assert info.misses == 2
        assert panel.columns.content_equals(reference_panel.columns)
        assert catalog.to_dicts() == reference_catalog.to_dicts()
        # The memory tier still serves the artifacts it built.
        assert build_stages(cache)[1] is panel

    def test_cache_depth_chaos_degrades_to_rebuild(self, warmed_disk):
        plan = FaultPlan(
            seed=7, error_rate=1.0, depth="cache", max_faults_per_task=100
        )
        reference_catalog, reference_panel = build_stages(BuildCache())
        cache = BuildCache(disk=warmed_disk)

        (catalog, panel), _ = guarded_call(
            lambda _: build_stages(cache), None, index=0, faults=plan
        )
        info = cache.cache_info()
        # Every disk load and store faulted; the run fell back to a clean
        # rebuild with identical content.
        assert info.disk_hits == 0
        assert info.disk_load_errors == 2
        assert info.disk_store_errors == 2
        assert info.misses == 2
        assert panel.columns.content_equals(reference_panel.columns)
        assert catalog.to_dicts() == reference_catalog.to_dicts()
        # Outside the guarded call the same root still hydrates fine.
        fresh = BuildCache(disk=warmed_disk)
        build_stages(fresh)
        assert fresh.cache_info().disk_hits == 2

    def test_cache_depth_plans_reject_latency_kinds(self):
        with pytest.raises(ConfigurationError, match="error kinds only"):
            FaultPlan(seed=1, slow_rate=0.5, depth="cache")


class TestEnvironmentKnobs:
    def test_cache_size_env_bounds_the_global_cache(
        self, monkeypatch, fresh_global_cache
    ):
        monkeypatch.setenv(CACHE_SIZE_ENV, "2")
        assert build_cache().maxsize == 2

    def test_explicit_maxsize_ignores_the_env(self, monkeypatch):
        monkeypatch.setenv(CACHE_SIZE_ENV, "2")
        assert BuildCache(maxsize=5).maxsize == 5
        assert BuildCache().maxsize == 32

    @pytest.mark.parametrize("raw", ["zero", "0", "-3"])
    def test_invalid_cache_size_env_is_loud(self, monkeypatch, raw):
        monkeypatch.setenv(CACHE_SIZE_ENV, raw)
        with pytest.raises(ConfigurationError):
            resolve_cache_size()

    def test_cache_root_env_attaches_the_disk_tier(
        self, monkeypatch, tmp_path, fresh_global_cache
    ):
        monkeypatch.setenv(CACHE_ROOT_ENV, str(tmp_path / "root"))
        cache = build_cache()
        assert cache.disk is not None
        assert cache.disk.root == tmp_path / "root"

    def test_without_the_env_the_global_cache_is_memory_only(
        self, monkeypatch, fresh_global_cache
    ):
        monkeypatch.delenv(CACHE_ROOT_ENV, raising=False)
        assert build_cache().disk is None

    def test_resolve_cache_root_precedence(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ROOT_ENV, str(tmp_path / "env"))
        assert resolve_cache_root(tmp_path / "explicit") == tmp_path / "explicit"
        assert resolve_cache_root() == tmp_path / "env"
        monkeypatch.delenv(CACHE_ROOT_ENV)
        assert resolve_cache_root().name == "repro-facebook"


class TestManifestFolding:
    def _resolved(self, seed=17):
        spec = ScenarioSpec(
            name="fold",
            study="uniqueness",
            factor=FACTOR,
            seed=seed,
            strategies=("random",),
            probabilities=(0.9,),
            n_bootstrap=10,
        )
        return SweepRunner().resolve((spec,))

    def test_path_folds_under_the_cache_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ROOT_ENV, str(tmp_path / "root"))
        path = manifest_path_for(self._resolved())
        assert path.parent == tmp_path / "root" / "manifests"
        assert path.suffix == ".json"
        # Content-addressed: same grid, same path; different grid, different.
        assert path == manifest_path_for(self._resolved())
        assert path != manifest_path_for(self._resolved(seed=18))

    def test_explicit_root_wins(self, tmp_path):
        path = manifest_path_for(self._resolved(), root=tmp_path / "other")
        assert path.parent == tmp_path / "other" / "manifests"

    def test_bare_manifest_flag_folds_the_sweep_manifest(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setenv(CACHE_ROOT_ENV, str(tmp_path / "root"))
        spec_file = tmp_path / "grid.json"
        spec_file.write_text(
            json.dumps(
                {
                    "base": {
                        "name": "auto",
                        "study": "uniqueness",
                        "factor": FACTOR,
                        "seed": 3,
                        "strategies": ["random"],
                        "probabilities": [0.9],
                        "n_bootstrap": 10,
                    }
                }
            )
        )
        assert main(["scenario", "sweep", "--spec", str(spec_file), "--manifest"]) == 0
        manifests = DiskCache(tmp_path / "root").manifest_paths()
        assert len(manifests) == 1
        payload = json.loads(manifests[0].read_text())
        assert [e["status"] for e in payload["entries"]] == ["completed"]
        assert str(manifests[0]) in capsys.readouterr().out
        # A bare --resume now picks the same manifest back up.
        assert main(["scenario", "sweep", "--spec", str(spec_file), "--resume"]) == 0
        assert "1 resumed" in capsys.readouterr().out


class TestPrune:
    """LRU-by-mtime eviction keeps a disk root under a byte budget."""

    @pytest.fixture
    def aged_disk(self, tmp_path):
        """Three catalog artifacts with strictly increasing mtimes k0<k1<k2."""
        disk = DiskCache(tmp_path / "cache")
        catalog = build_catalog(small_config(), seed=17)
        base_ns = 1_700_000_000 * 10**9
        for step in range(3):
            key = f"prune-test-{step}"
            assert disk.store(key, CATALOG_CODEC, catalog)
            stamp = base_ns + step * 10**9
            os.utime(disk.path_for(key, CATALOG_CODEC), ns=(stamp, stamp))
        return disk

    def _names(self, disk):
        return sorted(path.name for path in disk.artifact_paths())

    def test_generous_budget_removes_nothing(self, aged_disk):
        stats = aged_disk.prune(max_bytes=10**12)
        assert stats == {
            "removed": 0,
            "freed_bytes": 0,
            "remaining_bytes": sum(
                p.stat().st_size for p in aged_disk.artifact_paths()
            ),
        }
        assert len(aged_disk.artifact_paths()) == 3

    def test_oldest_artifact_goes_first(self, aged_disk):
        total = sum(p.stat().st_size for p in aged_disk.artifact_paths())
        stats = aged_disk.prune(max_bytes=total - 1)
        assert stats["removed"] == 1
        assert stats["remaining_bytes"] <= total - 1
        survivors = self._names(aged_disk)
        assert not any("prune-test-0" in name for name in survivors)
        assert len(survivors) == 2

    def test_load_refreshes_recency(self, aged_disk):
        # A hit on the oldest artifact touches its mtime, so the next
        # prune evicts the *second*-oldest instead.
        status, artifact = aged_disk.load("prune-test-0", CATALOG_CODEC)
        assert status == "hit" and artifact is not None
        total = sum(p.stat().st_size for p in aged_disk.artifact_paths())
        aged_disk.prune(max_bytes=total - 1)
        survivors = self._names(aged_disk)
        assert any("prune-test-0" in name for name in survivors)
        assert not any("prune-test-1" in name for name in survivors)

    def test_zero_budget_empties_the_root(self, aged_disk):
        stats = aged_disk.prune(max_bytes=0)
        assert stats["removed"] == 3
        assert stats["remaining_bytes"] == 0
        assert aged_disk.artifact_paths() == []

    def test_negative_budget_is_loud(self, aged_disk):
        with pytest.raises(ConfigurationError):
            aged_disk.prune(max_bytes=-1)

    def test_inflight_temp_files_are_left_alone(self, aged_disk):
        # Temp files belong to in-flight stores; prune must not race them.
        temp = aged_disk.objects_dir / "whatever.json.tmp-123-456"
        temp.write_text("partial")
        aged_disk.prune(max_bytes=0)
        assert temp.is_file()

    def test_already_unlinked_artifact_counts_as_freed(self, aged_disk, monkeypatch):
        # A racing pruner (or clear) unlinking first is tolerated: its
        # bytes are gone either way, and the sweep carries on.
        from pathlib import Path

        real_unlink = Path.unlink

        def racing_unlink(self, *args, **kwargs):
            real_unlink(self)
            raise FileNotFoundError(str(self))

        monkeypatch.setattr(Path, "unlink", racing_unlink)
        stats = aged_disk.prune(max_bytes=0)
        monkeypatch.undo()
        assert stats["removed"] == 0  # every unlink "lost" its race
        assert stats["remaining_bytes"] == 0
        assert aged_disk.artifact_paths() == []


class TestCacheCli:
    def test_warm_info_clear_cycle(self, tmp_path, capsys):
        root = tmp_path / "root"
        assert main(["cache", "warm", "--root", str(root), "--factor", str(FACTOR)]) == 0
        out = capsys.readouterr().out
        assert "warmed 1 stage group(s): 2 artifact(s) built" in out

        assert main(["cache", "info", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "artifacts : 2" in out
        assert "catalog: 1" in out
        assert "panel: 1" in out

        # Warming again is a no-op: everything is already on disk.
        assert main(["cache", "warm", "--root", str(root), "--factor", str(FACTOR)]) == 0
        assert "0 artifact(s) built, 2 already on disk" in capsys.readouterr().out

        assert main(["cache", "clear", "--root", str(root)]) == 0
        assert "removed 2 file(s)" in capsys.readouterr().out
        assert main(["cache", "info", "--root", str(root)]) == 0
        assert "artifacts : 0" in capsys.readouterr().out

    def test_prune_cycle(self, tmp_path, capsys):
        root = tmp_path / "root"
        assert main(["cache", "warm", "--root", str(root), "--factor", str(FACTOR)]) == 0
        capsys.readouterr()

        # A generous budget is a no-op.
        big = str(10**12)
        assert main(["cache", "prune", "--root", str(root), "--max-bytes", big]) == 0
        out = capsys.readouterr().out
        assert "pruned 0 artifact(s)" in out
        assert "budget in use" in out

        # A zero budget empties the root; info agrees.
        assert main(["cache", "prune", "--root", str(root), "--max-bytes", "0"]) == 0
        assert "pruned 2 artifact(s)" in capsys.readouterr().out
        assert main(["cache", "info", "--root", str(root)]) == 0
        assert "artifacts : 0" in capsys.readouterr().out

    def test_prune_requires_a_budget(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "prune", "--root", str(tmp_path / "root")])

    def test_warm_grid_dedups_shared_stages(self, tmp_path, capsys):
        root = tmp_path / "root"
        exit_code = main(
            [
                "cache", "warm", "uniqueness-table1",
                "--factor", str(FACTOR), "--seed", "17",
                "--grid", "strategies=least_popular,random",
                "--root", str(root),
            ]
        )
        assert exit_code == 0
        # Two grid rows differing only in strategies share one stage group.
        assert "warmed 1 stage group(s)" in capsys.readouterr().out

    def test_unwritable_root_exits_1_with_warning(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            exit_code = main(
                [
                    "cache", "warm",
                    "--root", str(blocker / "cache"),
                    "--factor", str(FACTOR),
                ]
            )
        assert exit_code == 1
        assert "could not be published" in capsys.readouterr().err


class TestDiskHydratedBitIdentity:
    def test_hydrated_simulation_reproduces_the_in_memory_run(
        self, monkeypatch, tmp_path, fresh_global_cache
    ):
        config = small_config()
        plain = build_simulation(config, seed=17)
        plain_report = plain.uniqueness_model().estimate(
            plain.strategies()[1], probabilities=(0.9,)
        )

        root = tmp_path / "root"
        warm = BuildCache(disk=DiskCache(root))
        build_simulation(config, seed=17, cache=warm)
        assert warm.cache_info().disk_store_errors == 0

        monkeypatch.setenv(CACHE_ROOT_ENV, str(root))
        reset_build_cache()
        cache = build_cache()
        hydrated = build_simulation(config, seed=17, cache=cache)
        info = cache.cache_info()
        assert info.disk_hits == 2
        assert info.misses == 0
        assert hydrated.panel.columns.content_equals(plain.panel.columns)
        assert hydrated.catalog.to_dicts() == plain.catalog.to_dicts()
        hydrated_report = hydrated.uniqueness_model().estimate(
            hydrated.strategies()[1], probabilities=(0.9,)
        )
        assert repr(hydrated_report.estimates) == repr(plain_report.estimates)
