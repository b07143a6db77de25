"""Tests for the results-as-a-service layer (campaign + store + serve).

The contracts under test:

* **Manifest determinism** — a campaign manifest expands to the exact
  same cell set on every invocation, and round-trips through JSON.
* **Cache resumability** — an interrupted campaign resumes from the
  result cache; a completed campaign replays with zero simulations.
* **Serve byte-identity** — every text deliverable served from the
  artifact store is byte-identical to rendering the sweep directly.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import threading
import types

import pytest

from repro.campaign import store as store_module
from repro.campaign import (
    ArtifactStore,
    CampaignEntry,
    CampaignInterrupted,
    CampaignSpec,
    campaign_status,
    run_campaign,
)
from repro.cli import campaign as campaign_cli
from repro.cli import serve as serve_cli
from repro.cli import sweep as sweep_cli
from repro.exec import (
    ClusterExecutor,
    ResultCache,
    SerialExecutor,
    StaleArtifactError,
)
from repro.experiments.figures import FIGURES, render_figures
from repro.version import __version__


def tiny_spec() -> CampaignSpec:
    """A one-entry campaign over the smoke profile (2 cells)."""
    return CampaignSpec(name="demo", entries=(
        CampaignEntry(name="smoke", profile="smoke"),
    ))


@pytest.fixture(scope="module")
def campaign_env(tmp_path_factory):
    """One campaign taken through interrupt -> resume -> replay -> publish.

    Shared module-wide so the smoke grid simulates exactly once here.
    """
    root = tmp_path_factory.mktemp("campaign")
    spec = tiny_spec()
    cache = ResultCache(root / "cache")
    store = ArtifactStore(root / "store")
    with pytest.raises(CampaignInterrupted) as interrupted:
        run_campaign(spec, cache=cache, stop_after_cells=1)
    status_after_interrupt = campaign_status(spec, cache)
    resume = run_campaign(spec, cache=cache, store=store)
    index_after_resume = store.index_bytes(spec.name)
    replay = run_campaign(spec, cache=cache, store=store)
    return types.SimpleNamespace(
        root=root, spec=spec, cache=cache, store=store,
        interrupted=interrupted.value,
        status_after_interrupt=status_after_interrupt,
        resume=resume, index_after_resume=index_after_resume,
        replay=replay)


class TestManifest:
    def test_json_round_trip(self, tmp_path):
        spec = CampaignSpec(name="grid", entries=(
            CampaignEntry(name="a", profile="smoke"),
            CampaignEntry(name="b", profile="dense",
                          overrides={"n_nodes": 20}, protocols=("MTS",),
                          speeds=(5.0,), replications=2, base_seed=7),
        ))
        assert CampaignSpec.from_json(spec.to_json()) == spec
        path = tmp_path / "manifest.json"
        spec.save(path)
        assert CampaignSpec.load(path) == spec
        assert list(tmp_path.glob(".*.tmp")) == []

    def test_hand_written_manifest_defaults(self):
        spec = CampaignSpec.from_dict({
            "campaign": "paper-grid",
            "entries": [{"name": "baseline", "profile": "smoke"}],
        })
        entry = spec.entry("baseline")
        assert entry.replications is None            # profile default
        assert spec.total_cells() == len(entry.settings().grid())

    def test_overrides_reach_cell_configs(self):
        entry = CampaignEntry(name="x", profile="smoke",
                              overrides={"n_nodes": 12})
        configs = entry.settings().cell_configs()
        assert configs and all(c.n_nodes == 12 for c in configs)

    def test_axis_overrides_replace_profile_axes(self):
        entry = CampaignEntry(name="x", profile="smoke",
                              protocols=("MTS",), speeds=(1.0, 2.0),
                              replications=3)
        settings = entry.settings()
        assert settings.protocols == ("MTS",)
        assert settings.speeds == (1.0, 2.0)
        assert settings.replications == 3

    def test_unknown_profile_is_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep profile"):
            CampaignEntry(name="x", profile="warp")

    def test_bad_names_are_rejected(self):
        with pytest.raises(ValueError, match="not a valid identifier"):
            CampaignEntry(name="../evil", profile="smoke")
        with pytest.raises(ValueError, match="not a valid identifier"):
            CampaignSpec(name=".hidden", entries=(
                CampaignEntry(name="a", profile="smoke"),))

    def test_duplicate_entry_names_are_rejected(self):
        with pytest.raises(ValueError, match="duplicate entry"):
            CampaignSpec(name="grid", entries=(
                CampaignEntry(name="a", profile="smoke"),
                CampaignEntry(name="a", profile="dense"),
            ))

    def test_unknown_manifest_keys_are_rejected(self):
        with pytest.raises(ValueError, match="unknown manifest keys"):
            CampaignSpec.from_dict({"campaign": "x", "entries": [],
                                    "shard": 3})
        with pytest.raises(ValueError, match="unknown manifest keys"):
            CampaignEntry.from_dict({"name": "a", "profile": "smoke",
                                     "overides": {}})

    def test_entry_lookup_lists_known_names(self):
        spec = tiny_spec()
        with pytest.raises(KeyError, match="entries: smoke"):
            spec.entry("smok")


class TestArtifactStore:
    def test_put_get_round_trip_and_dedup(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        digest = store.put_text("figure text\n")
        assert store.put_text("figure text\n") == digest   # dedup
        assert store.blob_digests() == [digest]
        assert store.has_blob(digest)
        assert store.get_text(digest) == "figure text\n"

    def test_corrupt_blob_is_refused(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        digest = store.put_text("payload")
        store._blob_path(digest).write_text("tampered")
        with pytest.raises(ValueError, match="corrupt blob"):
            store.get_bytes(digest)

    def test_invalid_digest_is_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(ValueError, match="not a SHA-256"):
            store.get_bytes("../../etc/passwd")

    def test_index_round_trip_is_stamped(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put_index("demo", {"entries": {}})
        index = store.get_index("demo")
        assert index["repro_version"] == __version__
        assert store.campaigns() == ["demo"]

    def test_republished_index_is_not_rewritten(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        path = store.put_index("demo", {"entries": {}})
        # An old mtime, so a rewrite shows even on a coarse clock.
        os.utime(path, ns=(10**18, 10**18))
        before = path.stat()
        assert store.put_index("demo", {"entries": {}}) == path
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) \
            == (before.st_ino, before.st_mtime_ns)
        store.put_index("demo", {"entries": {"smoke": {}}})
        assert path.stat().st_ino != before.st_ino
        assert store.get_index("demo")["entries"] == {"smoke": {}}

    def test_stale_index_refused_then_allowed(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        path = store.put_index("demo", {"entries": {}})
        data = json.loads(path.read_text())
        data["repro_version"] = "0.0.1"
        path.write_text(json.dumps(data))
        with pytest.raises(StaleArtifactError, match="allow-stale"):
            store.get_index("demo")
        with pytest.warns(UserWarning, match="loaded anyway"):
            store.get_index("demo", allow_stale=True)

    def test_missing_index_lists_known_campaigns(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put_index("demo", {"entries": {}})
        with pytest.raises(KeyError, match="indexed campaigns: demo"):
            store.get_index("demo2")


class TestCampaignRun:
    def test_interrupt_cached_exactly_the_budget(self, campaign_env):
        assert campaign_env.interrupted.simulated == 1
        (status,) = campaign_env.status_after_interrupt
        assert (status.cells, status.cached, status.missing) == (2, 1, 1)
        assert not status.complete

    def test_resume_simulates_only_the_missing_cells(self, campaign_env):
        assert campaign_env.resume.from_cache == 1
        assert campaign_env.resume.simulated == 1

    def test_replay_simulates_nothing(self, campaign_env):
        assert campaign_env.replay.simulated == 0
        assert campaign_env.replay.from_cache == 2
        (status,) = campaign_status(campaign_env.spec, campaign_env.cache)
        assert status.complete

    def test_replay_and_resume_agree_cell_for_cell(self, campaign_env):
        resumed = campaign_env.resume.sweeps["smoke"]
        replayed = campaign_env.replay.sweeps["smoke"]
        assert replayed.rows() == resumed.rows()
        assert replayed.to_json() == resumed.to_json()

    def test_republish_is_byte_identical(self, campaign_env):
        # Content addressing: the replay re-published to the same store
        # and the index (digest mapping) did not change a byte.
        current = campaign_env.store.index_bytes(campaign_env.spec.name)
        assert current == campaign_env.index_after_resume

    def test_published_figures_equal_render_figures(self, campaign_env):
        sweep = campaign_env.replay.sweeps["smoke"]
        store = campaign_env.store
        record = store.get_index("demo")["entries"]["smoke"]
        assert store.get_text(record["figures_all"]) == render_figures(sweep)
        assert sorted(record["figures"]) == sorted(FIGURES)
        for figure_id, digest in record["figures"].items():
            assert store.get_text(digest) == \
                render_figures(sweep, [figure_id])

    def test_run_without_cache_is_refused(self):
        with pytest.raises(ValueError, match="needs a cache"):
            run_campaign(tiny_spec())


class TestScheduledCampaign:
    """PR-10: the --scheduler path runs every entry through one pooled
    ClusterExecutor and stays byte-identical to the serial path."""

    def test_scheduled_campaign_matches_serial_byte_for_byte(self,
                                                             tmp_path):
        spec = tiny_spec()
        serial = run_campaign(
            spec, executor=SerialExecutor(
                cache=ResultCache(tmp_path / "serial-cache")))
        with ClusterExecutor(shards=2,
                             cache=tmp_path / "sched-cache") as scheduler:
            scheduled = run_campaign(spec, scheduler=scheduler)
            assert scheduler.total_workers_spawned >= 1
        for name, sweep in serial.sweeps.items():
            assert scheduled.sweeps[name].to_json() == sweep.to_json()
        assert scheduled.cells == serial.cells
        assert scheduled.simulated == serial.cells
        # A rerun against the warm cache dispatches no workers at all.
        with ClusterExecutor(shards=2,
                             cache=tmp_path / "sched-cache") as scheduler:
            replay = run_campaign(spec, scheduler=scheduler)
            assert scheduler.total_workers_spawned == 0
        assert replay.simulated == 0
        assert replay.from_cache == serial.cells

    def test_scheduler_is_exclusive_with_executor(self, tmp_path):
        scheduler = ClusterExecutor(shards=1, cache=tmp_path / "cache")
        with pytest.raises(ValueError, match="not both"):
            run_campaign(tiny_spec(), executor=SerialExecutor(),
                         scheduler=scheduler)

    def test_scheduled_stop_after_cells_then_resume_is_serial(
            self, tmp_path, campaign_env):
        """The stop-after prefix runs through any executor: exactly one
        new entry, then a scheduled resume byte-identical to serial."""
        spec = tiny_spec()
        cache = ResultCache(tmp_path / "cache")
        with ClusterExecutor(shards=2, cache=cache) as scheduler:
            with pytest.raises(CampaignInterrupted) as interrupted:
                run_campaign(spec, scheduler=scheduler, stop_after_cells=1)
            assert interrupted.value.simulated == 1
            assert len(cache) == 1
            resume = run_campaign(spec, scheduler=scheduler)
        assert (resume.from_cache, resume.simulated) == (1, 1)
        assert resume.sweeps["smoke"].to_json() \
            == campaign_env.resume.sweeps["smoke"].to_json()

    def test_scheduler_without_any_cache_is_refused(self):
        with pytest.raises(ValueError, match="needs a cache"):
            run_campaign(tiny_spec(), scheduler=ClusterExecutor(shards=1))


@pytest.fixture(scope="module")
def served(campaign_env):
    """A live repro-serve over the published store; yields a fetcher."""
    server = serve_cli.build_server(str(campaign_env.root / "store"),
                                    port=0, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]

    def fetch(path):
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    yield fetch
    server.shutdown()
    server.server_close()


class TestServe:
    def test_health_and_version(self, served):
        assert served("/healthz") == (200, b"ok\n")
        status, body = served("/version")
        assert status == 200
        assert json.loads(body) == {"artifact_format": 1,
                                    "repro_version": __version__}

    def test_campaign_listing_and_index(self, served, campaign_env):
        status, body = served("/campaigns")
        assert (status, json.loads(body)) == (200, ["demo"])
        status, body = served("/campaigns/demo")
        assert status == 200
        assert body == campaign_env.store.index_bytes("demo")

    def test_index_route_serves_the_bytes_it_checked(self, served,
                                                     campaign_env,
                                                     monkeypatch):
        # A republish landing right after the stamp check must not reach
        # the response: the served body is the document that was checked.
        index = campaign_env.root / "store" / "campaigns" / "demo.json"
        checked = index.read_bytes()
        document = json.loads(checked)
        document["entries"]["republished"] = {}
        republished = json.dumps(document).encode("utf-8")
        check = store_module.check_artifact_stamp

        def check_then_republish(data, *args, **kwargs):
            check(data, *args, **kwargs)
            index.write_bytes(republished)

        monkeypatch.setattr(store_module, "check_artifact_stamp",
                            check_then_republish)
        try:
            status, body = served("/campaigns/demo")
        finally:
            index.write_bytes(checked)
        assert (status, body) == (200, checked)

    def test_figures_byte_identical_to_render(self, served, campaign_env):
        sweep = campaign_env.resume.sweeps["smoke"]
        status, body = served("/campaigns/demo/entries/smoke/figures")
        assert status == 200
        assert body.decode("utf-8") == render_figures(sweep) + "\n"

    def test_single_figure_byte_identical_to_render(self, served,
                                                    campaign_env):
        sweep = campaign_env.resume.sweeps["smoke"]
        figure_id = sorted(FIGURES)[0]
        status, body = served(
            f"/campaigns/demo/entries/smoke/figures/{figure_id}")
        assert status == 200
        assert body.decode("utf-8") == \
            render_figures(sweep, [figure_id]) + "\n"

    def test_sweep_artifact_served_raw(self, served, campaign_env):
        sweep = campaign_env.resume.sweeps["smoke"]
        status, body = served("/campaigns/demo/entries/smoke/sweep")
        assert status == 200
        assert body == sweep.to_json().encode("utf-8")

    def test_blob_served_by_digest(self, served, campaign_env):
        record = campaign_env.store.get_index("demo")["entries"]["smoke"]
        status, body = served(f"/artifacts/{record['figures_all']}")
        assert status == 200
        assert body == campaign_env.store.get_bytes(record["figures_all"])

    def test_unknown_routes_are_404(self, served):
        for path in ("/nope", "/campaigns/ghost",
                     "/campaigns/demo/entries/ghost",
                     "/campaigns/demo/entries/smoke/figures/figNaN",
                     "/artifacts/zzz"):
            status, _body = served(path)
            assert status == 404, path
        # smoke has no DSR run, so Table I was never published.
        status, _body = served("/campaigns/demo/entries/smoke/table1")
        assert status == 404

    def test_stale_index_is_409_unless_allow_stale(self, campaign_env,
                                                   tmp_path):
        stale_root = tmp_path / "store"
        shutil.copytree(campaign_env.root / "store", stale_root)
        index = stale_root / "campaigns" / "demo.json"
        data = json.loads(index.read_text())
        data["repro_version"] = "0.0.1"
        index.write_text(json.dumps(data))
        for allow_stale, expected in ((False, 409), (200, 200)):
            server = serve_cli.build_server(str(stale_root), port=0,
                                            allow_stale=bool(allow_stale),
                                            quiet=True)
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            try:
                host, port = server.server_address[:2]
                conn = http.client.HTTPConnection(host, port, timeout=30)
                conn.request("GET", "/campaigns/demo")
                assert conn.getresponse().status == expected
                conn.close()
            finally:
                server.shutdown()
                server.server_close()


    def test_figure_missing_from_stale_index_is_404(self, campaign_env,
                                                    tmp_path):
        # An index published by another version may lack a figure this
        # version knows; under --allow-stale that is a 404, not a 500.
        stale_root = tmp_path / "store"
        shutil.copytree(campaign_env.root / "store", stale_root)
        index = stale_root / "campaigns" / "demo.json"
        data = json.loads(index.read_text())
        data["repro_version"] = "0.0.1"
        figures = data["entries"]["smoke"]["figures"]
        dropped = sorted(figures)[0]
        del figures[dropped]
        index.write_text(json.dumps(data))
        server = serve_cli.build_server(str(stale_root), port=0,
                                        allow_stale=True, quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=30)
            conn.request("GET",
                         f"/campaigns/demo/entries/smoke/figures/{dropped}")
            response = conn.getresponse()
            assert response.status == 404
            assert sorted(figures)[0] in json.loads(response.read())["error"]
            conn.close()
        finally:
            server.shutdown()
            server.server_close()


class TestCampaignCli:
    def test_run_interrupt_resume_replay(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        tiny_spec().save(manifest)
        cache = str(tmp_path / "cache")
        store = str(tmp_path / "store")

        rc = campaign_cli.main(["run", str(manifest), "--cache", cache,
                                "--stop-after-cells", "1"])
        assert rc == campaign_cli.EXIT_INTERRUPTED
        assert "interrupted" in capsys.readouterr().out

        rc = campaign_cli.main(["status", str(manifest), "--cache", cache])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1/2 cell(s) cached" in out
        assert "incomplete" in out

        rc = campaign_cli.main(["run", str(manifest), "--cache", cache,
                                "--store", store])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 from cache, 1 simulated" in out
        assert "published to store index" in out

        rc = campaign_cli.main(["run", str(manifest), "--cache", cache,
                                "--store", store])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 from cache, 0 simulated" in out

        rc = campaign_cli.main(["status", str(manifest), "--cache", cache,
                                "--json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert data["entries"][0]["complete"] is True

    def test_run_requires_cache(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        tiny_spec().save(manifest)
        rc = campaign_cli.main(["run", str(manifest)])
        assert rc == 2
        assert "--cache" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["run"], ["status"]])
    def test_segment_root_is_exit_2(self, tmp_path, capsys, command):
        manifest = tmp_path / "manifest.json"
        tiny_spec().save(manifest)
        cache = tmp_path / "cache"
        (cache / "packs").mkdir(parents=True)
        (cache / "packs" / "a.pack").write_text("{}\n")
        rc = campaign_cli.main([command[0], str(manifest),
                                "--cache", str(cache)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "retired layout" in err
        assert "unpack" not in err

    def test_bad_manifest_is_exit_2(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"campaign": "x", "entries": [
            {"name": "a", "profile": "warp"}]}))
        rc = campaign_cli.main(["run", str(manifest), "--cache",
                                str(tmp_path / "cache")])
        assert rc == 2
        assert "unknown sweep profile" in capsys.readouterr().err

    def test_query_answers_from_store_only(self, campaign_env, capsys):
        store = str(campaign_env.root / "store")
        rc = campaign_cli.main(["query", "--store", store])
        assert rc == 0
        assert capsys.readouterr().out == "demo\n"

        rc = campaign_cli.main(["query", "--store", store,
                                "--campaign", "demo"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("entry smoke: 2 cell(s)")

        rc = campaign_cli.main(["query", "--store", store,
                                "--campaign", "ghost"])
        assert rc == 2
        assert "no index" in capsys.readouterr().err

        rc = campaign_cli.main(["query", "--store", store, "--campaign",
                                "demo", "--entry", "smoke", "--table1"])
        assert rc == 1                               # smoke has no DSR run
        assert "Table I not published" in capsys.readouterr().err

    def test_query_figures_match_sweep_render(self, campaign_env, tmp_path,
                                              capsys):
        store = str(campaign_env.root / "store")
        rc = campaign_cli.main(["query", "--store", store, "--campaign",
                                "demo", "--entry", "smoke", "--sweep"])
        assert rc == 0
        artifact = tmp_path / "sweep.json"
        artifact.write_text(capsys.readouterr().out)

        rc = campaign_cli.main(["query", "--store", store, "--campaign",
                                "demo", "--entry", "smoke", "--figures"])
        assert rc == 0
        query_out = capsys.readouterr().out

        rc = sweep_cli.main(["render", str(artifact)])
        assert rc == 0
        assert capsys.readouterr().out == query_out


class TestSweepRenderStale:
    def test_render_refuses_stale_artifact_unless_allowed(
            self, campaign_env, tmp_path, capsys):
        sweep = campaign_env.resume.sweeps["smoke"]
        artifact = tmp_path / "sweep.json"
        sweep.save(artifact)
        data = json.loads(artifact.read_text())
        data["repro_version"] = "0.0.1"
        artifact.write_text(json.dumps(data))

        rc = sweep_cli.main(["render", str(artifact)])
        assert rc == 2
        assert "--allow-stale" in capsys.readouterr().err

        with pytest.warns(UserWarning, match="loaded anyway"):
            rc = sweep_cli.main(["render", str(artifact), "--allow-stale"])
        assert rc == 0
        assert capsys.readouterr().out == render_figures(sweep) + "\n"
