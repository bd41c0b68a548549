"""Execution semantics: run-missing-only, worker-count and multi-driver
bit-identity, failure isolation.

The two-driver test mirrors ``tests/store/test_store_concurrency.py``:
two fresh processes race one cold spec against a shared store with a
go-file start barrier, then the artifacts must be bit-identical to a
serial single-driver run and each cell simulated exactly once in total.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.campaign import CampaignError, CampaignManager
from repro.obs import get_metrics
from repro.store import ArtifactStore
from tests.campaign.conftest import tiny_spec


def simulated_runs() -> int:
    return get_metrics().snapshot()["counters"].get("sim.runs_total", 0)


def f2pm_runs() -> int:
    return get_metrics().snapshot()["counters"].get("f2pm.runs_total", 0)


class TestRunMissingOnly:
    def test_second_run_simulates_nothing(self, store):
        spec = tiny_spec(seeds=(3, 5), stages=("simulate", "aggregate"))
        manager = CampaignManager(spec, store)
        first = manager.run(jobs=1)
        assert first.cells_run == 2 and first.cells_cached == 0
        before = simulated_runs()
        second = manager.run(jobs=1)
        assert simulated_runs() == before, "cached campaign re-simulated"
        assert second.cells_cached == 2 and second.cells_run == 0
        assert second.cells_failed == 0

    def test_partial_cache_runs_only_the_frontier(self, store):
        narrow = tiny_spec(seeds=(3,))
        CampaignManager(narrow, store).run(jobs=1)
        wide = tiny_spec(seeds=(3, 5))
        result = CampaignManager(wide, store).run(jobs=1)
        assert result.cells_cached == 1
        assert result.cells_run == 1
        assert result.outcome(0).cached  # seed 3 loaded, not re-simulated

    def test_later_stages_reuse_cached_prefix(self, store):
        sim_only = tiny_spec(stages=("simulate",))
        CampaignManager(sim_only, store).run(jobs=1)
        before = simulated_runs()
        staged = tiny_spec(stages=("simulate", "aggregate"))
        result = CampaignManager(staged, store).run(jobs=1)
        # The aggregate stage was produced, but its history input loaded
        # from the store — zero new simulation.
        assert simulated_runs() == before
        assert result.outcome(0).produced_stages == ("aggregate",)

    def test_run_without_store_executes_everything(self):
        spec = tiny_spec(seeds=(3, 5))
        result = CampaignManager(spec, None).run(jobs=1)
        assert result.cells_run == 2
        assert result.cells_cached == 0

    def test_each_storeless_pass_fits_f2pm_once(self):
        spec = tiny_spec(stages=("train", "evaluate"), models=("linear",))
        before = f2pm_runs()
        CampaignManager(spec, None).run(jobs=1)
        assert f2pm_runs() == before + 1  # train and evaluate share one fit
        CampaignManager(spec, None).run(jobs=1)
        assert f2pm_runs() == before + 2  # the fit ended with the first pass


class TestBitIdentity:
    def test_jobs_1_vs_4_identical_artifacts(self, tmp_path):
        spec = tiny_spec(n_runs=4)
        serial = CampaignManager(spec, ArtifactStore(tmp_path / "serial"))
        fanned = CampaignManager(spec, ArtifactStore(tmp_path / "fanned"))
        h1 = serial.run(jobs=1).outcome(0).results["simulate"]
        h4 = fanned.run(jobs=4).outcome(0).results["simulate"]
        assert h1.content_fingerprint() == h4.content_fingerprint()

    def test_fresh_run_matches_cache_loaded_run(self, store):
        spec = tiny_spec(n_runs=4)
        manager = CampaignManager(spec, store)
        produced = manager.run(jobs=1).outcome(0).results["simulate"]
        loaded = manager.run(jobs=1).outcome(0).results["simulate"]
        assert produced.content_fingerprint() == loaded.content_fingerprint()


class TestFailureIsolation:
    def test_failing_cell_does_not_abort_campaign(self, store, monkeypatch):
        import repro.campaign.manager as manager_mod

        spec = tiny_spec(seeds=(3, 5, 7))
        real_run_stage = manager_mod.run_stage

        def flaky(spec_, cell, stage, store_, **kwargs):
            if cell.seed == 5:
                raise RuntimeError("injected cell failure")
            return real_run_stage(spec_, cell, stage, store_, **kwargs)

        monkeypatch.setattr(manager_mod, "run_stage", flaky)
        manager = CampaignManager(spec, store)
        with pytest.raises(CampaignError, match="injected cell failure"):
            manager.run(jobs=1)
        # The healthy cells still published their artifacts.
        plan = manager.plan()
        assert sorted(p.cell.seed for p in plan.cached_cells) == [3, 7]
        assert [p.cell.seed for p in plan.missing_cells] == [5]

    def test_failed_counter_incremented(self, store, monkeypatch):
        import repro.campaign.manager as manager_mod

        spec = tiny_spec(seeds=(3, 5))

        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(manager_mod, "run_stage", broken)
        counters = get_metrics().snapshot()["counters"]
        before = counters.get("campaign.cells_failed", 0)
        with pytest.raises(CampaignError):
            CampaignManager(spec, store).run(jobs=1)
        counters = get_metrics().snapshot()["counters"]
        assert counters.get("campaign.cells_failed", 0) == before + 2


N_RUNS = 3

DRIVER = textwrap.dedent(
    """
    import json
    import sys
    import time

    from repro.campaign import CampaignManager, CampaignSpec
    from repro.obs import get_metrics
    from repro.store import ArtifactStore

    spec_path, go_file = sys.argv[1], sys.argv[2]
    spec = CampaignSpec.from_json_file(spec_path)
    print("ready", flush=True)
    while True:  # start barrier: both drivers begin together
        try:
            open(go_file).close()
            break
        except OSError:
            time.sleep(0.005)

    result = CampaignManager(spec, ArtifactStore()).run(jobs=1)
    counters = get_metrics().snapshot()["counters"]
    print(json.dumps({
        "fingerprints": sorted(
            o.results["simulate"].content_fingerprint() for o in result.outcomes
        ),
        "simulated_runs": counters.get("sim.runs_total", 0),
        "cells_run": result.cells_run,
        "cells_cached": result.cells_cached,
        "busy": counters.get("store.busy_total", 0),
    }), flush=True)
    """
)


class TestTwoCooperatingDrivers:
    def test_cold_race_is_bit_identical_to_serial(self, tmp_path):
        repo = Path(__file__).resolve().parents[2]
        spec = tiny_spec(name="race", n_runs=N_RUNS, seeds=(3, 5))

        # Reference: one serial driver in-process, private store.
        serial = CampaignManager(spec, ArtifactStore(tmp_path / "serial"))
        reference = sorted(
            o.results["simulate"].content_fingerprint()
            for o in serial.run(jobs=1).outcomes
        )

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        shared = tmp_path / "shared-cache"
        env = dict(os.environ)
        env["F2PM_CACHE_DIR"] = str(shared)
        env["PYTHONPATH"] = f"{repo / 'src'}{os.pathsep}{env.get('PYTHONPATH', '')}"
        go_file = tmp_path / "go"

        procs = [
            subprocess.Popen(
                [sys.executable, "-c", DRIVER, str(spec_path), str(go_file)],
                stdout=subprocess.PIPE,
                cwd=repo,
                env=env,
                text=True,
            )
            for _ in range(2)
        ]
        try:
            for proc in procs:
                assert proc.stdout.readline().strip() == "ready"
            go_file.touch()  # release both at once
            results = []
            for proc in procs:
                out, _ = proc.communicate(timeout=180)
                assert proc.returncode == 0
                results.append(json.loads(out.strip().splitlines()[-1]))
        finally:
            for proc in procs:
                if proc.poll() is None:  # pragma: no cover - cleanup on bug
                    proc.kill()
                    proc.wait()

        # Both drivers converge on the same artifacts, and those artifacts
        # are bit-identical to the serial single-driver run.
        for r in results:
            assert r["fingerprints"] == reference, results
        # Each cell simulated exactly once across the fleet: total
        # simulated runs == the spec's total (2 cells x N_RUNS runs).
        assert sum(r["simulated_runs"] for r in results) == 2 * N_RUNS, results
        assert sum(r["cells_run"] for r in results) == 2, results
        # Exactly one history artifact per cell in the shared store.
        npz = [
            p.name
            for p in shared.glob("history_*.npz")
            if not p.name.endswith(".ckpt.npz")
        ]
        assert len(npz) == 2
