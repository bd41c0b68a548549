"""Planning semantics: the diff is pure, idempotent, and store-aware."""

from repro.campaign import CampaignManager, plan_cells
from repro.experiments import common
from repro.obs import get_metrics
from tests.campaign.conftest import tiny_spec


def simulated_runs() -> int:
    return get_metrics().snapshot()["counters"].get("sim.runs_total", 0)


class TestPlan:
    def test_cold_store_everything_missing(self, store):
        spec = tiny_spec(seeds=(3, 5), stages=("simulate", "aggregate"))
        plan = CampaignManager(spec, store).plan()
        assert len(plan.cells) == 2
        assert len(plan.missing_cells) == 2
        assert not plan.cached_cells
        for cell_plan in plan.cells:
            assert cell_plan.missing_stages == ("simulate", "aggregate")

    def test_plan_executes_nothing(self, store):
        spec = tiny_spec(seeds=(3, 5))
        before = simulated_runs()
        CampaignManager(spec, store).plan()
        assert simulated_runs() == before
        assert not list(store.root.glob("history_*.npz"))

    def test_plan_is_idempotent(self, store):
        manager = CampaignManager(tiny_spec(seeds=(3, 5)), store)
        assert manager.plan() == manager.plan()

    def test_no_store_means_everything_missing(self):
        spec = tiny_spec()
        plan = plan_cells(spec, spec.cells(), None)
        assert len(plan.missing_cells) == len(plan.cells) == 1

    def test_legacy_cache_counts_as_cached(self, store):
        # A store populated by the pre-campaign helper must satisfy a
        # spec covering the same config — same names, same fingerprints.
        spec = tiny_spec()
        common.default_history(spec.cells()[0].config)
        plan = CampaignManager(spec, store).plan()
        assert len(plan.cached_cells) == 1
        assert not plan.missing_cells

    def test_summary_is_greppable(self, store):
        spec = tiny_spec(seeds=(3, 5))
        manager = CampaignManager(spec, store)
        summary = manager.plan().summary()
        assert "total=2 cached=0 missing=2" in summary
        assert spec.fingerprint[:16] in summary

    def test_status_document_shape(self, store):
        spec = tiny_spec(seeds=(3, 5))
        status = CampaignManager(spec, store).status()
        assert status["schema"] == "f2pm.campaign-status/1"
        assert status["cells_total"] == 2
        assert status["cells_missing"] == 2
        assert status["spec_fingerprint"] == spec.fingerprint
        assert [c["index"] for c in status["cells"]] == [0, 1]
