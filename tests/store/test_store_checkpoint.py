"""Checkpointed campaigns resume bit-identically (or start clean).

The determinism contract: every run's random stream is pre-spawned from
the campaign seed, so a campaign assembled as prefix-from-checkpoint plus
freshly simulated remainder is *bit-identical* to one uninterrupted
simulation — for any worker count and any kill point. An untrustworthy
checkpoint (wrong config, wrong size, torn write) is discarded and the
campaign restarts from run 0 rather than resuming garbage.
"""

import json

import pytest

from repro.core import AggregationConfig, F2PMConfig
from repro.core.incremental import IncrementalCollector, IncrementalConfig
from repro.store import CampaignCheckpoint
from repro.store import checkpoint as store_checkpoint
from repro.system import TestbedSimulator


def fingerprints(history):
    return history.content_fingerprint()


@pytest.fixture
def every_two(monkeypatch):
    """Checkpoint every 2 runs, so a 4-run campaign saves mid-way."""
    monkeypatch.setattr(store_checkpoint, "CHECKPOINT_EVERY", 2)


@pytest.fixture
def plain(campaign):
    """The uninterrupted reference campaign."""
    return TestbedSimulator(campaign).run_campaign()


def make_ckpt(tmp_path, campaign, **kw):
    kw.setdefault("key", "test-campaign-key")
    kw.setdefault("total_runs", campaign.n_runs)
    return CampaignCheckpoint(tmp_path / "c.ckpt.npz", **kw)


@pytest.mark.usefixtures("every_two")
class TestCampaignResume:
    def test_checkpointed_equals_plain(self, tmp_path, campaign, plain):
        ckpt = make_ckpt(tmp_path, campaign)
        history = TestbedSimulator(campaign).run_campaign(checkpoint=ckpt)
        assert fingerprints(history) == fingerprints(plain)

    def test_resume_from_prefix_is_bit_identical(self, tmp_path, campaign, plain):
        # Simulate a kill after 2 of 4 runs: the checkpoint holds the
        # prefix, the restarted campaign simulates only the remainder.
        ckpt = make_ckpt(tmp_path, campaign)
        ckpt.save(list(plain.runs)[:2])
        history = TestbedSimulator(campaign).run_campaign(checkpoint=ckpt)
        assert fingerprints(history) == fingerprints(plain)

    def test_parallel_resume_is_bit_identical(self, tmp_path, campaign, plain):
        ckpt = make_ckpt(tmp_path, campaign)
        ckpt.save(list(plain.runs)[:3])
        history = TestbedSimulator(campaign).run_campaign(jobs=2, checkpoint=ckpt)
        assert fingerprints(history) == fingerprints(plain)

    def test_checkpoint_discarded_on_completion(self, tmp_path, campaign):
        ckpt = make_ckpt(tmp_path, campaign)
        TestbedSimulator(campaign).run_campaign(checkpoint=ckpt)
        assert not ckpt.path.exists()
        assert not ckpt._meta_path.exists()
        assert ckpt.load() == ([], {})


class TestCheckpointValidation:
    def test_wrong_key_ignored(self, tmp_path, campaign, plain):
        make_ckpt(tmp_path, campaign, key="old-config").save(list(plain.runs)[:2])
        ckpt = make_ckpt(tmp_path, campaign, key="new-config")
        assert ckpt.load() == ([], {})
        assert not ckpt.path.exists()  # untrusted state removed

    def test_wrong_total_runs_ignored(self, tmp_path, campaign, plain):
        make_ckpt(tmp_path, campaign, total_runs=4).save(list(plain.runs)[:2])
        ckpt = make_ckpt(tmp_path, campaign, total_runs=40)
        assert ckpt.load() == ([], {})

    def test_torn_payload_ignored(self, tmp_path, campaign, plain):
        ckpt = make_ckpt(tmp_path, campaign)
        ckpt.save(list(plain.runs)[:2])
        blob = ckpt.path.read_bytes()
        ckpt.path.write_bytes(blob[: len(blob) // 2])
        assert ckpt.load() == ([], {})

    def test_tampered_meta_ignored(self, tmp_path, campaign, plain):
        ckpt = make_ckpt(tmp_path, campaign)
        ckpt.save(list(plain.runs)[:2])
        meta = json.loads(ckpt._meta_path.read_text())
        meta["n_done"] = 3  # lies about the prefix length
        ckpt._meta_path.write_text(json.dumps(meta))
        assert ckpt.load() == ([], {})

    def test_half_a_checkpoint_is_no_checkpoint(self, tmp_path, campaign, plain):
        ckpt = make_ckpt(tmp_path, campaign)
        ckpt.save(list(plain.runs)[:2])
        ckpt._meta_path.unlink()  # crash between payload and sidecar
        assert ckpt.load() == ([], {})
        assert not ckpt.path.exists()

    def test_roundtrip_preserves_extra(self, tmp_path, campaign, plain):
        ckpt = make_ckpt(tmp_path, campaign)
        ckpt.save(list(plain.runs)[:2], extra={"trace": [{"n_runs": 2}]})
        records, extra = ckpt.load()
        assert len(records) == 2
        assert extra == {"trace": [{"n_runs": 2}]}
        assert fingerprints(type(plain)(runs=records)) == fingerprints(
            type(plain)(runs=list(plain.runs)[:2])
        )

    @pytest.mark.usefixtures("every_two")
    def test_invalid_checkpoint_still_yields_correct_campaign(
        self, tmp_path, campaign, plain
    ):
        # End to end: a corrupt checkpoint must cost only time, never
        # correctness.
        ckpt = make_ckpt(tmp_path, campaign)
        ckpt.save(list(plain.runs)[:2])
        ckpt.path.write_bytes(b"rot")
        history = TestbedSimulator(campaign).run_campaign(checkpoint=ckpt)
        assert fingerprints(history) == fingerprints(plain)


class TestIncrementalResume:
    def _collector(self, campaign):
        f2pm = F2PMConfig(
            aggregation=AggregationConfig(window_seconds=30.0),
            models=("linear",),
            lasso_predictor_lambdas=(1.0, 1e9),
            seed=0,
        )
        cfg = IncrementalConfig(
            batch_runs=2, max_runs=4, target_smae_frac=0.001, seed=5
        )
        return IncrementalCollector(TestbedSimulator(campaign), f2pm, cfg)

    def test_resume_matches_uninterrupted_collection(self, tmp_path, campaign):
        plain = self._collector(campaign).collect()

        # First attempt is "killed" after one batch: steal the checkpoint
        # it wrote by stopping the simulator after batch 1.
        ckpt = CampaignCheckpoint(
            tmp_path / "inc.ckpt.npz", key="inc", total_runs=4
        )
        ckpt.save(
            list(plain.history.runs)[:2],
            extra={
                "trace": [
                    {
                        "n_runs": p.n_runs,
                        "n_windows": p.n_windows,
                        "best_model": p.best_model,
                        "best_smae": p.best_smae,
                        "target": p.target,
                    }
                    for p in plain.trace[:1]
                ]
            },
        )
        resumed = self._collector(campaign).collect(checkpoint=ckpt)
        assert fingerprints(resumed.history) == fingerprints(plain.history)
        assert resumed.trace == plain.trace
        assert not ckpt.path.exists()  # discarded on completion
