"""Spec semantics: fingerprint stability, serialization, enumeration.

``spec_fingerprint.txt`` pins the canonical fingerprint of a reference
spec at the time the campaign layer shipped (the same pattern as
``tests/faults/clean_fingerprint.txt``). If the pinned test fails, either
the key schema changed deliberately (bump ``KEY_SCHEMA_VERSION``, update
the file) or spec fingerprinting drifted by accident — a cache-busting
bug, because every artifact in every user's store is keyed by it.
"""

import json
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, STAGES, merged_cells, stage_artifact
from repro.campaign import stages
from repro.store.keys import fingerprint
from repro.system.tpcw import MIXES
from tests.campaign.conftest import tiny_spec
from tests.conftest import small_campaign

FINGERPRINT_FILE = Path(__file__).with_name("spec_fingerprint.txt")


def golden_spec() -> CampaignSpec:
    """The reference spec behind the committed fingerprint — every field
    pinned explicitly so environment knobs can't perturb it."""
    return CampaignSpec(
        name="golden",
        base=small_campaign(n_runs=4, seed=3),
        axes={"n_browsers": (40, 44), "mix": ("shopping", "browsing")},
        seeds=(3, 5),
        stages=STAGES,
        window_seconds=30.0,
        sanitize=None,
        models=("linear", "m5p", "reptree"),
        train_seed=0,
    )


class TestFingerprint:
    def test_matches_committed_fingerprint(self):
        expected = FINGERPRINT_FILE.read_text().strip()
        assert golden_spec().fingerprint == expected, (
            "spec fingerprint drifted — every store entry keyed by it "
            "would be orphaned; if the key schema changed deliberately, "
            "update tests/campaign/spec_fingerprint.txt"
        )

    def test_name_and_substrate_are_not_content(self):
        spec = golden_spec()
        assert replace(spec, name="other").fingerprint == spec.fingerprint
        # the failure condition picks the engine; a spec has no field for it
        assert "substrate" not in {f.name for f in fields(spec)}

    def test_content_fields_are_content(self):
        spec = golden_spec()
        assert replace(spec, seeds=(3,)).fingerprint != spec.fingerprint
        assert replace(spec, window_seconds=20.0).fingerprint != spec.fingerprint
        assert replace(spec, sanitize="repair").fingerprint != spec.fingerprint

    def test_cell_fingerprint_matches_legacy_experiment_scheme(self):
        # Interop invariant: a store populated by the pre-campaign
        # helpers (default_history) must count as cached for a spec
        # covering the same config.
        spec = tiny_spec()
        (cell,) = spec.cells()
        assert cell.fingerprint == stages.campaign_fingerprint(cell.config)
        name, fp = stage_artifact(spec, cell, "simulate")
        assert name == f"history_{fp[:16]}.npz"


class TestSelectionSolverTag:
    """Reports score models on the Lasso-selected set, so their keys name
    the selection solver; the keys of everything upstream of selection
    stay byte-identical, so nothing re-simulates or re-aggregates."""

    #: ``golden_spec()``'s first cell before the tag existed.
    PINNED = {
        "simulate": "history_6569214c65834b2e.npz",
        "aggregate": "dataset_fc688e4fcc0521af.npz",
        "train": "model_572f0767e9b74e2f.bin",
    }
    OLD_REPORT = "report_964d88f7180a3cdf.json"

    def test_upstream_names_unchanged(self):
        spec = golden_spec()
        cell = spec.cells()[0]
        for stage, name in self.PINNED.items():
            assert stage_artifact(spec, cell, stage)[0] == name
        assert stage_artifact(spec, cell, "evaluate")[0] != self.OLD_REPORT

    def test_report_under_the_old_key_is_not_served(self, store):
        spec = tiny_spec(stages=STAGES, models=("linear",))
        (cell,) = spec.cells()
        old_fp = fingerprint("campaign-report", stages._model_value(spec, cell))
        stale = {"schema": "f2pm.campaign-report/1", "stale": True}
        store.get_or_produce(
            f"report_{old_fp[:16]}.json",
            lambda: stale,
            save=lambda doc, path: path.write_text(json.dumps(doc)),
            load=lambda path: json.loads(path.read_text()),
            kind="campaign-report",
            fingerprint=old_fp,
        )
        doc, produced = stages.evaluate_cell(spec, cell, store)
        assert produced and "stale" not in doc
        name, fp = stage_artifact(spec, cell, "evaluate")
        assert fp != old_fp and store.contains(name)


class TestSerialization:
    def test_json_round_trip_preserves_identity(self):
        spec = golden_spec()
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone.fingerprint == spec.fingerprint
        assert [c.fingerprint for c in clone.cells()] == [
            c.fingerprint for c in spec.cells()
        ]

    def test_json_file_round_trip(self, tmp_path):
        spec = golden_spec()
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert CampaignSpec.from_json_file(path).fingerprint == spec.fingerprint

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown spec fields"):
            CampaignSpec.from_dict({"name": "x", "frobnicate": 1})

    def test_substrate_is_an_unknown_field(self):
        """The failure condition picks the engine; a spec cannot."""
        with pytest.raises(ValueError, match=r"unknown spec fields: \['substrate'\]"):
            CampaignSpec.from_dict({"substrate": "loop"})

    def test_empty_document_is_the_default_spec(self):
        assert CampaignSpec.from_dict({}) == CampaignSpec()

    def test_unknown_base_field_rejected(self):
        with pytest.raises(ValueError, match="unknown CampaignConfig field"):
            CampaignSpec.from_dict({"base": {"frobnicate": 1}})

    def test_unreadable_file_is_one_error(self, tmp_path):
        with pytest.raises(ValueError, match="could not read spec"):
            CampaignSpec.from_json_file(tmp_path / "missing.json")


class TestValidation:
    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign axis"):
            tiny_spec(axes={"frobnicate": (1, 2)})

    def test_reserved_axes_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            tiny_spec(axes={"seed": (1, 2)})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            tiny_spec(axes={"n_browsers": ()})

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown stage"):
            tiny_spec(stages=("simulate", "frobnicate"))

    def test_stages_normalize_to_pipeline_order(self):
        spec = tiny_spec(stages=("train", "simulate", "aggregate"))
        assert spec.stages == ("simulate", "aggregate", "train")

    def test_unknown_mix_name_rejected(self):
        with pytest.raises(ValueError, match="unknown TPC-W mix"):
            tiny_spec(axes={"mix": ("frobnicate",)}).cells()


class TestEnumeration:
    def test_grid_size_and_order(self):
        spec = golden_spec()
        cells = spec.cells()
        assert len(cells) == 2 * 2 * 2  # browsers x mixes x seeds
        assert [c.index for c in cells] == list(range(8))
        # Seeds are innermost: consecutive cells share their grid point.
        assert cells[0].params == cells[1].params
        assert (cells[0].seed, cells[1].seed) == (3, 5)

    def test_enumeration_is_deterministic(self):
        a = [c.fingerprint for c in golden_spec().cells()]
        b = [c.fingerprint for c in golden_spec().cells()]
        assert a == b

    def test_mix_coerced_by_name(self):
        spec = tiny_spec(axes={"mix": ("browsing",)})
        (cell,) = spec.cells()
        assert cell.config.mix == MIXES["browsing"]
        assert dict(cell.params)["mix"] == "browsing"
        assert "mix=browsing" in cell.label()

    def test_empty_seeds_fall_back_to_base_seed(self):
        spec = tiny_spec(seeds=())
        (cell,) = spec.cells()
        assert cell.seed == spec.base.seed


class TestMergedCells:
    def test_union_deduplicates_by_fingerprint(self):
        a = tiny_spec(seeds=(3, 5))
        b = tiny_spec(seeds=(5, 7))
        merged = merged_cells([a, b])
        assert [c.seed for c in merged] == [3, 5, 7]
        assert [c.index for c in merged] == [0, 1, 2]

    def test_union_with_self_is_identity(self):
        spec = tiny_spec(seeds=(3, 5))
        assert [c.fingerprint for c in merged_cells([spec, spec])] == [
            c.fingerprint for c in spec.cells()
        ]
