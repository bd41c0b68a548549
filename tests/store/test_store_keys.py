"""Tests for canonical config fingerprints (repro.store.keys).

The properties under test are exactly the failure modes of the old
``repr(config)`` key: repr-dependent floats, accidental invalidation on
dataclass field additions, and type collisions.
"""

import enum
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.store.keys import (
    KEY_SCHEMA_VERSION,
    canonical,
    canonical_json,
    fingerprint,
    short_fingerprint,
)


@dataclass(frozen=True)
class Inner:
    gain: float = 1.5
    label: str = "x"


@dataclass(frozen=True)
class ConfigV1:
    runs: int = 10
    rate: float = 0.1
    inner: Inner = field(default_factory=Inner)
    grid: tuple = (1.0, 2.0)


@dataclass(frozen=True)
class ConfigV2:
    """V1 plus a new defaulted field — simulates a dataclass evolving."""

    runs: int = 10
    rate: float = 0.1
    inner: Inner = field(default_factory=Inner)
    grid: tuple = (1.0, 2.0)
    new_knob: bool = False


class TestCanonicalEncoding:
    def test_floats_encoded_by_value_not_repr(self):
        # 0.1 + 0.2 != 0.3 — canonical() must see through repr games and
        # key by the exact binary value.
        assert canonical(0.1 + 0.2) != canonical(0.3)
        assert canonical(0.5) == canonical(1.0 / 2.0)
        assert canonical(np.float64(0.25)) == canonical(0.25)

    def test_float_hex_not_repr_shortening(self):
        assert canonical(0.1) == f"f|{(0.1).hex()}"
        assert "0.1" not in str(canonical(0.1))  # no decimal repr anywhere

    def test_nan_normalized(self):
        assert canonical(float("nan")) == canonical(np.float64("nan"))

    def test_strings_and_floats_cannot_collide(self):
        assert canonical("f|0x1.8p+0") != canonical(1.5)

    def test_bool_is_not_int(self):
        # True == 1 in Python, but the canonical JSON must distinguish them.
        assert canonical_json("k", True) != canonical_json("k", 1)

    def test_enum_by_name(self):
        class Mode(enum.Enum):
            FAST = 1
            SLOW = 2

        assert canonical(Mode.FAST) == "e|FAST"

    def test_ndarray_by_content(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(6.0).reshape(2, 3)
        assert canonical(a) == canonical(b)
        b[0, 0] = 99.0
        assert canonical(a) != canonical(b)

    def test_dict_order_independent(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_unknown_type_rejected(self):
        class Opaque:
            pass

        with pytest.raises(TypeError, match="no canonical encoding"):
            canonical(Opaque())


class TestDataclassKeys:
    def test_equal_content_equal_fingerprint(self):
        assert fingerprint("cfg", ConfigV1()) == fingerprint("cfg", ConfigV1())
        assert fingerprint("cfg", ConfigV1(rate=0.1)) == fingerprint(
            "cfg", ConfigV1()
        )

    def test_value_change_changes_fingerprint(self):
        assert fingerprint("cfg", ConfigV1(runs=11)) != fingerprint(
            "cfg", ConfigV1()
        )
        assert fingerprint("cfg", ConfigV1(inner=Inner(gain=2.0))) != fingerprint(
            "cfg", ConfigV1()
        )

    def test_field_addition_preserves_default_keys(self):
        # Default elision: adding a defaulted field must NOT retire every
        # cached artifact (the old repr() key did, silently).
        assert fingerprint("cfg", ConfigV2()) == fingerprint("cfg", ConfigV1())

    def test_field_addition_nondefault_changes_key(self):
        assert fingerprint("cfg", ConfigV2(new_knob=True)) != fingerprint(
            "cfg", ConfigV1()
        )

    def test_kind_separates_namespaces(self):
        assert fingerprint("campaign", ConfigV1()) != fingerprint(
            "f2pm-config", ConfigV1()
        )

    def test_schema_version_embedded(self):
        assert f'"schema":{KEY_SCHEMA_VERSION}' in canonical_json("cfg", ConfigV1())

    def test_short_fingerprint_is_prefix(self):
        full = fingerprint("cfg", ConfigV1())
        assert full.startswith(short_fingerprint("cfg", ConfigV1()))
        assert len(short_fingerprint("cfg", ConfigV1())) == 16


class TestRealConfigs:
    def test_campaign_config_fingerprints(self):
        from repro.system import CampaignConfig

        base = CampaignConfig(n_runs=20, seed=7)
        assert fingerprint("campaign", base) == fingerprint(
            "campaign", CampaignConfig(n_runs=20, seed=7)
        )
        assert fingerprint("campaign", base) != fingerprint(
            "campaign", CampaignConfig(n_runs=21, seed=7)
        )

    def test_f2pm_config_fingerprints(self):
        from repro.core import AggregationConfig, F2PMConfig

        a = F2PMConfig(aggregation=AggregationConfig(window_seconds=30.0))
        b = F2PMConfig(aggregation=AggregationConfig(window_seconds=60.0))
        assert fingerprint("f2pm", a) != fingerprint("f2pm", b)

    def test_no_repr_in_campaign_key(self):
        # Regression for the old scheme: the key must not depend on repr().
        from repro.campaign.stages import history_name
        from repro.system import CampaignConfig

        class Evil(CampaignConfig):
            def __repr__(self):  # pragma: no cover - repr never consulted
                raise AssertionError("cache key consulted repr()")

        cfg = Evil(n_runs=2, seed=1)
        key = history_name(cfg)
        assert key.startswith("history_")


class TestPinnedFingerprints:
    """Cache keys that must not move: a store written before a config
    field left, or a restated default was dropped, still cache-hits."""

    def test_demo_campaign(self):
        from repro.cli import demo_campaign

        assert fingerprint("campaign", demo_campaign(8, 0)) == (
            "fe5bb2da98fa10264ec01b4c419f3b1dd31711dc8137e8b4d50b25e1fb85fcc5"
        )

    def test_scenario_presets(self):
        from repro.scenarios import SCENARIOS, resolve_scenario
        from repro.system import CampaignConfig

        base = CampaignConfig(n_runs=5, seed=1)
        got = {
            name: fingerprint("campaign", resolve_scenario(name, base))
            for name in SCENARIOS
        }
        assert got == {
            "baseline-shopping": "b51d6466506fbb504958479c86123e84978e9edc1a2663e5df918c8025459abe",
            "browsing-diurnal": "cabb62d9ba49c603c0615dca9c1503c7212d878ec6896f3c7302ede12d519d40",
            "conn-pool-exhaustion": "3fb8043dbeb72088cf5a265acf76b3c523228335c0200aff895d64b62e79104b",
            "fd-leak": "6e1d5be9fb817b2b207916bddd3d87bfa8b93250ad3afb438d7149666b187426",
            "heap-fragmentation": "6cff5f19721007a3d11106b8279477cbf32506d7837a362b6d7fff330d912d22",
            "lock-contention": "dd9e9e64b3940d6909495bddb068ddffed49004dfa4d4f74c413da8aad86123b",
            "memory-leak-storm": "12a1982002050e5bd52f4ef9bc137b2eb8e324000122de73f726fddf4eca01b1",
            "mixed-aging": "1f869e9513ec8db4679c9568372d809b979060bdc974e0c65a3cc730b6bc83e8",
            "ordering-flash-crowd": "ff9ce915e70f9e462c53bbff73151fe0ba1fefff6af0fe182f19fcc1401d69f4",
        }

    def test_campaign_spec_and_cells(self):
        from repro.campaign import CampaignSpec
        from repro.cli import demo_campaign

        spec = CampaignSpec(
            name="pin",
            base=demo_campaign(2, 0),
            axes={"n_browsers": (20, 40)},
            seeds=(1, 2),
            stages=("simulate", "train"),
        )
        assert spec.fingerprint == (
            "ca56e4e5ea7bdfb4880051a6fbdc0d5aa2566f9d7a7c7e0a1d0ef461e88359d3"
        )
        assert [cell.fingerprint for cell in spec.cells()] == [
            "598d424e32cec4349f8e55546eb273103e2e3f1900a3b254aa2ad9661ee5f9e4",
            "429fbc06eccae440dfc499d8c6ae543e638f321ecc6acbc3458e000e3bd3c27a",
            "d24beb0b36ca09f1dfd224231b8159e32b4824cc9bb55891de74f0021eb0b3c2",
            "493979e89bf6d9136a3f866dffdbb4f1c5e7f607e2e7732d5b16c0d9e9d24bc9",
        ]

    def test_experiment_f2pm_config(self):
        from repro.experiments.common import default_f2pm_config

        assert fingerprint("f2pm", default_f2pm_config()) == (
            "53d22e108175de65db04386db8547baf1dd6c83738260858b8a24fe0b0acde74"
        )
