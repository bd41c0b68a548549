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
