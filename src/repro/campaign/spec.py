"""Declarative campaign specifications (``repro.campaign.spec``).

A :class:`CampaignSpec` names the *content* of an experimental campaign
— a parameter grid over :class:`~repro.system.simulator.CampaignConfig`
fields, crossed with campaign seeds, plus the analysis parameters of the
staged pipeline (aggregation window, sanitize policy, model grid) — and
nothing about *how* it executes. Execution strategy (worker counts,
which process runs which cell) never appears in a fingerprint, so
artifacts cache-hit across all of them.

The spec enumerates its grid as :class:`CampaignCell` objects, one per
(grid point x seed). Each cell resolves to a concrete ``CampaignConfig``
whose canonical fingerprint (:mod:`repro.store.keys`) keys the cell's
artifacts — the *same* ``fingerprint("campaign", config)`` scheme the
experiment drivers have always used, so a store populated by
``default_history`` counts as cached for a spec covering that config.

Specs serialize to/from plain JSON (``from_dict``/``to_dict``) so they
can live in files and be handed to ``f2pm campaign {plan,run,status}``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.store.keys import fingerprint, short_fingerprint
from repro.system.monitor import MonitorConfig
from repro.system.resources import MACHINE_PROFILES, MachineConfig
from repro.system.schedule import (
    ConstantLoad,
    DiurnalLoad,
    FlashCrowdLoad,
    LoadSchedule,
    StepLoad,
)
from repro.system.server import ServerConfig
from repro.system.simulator import CampaignConfig
from repro.system.tpcw import MIXES

#: JSON vocabulary for schedule values: ``{"type": <name>, ...fields}``.
_SCHEDULE_TYPES = {
    "constant": ConstantLoad,
    "diurnal": DiurnalLoad,
    "step": StepLoad,
    "flash-crowd": FlashCrowdLoad,
}

#: Stages a spec may request, in execution order (each caches its own
#: artifact; later stages consume earlier ones — morf-style staging).
STAGES = ("simulate", "aggregate", "train", "evaluate")

#: CampaignConfig fields a spec may not grid over: seeds have their own
#: axis (``seeds``).
_RESERVED_AXES = frozenset({"seed"})

#: Axes that are spec vocabulary rather than ``CampaignConfig`` fields.
#: ``scenario`` values are catalog names (:mod:`repro.scenarios`)
#: resolved to config overrides at cell-enumeration time; the resolved
#: config is fingerprinted exactly like any hand-written one, so the
#: axis adds no new cache-key vocabulary and old caches stay valid.
_VIRTUAL_AXES = frozenset({"scenario"})

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(CampaignConfig)}


def _coerce_value(field_name: str, value: Any) -> Any:
    """Resolve a spec-level value to a ``CampaignConfig`` field value.

    JSON-friendly spellings are accepted: mixes and machine profiles by
    name (``"shopping"``, ``"small-vm"``), scenarios by catalog name,
    range pairs as lists. Everything else passes through and is
    validated by ``CampaignConfig.__post_init__`` / the fingerprint
    encoder.
    """
    if field_name == "scenario":
        from repro.scenarios import get_scenario

        return get_scenario(value).name
    if field_name == "mix" and isinstance(value, str):
        try:
            return MIXES[value]
        except KeyError:
            raise ValueError(
                f"unknown TPC-W mix {value!r}; known: {sorted(MIXES)}"
            ) from None
    if field_name == "machine" and isinstance(value, str):
        try:
            return MACHINE_PROFILES[value]
        except KeyError:
            raise ValueError(
                f"unknown machine profile {value!r}; "
                f"known: {sorted(MACHINE_PROFILES)}"
            ) from None
    if field_name == "machine" and isinstance(value, Mapping):
        return MachineConfig(**value)
    if field_name == "server" and isinstance(value, Mapping):
        return ServerConfig(**value)
    if field_name == "monitor" and isinstance(value, Mapping):
        return MonitorConfig(**value)
    if field_name == "load_schedule" and isinstance(value, Mapping):
        doc = dict(value)
        type_name = doc.pop("type", None)
        if type_name not in _SCHEDULE_TYPES:
            raise ValueError(
                f"unknown load schedule type {type_name!r}; "
                f"known: {sorted(_SCHEDULE_TYPES)}"
            )
        doc = {
            k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()
        }
        return _SCHEDULE_TYPES[type_name](**doc)
    if isinstance(value, list):
        return tuple(value)
    return value


def _uncoerce_value(field_name: str, value: Any) -> Any:
    """Inverse of :func:`_coerce_value` for JSON export."""
    if field_name == "mix" and hasattr(value, "name") and value.name in MIXES:
        return value.name
    if field_name == "machine" and isinstance(value, MachineConfig):
        for profile_name, profile in MACHINE_PROFILES.items():
            if value == profile:
                return profile_name
    if field_name == "load_schedule" and isinstance(value, LoadSchedule):
        for type_name, cls in _SCHEDULE_TYPES.items():
            if type(value) is cls:
                doc = dataclasses.asdict(value)
                return {
                    "type": type_name,
                    **{
                        k: list(v) if isinstance(v, tuple) else v
                        for k, v in doc.items()
                    },
                }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, tuple):
        return list(value)
    return value


@dataclass(frozen=True)
class CampaignCell:
    """One grid point of a spec: a fully resolved campaign.

    ``params`` keeps the *declared* axis values (e.g. the mix name, not
    the mix object) for labelling; ``config`` is the resolved
    :class:`CampaignConfig` whose fingerprint keys the cell's artifacts.
    """

    index: int
    seed: int
    params: tuple[tuple[str, Any], ...]
    config: CampaignConfig

    @property
    def fingerprint(self) -> str:
        """Full canonical fingerprint of the resolved campaign config."""
        return fingerprint("campaign", self.config)

    def label(self) -> str:
        """Human-readable cell identity, e.g. ``mix=shopping seed=7``."""
        parts = [f"{k}={v}" for k, v in self.params]
        parts.append(f"seed={self.seed}")
        return " ".join(parts)


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative campaign: grid x seeds x staged analysis.

    Parameters
    ----------
    name : human label; excluded from the fingerprint (two specs naming
        the same grid alias the same artifacts, which is the point).
    base : the template config every cell starts from.
    axes : ``{field: (values, ...)}`` grid over ``CampaignConfig``
        fields (normalized to name-sorted pairs for a stable encoding).
    seeds : campaign seeds; empty means "the base config's seed".
    stages : which pipeline stages the campaign runs (prefix of
        :data:`STAGES` order is not required, but execution sorts them).
    window_seconds / sanitize : aggregation-stage parameters.
    models / train_seed : train/evaluate-stage parameters.
    """

    name: str = "campaign"
    base: CampaignConfig = field(default_factory=CampaignConfig)
    axes: tuple[tuple[str, tuple], ...] = ()
    seeds: tuple[int, ...] = ()
    stages: tuple[str, ...] = ("simulate",)
    window_seconds: float = 30.0
    sanitize: "str | None" = None
    models: tuple[str, ...] = ("linear", "m5p", "reptree")
    train_seed: int = 0

    #: ``name`` is a label, not campaign *content*, so the spec
    #: fingerprint skips it.
    __key_exclude__ = frozenset({"name"})

    def __post_init__(self) -> None:
        axes = self.axes
        if isinstance(axes, Mapping):
            axes = tuple(axes.items())
        normalized = []
        for axis_name, values in sorted(axes, key=lambda kv: kv[0]):
            if axis_name not in _CONFIG_FIELDS and axis_name not in _VIRTUAL_AXES:
                raise ValueError(
                    f"unknown campaign axis {axis_name!r}; "
                    f"CampaignConfig has no such field and it is not a "
                    f"virtual axis ({sorted(_VIRTUAL_AXES)})"
                )
            if axis_name in _RESERVED_AXES:
                raise ValueError(
                    f"axis {axis_name!r} is reserved: use `seeds` for seeds"
                )
            values = tuple(values)
            if not values:
                raise ValueError(f"axis {axis_name!r} has no values")
            normalized.append((axis_name, values))
        object.__setattr__(self, "axes", tuple(normalized))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        stages = tuple(self.stages)
        for stage in stages:
            if stage not in STAGES:
                raise ValueError(f"unknown stage {stage!r}; known: {STAGES}")
        if not stages:
            raise ValueError("a spec must request at least one stage")
        # Execution order is pipeline order regardless of declaration order.
        object.__setattr__(
            self, "stages", tuple(s for s in STAGES if s in stages)
        )
        object.__setattr__(self, "models", tuple(self.models))

    # -- identity -------------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """Full canonical fingerprint of the spec's content."""
        return fingerprint("campaign-spec", self)

    @property
    def short_fingerprint(self) -> str:
        return short_fingerprint("campaign-spec", self)

    # -- enumeration ----------------------------------------------------------

    def cells(self) -> tuple[CampaignCell, ...]:
        """Enumerate the grid deterministically.

        Order: axis-value combinations in declared (name-sorted) axis
        order, seeds innermost — stable across processes, so two
        cooperating drivers walk the same frontier.
        """
        seeds = self.seeds or (self.base.seed,)
        axis_names = [name for name, _ in self.axes]
        axis_values = [values for _, values in self.axes]
        cells: list[CampaignCell] = []
        index = 0
        for combo in itertools.product(*axis_values) if axis_values else [()]:
            overrides = {
                name: _coerce_value(name, value)
                for name, value in zip(axis_names, combo)
            }
            # A scenario resolves to base-config overrides *first*, so
            # explicit axes on the same fields win over the preset.
            scenario_name = overrides.pop("scenario", None)
            if scenario_name is not None:
                from repro.scenarios import resolve_scenario

                cell_base = resolve_scenario(scenario_name, self.base)
            else:
                cell_base = self.base
            for seed in seeds:
                config = replace(cell_base, seed=int(seed), **overrides)
                cells.append(
                    CampaignCell(
                        index=index,
                        seed=int(seed),
                        params=tuple(zip(axis_names, combo)),
                        config=config,
                    )
                )
                index += 1
        return tuple(cells)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly form; non-default ``base`` fields only."""
        default = CampaignConfig()
        base: dict[str, Any] = {}
        for f in dataclasses.fields(CampaignConfig):
            current = getattr(self.base, f.name)
            if current != getattr(default, f.name):
                base[f.name] = _uncoerce_value(f.name, current)
        doc: dict[str, Any] = {"name": self.name, "base": base}
        if self.axes:
            doc["axes"] = {
                name: [_uncoerce_value(name, v) for v in values]
                for name, values in self.axes
            }
        if self.seeds:
            doc["seeds"] = list(self.seeds)
        doc["stages"] = list(self.stages)
        doc["window_seconds"] = self.window_seconds
        if self.sanitize is not None:
            doc["sanitize"] = self.sanitize
        doc["models"] = list(self.models)
        doc["train_seed"] = self.train_seed
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping) -> "CampaignSpec":
        """Build a spec from :meth:`to_dict` output (or a hand-written
        JSON document of the same shape)."""
        if not isinstance(doc, Mapping):
            raise ValueError(f"spec document must be a mapping, got {type(doc).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        # Only the keys the document names; the dataclass supplies the rest.
        kwargs: dict[str, Any] = dict(doc)
        base_doc = kwargs.pop("base", {})
        if not isinstance(base_doc, Mapping):
            raise ValueError("spec `base` must be a mapping of CampaignConfig fields")
        overrides = {}
        for field_name, value in base_doc.items():
            if field_name not in _CONFIG_FIELDS:
                raise ValueError(f"unknown CampaignConfig field {field_name!r} in base")
            overrides[field_name] = _coerce_value(field_name, value)
        if overrides:
            kwargs["base"] = replace(CampaignConfig(), **overrides)
        # JSON spells 30 and 30.0 alike; the fingerprint does not.
        for key, kind in (("window_seconds", float), ("train_seed", int)):
            if key in kwargs:
                kwargs[key] = kind(kwargs[key])
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_file(cls, path: "str | Path") -> "CampaignSpec":
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise ValueError(f"could not read spec {path}: {exc}") from exc
        return cls.from_dict(doc)

    # -- set algebra over artifacts -------------------------------------------

    def artifact_fingerprints(self) -> frozenset[str]:
        """Full fingerprints of every artifact this spec can own, across
        all of its stages — the scope key for ``f2pm cache gc --spec``."""
        from repro.campaign.stages import stage_artifact

        fps = set()
        for cell in self.cells():
            for stage in self.stages:
                _, fp = stage_artifact(self, cell, stage)
                fps.add(fp)
        return frozenset(fps)


def merged_cells(specs: Iterable[CampaignSpec]) -> tuple[CampaignCell, ...]:
    """The union of several specs' grids, deduplicated by config
    fingerprint (first occurrence wins), reindexed deterministically."""
    seen: set[str] = set()
    merged: list[CampaignCell] = []
    for spec in specs:
        for cell in spec.cells():
            fp = cell.fingerprint
            if fp in seen:
                continue
            seen.add(fp)
            merged.append(
                CampaignCell(
                    index=len(merged),
                    seed=cell.seed,
                    params=cell.params,
                    config=cell.config,
                )
            )
    return tuple(merged)
