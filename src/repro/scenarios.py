"""Named scenario presets: the workload/anomaly catalog (ROADMAP item 3).

The paper exercises exactly one scenario — the TPC-W shopping mix under
constant full load on one machine size, aging through request-coupled
memory leaks and unterminated threads. Every model the framework ships
is therefore validated on the narrowest possible slice of the space the
related work (CHAOS, the creep-failure study) shows matters: aging
signatures differ sharply across fault families, and *which features
carry* across them is an open question the generalization-matrix
experiment (:mod:`repro.experiments.ext_generalization`) answers.

A :class:`Scenario` composes four orthogonal ingredients into a named
``CampaignConfig`` transform:

- **workload**: a TPC-W mix (:data:`~repro.system.tpcw.MIXES`);
- **load schedule**: constant, diurnal, or flash-crowd
  (:mod:`repro.system.schedule`);
- **machine profile**: a named VM sizing
  (:data:`~repro.system.resources.MACHINE_PROFILES`);
- **anomaly family**: request-coupled leaks/threads, time-based
  leak/thread storms, lock contention, fd/socket leaks, connection-pool
  depletion, or heap fragmentation — with a matching failure condition
  (:func:`~repro.system.failure.parse_failure` spec).

Scenarios are *transforms over a base config*, not configs: the campaign
layer applies them to whatever base a spec declares (run count, seed,
horizon stay caller-controlled), and the resolved config is
content-addressed by the exact ``fingerprint("campaign", config)``
scheme every artifact already uses — a scenario name in a
``CampaignSpec`` axis aliases the same store entries as the equivalent
hand-written config.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.system.resources import MACHINE_PROFILES
from repro.system.schedule import DiurnalLoad, FlashCrowdLoad
from repro.system.simulator import CampaignConfig
from repro.system.tpcw import BROWSING_MIX, ORDERING_MIX, SHOPPING_MIX

#: Anomaly-profile draw ranges that disable request-coupled injection
#: (used by scenarios whose aging family is purely time-based, so the
#: family under study is the *only* thing degrading the system).
_NO_REQUEST_ANOMALIES: dict[str, Any] = {
    "p_leak_range": (0.0, 0.0),
    "leak_kb_range": (0.0, 0.0),
    "p_thread_range": (0.0, 0.0),
}


@dataclass(frozen=True)
class Scenario:
    """One named point in the scenario space.

    ``overrides`` maps :class:`CampaignConfig` field names to values;
    :meth:`apply` is ``dataclasses.replace`` with them. The descriptive
    fields (``workload``/``schedule``/``profile``/``anomaly``) are
    labels for catalogs and docs, never inputs to the simulation.
    """

    name: str
    description: str
    workload: str
    schedule: str
    profile: str
    anomaly: str
    overrides: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        known = {f.name for f in dataclasses.fields(CampaignConfig)}
        unknown = set(self.overrides) - known
        if unknown:
            raise ValueError(
                f"scenario {self.name!r} overrides unknown CampaignConfig "
                f"fields: {sorted(unknown)}"
            )
        for reserved in ("seed", "n_runs"):
            if reserved in self.overrides:
                raise ValueError(
                    f"scenario {self.name!r} may not override {reserved!r}: "
                    "run count and seed belong to the caller"
                )

    def apply(self, base: CampaignConfig) -> CampaignConfig:
        """Resolve this scenario against a base campaign config."""
        return dataclasses.replace(base, **dict(self.overrides))


#: The catalog. Names are accepted as ``scenario`` axis values in
#: :class:`~repro.campaign.spec.CampaignSpec`, by ``f2pm simulate
#: --scenario``, and by :func:`get_scenario`.
SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            name="baseline-shopping",
            description="The paper's setup: shopping mix, constant full "
            "load, request-coupled memory/thread anomalies, OOM failure.",
            workload="shopping",
            schedule="constant",
            profile="default",
            anomaly="request-coupled leaks+threads",
            overrides={"mix": SHOPPING_MIX},
        ),
        Scenario(
            name="browsing-diurnal",
            description="Browsing mix (2x the Home rate) under a diurnal "
            "cycle: anomaly accumulation tracks the day/night load swing.",
            workload="browsing",
            schedule="diurnal",
            profile="default",
            anomaly="request-coupled leaks+threads",
            overrides={
                "mix": BROWSING_MIX,
                "load_schedule": DiurnalLoad(period=3600.0),
            },
        ),
        Scenario(
            name="ordering-flash-crowd",
            description="Ordering mix (lowest Home rate) with a mid-run "
            "flash crowd: a burst of load bends the RTTF trajectory.",
            workload="ordering",
            schedule="flash-crowd",
            profile="default",
            anomaly="request-coupled leaks+threads",
            overrides={
                "mix": ORDERING_MIX,
                "load_schedule": FlashCrowdLoad(),
            },
        ),
        Scenario(
            name="lock-contention",
            description="Stuck application locks serialize the mix: "
            "response times degrade with zero memory signature.",
            workload="shopping",
            schedule="constant",
            profile="default",
            anomaly="lock contention",
            overrides={
                **_NO_REQUEST_ANOMALIES,
                "use_lock_injector": True,
                "failure": "rt>10",
            },
        ),
        Scenario(
            name="fd-leak",
            description="Socket/file-descriptor leaks on a tight ulimit: "
            "the fd table fills and the app dies on EMFILE (loop-fallback "
            "failure condition).",
            workload="shopping",
            schedule="constant",
            profile="constrained-fd",
            anomaly="fd/socket leak",
            overrides={
                **_NO_REQUEST_ANOMALIES,
                "machine": MACHINE_PROFILES["constrained-fd"],
                "use_fd_injector": True,
                "failure": "fd",
            },
        ),
        Scenario(
            name="conn-pool-exhaustion",
            description="DB connections checked out and never returned: "
            "requests queue on the shrinking pool until service collapses.",
            workload="shopping",
            schedule="constant",
            profile="default",
            anomaly="connection-pool depletion",
            overrides={
                **_NO_REQUEST_ANOMALIES,
                "use_conn_injector": True,
                "failure": "rt>10",
            },
        ),
        Scenario(
            name="heap-fragmentation",
            description="Allocator fragmentation inflates service times "
            "with no RSS growth — the family memory-based predictors miss.",
            workload="shopping",
            schedule="constant",
            profile="default",
            anomaly="heap fragmentation",
            overrides={
                **_NO_REQUEST_ANOMALIES,
                "use_frag_injector": True,
                "failure": "rt>10",
            },
        ),
        Scenario(
            name="memory-leak-storm",
            description="Sec. III-E time-based leak/thread utilities on a "
            "memory-starved VM: fast, workload-independent aging.",
            workload="shopping",
            schedule="constant",
            profile="small-vm",
            anomaly="time-based leaks+threads",
            overrides={
                **_NO_REQUEST_ANOMALIES,
                "machine": MACHINE_PROFILES["small-vm"],
                "use_time_injectors": True,
                "failure": "mem",
            },
        ),
        Scenario(
            name="mixed-aging",
            description="Everything at once on an over-provisioned VM: "
            "request-coupled and time-based anomalies plus lock contention "
            "under diurnal load, racing OOM against RT collapse.",
            workload="shopping (session chain)",
            schedule="diurnal",
            profile="large-vm",
            anomaly="leaks+threads+locks",
            overrides={
                "machine": MACHINE_PROFILES["large-vm"],
                "use_session_chain": True,
                "use_time_injectors": True,
                "use_lock_injector": True,
                "load_schedule": DiurnalLoad(period=3600.0),
                "failure": "mem|rt>12",
            },
        ),
    )
}


def get_scenario(name: str) -> Scenario:
    """Look up a catalog scenario; one-line error listing known names."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        ) from None


def scenario_names() -> tuple[str, ...]:
    """Catalog names in stable (sorted) order."""
    return tuple(sorted(SCENARIOS))


def resolve_scenario(name: str, base: CampaignConfig) -> CampaignConfig:
    """Resolve a scenario name against a base config (lookup + apply)."""
    return get_scenario(name).apply(base)
