"""Every controller honours or rejects each behavioural CampaignConfig switch.

``ManagedSystem`` and the fleet's ``SimulatedFleetSource`` build testbed
nodes from a ``CampaignConfig``. A switch a consumer cannot honour must
raise a one-line ``ValueError`` naming the field; it must never run
silently as the baseline memory leak. The fleet steps the simulator's own
node episode and ``ManagedSystem`` is a fleet of one, so both honour
every switch, the anomaly injectors included.
"""

import dataclasses

import pytest

from repro.rejuvenation import (
    FleetConfig,
    FleetController,
    ManagedSystem,
    ManagedSystemConfig,
    NoRejuvenation,
    SimulatedFleetSource,
)
from repro.system import CampaignConfig, parse_failure
from repro.utils.rng import as_rng
from tests.conftest import small_campaign

MANAGED = ManagedSystemConfig(horizon_seconds=1500.0, window_seconds=20.0)
SEED = 4

#: Switches every consumer honours, and the value each test sets.
HONOURED = {"failure": "rt>1", "use_session_chain": True}
#: The anomaly injectors.
INJECTORS = (
    "use_time_injectors",
    "use_lock_injector",
    "use_fd_injector",
    "use_conn_injector",
    "use_frag_injector",
)
#: Per consumer: the switches it honours (with the value each test sets)
#: and the switches it rejects.
HONOURED_BY = {
    "ManagedSystem": {**HONOURED, **dict.fromkeys(INJECTORS, True)},
    "SimulatedFleetSource": {**HONOURED, **dict.fromkeys(INJECTORS, True)},
}
REJECTED = {"ManagedSystem": (), "SimulatedFleetSource": ()}


def episodes(log):
    return [(e.start, e.end, e.outcome) for e in log.episodes]


def run_managed(campaign, failure_condition=None):
    return episodes(
        ManagedSystem(
            campaign, MANAGED, NoRejuvenation(), failure_condition=failure_condition
        ).run(seed=as_rng(SEED).spawn(1)[0])
    )


def run_fleet(campaign, failure_condition=None):
    source = SimulatedFleetSource(campaign, failure_condition=failure_condition)
    log = FleetController(
        source, MANAGED, NoRejuvenation(), FleetConfig(n_nodes=1)
    ).run(seed=SEED)
    return episodes(log.node_logs[0])


CONSUMERS = {"ManagedSystem": run_managed, "SimulatedFleetSource": run_fleet}


def test_every_switch_is_honoured_or_rejected():
    switches = {
        f.name for f in dataclasses.fields(CampaignConfig) if f.name.startswith("use_")
    }
    for consumer in CONSUMERS:
        honoured, rejected = set(HONOURED_BY[consumer]), set(REJECTED[consumer])
        assert switches | {"failure"} == honoured | rejected, consumer
        assert not honoured & rejected, consumer


@pytest.mark.parametrize("field", INJECTORS)
def test_fleet_honours_injector(field):
    campaign = dataclasses.replace(small_campaign(), **{field: True})
    assert run_fleet(campaign) != run_fleet(small_campaign())


@pytest.mark.parametrize("field", INJECTORS)
def test_managed_system_honours_injector(field):
    campaign = dataclasses.replace(small_campaign(), **{field: True})
    injected = run_managed(campaign)
    assert injected != run_managed(small_campaign())
    assert injected == run_fleet(campaign)


@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
def test_failure_spec_is_honoured(consumer):
    run = CONSUMERS[consumer]
    spec = HONOURED["failure"]
    honoured = run(dataclasses.replace(small_campaign(), failure=spec))
    # The config's spec behaves exactly like passing the condition itself.
    assert honoured == run(small_campaign(), failure_condition=parse_failure(spec))
    assert honoured != run(small_campaign())


@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
def test_session_chain_is_honoured(consumer):
    run = CONSUMERS[consumer]
    chained = run(dataclasses.replace(small_campaign(), use_session_chain=True))
    assert chained != run(small_campaign())


@pytest.mark.parametrize("field", sorted(HONOURED))
def test_fleet_of_one_matches_managed_system(field):
    campaign = dataclasses.replace(small_campaign(), **{field: HONOURED[field]})
    assert run_fleet(campaign) == run_managed(campaign)
