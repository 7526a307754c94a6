"""Drift pins: six small scenarios whose dispatched-event count and total
simulated time are pinned exactly.

The shapes cover an engine-bound Q5 run, fleet churn with a failure, a
throttled join under bursty load, an SF-100 key population on slack-FCFS
devices and a profile-weighted fleet with ewma-latency routing and the
feedback rebalancer.  A change to the simulator's behaviour moves one of the
two numbers even where no golden metric notices, so a change meant only to
make the simulator faster must leave both exactly as pinned.  Each scenario
runs untraced and traced: tracing only observes and must move neither.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.fleet.spec import (
    DeviceFailure,
    DeviceJoin,
    DeviceProfile,
    FleetSpec,
    MigrationThrottle,
    RebalancePolicy,
)
from repro.obs.export import build_trace
from repro.scenarios import check_invariants
from repro.scenarios.arrivals import BurstyArrival
from repro.scenarios.spec import ScenarioSpec, uniform_tenants
from repro.service import StorageService

#: (spec, events dispatched, total simulated time).
PINNED = [
    (
        ScenarioSpec(
            name="macro-sf-heavy",
            description="Two TPC-H Q5 tenants at the small scale on one device.",
            tenants=uniform_tenants(2, "tpch:q5", cache_capacity=30),
            scale="small",
            seed=42,
        ),
        179,
        519.42,
    ),
    (
        ScenarioSpec(
            name="macro-fleet-churn",
            description="Four Q12 tenants on a four-device R=2 fleet with one "
            "join and one failure.",
            tenants=uniform_tenants(4, "tpch:q12", cache_capacity=8),
            scale="tiny",
            fleet=FleetSpec(
                devices=4,
                replication=2,
                replica_policy="least-loaded",
                events=(DeviceJoin(device=4, at_seconds=60.0),),
                failures=(DeviceFailure(device=0, at_seconds=120.0),),
            ),
            seed=42,
        ),
        178,
        216.37999999999994,
    ),
    (
        ScenarioSpec(
            name="macro-throttled-rebalance",
            description="Throttled join under bursty load.",
            tenants=uniform_tenants(3, "tpch:q12", cache_capacity=8),
            scale="tiny",
            arrival=BurstyArrival(
                burst_size=2, burst_gap_seconds=60.0, jitter_seconds=4.0
            ),
            fleet=FleetSpec(
                devices=3,
                events=(DeviceJoin(device=3, at_seconds=80.0),),
                throttle=MigrationThrottle(objects_per_second=0.1),
            ),
            seed=42,
        ),
        124,
        156.70004302089063,
    ),
    (
        ScenarioSpec(
            name="macro-million-keys",
            description="Four Q6 tenants at SF-100 on an eight-device R=2 "
            "fleet of slack-FCFS devices with one join.",
            tenants=uniform_tenants(4, "tpch:q6", cache_capacity=16),
            scale="sf100",
            scheduler="slack-fcfs",
            scheduler_param=4.0,
            fleet=FleetSpec(
                devices=8,
                replication=2,
                events=(DeviceJoin(device=8, at_seconds=120.0),),
            ),
            seed=42,
        ),
        1687,
        791.350000000001,
    ),
    (
        ScenarioSpec(
            name="macro-sf-1000",
            description="One TPC-H Q5 tenant at the small scale with "
            "everything cached.",
            tenants=uniform_tenants(1, "tpch:q5", cache_capacity=256),
            scale="small",
            seed=42,
        ),
        91,
        307.82,
    ),
    (
        ScenarioSpec(
            name="macro-heterogeneous-fleet",
            description="Four Q12 tenants on a mixed fast/slow three-device "
            "R=2 fleet with profile-weighted placement, ewma-latency routing "
            "and the feedback rebalancer ticking.",
            tenants=uniform_tenants(4, "tpch:q12", cache_capacity=8),
            scale="tiny",
            fleet=FleetSpec(
                devices=3,
                replication=2,
                replica_policy="ewma-latency",
                weighting="profile",
                profiles=(
                    DeviceProfile(
                        device=1, switch_seconds=40.0, transfer_seconds=19.2
                    ),
                    DeviceProfile(
                        device=2, switch_seconds=5.0, transfer_seconds=4.8
                    ),
                ),
                rebalance=RebalancePolicy(interval_seconds=150.0),
            ),
            seed=42,
        ),
        139,
        200.38,
    ),
]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize(
    "spec,events,simulated_time",
    PINNED,
    ids=[spec.name for spec, _events, _simulated_time in PINNED],
)
def test_drift_pin(spec, events, simulated_time, traced):
    if traced:
        spec = replace(spec, trace=True)
    service = StorageService(spec)
    result = service.run()
    check_invariants(service, result)
    assert (service.env.dispatched, result.total_simulated_time) == (
        events,
        simulated_time,
    )
    if traced:
        assert build_trace(service, scenario=spec.name)["spans"]
