"""The benchmark's workload definitions.

Every workload is defined here, in full, rather than imported from
``repro.bench.macro_specs`` or the scenario registry: a later edit under
``src/`` cannot silently change what the benchmark measures.  The table
sizes are explicit :class:`~repro.workloads.datagen.ScaleProfile` objects
for the same reason (the named scales in ``repro.workloads.tpch`` may be
retuned).

Each workload is a closed loop: every tenant is one session that issues its
queries back to back in simulated time; the arrival pattern only staggers
the sessions' start times.  The seed feeds both the catalog generator and
``ScenarioSpec.seed`` (which draws the arrival jitter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.engine.catalog import Catalog
from repro.fleet.spec import (
    DeviceFailure,
    DeviceJoin,
    DeviceLeave,
    DeviceProfile,
    FleetSpec,
    MigrationThrottle,
    RebalancePolicy,
)
from repro.scenarios.arrivals import BurstyArrival
from repro.scenarios.spec import ScenarioSpec, uniform_tenants
from repro.service.admission import AdmissionConfig
from repro.workloads import tpch
from repro.workloads.datagen import ScaleProfile, TableProfile


def _profile(name: str, lineitem: TableProfile, **tables: TableProfile) -> ScaleProfile:
    base = {
        "region": TableProfile(1, 5),
        "nation": TableProfile(1, 25),
        "supplier": TableProfile(1, 8),
        "customer": TableProfile(1, 8),
        "part": TableProfile(1, 8),
        "partsupp": TableProfile(1, 8),
        "orders": TableProfile(1, 32),
        "lineitem": lineitem,
    }
    base.update(tables)
    return ScaleProfile(name, base)


#: Lineitem shredded into single-row segments: one object per row, so the
#: per-object path (route, inbox, scheduler pools, arrival, event loop)
#: carries nearly all of the run.
FANOUT_SCALE = _profile("bench-fanout", TableProfile(1000, 1))

#: The "SF-100" shape cut to about two thirds of its segments: Q5 reads 80
#: of 92 objects.  A repetition's cost grows faster than its object count
#: (the full shape takes about five times as long), and a short repetition
#: lets a run take its best time from dozens of them.
JOIN_SCALE = _profile(
    "bench-join",
    TableProfile(60, 40),
    supplier=TableProfile(1, 12),
    customer=TableProfile(3, 20),
    part=TableProfile(3, 16),
    partsupp=TableProfile(9, 20),
    orders=TableProfile(14, 30),
)

#: The "SF-50" shape: Q12 touches 57 of ~71 objects.
SF50_SCALE = _profile(
    "bench-sf50",
    TableProfile(46, 80),
    supplier=TableProfile(1, 20),
    customer=TableProfile(2, 40),
    part=TableProfile(2, 30),
    partsupp=TableProfile(7, 40),
    orders=TableProfile(11, 60),
)


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload: its scenario, data and intent."""

    name: str
    why: str
    scale: ScaleProfile
    #: The scenario for a seed.
    spec: Callable[[int], ScenarioSpec]

    def catalog(self, seed: int) -> Catalog:
        return tpch.build_catalog(self.scale, seed=seed)


def _fanout(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="perfbench-fanout",
        description="Q6 tenants over single-row lineitem segments on a "
        "32-device R=2 slack-FCFS fleet with one join.",
        tenants=uniform_tenants(8, "tpch:q6", cache_capacity=64, repetitions=3),
        # One burst: every tenant starts within the first 30 simulated
        # seconds, at a seed-drawn offset.
        arrival=BurstyArrival(burst_size=8, burst_gap_seconds=60.0, jitter_seconds=30.0),
        scale=FANOUT_SCALE.name,
        scheduler="slack-fcfs",
        scheduler_param=4.0,
        fleet=FleetSpec(
            devices=32,
            replication=2,
            events=(DeviceJoin(device=32, at_seconds=600.0),),
        ),
        seed=seed,
    )


def _join_cache(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="perfbench-join-cache",
        description="Q5 tenants on one rank-based device with a "
        "20-object cache against 80 needed objects.",
        tenants=uniform_tenants(4, "tpch:q5", cache_capacity=20, repetitions=6),
        scale=JOIN_SCALE.name,
        scheduler="rank-based",
        seed=seed,
    )


#: Elastic membership: eight joins interleaved with eight graceful leaves,
#: every 600 simulated seconds, plus one fail-stop loss that is repaired.
#: Each change opens an epoch with its own placement diff and throttled
#: migration.  The leavers skip the profiled devices (2, 3, 8, 9) and the
#: device that fails (5), so the fleet stays heterogeneous throughout.
ELASTIC_EVENTS = tuple(
    event
    for step, leaver in enumerate((0, 1, 4, 6, 7, 10, 11, 12))
    for event in (
        DeviceJoin(device=12 + step, at_seconds=600.0 + 1200.0 * step),
        DeviceLeave(device=leaver, at_seconds=1200.0 + 1200.0 * step),
    )
)


def _elastic(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="perfbench-elastic",
        description="Bursty Q12 tenants at SF-50 behind admission control on a "
        "heterogeneous 12-device R=2 fleet through sixteen membership changes "
        "and a repaired loss, with the rebalance controller sampling load.",
        # The cache holds all 57 objects a query needs, so every query GETs
        # each object once and a repetition's work does not depend on the
        # seed's data (with a cache of 8 the GET count swings by 10% from
        # seed to seed).
        tenants=uniform_tenants(16, "tpch:q12", cache_capacity=64, repetitions=8),
        arrival=BurstyArrival(burst_size=4, burst_gap_seconds=90.0, jitter_seconds=4.0),
        scale=SF50_SCALE.name,
        fleet=FleetSpec(
            devices=12,
            replication=2,
            replica_policy="ewma-latency",
            weighting="profile",
            profiles=(
                DeviceProfile(device=2, switch_seconds=40.0, transfer_seconds=19.2),
                DeviceProfile(device=3, switch_seconds=40.0, transfer_seconds=19.2),
                DeviceProfile(device=8, switch_seconds=5.0, transfer_seconds=4.8),
                DeviceProfile(device=9, switch_seconds=5.0, transfer_seconds=4.8),
            ),
            events=ELASTIC_EVENTS,
            failures=(DeviceFailure(device=5, at_seconds=8400.0),),
            throttle=MigrationThrottle(objects_per_second=0.5),
            # The controller measures every device's busy window each tick
            # (the per-tick cost this workload is after) but never reweights:
            # a coefficient of variation over n devices cannot exceed
            # sqrt(n - 1) < 4.  With the default threshold this fleet
            # reweights at nearly every tick and the simulated tail swings
            # several-fold from seed to seed (see perfbench/README.md).
            rebalance=RebalancePolicy(interval_seconds=300.0, imbalance_threshold=4.0),
        ),
        admission=AdmissionConfig(max_in_flight=8),
        seed=seed,
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fanout",
            why="single-table Q6 over single-row segments on a 32-device fleet: "
            "the per-object path and bulk placement do the work; no joins, "
            "cache reuse, admission or rebalancer",
            scale=FANOUT_SCALE,
            spec=_fanout,
        ),
        Workload(
            name="join-cache",
            why="Q5 six-way join on one device with a cache a quarter of the "
            "working set: n-ary join, subplans, eviction and re-request "
            "cycles do the work; no fleet",
            scale=JOIN_SCALE,
            spec=_join_cache,
        ),
        Workload(
            name="elastic",
            why="bursty Q12 behind admission on a heterogeneous fleet with 17 "
            "membership epochs: few objects, many epochs; placement diffs, "
            "throttled migration and load sampling do the work",
            scale=SF50_SCALE,
            spec=_elastic,
        ),
    )
}
