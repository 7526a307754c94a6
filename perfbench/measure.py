"""One repetition of a workload: set-up, run and report, then the checks.

The three timed phases are what a user of the simulator waits for per
scenario: set-up (catalog generation and ``StorageService`` construction),
run (``StorageService.run``) and report (the scenario report, assembled by
the same code path ``ScenarioRunner.run`` takes).  The answer and invariant
checks run after the timed phases and are never timed.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Tuple

# Everything the timed phases reach, imported up front: set-up time
# excludes imports, and the traced run patches only modules already loaded.
import repro.obs.export  # noqa: F401
from repro.core.executor import SkipperQueryResult
from repro.engine.executor import InMemoryExecutor, canonical_rows
from repro.exceptions import ReproError
from repro.scenarios.invariants import check_invariants
from repro.scenarios.runner import ScenarioRunner
from repro.service.handles import STATUS_FINISHED
from repro.service.service import StorageService

from perfbench.spantrace import Patches, SpanRecorder
from perfbench.workloads import Workload

#: Relative tolerance for float answers: sums accumulate in a different
#: order out of core than in the reference executor.
FLOAT_RTOL = 1e-9

#: The tail percentile keeps at least this many queries beyond it.
TAIL_BEYOND = 10


def current_rss_mb() -> float:
    """Resident set size of this process now, in MB (Linux ``statm``)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return peak_rss_mb()


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def rows_match(actual: List[dict], expected: List[dict]) -> bool:
    """Whether two result sets agree, comparing floats by relative tolerance."""
    if len(actual) != len(expected):
        return False
    for got, want in zip(canonical_rows(actual), canonical_rows(expected)):
        if got.keys() != want.keys():
            return False
        for key, value in want.items():
            other = got[key]
            if isinstance(value, float) or isinstance(other, float):
                if not (
                    isinstance(other, (int, float))
                    and isinstance(value, (int, float))
                    and math.isclose(other, value, rel_tol=FLOAT_RTOL, abs_tol=1e-12)
                ):
                    return False
            elif other != value:
                return False
    return True


def tail(times: List[float]) -> Tuple[Optional[float], float]:
    """The highest order statistic with ``TAIL_BEYOND`` queries beyond it.

    Returns ``(value, percentile)``; ``(None, 0.0)`` when there are too few
    queries for such a tail.
    """
    count = len(times)
    if count <= TAIL_BEYOND:
        return None, 0.0
    rank = count - TAIL_BEYOND
    return sorted(times)[rank - 1], 100.0 * rank / count


@dataclass
class Rep:
    """Measurements and check outcome of one repetition."""

    setup_s: float = 0.0
    run_s: float = 0.0
    report_s: float = 0.0
    setup_rss_mb: float = 0.0
    objects_served: int = 0
    #: Simulated (model) outputs; identical for every repetition of a seed.
    sim: Dict[str, float] = field(default_factory=dict)
    #: Deterministic work counters of the layers (per-layer metrics).
    counters: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s + self.report_s


def setup(workload: Workload, seed: int):
    """The set-up phase: generate the catalog and construct the service."""
    spec = workload.spec(seed)
    catalog = workload.catalog(seed)
    return spec, StorageService(spec, catalog=catalog)


def time_setup(workload: Workload, seed: int) -> float:
    """Seconds for one stand-alone set-up (the service is discarded)."""
    gc.collect()
    start = time.perf_counter()
    setup(workload, seed)
    return time.perf_counter() - start


def run_phases(workload: Workload, seed: int, recorder: Optional[SpanRecorder] = None):
    """Run the three timed phases; returns ``(rep, spec, service, result)``.

    With a ``recorder`` each phase is also recorded as a root span (the
    caller installs the layer wrappers around this call).
    """
    phase = recorder.span if recorder is not None else (lambda _name: nullcontext())
    rep = Rep()
    gc.collect()
    rss_before = current_rss_mb()
    start = time.perf_counter()
    with phase("phase.setup"):
        spec, service = setup(workload, seed)
    setup_end = time.perf_counter()
    rep.setup_rss_mb = current_rss_mb() - rss_before
    with phase("phase.run"):
        result = service.run()
    run_end = time.perf_counter()
    with phase("phase.report"):
        ScenarioRunner(check=False)._build_report(spec, service, result, [])
    end = time.perf_counter()
    rep.setup_s = setup_end - start
    rep.run_s = run_end - setup_end
    rep.report_s = end - run_end
    return rep, spec, service, result


def attempted_queries(workload: Workload, seed: int) -> int:
    spec = workload.spec(seed)
    return sum(tenant.repetitions * len(tenant.queries) for tenant in spec.tenants)


def run_rep(workload: Workload, seed: int, recorder: Optional[SpanRecorder] = None) -> Rep:
    """One repetition: timed phases, then answer and invariant checks.

    With a ``recorder`` the layer wrappers are installed for the timed
    phases only.  A repetition that raises counts every one of its queries
    as failed.
    """
    attempted = attempted_queries(workload, seed)
    try:
        with Patches(recorder) if recorder is not None else nullcontext():
            rep, _spec, service, result = run_phases(workload, seed, recorder)
    except Exception as error:  # noqa: BLE001 - a crash is a measured outcome
        return Rep(
            attempted=attempted,
            failed=attempted,
            problems=[f"workload raised {type(error).__name__}: {error}"],
        )
    rep.attempted = attempted
    check(rep, service, result)
    rep.objects_served = result.device_objects_served
    return rep


def check(rep: Rep, service: StorageService, result) -> None:
    """Answer and invariant checks; fills ``rep.failed``, ``sim`` and ``counters``."""
    handles = [handle for session in service.sessions for handle in session.handles]
    reference = InMemoryExecutor(service.catalog)
    expected: Dict[str, List[dict]] = {}
    times: List[float] = []
    for handle in handles:
        if handle.status != STATUS_FINISHED:
            rep.failed += 1
            rep.problems.append(f"{handle.tenant_id}: query {handle.query.name} {handle.status}")
            continue
        outcome = handle.result()
        times.append(outcome.execution_time)
        name = handle.query.name
        if name not in expected:
            expected[name] = reference.execute(handle.query).rows
        if not rows_match(outcome.rows, expected[name]):
            rep.failed += 1
            rep.problems.append(f"{handle.tenant_id}: {name} answer differs from reference")
    try:
        check_invariants(service, result)
    except ReproError as error:
        rep.failed = rep.attempted
        rep.problems.append(f"invariant violated: {error}")
    if times:
        rep.sim = {
            "sim_makespan_s": result.total_simulated_time,
            "sim_query_p50_s": median(times),
            "sim_queries": float(len(times)),
        }
        value, percentile = tail(times)
        if value is not None:
            rep.sim["sim_query_tail_s"] = value
            rep.sim["sim_query_tail_pct"] = percentile
    rep.counters = counters(service, result, handles)


def counters(service: StorageService, result, handles) -> Dict[str, float]:
    """Deterministic per-layer work counters of one run."""
    outcomes = [
        outcome
        for outcomes in result.results_by_client.values()
        for outcome in outcomes
        if isinstance(outcome, SkipperQueryResult)
    ]
    requests = sum(outcome.num_requests for outcome in outcomes)
    needed = sum(
        service.catalog.relation(table).num_segments
        for handle in handles
        if handle.status == STATUS_FINISHED
        for table in handle.query.tables
    )
    hits = sum(outcome.cache_hits for outcome in outcomes)
    lookups = hits + sum(outcome.cache_insertions for outcome in outcomes)
    breakdowns = [b for per_client in result.breakdowns_by_client.values() for b in per_client]
    stats = service.device_stats()
    values: Dict[str, float] = {
        "sim.events": float(service.env.dispatched),
        "service.admission.queued": float(
            sum(1 for handle in handles if handle.queued_at is not None)
        ),
        "service.admission.queue_sim_s": sum(handle.queue_delay for handle in handles),
        "csd.objects_served": float(stats.objects_served),
        "csd.group_switches": float(stats.group_switches),
        "csd.switch_wait_sim_s": sum(b.switch_wait for b in breakdowns),
        "csd.transfer_wait_sim_s": sum(b.transfer_wait for b in breakdowns),
        "csd.migration_interference_sim_s": float(stats.migration_interference_seconds),
        "csd.migration_deferrals": float(stats.migration_deferrals),
        "core.cache.hit_rate": hits / lookups if lookups else 0.0,
        "core.rerequest_ratio": requests / needed if needed else 0.0,
        "core.cycles": float(sum(outcome.num_cycles for outcome in outcomes)),
        "core.subplans_executed": float(sum(o.subplans_executed for o in outcomes)),
        "core.subplans_pruned": float(sum(o.subplans_pruned for o in outcomes)),
        "engine.tuples_scanned": float(sum(o.stats.tuples_scanned for o in outcomes)),
        "engine.tuples_built": float(sum(o.stats.tuples_built for o in outcomes)),
        "engine.tuples_probed": float(sum(o.stats.tuples_probed for o in outcomes)),
        "engine.tuples_output": float(sum(o.stats.tuples_output for o in outcomes)),
        "fleet.keys_moved": 0.0,
        "fleet.epochs": 0.0,
        "fleet.reweights": 0.0,
        "fleet.diverted_frac": 0.0,
        "fleet.failed_over": 0.0,
        "fleet.handed_off": 0.0,
    }
    fleet = service.fleet
    if fleet is not None:
        routed = fleet.stats.choice_primary + fleet.stats.choice_diverted
        values.update(
            {
                "fleet.keys_moved": float(sum(p.keys_moved for p in fleet.migration_plans)),
                "fleet.epochs": float(fleet.epoch),
                "fleet.reweights": float(
                    sum(1 for entry in fleet.rebalance_log if entry["triggered"])
                ),
                "fleet.diverted_frac": fleet.stats.choice_diverted / routed if routed else 0.0,
                "fleet.failed_over": float(fleet.stats.failed_over),
                "fleet.handed_off": float(fleet.stats.handed_off),
            }
        )
    return values
