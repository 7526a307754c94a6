"""The fleet router: one addressable storage service over N devices.

The router composes N independent :class:`~repro.csd.device.ColdStorageDevice`
instances — each with its own disk-group layout, its own I/O scheduler and
its own (possibly heterogeneous) :class:`~repro.csd.device.DeviceConfig` —
behind the exact ``submit()`` interface clients already speak, so executors
and client proxies are oblivious to whether they talk to one device or to a
sharded fleet.

Responsibilities:

* **Routing** — every GET is dispatched to one live replica of its object,
  chosen by the replica policy: primary-first, least-loaded (queue length)
  or ewma-latency (smoothed service time × queue depth).  Completions feed
  a per-device latency EWMA in simulated time, so adaptive policies stay
  deterministic.
* **Load-aware placement** — capacity weights (static speed factors under
  ``weighting="profile"``, or observed service rates when the feedback
  rebalancer triggers) size each device's vnode share on the consistent-hash
  ring; an all-equal-weight fleet is byte-identical to an unweighted one.
* **Membership** — the device roster is epoch-versioned
  (:class:`~repro.fleet.membership.FleetMembership`): a
  :class:`~repro.fleet.spec.DeviceJoin` or
  :class:`~repro.fleet.spec.DeviceLeave` advances the epoch, deterministically
  recomputes the consistent-hash placement over the new roster and executes
  the **minimal migration plan** — only keys whose replica set changed move,
  with the migration I/O charged to the source and destination devices as
  priority work that measurably interferes with foreground traffic.
* **Failover / handoff** — when a device fails (fail-stop) its queued
  requests are pulled back and re-routed to surviving replicas; when a
  device leaves gracefully its queue is handed off to the new owners of its
  keys.  Nothing is lost in either case.
* **Aggregation** — per-device busy-interval streams are merged (ordered by
  completion) for the metrics layer, and per-device counters are combined
  into fleet-level statistics, including a per-epoch imbalance series.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.csd.device import (
    BusyInterval,
    ColdStorageDevice,
    DeviceConfig,
    DeviceStats,
    MigrationTokenBucket,
)
from repro.csd.layout import LayoutPolicy, extend_layout_with_keys
from repro.csd.object_store import ObjectStore
from repro.csd.request import GetRequest, MigrationJob
from repro.csd.scheduler import IOScheduler
from repro.exceptions import ConfigurationError, FleetError
from repro.fleet.membership import FleetMembership, MemberRecord
from repro.fleet.migration import MigrationPlan, plan_migration
from repro.obs import NULL_TRACER, Ewma, MetricsRegistry
from repro.fleet.placement import ConsistentHashPlacement, normalize_weights
from repro.fleet.spec import (
    DEFAULT_EWMA_ALPHA,
    DeviceFailure,
    DeviceJoin,
    DeviceLeave,
    FleetSpec,
    RebalancePolicy,
    SetReplication,
    device_name,
)
from repro.sim import Environment

SchedulerFactory = Callable[[], IOScheduler]


@dataclass
class FleetMember:
    """One device of the fleet plus the router's book-keeping about it."""

    device_id: str
    index: int
    #: ``None`` when the placement put no objects on this device (it then
    #: spins idle for the whole run but still appears in fleet metrics).
    device: Optional[ColdStorageDevice]
    object_keys: Tuple[str, ...]
    #: Per-device EWMA of request latency (routed → completed), in simulated
    #: seconds; feeds the ``ewma-latency`` policy and the rebalancer.
    ewma: Ewma
    alive: bool = True
    failed_at: Optional[float] = None
    joined_at: float = 0.0
    left_at: Optional[float] = None
    #: Routed but not yet completed (drives the least-loaded policy).
    outstanding: int = 0
    #: Sum of completed-request latencies (mean = sum / ewma.count).
    latency_sum: float = 0.0

    def busy_seconds(self) -> float:
        if self.device is None:
            return 0.0
        return self.device.busy_intervals.total_duration()

    def objects_served(self) -> int:
        return self.device.stats.objects_served if self.device else 0

    def pending_requests(self) -> int:
        return self.device.scheduler.pending_count() if self.device else 0


class FleetRouterStats:
    """Fleet-wide counters, registered as ``router.*`` metrics.

    The attribute names are read-only views over the registry counters, so
    report code keeps its shape while the values live in the (shared or
    private) :class:`~repro.obs.metrics.MetricsRegistry`.
    """

    __slots__ = (
        "metrics",
        "_requests_routed",
        "_failed_over",
        "_handed_off",
        "_dropped_migration_jobs",
        "_choice_primary",
        "_choice_diverted",
        "request_latency",
    )

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        registry = metrics if metrics is not None else MetricsRegistry()
        self.metrics = registry
        self._requests_routed = registry.counter("router.requests_routed")
        self._failed_over = registry.counter("router.failed_over_requests")
        #: Requests handed off from a gracefully leaving device's queue.
        self._handed_off = registry.counter("router.handed_off_requests")
        #: Migration jobs withdrawn from a fail-stopped device's queue (a
        #: dead device performs no further I/O, so its pending rebalance
        #: work is dropped uncharged).
        self._dropped_migration_jobs = registry.counter(
            "router.dropped_migration_jobs"
        )
        #: Replica-choice split: requests served by their placement primary
        #: vs diverted to another replica by the replica policy.
        self._choice_primary = registry.counter("router.replica_choice.primary")
        self._choice_diverted = registry.counter("router.replica_choice.diverted")
        #: Fleet-wide routed→completed latency (simulated seconds); its raw
        #: samples back the p50/p95/p99 figures in the routing report section.
        self.request_latency = registry.histogram("router.request_latency_seconds")

    @property
    def requests_routed(self) -> int:
        return self._requests_routed.value

    @property
    def failed_over(self) -> int:
        return self._failed_over.value

    @property
    def handed_off(self) -> int:
        return self._handed_off.value

    @property
    def dropped_migration_jobs(self) -> int:
        return self._dropped_migration_jobs.value

    @property
    def choice_primary(self) -> int:
        return self._choice_primary.value

    @property
    def choice_diverted(self) -> int:
        return self._choice_diverted.value


class FleetRouter:
    """Dispatches GET requests across a sharded, replicated, elastic fleet."""

    def __init__(
        self,
        env: Environment,
        object_store: ObjectStore,
        client_objects: Mapping[str, Sequence[str]],
        fleet_spec: FleetSpec,
        layout_policy: LayoutPolicy,
        scheduler_factory: SchedulerFactory,
        device_config: Optional[DeviceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> None:
        self.env = env
        self.object_store = object_store
        self.spec = fleet_spec
        #: Registry shared with the devices (``None`` = each its own).
        self._metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = FleetRouterStats(metrics)
        self.layout_policy = layout_policy
        self.scheduler_factory = scheduler_factory
        #: Epoch-versioned roster: who is in the fleet, with which config.
        self.membership = FleetMembership(
            fleet_spec, device_config or DeviceConfig()
        )
        #: Migration plans executed so far, one per join/leave epoch.
        self.migration_plans: List[MigrationPlan] = []

        # Preserve each client's object order; placement recomputes and
        # per-device subsets all derive from this one ordering.
        self.client_objects: Dict[str, List[str]] = {
            client: list(keys) for client, keys in client_objects.items()
        }
        self._key_order: List[str] = [
            key for keys in self.client_objects.values() for key in keys
        ]
        #: key -> position in the canonical ordering; lets plan execution
        #: sort a plan's gained keys in O(M log M) instead of rescanning
        #: every client's full key list per gaining device.
        self._key_rank: Dict[str, int] = {
            key: rank for rank, key in enumerate(self._key_order)
        }
        self._policy = ConsistentHashPlacement(fleet_spec.replication)
        self.members: List[FleetMember] = []
        self._member_by_id: Dict[str, FleetMember] = {}
        #: Raw (un-normalised) capacity weights the weighted ring is built
        #: from: static speed factors under ``weighting="profile"``, observed
        #: 1/EWMA-latency rates once the feedback rebalancer triggers.
        #: Empty = uniform ring (every device gets the default vnode count).
        self._raw_weights: Dict[str, float] = {}
        #: Weights normalised over the current roster (mean 1.0), as
        #: installed on the ring.
        self._member_weights: Dict[str, float] = {}
        if fleet_spec.weighting == "profile":
            for record in self.membership.records:
                self._raw_weights[record.device_id] = self._profile_weight(
                    record.config
                )
        self._install_weights(list(fleet_spec.device_ids))
        #: Replication factor the current placement was computed at (tracks
        #: ``SetReplication`` events and repair under device loss).
        self.placement_replication = fleet_spec.replication
        #: Key population as (hash, key) pairs sorted by hash — computed
        #: once (key hashes never change): the initial bulk placement sweeps
        #: this sorted list and every epoch change walks changed ring arcs
        #: instead of re-placing all keys.
        self._sorted_key_hashes: List[Tuple[int, str]] = sorted(
            zip(self._policy.bulk_key_hashes(self._key_order), self._key_order)
        )
        #: object key -> replica device ids, primary first (current epoch).
        self.placement: Dict[str, Tuple[str, ...]] = self._policy.place(
            self._key_order,
            list(fleet_spec.device_ids),
            sorted_key_hashes=self._sorted_key_hashes,
        )
        #: Per-device vnode counts the current placement's ring used,
        #: aligned with ``_placement_roster``; epoch diffs pass the old and
        #: new counts so weighted rings diff correctly.
        self._placement_vnode_counts: Tuple[int, ...] = self._policy.vnode_counts(
            list(fleet_spec.device_ids)
        )
        #: Roster the current placement was computed over; paired with
        #: ``placement_replication`` it identifies the old epoch's ring for
        #: incremental placement diffs.
        self._placement_roster: Tuple[str, ...] = tuple(fleet_spec.device_ids)
        #: (first canonical rank, client) per client with keys, ascending —
        #: binary-searching a key's rank recovers its owning client without a
        #: per-key map (canonical order is client-major).
        self._client_spans: List[Tuple[int, str]] = []
        rank = 0
        for client, keys in self.client_objects.items():
            if keys:
                self._client_spans.append((rank, client))
                rank += len(keys)
        self._client_span_starts: List[int] = [
            start for start, _client in self._client_spans
        ]
        #: Per-epoch replication health: under-replicated key counts sampled
        #: when each epoch opened (before its plan ran) and after.
        self.replication_log: List[Dict[str, object]] = []
        #: Feedback-rebalancer tick log: one entry per controller interval
        #: (imbalance observed, whether a reweight fired, and why not).
        self.rebalance_log: List[Dict[str, object]] = []

        subsets = self._invert_placement()
        for record in self.membership.records:
            self._create_member(record, subsets.get(record.device_id, {}))

        #: Failure/membership processes; their exceptions would otherwise be
        #: recorded on the process event with no waiter and silently lost,
        #: so the service re-raises them after (or instead of) a stuck run.
        self.admin_processes = []
        for failure in fleet_spec.failures:
            self.admin_processes.append(
                env.process(
                    self._fail_device(failure), name=f"fleet-failure:{failure.device}"
                )
            )
        for event in fleet_spec.events:
            if isinstance(event, SetReplication):
                name = f"fleet-set-replication:{event.replication}"
            else:
                kind = "join" if isinstance(event, DeviceJoin) else "leave"
                name = f"fleet-{kind}:{event.device}"
            self.admin_processes.append(
                env.process(self._membership_event(event), name=name)
            )
        if fleet_spec.rebalance is not None:
            self.admin_processes.append(
                env.process(
                    self._rebalance_controller(fleet_spec.rebalance),
                    name="fleet-rebalancer",
                )
            )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _profile_weight(self, config: DeviceConfig) -> float:
        """Static capacity weight of a device: its speed-up over the base
        config's transfer rate (a device twice as fast weighs 2.0)."""
        base = self.membership.base_config.transfer_seconds_per_object
        if base <= 0 or config.transfer_seconds_per_object <= 0:
            raise ConfigurationError(
                "profile weighting requires positive transfer_seconds_per_object "
                f"(base={base!r}, device={config.transfer_seconds_per_object!r})"
            )
        return base / config.transfer_seconds_per_object

    def _install_weights(self, roster: Sequence[str]) -> None:
        """(Re-)normalise the raw weights over ``roster`` onto the ring.

        Normalisation is always over the devices actually in the roster, so
        a join or leave re-centres everyone's weight around mean 1.0 — the
        property that keeps an all-equal fleet byte-identical to an
        unweighted one.  A no-op on uniform fleets.
        """
        if not self._raw_weights:
            return
        subset = {
            device_id: self._raw_weights[device_id]
            for device_id in roster
            if device_id in self._raw_weights
        }
        weights = normalize_weights(subset) if subset else {}
        self._policy.set_weights(weights if weights else None)
        self._member_weights = weights

    def _holds_object(self, device_id: str, object_key: str) -> bool:
        """Whether ``device_id`` already physically stores ``object_key``."""
        member = self._member_by_id.get(device_id)
        return (
            member is not None
            and member.device is not None
            and member.device.layout.has_object(object_key)
        )

    def _invert_placement(self) -> Dict[str, Dict[str, List[str]]]:
        """Every device's current-placement keys, grouped by client.

        One walk of the canonical key order appends each key to its
        replicas' per-client lists: clients land in first-seen order with
        keys in client order, in O(K·R) total.
        """
        subsets: Dict[str, Dict[str, List[str]]] = {}
        placement = self.placement
        for client, keys in self.client_objects.items():
            for key in keys:
                for device_id in placement[key]:
                    per_client = subsets.setdefault(device_id, {})
                    bucket = per_client.get(client)
                    if bucket is None:
                        per_client[client] = [key]
                    else:
                        bucket.append(key)
        return subsets

    def _client_of_key(self, object_key: str) -> str:
        """Owning client of a placed key, via its canonical rank."""
        rank = self._key_rank[object_key]
        span = bisect_right(self._client_span_starts, rank) - 1
        return self._client_spans[span][1]

    def _build_device(
        self, record: MemberRecord, subset: Mapping[str, Sequence[str]]
    ) -> ColdStorageDevice:
        """A device for ``record`` whose layout holds ``subset``'s keys."""
        throttle = self.spec.throttle
        return ColdStorageDevice(
            env=self.env,
            object_store=self.object_store,
            layout=self.layout_policy.build(subset),
            scheduler=self.scheduler_factory(),
            config=record.config,
            migration_throttle=(
                None
                if throttle is None
                else MigrationTokenBucket(throttle.objects_per_second, throttle.burst)
            ),
            name=record.device_id,
            metrics=self._metrics,
            tracer=self.tracer,
        )

    def _create_member(
        self, record: MemberRecord, subset: Mapping[str, Sequence[str]]
    ) -> FleetMember:
        member = FleetMember(
            device_id=record.device_id,
            index=record.index,
            device=self._build_device(record, subset) if subset else None,
            object_keys=tuple(key for keys in subset.values() for key in keys),
            ewma=Ewma(DEFAULT_EWMA_ALPHA),
            joined_at=record.joined_at,
        )
        self.members.append(member)
        self._member_by_id[record.device_id] = member
        return member

    # ------------------------------------------------------------------ #
    # Client-facing API (same shape as ColdStorageDevice)
    # ------------------------------------------------------------------ #
    def submit(self, request: GetRequest) -> GetRequest:
        """Route ``request`` to a live replica of its object."""
        member = self._choose_replica(request.object_key)
        member.outstanding += 1
        request.routed_at = self.env.now
        self.stats._requests_routed.value += 1
        if self.tracer.enabled:
            self.tracer.route(
                request.query_id,
                request.object_key,
                member.device_id,
                self.membership.epoch,
                self.spec.replica_policy,
                member.outstanding,
            )
        # One callback per request, however often it is re-routed;
        # ``request.owner`` points at whichever member is actually serving
        # it now (a slot on the request instead of a router-side dict that
        # would grow one entry per in-flight key).
        if request.owner is None:
            request.completion.add_callback(self._make_completion_callback(request))
        request.owner = member
        member.device.submit(request)
        return request

    def _make_completion_callback(self, request: GetRequest):
        def _on_complete(_event) -> None:
            member = request.owner
            request.owner = None
            if not isinstance(member, FleetMember):  # pragma: no cover - defensive
                raise FleetError(
                    f"request #{request.request_id} completed without a routed owner"
                )
            member.outstanding -= 1
            if member.outstanding < 0:
                raise FleetError(
                    f"device {member.device_id!r} completed more requests "
                    "than were routed to it (outstanding went negative)"
                )
            if request.routed_at is not None:
                # Routed→completed latency on the *final* owner (failover
                # re-stamps routed_at, so a re-routed request charges only
                # its last leg — the one this device actually served).
                latency = self.env.now - request.routed_at
                member.ewma.observe(latency)
                member.latency_sum += latency
                self.stats.request_latency.observe(latency)

        return _on_complete

    def _choose_replica(self, object_key: str) -> FleetMember:
        try:
            replicas = self.placement[object_key]
        except KeyError:
            raise FleetError(f"object {object_key!r} is not placed on any device") from None
        members = self._member_by_id
        policy = self.spec.replica_policy
        if policy == "primary-first":
            # Primary-first fast path: the answer is the first live replica,
            # so a healthy primary skips building the live-member list.
            primary = members[replicas[0]]
            if primary.alive:
                self.stats._choice_primary.value += 1
                return primary
        live = [
            members[device_id]
            for device_id in replicas
            if members[device_id].alive
        ]
        if not live:
            raise FleetError(
                f"every replica of {object_key!r} is dead ({', '.join(replicas)})"
            )
        # ``min`` keeps the first of equally scored members and ``live`` is
        # in replica order, so every policy degrades to primary-first on
        # ties (deterministic either way).
        if policy == "least-loaded":
            chosen = min(live, key=lambda member: member.outstanding)
        elif policy == "ewma-latency":
            # Expected wait: smoothed service time × queue depth.  An
            # unsampled device scores 0.0, so cold replicas get probed
            # before the EWMA starts steering traffic.
            chosen = min(
                live,
                key=lambda member: member.ewma.value_or(0.0) * (member.outstanding + 1),
            )
        else:
            chosen = live[0]
        if chosen.device_id == replicas[0]:
            self.stats._choice_primary.value += 1
        else:
            self.stats._choice_diverted.value += 1
        return chosen

    # ------------------------------------------------------------------ #
    # Failure handling (fail-stop: epoch advances; with ``repair`` the lost
    # replicas are re-created on surviving owners as charged migration I/O)
    # ------------------------------------------------------------------ #
    def _fail_device(self, failure: DeviceFailure):
        if failure.at_seconds > 0:
            yield self.env.timeout(failure.at_seconds)
        member = self._member_by_id[device_name(failure.device)]
        self.membership.fail(member.device_id, self.env.now)
        member.alive = False
        member.failed_at = self.env.now
        device = member.device
        # Fail-stop at a request boundary: the transfer in flight (if any)
        # completes normally, everything still queued fails over — and any
        # migration I/O still queued on the corpse is dropped outright (a
        # dead device performs no further reads or writes, ever).
        drained: List[GetRequest] = []
        if device is not None:
            drained = device.drain_pending()
            member.outstanding -= len(drained)
            self.stats._failed_over.inc(len(drained))
            self.stats._dropped_migration_jobs.inc(len(device.drain_migration_jobs()))
        if self.spec.repair and self.membership.replication >= 2:
            # Read-repair: re-place over the survivors and re-create the dead
            # device's replicas from live sources, so the fleet returns to R
            # live replicas per key instead of silently staying degraded.
            self._rebalance("repair", member.device_id, reason="repair")
        else:
            self._record_replication_health("failure")
        for request in drained:
            self.submit(request)

    # ------------------------------------------------------------------ #
    # Membership events (joins / graceful leaves → epoch + migration)
    # ------------------------------------------------------------------ #
    def _membership_event(self, event):
        if event.at_seconds > 0:
            yield self.env.timeout(event.at_seconds)
        if isinstance(event, DeviceJoin):
            self._apply_join(event)
        elif isinstance(event, DeviceLeave):
            self._apply_leave(event)
        elif isinstance(event, SetReplication):
            self._apply_set_replication(event)
        else:  # pragma: no cover - spec validation rejects other types
            raise FleetError(f"unknown membership event {event!r}")

    def _apply_join(self, event: DeviceJoin) -> None:
        record = self.membership.join(event, self.env.now)
        if self.spec.weighting == "profile":
            # The joiner's speed factor enters the raw weight set here; the
            # rebalance below re-normalises over the whole serving roster.
            self._raw_weights[record.device_id] = self._profile_weight(record.config)
        self._create_member(record, {})
        self._rebalance("join", record.device_id)

    def _apply_leave(self, event: DeviceLeave) -> None:
        device_id = device_name(event.device)
        member = self._member_by_id.get(device_id)
        if member is None or not member.alive:
            raise FleetError(f"device {device_id!r} cannot leave: not a live member")
        self.membership.leave(device_id, self.env.now)
        member.alive = False
        member.left_at = self.env.now
        # Hand the leaver's queue off *after* the placement recompute so the
        # drained requests land on their new owners; the in-flight transfer
        # (if any) completes on the leaver, exactly like fail-stop drains.
        drained: List[GetRequest] = []
        if member.device is not None:
            drained = member.device.drain_pending()
            member.outstanding -= len(drained)
            self.stats._handed_off.inc(len(drained))
        self._rebalance("leave", device_id)
        for request in drained:
            self.submit(request)

    def _apply_set_replication(self, event: SetReplication) -> None:
        """Raise or lower R: re-replicate (R up) or trim (R down) the
        affected keys, as one epoch with its own migration plan."""
        self.membership.set_replication(event.replication, self.env.now)
        self._rebalance("set-replication", "fleet", reason="replicate")

    # ------------------------------------------------------------------ #
    # Feedback rebalancer (periodic controller → reweight epochs)
    # ------------------------------------------------------------------ #
    def _rebalance_controller(self, policy: RebalancePolicy):
        """Periodic imbalance check; runs for the life of the simulation.

        The process never terminates on its own — ``run(until=...)`` simply
        stops dispatching its timeouts once the target event fires, so ticks
        scheduled past the end of the workload never happen.
        """
        window_start = 0.0
        while True:
            yield self.env.timeout(policy.interval_seconds)
            self._rebalance_tick(policy, window_start, self.env.now)
            window_start = self.env.now

    def _rebalance_tick(
        self, policy: RebalancePolicy, window_start: float, now: float
    ) -> None:
        """One controller decision over the busy window just ended.

        Imbalance is measured as the coefficient of variation of per-device
        busy seconds inside the window.  Past the threshold, target weights
        are set proportional to observed service rate (1 / latency EWMA) —
        a device answering twice as fast earns twice the arc share — and a
        ``reweight`` epoch migrates the placement to the new ring through
        the ordinary throttled-migration machinery.  Every tick appends a
        log entry stating what it saw and why it did (or did not) act.
        """
        from repro.cluster.metrics import imbalance_coefficient

        serving = [
            self._member_by_id[device_id]
            for device_id in self.membership.serving_ids()
        ]
        busy = [self._window_busy(member, window_start, now) for member in serving]
        imbalance = imbalance_coefficient(busy)
        entry: Dict[str, object] = {
            "at_seconds": now,
            "window_start": window_start,
            "epoch": self.membership.epoch,
            "imbalance_coefficient": imbalance,
            "triggered": False,
            "outcome": "below-threshold",
        }
        if imbalance > policy.imbalance_threshold:
            if any(member.ewma.count == 0 or member.ewma.value <= 0 for member in serving):
                # A device nobody has completed a request on yet has no
                # observed rate; acting on a half-sampled fleet would swing
                # weights on noise, so the controller waits a window.
                entry["outcome"] = "insufficient-samples"
            else:
                raw = {member.device_id: 1.0 / member.ewma.value for member in serving}
                target = normalize_weights(raw)
                current = {
                    member.device_id: self._member_weights.get(member.device_id, 1.0)
                    for member in serving
                }
                delta = max(
                    abs(target[device_id] - current[device_id])
                    for device_id in target
                )
                entry["max_weight_delta"] = delta
                if delta < policy.min_weight_delta:
                    entry["outcome"] = "weights-stable"
                else:
                    self._raw_weights = raw
                    self.membership.reweight(now)
                    self._rebalance("reweight", "fleet", reason="reweight")
                    entry["triggered"] = True
                    entry["outcome"] = "reweighted"
                    entry["weights"] = {
                        device_id: target[device_id] for device_id in sorted(target)
                    }
        self.rebalance_log.append(entry)

    def _under_replicated_count(self, placement: Mapping[str, Sequence[str]]) -> int:
        """Keys with fewer live replicas than the current target."""
        target = self.effective_replication
        return sum(
            1
            for replicas in placement.values()
            if sum(1 for device_id in replicas if self._member_by_id[device_id].alive)
            < target
        )

    def _record_replication_health(
        self, kind: str, at_open: Optional[int] = None
    ) -> None:
        """Append one per-epoch replication-health sample.

        ``under_replicated_at_open`` is the count the instant the epoch
        opened — for a failure, the degradation the loss itself caused;
        ``under_replicated_after_plan`` is what remained once the epoch's
        plan ran (unchanged when no plan ran, e.g. repair disabled).
        """
        after = self._under_replicated_count(self.placement)
        self.replication_log.append(
            {
                "epoch": self.membership.epoch,
                "at_seconds": self.env.now,
                "kind": kind,
                "replication": self.membership.replication,
                "under_replicated_at_open": after if at_open is None else at_open,
                "under_replicated_after_plan": after,
            }
        )

    def _rebalance(self, kind: str, device_id: str, reason: str = "rebalance") -> None:
        """Advance placement to the new epoch and execute the minimal plan."""
        epoch_record = self.membership.epoch_log[-1]
        old_placement = self.placement
        under_replicated_before = self._under_replicated_count(old_placement)
        # The effective factor adapts to the roster: a repair pass after a
        # loss can only restore min(R, serving) replicas per key.
        replication = self.effective_replication
        old_replication = self.placement_replication
        self._policy.replication = replication
        serving = list(self.membership.serving_ids())
        # The old ring's vnode counts are snapshotted; re-normalising the
        # weights over the new roster (and any reweight that led here)
        # yields the new counts, and the diff walks both rings.
        old_vnode_counts = self._placement_vnode_counts
        self._install_weights(serving)
        new_vnode_counts = self._policy.vnode_counts(serving)
        # Only the keys in ring arcs whose replica tuple changed need
        # re-placing; everything else keeps its entry from the old epoch.
        changed = self._policy.diff_keys(
            self._sorted_key_hashes,
            self._placement_roster,
            serving,
            old_replication,
            replication,
            old_vnode_counts=old_vnode_counts,
            new_vnode_counts=new_vnode_counts,
        )
        new_placement = dict(old_placement)
        new_placement.update(changed)
        # The plan must see changed keys in canonical key order (what a full
        # placement scan iterates), not hash order.
        changed_keys = sorted(changed, key=self._key_rank.__getitem__)
        alive = {member.device_id: member.alive for member in self.members}
        plan = plan_migration(
            epoch=epoch_record.epoch,
            at_seconds=self.env.now,
            kind=kind,
            device_id=device_id,
            old_placement=old_placement,
            new_placement=new_placement,
            alive=alive,
            devices_before=epoch_record.devices_before,
            devices_after=epoch_record.devices_after,
            replication=replication,
            # Layouts are append-only, so a device that held a key in an
            # earlier epoch still physically has it: re-adopting such a
            # replica costs no migration I/O.
            resident=self._holds_object,
            changed_keys=changed_keys,
        )
        self.placement = new_placement
        self.placement_replication = replication
        self._placement_roster = tuple(serving)
        self._placement_vnode_counts = new_vnode_counts
        self._execute_plan(plan, reason=reason)
        self.migration_plans.append(plan)
        self._record_replication_health(kind, at_open=under_replicated_before)

    def _execute_plan(self, plan: MigrationPlan, reason: str = "rebalance") -> None:
        """Extend destination layouts and charge the migration I/O."""
        gained: Dict[str, List[str]] = {}
        for move in plan.moves:
            gained.setdefault(move.dest, []).append(move.object_key)
        # Destinations in roster order: deterministic layout/group assignment.
        for member in self.members:
            keys = gained.get(member.device_id)
            if not keys:
                continue
            # Keys in client order, mirroring how initial layouts are built
            # (the precomputed rank map keeps this O(M log M) per device
            # instead of a scan over every client's full key list).
            ordered = sorted(keys, key=self._key_rank.__getitem__)
            if member.device is None:
                # A device with no ColdStorageDevice held nothing before, so
                # its gained keys are exactly its subset of the (already
                # updated) current placement: group them by owning client
                # (``ordered`` is canonical — client-major — so clients land
                # in first-seen order with keys in client order, matching
                # what a full placement scan would build).
                subset: Dict[str, List[str]] = {}
                for key in ordered:
                    client = self._client_of_key(key)
                    bucket = subset.get(client)
                    if bucket is None:
                        subset[client] = [key]
                    else:
                        bucket.append(key)
                member.device = self._build_device(
                    self.membership.record(member.device_id), subset
                )
            else:
                extend_layout_with_keys(member.device.layout, ordered)
            member.object_keys = member.object_keys + tuple(ordered)

        def _account(job: MigrationJob, start: float, end: float, _interfered: bool,
                     plan: MigrationPlan = plan) -> None:
            plan.migration_seconds += end - start

        for move in plan.moves:
            source = self._member_by_id.get(move.source)
            dest = self._member_by_id[move.dest]
            if source is not None and source.device is not None:
                source.device.submit_migration(
                    MigrationJob(
                        object_key=move.object_key,
                        direction="read",
                        seconds=source.device.config.transfer_seconds_per_object,
                        epoch=plan.epoch,
                        reason=reason,
                        notify=_account,
                    )
                )
            dest.device.submit_migration(
                MigrationJob(
                    object_key=move.object_key,
                    direction="write",
                    seconds=dest.device.config.transfer_seconds_per_object,
                    epoch=plan.epoch,
                    reason=reason,
                    notify=_account,
                )
            )

    def raise_admin_failure(self) -> None:
        """Re-raise the first exception a failure/membership process died of."""
        for process in self.admin_processes:
            if process.exception is not None:
                raise process.exception

    # ------------------------------------------------------------------ #
    # Aggregated views for the metrics / invariants layers
    # ------------------------------------------------------------------ #
    @property
    def epoch(self) -> int:
        """Current membership epoch (0 until the first membership change)."""
        return self.membership.epoch

    @property
    def effective_replication(self) -> int:
        """Replicas per key the current roster can actually sustain."""
        return min(self.membership.replication, len(self.membership.serving_ids()))

    @property
    def busy_intervals(self) -> List[BusyInterval]:
        """All devices' busy intervals merged in completion order."""
        merged: List[BusyInterval] = []
        for member in self.members:
            if member.device is not None:
                merged.extend(member.device.busy_intervals)
        merged.sort(key=lambda interval: (interval.end, interval.start))
        return merged

    @property
    def device_stats(self) -> DeviceStats:
        """Fleet-wide counters in the single-device stats shape."""
        combined = DeviceStats(name="fleet")
        for member in self.members:
            if member.device is not None:
                combined.absorb(member.device.stats)
        return combined

    def scheduler_switches(self) -> int:
        """Total scheduler-reported group switches across the fleet."""
        return sum(
            member.device.scheduler.num_switches
            for member in self.members
            if member.device is not None
        )

    def max_waiting_seen(self) -> int:
        """Worst per-query waiting counter reached on any device."""
        waits = [
            member.device.scheduler.max_waiting_seen
            for member in self.members
            if member.device is not None
        ]
        return max(waits) if waits else 0

    def pending_total(self) -> int:
        """Requests still queued anywhere in the fleet (0 after a clean run)."""
        return sum(member.pending_requests() for member in self.members)

    def _window_busy(self, member: FleetMember, start: float, end: float) -> float:
        """Busy seconds of ``member`` inside the window ``[start, end]``."""
        if member.device is None:
            return 0.0
        return member.device.busy_intervals.window_overlap(start, end)

    def per_epoch_imbalance(self, total_simulated_time: float) -> List[Dict[str, object]]:
        """Imbalance coefficient of each epoch's membership window.

        Every membership change opens a new epoch, so the member set is
        constant inside each window; a member belongs to a window when it had
        joined by the window's start and neither left nor failed before its
        end.
        """
        from repro.cluster.metrics import imbalance_coefficient

        series: List[Dict[str, object]] = []
        for epoch, start, end in self.membership.epoch_windows(total_simulated_time):
            present = [
                member
                for member in self.members
                if member.joined_at <= start
                and (member.left_at is None or member.left_at >= end)
                and (member.failed_at is None or member.failed_at >= end)
            ]
            busy = [self._window_busy(member, start, end) for member in present]
            series.append(
                {
                    "epoch": epoch,
                    "start": start,
                    "end": end,
                    "devices": len(present),
                    "imbalance_coefficient": imbalance_coefficient(busy),
                }
            )
        return series

    def rebalance_metrics(self, total_simulated_time: float) -> Dict[str, object]:
        """The ``rebalance`` section of the scenario report."""
        stats = self.device_stats
        return {
            "epoch": self.membership.epoch,
            "events": [record.to_dict() for record in self.membership.epoch_log],
            "plans": [plan.to_dict() for plan in self.migration_plans],
            "keys_moved_total": sum(plan.keys_moved for plan in self.migration_plans),
            "objects_migrated_total": sum(
                plan.objects_migrated for plan in self.migration_plans
            ),
            "bytes_migrated_total": sum(
                plan.bytes_migrated for plan in self.migration_plans
            ),
            "naive_reshuffle_keys": sum(
                plan.total_keys for plan in self.migration_plans
            ),
            "migration_seconds_total": stats.migration_seconds,
            "interference_seconds_total": stats.migration_interference_seconds,
            "handed_off_requests": self.stats.handed_off,
            "per_epoch_imbalance": self.per_epoch_imbalance(total_simulated_time),
        }

    def replication_metrics(self) -> Dict[str, object]:
        """The ``replication`` health section of the scenario report."""
        repair_plans = [plan for plan in self.migration_plans if plan.kind == "repair"]
        replicate_plans = [
            plan for plan in self.migration_plans if plan.kind == "set-replication"
        ]
        throttle = self.spec.throttle
        throttle_metrics: Optional[Dict[str, object]] = None
        if throttle is not None:
            observed: Dict[str, float] = {}
            for member in self.members:
                if member.device is None:
                    continue
                migration_intervals = [
                    interval
                    for interval in member.device.busy_intervals
                    if interval.kind == "migration"
                ]
                if len(migration_intervals) <= throttle.burst:
                    continue
                # Sustained rate between token consumptions (job starts).
                # The first `burst` jobs ride pre-accrued tokens and are
                # spaced only by transfer time, so they are excluded from
                # the numerator: the figure is never above the configured
                # cap, which auditors compare it against.
                window = migration_intervals[-1].start - migration_intervals[0].start
                observed[member.device_id] = (
                    (len(migration_intervals) - throttle.burst) / window
                    if window > 0
                    else 0.0
                )
            throttle_metrics = {
                "objects_per_second": throttle.objects_per_second,
                "burst": throttle.burst,
                "deferrals": self.device_stats.migration_deferrals,
                "observed_objects_per_second": observed,
            }
        return {
            "initial_replication": self.spec.replication,
            "replication": self.membership.replication,
            "effective_replication": self.effective_replication,
            "repair_enabled": self.spec.repair,
            "changes": [
                record.to_dict()
                for record in self.membership.epoch_log
                if record.kind == "set-replication"
            ],
            "per_epoch": list(self.replication_log),
            "under_replicated_keys": self._under_replicated_count(self.placement),
            "repair_objects": sum(plan.objects_migrated for plan in repair_plans),
            "repair_seconds": sum(plan.migration_seconds for plan in repair_plans),
            "replicate_objects": sum(
                plan.objects_migrated for plan in replicate_plans
            ),
            "replicate_seconds": sum(
                plan.migration_seconds for plan in replicate_plans
            ),
            "replicas_trimmed_total": sum(
                plan.replicas_trimmed for plan in self.migration_plans
            ),
            "dropped_migration_jobs": self.stats.dropped_migration_jobs,
            # Migration I/O still queued when the run ended.  The copies
            # already landed at plan time, so nothing is lost — but their
            # charge is missing from migration/interference seconds, and a
            # throttle paced slower than the workload makes this non-zero.
            "unfinished_migration_jobs": sum(
                member.device.pending_migration_jobs()
                for member in self.members
                if member.device is not None
            ),
            "throttle": throttle_metrics,
        }

    def routing_metrics(self) -> Dict[str, object]:
        """The ``routing`` section of the scenario report: replica-choice
        split, per-device weights/EWMAs, the fleet-wide latency distribution
        and (when configured) the feedback rebalancer's tick log."""
        from repro.cluster.metrics import mean, percentile

        vnode_counts: Dict[str, int] = dict(
            zip(self._placement_roster, self._placement_vnode_counts)
        )
        per_device: Dict[str, Dict[str, object]] = {}
        for member in self.members:
            completed = member.ewma.count
            per_device[member.device_id] = {
                "weight": self._member_weights.get(member.device_id, 1.0),
                # ``None`` for devices outside the current roster (left /
                # failed members keep no arc share).
                "vnode_count": vnode_counts.get(member.device_id),
                "completed_requests": completed,
                "ewma_latency_seconds": member.ewma.value if completed else None,
                "mean_latency_seconds": (
                    member.latency_sum / completed if completed else None
                ),
            }
        samples = self.stats.request_latency.samples
        request_latency: Dict[str, object] = {
            "count": len(samples),
            "mean": mean(samples),
            "p50": percentile(samples, 0.50) if samples else 0.0,
            "p95": percentile(samples, 0.95) if samples else 0.0,
            "p99": percentile(samples, 0.99) if samples else 0.0,
            "max": max(samples) if samples else 0.0,
        }
        policy = self.spec.rebalance
        rebalancer: Optional[Dict[str, object]] = None
        if policy is not None:
            rebalancer = {
                "interval_seconds": policy.interval_seconds,
                "imbalance_threshold": policy.imbalance_threshold,
                "min_weight_delta": policy.min_weight_delta,
                "ticks": len(self.rebalance_log),
                "reweight_epochs": sum(
                    1 for entry in self.rebalance_log if entry["triggered"]
                ),
                "log": list(self.rebalance_log),
            }
        return {
            "replica_policy": self.spec.replica_policy,
            "weighting": self.spec.weighting,
            "ewma_alpha": DEFAULT_EWMA_ALPHA,
            "replica_choices": {
                "primary": self.stats.choice_primary,
                "diverted": self.stats.choice_diverted,
            },
            "per_device": per_device,
            "request_latency": request_latency,
            "rebalancer": rebalancer,
        }

    def metrics(self, total_simulated_time: float) -> Dict[str, object]:
        """Fleet-level metrics section of the scenario report."""
        # Imported here, not at module level: repro.cluster composes the
        # fleet router, so a top-level import would be circular.
        from repro.cluster.metrics import imbalance_coefficient, jain_fairness

        per_device: Dict[str, Dict[str, object]] = {}
        busy_values: List[float] = []
        # tenant -> device id -> objects that device served the tenant.
        served: Dict[str, Dict[str, int]] = {}
        for member in self.members:
            busy = member.busy_seconds()
            busy_values.append(busy)
            stats = member.device.stats if member.device else None
            per_device[member.device_id] = {
                "alive": member.alive,
                "failed_at": member.failed_at,
                "objects_placed": len(member.object_keys),
                "objects_served": member.objects_served(),
                "group_switches": stats.group_switches if stats else 0,
                # Received, not served: a failed-over request counts on every
                # device it was routed to.
                "requests_routed": stats.requests_received if stats else 0,
                "busy_seconds": busy,
                "utilization": (
                    busy / total_simulated_time if total_simulated_time > 0 else 0.0
                ),
            }
            if stats:
                for tenant, count in stats.objects_per_client.items():
                    served.setdefault(tenant, {})[member.device_id] = count

        served_by_tenant = {
            tenant: sum(per_device_counts.values())
            for tenant, per_device_counts in sorted(served.items())
        }
        # Per-tenant spread: how evenly each tenant's objects were served
        # across the devices holding at least one replica of its data.
        tenant_spread = {
            tenant: jain_fairness(
                [
                    per_device_counts.get(member.device_id, 0)
                    for member in self.members
                    if any(key.startswith(f"{tenant}/") for key in member.object_keys)
                ]
            )
            for tenant, per_device_counts in sorted(served.items())
        }

        total_served = sum(member.objects_served() for member in self.members)
        return {
            "devices": len(self.members),
            "replication": self.membership.replication,
            "placement": "consistent-hash",
            "replica_policy": self.spec.replica_policy,
            "per_device": per_device,
            "imbalance_coefficient": imbalance_coefficient(busy_values),
            "aggregate_throughput": (
                total_served / total_simulated_time if total_simulated_time > 0 else 0.0
            ),
            "tenant_fairness": (
                jain_fairness(list(served_by_tenant.values()))
                if served_by_tenant
                else 1.0
            ),
            "per_tenant_spread": tenant_spread,
            "requests_routed": self.stats.requests_routed,
            "failed_over_requests": self.stats.failed_over,
            "lost_objects": self.pending_total(),
        }
