"""Subplan enumeration and tracking.

For a query joining relations R1 … Rn, each combination of one segment per
relation is a *subplan* (Table 2 in the paper).  Executing every subplan and
unioning the results is equivalent to executing the whole join, which is what
allows Skipper to make progress in whatever order the CSD returns objects.

:class:`SubplanTracker` keeps the pending / executed / pruned state of every
subplan, indexes subplans by the objects they touch, and answers the two
questions the cache-eviction policies need:

* how many *pending* subplans does an object participate in, and
* which pending subplans become *executable* given the cache contents plus a
  newly arrived object.
"""

from __future__ import annotations

import itertools
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.engine.catalog import Catalog
from repro.engine.query import Query
from repro.exceptions import QueryError


class Subplan:
    """One segment per joined relation, identified by its segment ids."""

    __slots__ = ("subplan_id", "segments", "_segment_set")

    def __init__(self, subplan_id: int, segments: Tuple[str, ...]) -> None:
        self.subplan_id = subplan_id
        #: Segment ids ordered by the query's table order.
        self.segments = segments
        self._segment_set: Optional[FrozenSet[str]] = None

    @property
    def segment_set(self) -> FrozenSet[str]:
        """The segments as a frozenset, built on first use.

        Most subplans of large single-table queries never need set
        semantics, so the frozenset (one allocation per subplan, across
        potentially millions of subplans) is deferred until something
        actually asks for it.
        """
        segment_set = self._segment_set
        if segment_set is None:
            segment_set = self._segment_set = frozenset(self.segments)
        return segment_set

    def involves(self, segment_id: str) -> bool:
        """Whether the subplan touches ``segment_id``."""
        return segment_id in self.segment_set

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Subplan #{self.subplan_id} {self.segments}>"


class SubplanTracker:
    """Tracks the execution state of every subplan of one query."""

    def __init__(self, query: Query, catalog: Catalog, table_order: Optional[Sequence[str]] = None) -> None:
        self.query = query
        self.catalog = catalog
        self.table_order: Tuple[str, ...] = tuple(table_order or query.tables)
        if set(self.table_order) != set(query.tables):
            raise QueryError("table_order must be a permutation of the query's tables")

        per_table_segments: List[List[str]] = [
            catalog.segment_ids(table) for table in self.table_order
        ]
        # ``product`` already yields fresh tuples, so they are stored as-is.
        # :class:`Subplan` wrappers are materialised lazily (see
        # :meth:`subplan`): large single-table queries prune the vast
        # majority of their subplans without ever needing the objects.
        self._combos: List[Tuple[str, ...]] = list(
            itertools.product(*per_table_segments)
        )
        total = len(self._combos)
        self._subplans: List[Optional[Subplan]] = [None] * total

        self._pending: Set[int] = set(range(total))
        self._executed: Set[int] = set()
        self._pruned: Set[int] = set()
        #: object (segment id) -> ids of *pending* subplans containing it.
        #
        # Built directly from the regular structure of ``itertools.product``
        # instead of iterating every (subplan, segment) pair: the ids whose
        # combination holds segment ``j`` of the table at position ``p`` form
        # ``stride_p``-long runs repeating every ``stride_p * width_p`` ids,
        # so each set is filled with ``set.update(range(...))`` at C speed.
        self._by_object: Dict[str, Set[int]] = {}
        if total:
            stride = total
            for segments in per_table_segments:
                width = len(segments)
                stride //= width
                period = stride * width
                for j, segment_id in enumerate(segments):
                    ids = self._by_object.get(segment_id)
                    if ids is None:
                        ids = self._by_object[segment_id] = set()
                    for start in range(j * stride, total, period):
                        ids.update(range(start, start + stride))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def total_subplans(self) -> int:
        """Total number of subplans generated for the query."""
        return len(self._combos)

    @property
    def num_pending(self) -> int:
        """Number of subplans still waiting to be executed."""
        return len(self._pending)

    @property
    def num_executed(self) -> int:
        """Number of subplans whose join has been executed."""
        return len(self._executed)

    @property
    def num_pruned(self) -> int:
        """Number of subplans discarded by empty-object pruning."""
        return len(self._pruned)

    def has_pending(self) -> bool:
        """Whether any subplan is still pending."""
        return bool(self._pending)

    def subplan(self, subplan_id: int) -> Subplan:
        """Return the subplan with the given id (materialised on first use)."""
        subplan = self._subplans[subplan_id]
        if subplan is None:
            subplan = self._subplans[subplan_id] = Subplan(
                subplan_id, self._combos[subplan_id]
            )
        return subplan

    def pending_subplans(self) -> List[Subplan]:
        """All pending subplans (ascending id order)."""
        return [self.subplan(subplan_id) for subplan_id in sorted(self._pending)]

    def is_pending(self, subplan: Subplan) -> bool:
        """Whether ``subplan`` is still pending."""
        return subplan.subplan_id in self._pending

    # ------------------------------------------------------------------ #
    # Object-centric queries used by the cache policies
    # ------------------------------------------------------------------ #
    def objects(self) -> List[str]:
        """All objects that appear in at least one subplan (pending or not)."""
        return sorted(self._by_object)

    def pending_count_for(self, segment_id: str) -> int:
        """Number of pending subplans that involve ``segment_id``."""
        return len(self._by_object.get(segment_id, ()))

    def pending_counts(self, segment_ids: Iterable[str]) -> Dict[str, int]:
        """Pending-subplan count for each of ``segment_ids`` in one call.

        The eviction policies rank every cached object on each eviction;
        answering in bulk keeps that a single dict comprehension instead of
        a method call per cached object.
        """
        by_object = self._by_object
        return {
            segment_id: len(by_object.get(segment_id, ()))
            for segment_id in segment_ids
        }

    def object_in_pending(self, segment_id: str) -> bool:
        """Whether ``segment_id`` is needed by at least one pending subplan."""
        return bool(self._by_object.get(segment_id))

    def objects_needed(self) -> Set[str]:
        """Objects required by at least one pending subplan."""
        return {segment_id for segment_id, ids in self._by_object.items() if ids}

    def newly_runnable(self, cached: AbstractSet[str], new_object: str) -> List[Subplan]:
        """Pending subplans covered by ``cached ∪ {new_object}``.

        Because runnable subplans are executed as soon as they become
        runnable, any still-pending subplan covered by the cache must involve
        the newly arrived object, so only those are inspected.
        """
        return [self.subplan(subplan_id) for subplan_id in self._runnable_ids(cached, new_object)]

    def runnable_items(
        self, cached: AbstractSet[str], new_object: str
    ) -> List[Tuple[int, Tuple[str, ...]]]:
        """Like :meth:`newly_runnable` but as ``(id, segments)`` pairs.

        The MJoin arrival loop only needs each runnable subplan's id (to
        mark it executed) and its segment tuple (to fetch cache entries), so
        this variant skips the :class:`Subplan` wrapper allocation entirely.
        """
        combos = self._combos
        return [
            (subplan_id, combos[subplan_id])
            for subplan_id in self._runnable_ids(cached, new_object)
        ]

    def _runnable_ids(self, cached: AbstractSet[str], new_object: str) -> List[int]:
        """Ids of pending subplans covered by ``cached ∪ {new_object}``.

        Coverage is a single C-level ``set.issuperset`` test per candidate
        against one augmented copy of the cache contents — no per-segment
        Python loop, and no :class:`Subplan` is materialised for the
        (common) subplans that are not yet runnable.
        """
        candidates = self._by_object.get(new_object)
        if not candidates:
            return []
        available = set(cached)
        available.add(new_object)
        issuperset = available.issuperset
        combos = self._combos
        result = [
            subplan_id
            for subplan_id in candidates  # repro: noqa[RPR001] reason=candidate order never observed; the id list is sorted before being returned
            if issuperset(combos[subplan_id])
        ]
        result.sort()
        return result

    def executable_counts(self, cached: AbstractSet[str], new_object: str) -> Dict[str, int]:
        """For every cached object, the number of pending subplans that would
        be executable (given ``cached ∪ {new_object}``) in which it takes part.

        This is exactly the quantity the paper's *maximal progress* eviction
        policy minimises when choosing a victim.
        """
        runnable = self._runnable_ids(cached, new_object)
        counts = {segment_id: 0 for segment_id in cached}  # repro: noqa[RPR001] reason=dict is only read associatively via .get; its order is never observed
        combos = self._combos
        for subplan_id in runnable:
            for segment_id in combos[subplan_id]:
                if segment_id in counts:
                    counts[segment_id] += 1
        return counts

    # ------------------------------------------------------------------ #
    # State transitions
    # ------------------------------------------------------------------ #
    def mark_executed(self, subplan: Subplan) -> None:
        """Move a pending subplan to the executed state."""
        if subplan.subplan_id not in self._pending:
            raise QueryError(f"subplan #{subplan.subplan_id} is not pending")
        self._pending.discard(subplan.subplan_id)
        self._executed.add(subplan.subplan_id)
        self._unindex(subplan.subplan_id)

    def mark_executed_ids(self, subplan_ids: Iterable[int]) -> None:
        """Move a batch of pending subplans to the executed state.

        Equivalent to calling :meth:`mark_executed` per subplan; the MJoin
        arrival loop uses it to retire a whole runnable batch without a
        :class:`Subplan` wrapper or a method call per subplan.
        """
        pending_discard = self._pending.discard
        executed_add = self._executed.add
        unindex = self._unindex
        for subplan_id in subplan_ids:
            if subplan_id not in self._pending:
                raise QueryError(f"subplan #{subplan_id} is not pending")
            pending_discard(subplan_id)
            executed_add(subplan_id)
            unindex(subplan_id)

    def prune_object(self, segment_id: str) -> List[Subplan]:
        """Discard every pending subplan involving ``segment_id``.

        Used when an object is known to contribute no result tuples (e.g. its
        filtered row set is empty): none of its subplans can produce output,
        so they are dropped without being executed.  Returns the pruned
        subplans.
        """
        return [self.subplan(subplan_id) for subplan_id in self.prune_object_ids(segment_id)]

    def prune_object_ids(self, segment_id: str) -> List[int]:
        """Like :meth:`prune_object` but returns subplan *ids*.

        The hot callers (the MJoin state manager prunes the overwhelming
        majority of a large single-table query's subplans this way) only
        need the count, so no :class:`Subplan` objects are materialised.
        """
        pruned_ids = sorted(self._by_object.get(segment_id, ()))
        pending_discard = self._pending.discard
        pruned_add = self._pruned.add
        for subplan_id in pruned_ids:
            pending_discard(subplan_id)
            pruned_add(subplan_id)
            self._unindex(subplan_id)
        return pruned_ids

    def _unindex(self, subplan_id: int) -> None:
        # Every segment of every combination is an index key (the index is
        # built from the same per-table lists the combinations are), so no
        # existence check is needed.
        by_object = self._by_object
        for segment_id in self._combos[subplan_id]:
            by_object[segment_id].discard(subplan_id)


class SingleTableSubplanTracker(SubplanTracker):
    """Tracker specialised for single-table queries.

    With one joined relation every subplan is a single segment, so the
    generic per-object index — one set of subplan ids per segment — would be
    a million singleton sets for the largest catalogs, dominating tracker
    construction.  This specialisation stores the only thing that index can
    express: a segment → subplan-id mapping whose keys are removed as
    subplans leave the pending state.  All public queries answer from that
    mapping with the exact same results as the generic tracker.
    """

    def __init__(self, query: Query, catalog: Catalog, table_order: Optional[Sequence[str]] = None) -> None:
        self.query = query
        self.catalog = catalog
        self.table_order = tuple(table_order or query.tables)
        if set(self.table_order) != set(query.tables):
            raise QueryError("table_order must be a permutation of the query's tables")
        if len(self.table_order) != 1:
            raise QueryError("SingleTableSubplanTracker requires a single-table query")

        self._segments: List[str] = list(catalog.segment_ids(self.table_order[0]))
        total = len(self._segments)
        self._subplans: List[Optional[Subplan]] = [None] * total
        self._pending: Set[int] = set(range(total))
        self._executed: Set[int] = set()
        self._pruned: Set[int] = set()
        #: segment id -> its subplan id, for *pending* subplans only.
        self._pending_id_by_object: Dict[str, int] = {
            segment_id: subplan_id
            for subplan_id, segment_id in enumerate(self._segments)
        }

    @property
    def total_subplans(self) -> int:
        return len(self._segments)

    def subplan(self, subplan_id: int) -> Subplan:
        subplan = self._subplans[subplan_id]
        if subplan is None:
            subplan = self._subplans[subplan_id] = Subplan(
                subplan_id, (self._segments[subplan_id],)
            )
        return subplan

    def objects(self) -> List[str]:
        return sorted(self._segments)

    def pending_count_for(self, segment_id: str) -> int:
        return 1 if segment_id in self._pending_id_by_object else 0

    def pending_counts(self, segment_ids: Iterable[str]) -> Dict[str, int]:
        pending = self._pending_id_by_object
        return {
            segment_id: (1 if segment_id in pending else 0)
            for segment_id in segment_ids
        }

    def object_in_pending(self, segment_id: str) -> bool:
        return segment_id in self._pending_id_by_object

    def objects_needed(self) -> Set[str]:
        return set(self._pending_id_by_object)

    def runnable_items(
        self, cached: AbstractSet[str], new_object: str
    ) -> List[Tuple[int, Tuple[str, ...]]]:
        subplan_id = self._pending_id_by_object.get(new_object)
        return [] if subplan_id is None else [(subplan_id, (new_object,))]

    def _runnable_ids(self, cached: AbstractSet[str], new_object: str) -> List[int]:
        # A single-segment subplan is covered by its own arrival.
        subplan_id = self._pending_id_by_object.get(new_object)
        return [] if subplan_id is None else [subplan_id]

    def executable_counts(self, cached: AbstractSet[str], new_object: str) -> Dict[str, int]:
        counts = {segment_id: 0 for segment_id in cached}  # repro: noqa[RPR001] reason=dict is only read associatively via .get; its order is never observed
        if new_object in counts and new_object in self._pending_id_by_object:
            counts[new_object] = 1
        return counts

    def prune_object_ids(self, segment_id: str) -> List[int]:
        subplan_id = self._pending_id_by_object.pop(segment_id, None)
        if subplan_id is None:
            return []
        self._pending.discard(subplan_id)
        self._pruned.add(subplan_id)
        return [subplan_id]

    def _unindex(self, subplan_id: int) -> None:
        self._pending_id_by_object.pop(self._segments[subplan_id], None)


def make_tracker(
    query: Query, catalog: Catalog, table_order: Optional[Sequence[str]] = None
) -> SubplanTracker:
    """Build the cheapest tracker able to serve ``query``.

    Single-table queries get :class:`SingleTableSubplanTracker`; everything
    else the generic :class:`SubplanTracker`.  Both expose identical
    behaviour, so callers never need to know which one they hold.
    """
    order = tuple(table_order or query.tables)
    if len(order) == 1:
        return SingleTableSubplanTracker(query, catalog, order)
    return SubplanTracker(query, catalog, order)


def enumerate_subplans(
    segments_per_table: Dict[str, Iterable[str]]
) -> List[Tuple[str, ...]]:
    """Enumerate subplans for an explicit table → segments mapping.

    A convenience used by documentation examples and the Table 2 benchmark;
    the heavy lifting for real queries goes through :class:`SubplanTracker`.
    """
    tables = list(segments_per_table)
    lists = [list(segments_per_table[table]) for table in tables]
    return [tuple(combination) for combination in itertools.product(*lists)]
