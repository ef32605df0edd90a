"""The Update Manager's update queue: N lanes over one serial counter.

Paper section 4.4: "the LDAP filter ... creates a lexpress update
descriptor for the update that is then added to a global queue in the UM.
The main thread of the UM, the coordinator, iterates through the global
update queue" and "The queue maintained by the UM enforces a serialization
order."

:class:`ShardedUpdateQueue` is that queue.  Every claim draws a serial
number from one global counter — the serial *is* the system-wide
serialization order that makes the reapplication technique converge —
and lands on one of N FIFO lanes.  With one lane (the default) every
item goes to lane ``0`` and the queue is the paper's single FIFO: each
item runs once every smaller serial has finished.  With more lanes the
routing oracle (:mod:`repro.analysis.routing`) spreads items it proved
commuting over the lanes so they drain concurrently; items it cannot
prove disjoint land on the serial lane, which drains under a barrier: a
serial item runs only once every lane has quiesced past its serial, and
lane items enqueued after it wait for it to finish.  See
docs/CONCURRENCY.md for the protocol and its correctness argument.

Items are stamped with their enqueue time so the claim path can feed the
enqueue→run latency histogram, and the consistency auditor publishes how
long the oldest waiting item has waited
(``metacomm_queue_oldest_age_seconds``).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from zlib import crc32

from ..lexpress.descriptor import UpdateDescriptor
from ..obs.events import (
    LANE_BARRIER,
    UPDATE_ACCEPTED,
    UPDATE_CLAIMED,
    UPDATE_DEFERRED,
    UPDATE_REJECTED,
)
from ..obs.metrics import MetricsRegistry
from ..obs.views import StatsView

#: Label of the fallback lane everything unprovable serializes onto.
SERIAL_LANE = "serial"


class QueueSaturatedError(RuntimeError):
    """A lane is at its depth limit and the admission policy gave up.

    The bottom-up backpressure signal of the event-driven link layer:
    LTAP's admission hook converts it into a typed ``ServerBusy`` LDAP
    result *before* the directory write, so a rejected update leaves no
    trace to lose or compensate."""

    def __init__(self, lane: str, depth: int, limit: int):
        super().__init__(
            f"coordinator lane {lane!r} at depth {depth} (limit {limit})"
        )
        self.lane = lane
        self.depth = depth
        self.limit = limit


@dataclass(frozen=True)
class QueuedUpdate:
    """One queue item: a descriptor stamped with its serialization order."""

    serial: int
    descriptor: UpdateDescriptor
    #: ``time.perf_counter()`` at enqueue (0.0 for hand-built items).
    enqueued_at: float = field(default=0.0, compare=False)
    #: Lane label the item was claimed onto.
    lane: str | None = field(default=None, compare=False)
    #: The oracle's reason: "partition" or one of the serial fallbacks
    #: (None at one lane, where the oracle is not consulted).
    reason: str | None = field(default=None, compare=False)


class ShardedUpdateQueue:
    """N FIFO lanes (+ one serial lane when N > 1) over one serial counter.

    With one lane there is no routing: every item lands on lane ``0``,
    the routing oracle is never consulted (so no plan is needed), and the
    queue runs items strictly in serial order.  With N > 1 lanes the
    routing oracle assigns every claimed descriptor a lane key (hashed
    onto one of ``lanes`` labels) or sends it to the serial lane.  Claims
    are atomic, per-lane order is FIFO by serial, and the **barrier
    protocol** orders the serial lane against everything else:

    * a serial item with serial *S* becomes runnable only when it is the
      serial lane's oldest outstanding item **and** no lane holds an
      outstanding item with serial < *S* (all lanes have quiesced past
      its enqueue point);
    * a lane item with serial *L* becomes runnable only when it is its
      lane's oldest outstanding item **and** no serial-lane item with
      serial < *L* is still outstanding.

    Serials never wait on larger serials, so the protocol is deadlock-free
    by strict descent.  ``claim`` → ``wait_turn`` → (process) → ``finish``
    is the consumer contract; each step is safe under arbitrary thread
    interleavings.
    """

    def __init__(
        self,
        plan=None,
        lanes: int = 1,
        registry: MetricsRegistry | None = None,
        journal=None,
        depth_limit: int | None = None,
    ) -> None:
        if lanes < 1:
            raise ValueError("a sharded queue needs at least one lane")
        if lanes > 1 and plan is None:
            raise ValueError(
                "more than one lane requires a routing plan "
                "(repro.analysis.build_routing_plan)"
            )
        if depth_limit is not None and depth_limit < 1:
            raise ValueError("depth_limit must be >= 1")
        self.plan = plan
        self.lanes = lanes
        #: Maximum *outstanding* (claimed, not yet finished) updates per
        #: lane before :meth:`admit` defers or rejects; ``None`` disables
        #: admission control (the pre-link behaviour).
        self.depth_limit = depth_limit
        self.journal = journal
        # One lane needs no serial lane: its FIFO already is serial order.
        self.labels: tuple[str, ...] = tuple(
            [str(i) for i in range(lanes)] + ([SERIAL_LANE] if lanes > 1 else [])
        )
        self._cond = threading.Condition()
        self._serials = itertools.count(1)
        self._last_serial = 0
        #: lane label -> serial -> enqueue stamp, for items claimed but not
        #: yet running (the depth/staleness view).
        self._waiting: dict[str, dict[int, float]] = {
            label: {} for label in self.labels
        }
        #: lane label -> serials claimed but not finished (the barrier's
        #: quiescence view: waiting ∪ running).
        self._outstanding: dict[str, set[int]] = {
            label: set() for label in self.labels
        }
        #: lane label -> highest serial ever claimed onto the lane.
        self._lane_last: dict[str, int] = {label: 0 for label in self.labels}

        registry = registry if registry is not None else MetricsRegistry()
        self._enqueued = registry.counter(
            "metacomm_queue_enqueued_total",
            "Update descriptors appended to the global queue",
        )
        self._processed = registry.counter(
            "metacomm_queue_processed_total",
            "Update descriptors removed from the global queue",
        )
        self._lane_enqueued = registry.counter(
            "metacomm_queue_lane_enqueued_total",
            "Update descriptors routed onto each coordinator lane",
            labelnames=("lane",),
        )
        self._serial_fallback = registry.counter(
            "metacomm_queue_serial_fallback_total",
            "Updates the routing oracle sent to the serial lane, by reason",
            labelnames=("reason",),
        )
        self._depth = registry.gauge(
            "metacomm_queue_depth",
            "Update descriptors currently waiting in the global queue",
        )
        self._lane_depth = registry.gauge(
            "metacomm_queue_lane_depth",
            "Update descriptors currently waiting on each lane",
            labelnames=("lane",),
        )
        self._oldest_age = registry.gauge(
            "metacomm_queue_oldest_age_seconds",
            "How long the oldest unclaimed update has waited "
            "(the max over all lanes, so the queue-backlog alert rule "
            "keeps firing under sharding)",
        )
        self._lane_oldest_age = registry.gauge(
            "metacomm_queue_lane_oldest_age_seconds",
            "How long each lane's oldest unclaimed update has waited",
            labelnames=("lane",),
        )
        self._wait = registry.histogram(
            "metacomm_queue_wait_seconds",
            "Enqueue-to-dequeue latency of the global queue",
        )
        self._barrier_wait = registry.histogram(
            "metacomm_queue_barrier_seconds",
            "How long serial-lane items waited for all lanes to quiesce",
        )
        self._admission_deferred = registry.counter(
            "metacomm_queue_admission_deferred_total",
            "Updates that waited at admission for lane capacity",
            labelnames=("lane",),
        )
        self._admission_rejected = registry.counter(
            "metacomm_queue_admission_rejected_total",
            "Updates rejected at admission because a lane stayed at its "
            "depth limit (surfaced to LTAP clients as ServerBusy)",
            labelnames=("lane",),
        )
        self.statistics = StatsView(
            {
                "enqueued": lambda: self._enqueued.value,
                "processed": lambda: self._processed.value,
                "serial_routed": lambda: self._serial_fallback.total(),
                "admission_deferred": lambda: self._admission_deferred.total(),
                "admission_rejected": lambda: self._admission_rejected.total(),
            }
        )

    # -- producing ----------------------------------------------------------

    def _emit(self, kind: str, item: QueuedUpdate, trace, **extra) -> None:
        if self.journal is None:
            return
        descriptor = item.descriptor
        op = getattr(descriptor, "op", None)
        self.journal.emit(
            kind,
            trace=trace,
            serial=item.serial,
            op=getattr(op, "value", op),
            key=getattr(descriptor, "key", None),
            lane=item.lane,
            **extra,
        )

    def lane_of(self, lane_key: str | None) -> str:
        """Deterministic lane assignment: same key → same lane, always."""
        if lane_key is None:
            return SERIAL_LANE
        return str(crc32(lane_key.encode("utf-8")) % self.lanes)

    def _route(
        self, descriptor: UpdateDescriptor, rename: bool
    ) -> tuple[str, str | None, bool]:
        """(lane label, oracle reason, serial fallback?) for a descriptor.

        One lane skips the oracle: its barrier reduces to plain serial
        order, so no routing decision could change the schedule."""
        if self.lanes == 1:
            return "0", None, False
        decision = self.plan.classify(descriptor, rename=rename)
        return self.lane_of(decision.lane_key), decision.reason, decision.serial

    def claim(
        self,
        descriptor: UpdateDescriptor,
        trace=None,
        rename: bool = False,
        dispatch=None,
    ) -> QueuedUpdate:
        """Atomically assign the next global serial and a lane.

        The item is never visible to any other consumer — the caller (or
        the lane worker it hands the item to) must call :meth:`wait_turn`
        before processing and :meth:`finish` afterwards.  Claiming is what
        keeps every client paired with its own descriptor: nobody else can
        dequeue the item and run it under the wrong session.

        *dispatch*, when given, is invoked with the item inside the same
        critical section that assigns its serial.  The threaded hand-off
        needs this atomicity: if serial assignment and the lane
        work-queue insert were separate steps, two clients claiming into
        the same lane could enqueue out of serial order, and the single
        lane worker would wait on an item that can never become the
        lane's oldest outstanding serial while the older item sits
        behind it in the same FIFO.  *dispatch* must not block (a
        ``queue.Queue.put`` is fine)."""
        label, reason, serial_fallback = self._route(descriptor, rename)
        now = time.perf_counter()
        with self._cond:
            serial = next(self._serials)
            self._last_serial = serial
            self._waiting[label][serial] = now
            self._outstanding[label].add(serial)
            self._lane_last[label] = serial
            self._enqueued.inc()
            self._lane_enqueued.labels(lane=label).inc()
            if serial_fallback:
                self._serial_fallback.labels(reason=reason).inc()
            self._publish_depth()
            item = QueuedUpdate(serial, descriptor, now, lane=label, reason=reason)
            if dispatch is not None:
                try:
                    dispatch(item)
                except BaseException:
                    # A failed hand-off must not leave the serial
                    # outstanding — it would wedge the barrier forever.
                    self._outstanding[label].discard(serial)
                    self._waiting[label].pop(serial, None)
                    self._publish_depth()
                    raise
        self._emit(UPDATE_ACCEPTED, item, trace, reason=reason)
        return item

    # -- admission control ----------------------------------------------------

    def admit(
        self,
        descriptor: UpdateDescriptor,
        rename: bool = False,
        timeout: float | None = None,
        trace=None,
    ) -> str:
        """Gate one prospective update on its target lane's depth limit.

        Called by LTAP's admission hook *before* the directory write, with
        a descriptor built from the inbound request: the routing oracle
        says which lane the update would land on (lane ``0`` at one lane),
        and if that lane already holds ``depth_limit`` outstanding updates
        the caller either defers (bounded wait of ``timeout`` seconds for
        capacity) or — when the
        wait expires, or ``timeout`` is ``None``/``0`` — gets
        :class:`QueueSaturatedError`, which the gateway surfaces as a
        typed ``ServerBusy`` LDAP result.  Returns ``"admitted"`` or
        ``"deferred"`` on success.

        Advisory by design: admission and the later :meth:`claim` are two
        critical sections, so concurrent admits can overshoot the limit by
        the number of racing clients — the limit bounds growth, it is not
        an exact semaphore."""
        if self.depth_limit is None:
            return "admitted"
        label = self._route(descriptor, rename)[0]
        deadline = (
            time.perf_counter() + timeout if timeout else None
        )
        status = "admitted"
        depth = 0
        waited = 0.0
        started = time.perf_counter()
        with self._cond:
            while len(self._outstanding[label]) >= self.depth_limit:
                if status == "admitted":
                    status = "deferred"
                    self._admission_deferred.labels(lane=label).inc()
                if deadline is None or time.perf_counter() >= deadline:
                    status = "rejected"
                    depth = len(self._outstanding[label])
                    break
                self._cond.wait(timeout=0.05)
        waited = time.perf_counter() - started
        # Journal emission stays outside _cond: listener callbacks must
        # never run under the queue's condition (LX502 discipline).
        if status == "rejected":
            self._admission_rejected.labels(lane=label).inc()
            if self.journal is not None:
                self.journal.emit(
                    UPDATE_REJECTED,
                    trace=trace,
                    key=getattr(descriptor, "key", None),
                    lane=label,
                    depth=depth,
                    limit=self.depth_limit,
                    waited=round(waited, 6),
                )
            raise QueueSaturatedError(label, depth, self.depth_limit)
        if status == "deferred" and self.journal is not None:
            self.journal.emit(
                UPDATE_DEFERRED,
                trace=trace,
                key=getattr(descriptor, "key", None),
                lane=label,
                waited=round(waited, 6),
            )
        return status

    # -- the barrier protocol ------------------------------------------------

    def _runnable(self, item: QueuedUpdate) -> bool:
        """Caller holds ``_cond``.  See the class docstring for the rules."""
        mine = self._outstanding[item.lane]
        if not mine or min(mine) != item.serial:
            return False
        if item.lane == SERIAL_LANE:
            return all(
                not lane or min(lane) > item.serial
                for label, lane in self._outstanding.items()
                if label != SERIAL_LANE
            )
        serial_lane = self._outstanding.get(SERIAL_LANE)
        return not serial_lane or min(serial_lane) > item.serial

    def wait_turn(
        self,
        item: QueuedUpdate,
        stop: threading.Event | None = None,
        timeout: float | None = None,
        trace=None,
    ) -> bool:
        """Block until *item* may run under the barrier protocol.

        Returns True once the item is runnable (it then counts as claimed
        for metrics/journal purposes); False when ``stop`` was set or
        ``timeout`` elapsed first — the caller must still call
        :meth:`finish` so the barrier does not wedge on the abandoned
        serial."""
        deadline = (
            time.perf_counter() + timeout if timeout is not None else None
        )
        with self._cond:
            while not self._runnable(item):
                if stop is not None and stop.is_set():
                    return False
                if deadline is not None and time.perf_counter() >= deadline:
                    return False
                self._cond.wait(timeout=0.05)
            self._waiting[item.lane].pop(item.serial, None)
            self._processed.inc()
            self._publish_depth()
        waited = (
            time.perf_counter() - item.enqueued_at if item.enqueued_at else 0.0
        )
        self._wait.observe(waited)
        if item.lane == SERIAL_LANE:
            # The serial item just cleared the barrier: every lane has
            # quiesced past its serial.  Journal it — this is the event a
            # wedged-barrier investigation greps for.
            self._barrier_wait.observe(waited)
            self._emit(LANE_BARRIER, item, trace, waited=round(waited, 6))
        self._emit(UPDATE_CLAIMED, item, trace)
        return True

    def finish(self, item: QueuedUpdate) -> None:
        """Mark *item* done; wakes every consumer blocked on the barrier."""
        with self._cond:
            self._outstanding[item.lane].discard(item.serial)
            self._waiting[item.lane].pop(item.serial, None)
            self._publish_depth()
            self._cond.notify_all()

    def wake(self) -> None:
        """Wake every barrier waiter so it re-checks its stop Event now.

        :meth:`wait_turn`'s condition wait is already bounded (50 ms
        ticks), so a missed wake-up only costs one tick — but
        ``UpdateManager.stop()`` calls this so shutdown never waits out
        even that tick per lane."""
        with self._cond:
            self._cond.notify_all()

    def _publish_depth(self) -> None:
        """Caller holds ``_cond``."""
        total = 0
        for label in self.labels:
            depth = len(self._waiting[label])
            total += depth
            self._lane_depth.labels(lane=label).set(depth)
        self._depth.set(total)

    # -- status -----------------------------------------------------------------

    def __len__(self) -> int:
        with self._cond:
            return sum(len(w) for w in self._waiting.values())

    def peek_serial(self) -> int | None:
        with self._cond:
            waiting = [min(w) for w in self._waiting.values() if w]
            return min(waiting) if waiting else None

    @property
    def last_serial(self) -> int:
        """The highest serial issued so far (the serialization head)."""
        with self._cond:
            return self._last_serial

    def _lane_age(self, label: str, now: float) -> float:
        """Caller holds ``_cond``."""
        stamps = self._waiting[label].values()
        return (now - min(stamps)) if stamps else 0.0

    def oldest_age(self) -> float:
        """Seconds the oldest unclaimed update has waited, over all lanes."""
        now = time.perf_counter()
        with self._cond:
            return max(self._lane_age(label, now) for label in self.labels)

    def refresh_staleness(self) -> float:
        """Publish per-lane and aggregate (max-lane) oldest-age gauges.

        The aggregate lands on ``metacomm_queue_oldest_age_seconds`` — the
        same series the single queue publishes — so the shipped
        ``queue-backlog`` alert rule fires identically under sharding."""
        now = time.perf_counter()
        with self._cond:
            ages = {
                label: self._lane_age(label, now) for label in self.labels
            }
        for label, age in ages.items():
            self._lane_oldest_age.labels(lane=label).set(age)
        aggregate = max(ages.values())
        self._oldest_age.set(aggregate)
        return aggregate

    def lane_snapshot(self) -> list[dict]:
        """Per-lane depth / staleness / last-serial (the monitor CLI's
        lane section)."""
        now = time.perf_counter()
        with self._cond:
            return [
                {
                    "lane": label,
                    "depth": len(self._waiting[label]),
                    "outstanding": len(self._outstanding[label]),
                    "limit": self.depth_limit,
                    "oldest_age": self._lane_age(label, now),
                    "last_serial": self._lane_last[label],
                }
                for label in self.labels
            ]
