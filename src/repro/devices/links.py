"""Event-driven device links: pipelined command streams with batching.

The fan-out stage used to burn one worker thread per device write, each
sleeping through a full management-link round-trip (``Device._link``).
This module replaces that with the link layer the ROADMAP calls the
"fast as hardware allows" refactor:

* each device gets a :class:`DeviceLink` — a FIFO of submitted write
  operations plus a bounded *in-flight window* of flushed batches;
* one :class:`LinkDispatcher` thread drives every link: it coalesces up
  to ``batch`` queued ops into one *pipelined OSSI command stream*, pays
  **one** round-trip for the whole batch (a channel-slot reservation on
  serial craft channels, see :meth:`Device.reserve_channel`), and
  executes the ops when the stream's completion deadline arrives;
* callers get :class:`concurrent.futures.Future` results from
  :meth:`DeviceLink.submit`, so one coordinator lane can keep many
  devices' round-trips in flight at once; a future cancelled before its
  batch executes is skipped, never run;
* a full window *and* full submit queue surfaces as :class:`LinkBusy`
  (or a bounded blocking submit), the bottom of the backpressure chain
  that ends in LTAP's ``ServerBusy`` result (docs/DEVICE_LINKS.md).

Ordering: per link the submit queue is FIFO, batches are formed and
executed strictly in queue order, and round-trip deadlines are
monotonic per device — so per-record (indeed per-device) operation
order is exactly submission order, the property the link/serial
equivalence tests pin against the paper-serial path.

Commit notifications raised while a batch executes are *deferred*: the
dispatcher must never run a DDU listener inline (the listener fans back
into the links and would deadlock the event loop), so a dedicated
notifier thread delivers them FIFO after the ops commit.

Shutdown order (:meth:`LinkDispatcher.stop`): stop the dispatcher, fail
every orphaned future, *then* stop the notifier.  A notifier thread can
be delivering a DDU whose update sequence waits on a link future; failing
the orphans first releases that wait, so the notifier join returns.
Each join is bounded by :data:`STOP_JOIN_TIMEOUT`; a thread that
outlives it is reported as :class:`LinkTimeout`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .base import Device, DeviceError, DeviceNotification, link_execution

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.events import EventJournal
    from ..obs.metrics import MetricsRegistry

__all__ = ["LinkBusy", "LinkConfig", "LinkTimeout", "DeviceLink", "LinkDispatcher"]


class LinkBusy(DeviceError):
    """The link's submit queue is full and the caller asked not to wait."""


class LinkTimeout(DeviceError):
    """A link wait outlived its deadline: a caller waiting on a submitted
    op, or :meth:`LinkDispatcher.stop` joining a link thread
    (:data:`STOP_JOIN_TIMEOUT`)."""


#: How long :meth:`LinkDispatcher.stop` waits for each of its threads to
#: exit (seconds).  Every wait inside them is bounded by the stop ordering
#: or by the Update Manager's 30 s coordinator timeout, so a thread still
#: alive after this is stuck, and stop() names it instead of hanging.
STOP_JOIN_TIMEOUT = 30.0


@dataclass(frozen=True)
class LinkConfig:
    """Tuning knobs for one device link.

    ``window``
        Maximum flushed batches (command streams) in flight at once.
    ``batch``
        Maximum ops coalesced into one command stream.
    ``queue_limit``
        Maximum ops waiting to be flushed; beyond it ``submit`` defers
        (bounded wait) or rejects with :class:`LinkBusy`.
    """

    window: int = 4
    batch: int = 8
    queue_limit: int = 64

    def __post_init__(self) -> None:
        if self.window < 1 or self.batch < 1 or self.queue_limit < 1:
            raise ValueError("window, batch and queue_limit must be >= 1")


@dataclass
class _LinkOp:
    fn: Callable[[], object]
    op: str
    key: str
    future: Future
    submitted: float


@dataclass
class _Batch:
    link: "DeviceLink"
    ops: list[_LinkOp]
    deadline: float
    flushed: float = field(default=0.0)


class DeviceLink:
    """Pipelined command stream for one device.

    All mutable state is guarded by the owning dispatcher's condition —
    the link is a passive record the dispatcher's event loop drives."""

    def __init__(self, device: Device, config: LinkConfig, dispatcher: "LinkDispatcher"):
        self.device = device
        self.name = device.name
        self.config = config
        self._dispatcher = dispatcher
        # Guarded by dispatcher._cond:
        self._pending: deque[_LinkOp] = deque()
        self._inflight: deque[_Batch] = deque()
        self._paused = False
        self._batch_hist: dict[int, int] = {}
        self._stats = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "flushes": 0,
            "deferred": 0,
            "rejected": 0,
            "peak_pending": 0,
        }

    # -- submit side (any thread) ------------------------------------------------

    def submit(
        self,
        fn: Callable[[], object],
        *,
        op: str = "apply",
        key: str = "",
        timeout: float | None = None,
    ) -> Future:
        """Queue one operation; returns a Future resolved at flush time.

        Blocks while the submit queue is at ``queue_limit`` (bounded by
        ``timeout`` if given, raising :class:`LinkBusy` on expiry; pass
        ``timeout=0`` for a non-blocking attempt)."""
        dispatcher = self._dispatcher
        entry = _LinkOp(fn, op, key, Future(), time.monotonic())
        deadline = None if timeout is None else entry.submitted + timeout
        waited = False
        with dispatcher._cond:
            while True:
                if dispatcher._stopped:
                    raise DeviceError(f"{self.name}: device link stopped")
                if len(self._pending) < self.config.queue_limit:
                    break
                remaining = 0.25
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._stats["rejected"] += 1
                        dispatcher._note_rejected(self.name)
                        raise LinkBusy(
                            f"{self.name}: link queue full "
                            f"({self.config.queue_limit} ops pending)"
                        )
                    remaining = min(remaining, 0.25)
                if not waited:
                    waited = True
                    self._stats["deferred"] += 1
                    dispatcher._note_deferred(self.name)
                dispatcher._cond.wait(remaining)
            self._pending.append(entry)
            self._stats["submitted"] += 1
            if len(self._pending) > self._stats["peak_pending"]:
                self._stats["peak_pending"] = len(self._pending)
            dispatcher._cond.notify_all()
        return entry.future

    # -- stall injection -----------------------------------------------------------

    def pause(self) -> None:
        """Stop flushing (simulates a stalled device link)."""
        with self._dispatcher._cond:
            self._paused = True

    def resume(self) -> None:
        with self._dispatcher._cond:
            self._paused = False
            self._dispatcher._cond.notify_all()

    # -- introspection -----------------------------------------------------------

    def saturated(self) -> bool:
        """True when both the in-flight window and the submit queue are full."""
        with self._dispatcher._cond:
            return (
                len(self._inflight) >= self.config.window
                and len(self._pending) >= self.config.queue_limit
            )

    def snapshot(self) -> dict:
        with self._dispatcher._cond:
            pending = len(self._pending)
            inflight = len(self._inflight)
            inflight_ops = sum(len(b.ops) for b in self._inflight)
            stats = dict(self._stats)
            hist = dict(sorted(self._batch_hist.items()))
            paused = self._paused
        return {
            "device": self.name,
            "window": self.config.window,
            "batch": self.config.batch,
            "queue_limit": self.config.queue_limit,
            "pending": pending,
            "inflight": inflight,
            "inflight_ops": inflight_ops,
            "paused": paused,
            "batch_sizes": hist,
            **stats,
        }


class LinkDispatcher:
    """Single event-loop thread driving every registered device link.

    The loop never sleeps through a round-trip: a flush *reserves* the
    device channel (or just stamps ``now + latency``) and records the
    completion time as the batch deadline; the loop then waits on its
    condition until the nearest deadline, so any number of links'
    round-trips overlap on one thread."""

    #: Idle wait between wake-ups when no deadline is nearer (seconds).
    POLL = 0.05

    def __init__(
        self,
        metrics: "MetricsRegistry | None" = None,
        journal: "EventJournal | None" = None,
    ):
        self._cond = threading.Condition()
        self._links: list[DeviceLink] = []
        self._by_name: dict[str, DeviceLink] = {}
        self._stopped = False
        self._started = False
        self._thread: threading.Thread | None = None
        # Deferred commit notifications, delivered FIFO by the notifier
        # thread (guarded by _notify_cond, never held with _cond).
        self._notify_cond = threading.Condition()
        self._notifications: deque[tuple[Device, DeviceNotification]] = deque()
        self._notify_stop = False
        self._notifier: threading.Thread | None = None
        self.journal = journal
        self._m_ops = self._m_flushes = self._m_batch = None
        self._m_inflight = self._m_deferred = self._m_rejected = None
        if metrics is not None:
            self._m_ops = metrics.counter(
                "metacomm_link_ops_total",
                "Operations completed over device links",
                labelnames=("device", "outcome"),
            )
            self._m_flushes = metrics.counter(
                "metacomm_link_flushes_total",
                "Command-stream flushes (one round-trip each) per device link",
                labelnames=("device",),
            )
            self._m_batch = metrics.histogram(
                "metacomm_link_batch_ops",
                "Operations coalesced per flushed command stream",
                labelnames=("device",),
                buckets=(1, 2, 4, 8, 16, 32, 64),
            )
            self._m_inflight = metrics.gauge(
                "metacomm_link_inflight_batches",
                "Command streams currently in flight per device link",
                labelnames=("device",),
            )
            self._m_deferred = metrics.counter(
                "metacomm_link_submit_deferred_total",
                "Submits that had to wait for link-queue space",
                labelnames=("device",),
            )
            self._m_rejected = metrics.counter(
                "metacomm_link_submit_rejected_total",
                "Submits rejected because the link queue stayed full",
                labelnames=("device",),
            )

    # -- registration ------------------------------------------------------------

    def register(self, device: Device, config: LinkConfig | None = None) -> DeviceLink:
        link = DeviceLink(device, config or LinkConfig(), self)
        with self._cond:
            if self._stopped:
                raise DeviceError("link dispatcher stopped")
            self._links.append(link)
            self._by_name[link.name] = link
        device.attach_link(link)
        return link

    def link(self, name: str) -> DeviceLink:
        with self._cond:
            return self._by_name[name]

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        with self._cond:
            if self._started or self._stopped:
                return
            self._started = True
        self._thread = threading.Thread(
            target=self._run, name="metacomm-links", daemon=True
        )
        self._notifier = threading.Thread(
            target=self._run_notifier, name="metacomm-link-notify", daemon=True
        )
        self._thread.start()
        self._notifier.start()

    def stop(self) -> None:
        """Stop both threads; fails any unflushed futures so no waiter hangs.

        Orphans are failed *before* the notifier is stopped: the notifier
        may be delivering a DDU whose fan-out waits on one of them, and
        joining it first would wait forever.  Submits after ``stop`` fail
        fast, so no new orphan can appear once the dispatcher is gone.

        Raises :class:`LinkTimeout` naming any thread still alive after
        :data:`STOP_JOIN_TIMEOUT`; calling ``stop()`` again retries its
        join."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        stuck: list[str] = []
        self._thread = self._join_bounded(self._thread, stuck)
        orphans: list[_LinkOp] = []
        with self._cond:
            for link in self._links:
                for batch in link._inflight:
                    orphans.extend(batch.ops)
                link._inflight.clear()
                orphans.extend(link._pending)
                link._pending.clear()
        for op in orphans:
            if op.future.set_running_or_notify_cancel():
                op.future.set_exception(DeviceError("device link stopped"))
        with self._notify_cond:
            self._notify_stop = True
            self._notify_cond.notify_all()
        self._notifier = self._join_bounded(self._notifier, stuck)
        if stuck:
            raise LinkTimeout(
                f"link thread(s) {', '.join(stuck)} still running "
                f"{STOP_JOIN_TIMEOUT} s after stop()"
            )

    @staticmethod
    def _join_bounded(
        thread: threading.Thread | None, stuck: list[str]
    ) -> threading.Thread | None:
        """Join ``thread`` for at most :data:`STOP_JOIN_TIMEOUT` seconds.

        Returns ``None`` once it has exited; otherwise appends its name
        to ``stuck`` and returns it, so a later ``stop()`` joins it again."""
        if thread is None:
            return None
        thread.join(timeout=STOP_JOIN_TIMEOUT)
        if thread.is_alive():
            stuck.append(thread.name)
            return thread
        return None

    # -- event loop --------------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                if self._stopped:
                    return
                now = time.monotonic()
                ready, timeout = self._collect_locked(now)
                if not ready:
                    self._cond.wait(timeout)
                    continue
            for batch in ready:
                self._execute(batch)

    def _collect_locked(self, now: float) -> tuple[list[_Batch], float]:
        """Pop due batches and form new ones; caller holds ``_cond``.

        Returns the batches to execute and, when none are due, how long
        to wait until the nearest deadline."""
        ready: list[_Batch] = []
        next_deadline: float | None = None
        freed = False
        for link in self._links:
            # Complete due command streams strictly FIFO per link.
            while link._inflight and link._inflight[0].deadline <= now:
                ready.append(link._inflight.popleft())
                freed = True
            # Coalesce queued ops into new streams while the window has room.
            while (
                link._pending
                and not link._paused
                and len(link._inflight) < link.config.window
            ):
                ops = [
                    link._pending.popleft()
                    for _ in range(min(link.config.batch, len(link._pending)))
                ]
                freed = True
                device = link.device
                latency = device.link_latency
                if latency <= 0:
                    deadline = now
                elif device.link_serial:
                    # One pipelined round-trip for the whole stream.
                    deadline = device.reserve_channel(latency)
                else:
                    deadline = now + latency
                batch = _Batch(link, ops, deadline, flushed=now)
                if deadline <= now:
                    ready.append(batch)
                else:
                    link._inflight.append(batch)
            if link._inflight:
                head = link._inflight[0].deadline
                if next_deadline is None or head < next_deadline:
                    next_deadline = head
            if self._m_inflight is not None:
                self._m_inflight.labels(device=link.name).set(len(link._inflight))
        if freed:
            # Queue space and window slots opened up — wake submitters.
            self._cond.notify_all()
        if next_deadline is None:
            return ready, self.POLL
        return ready, max(0.0, min(self.POLL, next_deadline - now))

    def _execute(self, batch: _Batch) -> None:
        """Run one flushed command stream's ops (dispatcher thread, no lock)."""
        link = batch.link
        device = link.device
        sink: list[DeviceNotification] = []
        results: list[tuple[_LinkOp, object, BaseException | None]] = []
        with link_execution(sink):
            for op in batch.ops:
                if not op.future.set_running_or_notify_cancel():
                    continue  # cancelled by a caller past its deadline
                try:
                    results.append((op, op.fn(), None))
                except BaseException as exc:
                    results.append((op, None, exc))
        done = time.monotonic()
        if sink:
            with self._notify_cond:
                self._notifications.extend((device, n) for n in sink)
                self._notify_cond.notify_all()
        ok_count = fail_count = 0
        for op, result, exc in results:
            elapsed = done - op.submitted
            if exc is None:
                ok_count += 1
                device.observe_op(op.op, op.key, elapsed, True)
                op.future.set_result(result)
            else:
                fail_count += 1
                device.observe_op(op.op, op.key, elapsed, False)
                op.future.set_exception(exc)
        with self._cond:
            link._stats["completed"] += ok_count
            link._stats["failed"] += fail_count
            link._stats["flushes"] += 1
            size = len(batch.ops)
            link._batch_hist[size] = link._batch_hist.get(size, 0) + 1
        if self._m_ops is not None:
            if ok_count:
                self._m_ops.labels(device=link.name, outcome="ok").inc(ok_count)
            if fail_count:
                self._m_ops.labels(device=link.name, outcome="error").inc(fail_count)
            self._m_flushes.labels(device=link.name).inc()
            self._m_batch.labels(device=link.name).observe(size)
        if self.journal is not None:
            from ..obs.events import LINK_FLUSH

            self.journal.emit(
                LINK_FLUSH,
                device=link.name,
                ops=size,
                ok=ok_count,
                failed=fail_count,
            )

    # -- notifier thread ----------------------------------------------------------

    def _run_notifier(self) -> None:
        while True:
            with self._notify_cond:
                while not self._notifications:
                    if self._notify_stop:
                        return
                    self._notify_cond.wait(self.POLL)
                device, notification = self._notifications.popleft()
            # Delivered outside both conditions: a DDU listener may fan
            # back into the links (submit) or the LTAP gateway.
            device._notify(notification)

    # -- counters used by DeviceLink.submit ---------------------------------------

    def _note_deferred(self, name: str) -> None:
        if self._m_deferred is not None:
            self._m_deferred.labels(device=name).inc()

    def _note_rejected(self, name: str) -> None:
        if self._m_rejected is not None:
            self._m_rejected.labels(device=name).inc()

    # -- introspection -----------------------------------------------------------

    def snapshot(self) -> list[dict]:
        with self._cond:
            links = list(self._links)
        return [link.snapshot() for link in links]
