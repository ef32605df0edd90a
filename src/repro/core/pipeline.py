"""The staged update-sequence pipeline of the Update Manager.

Section 4.4 describes one *serialized* update sequence: closure
enrichment, fan-out to every device repository, fold-back of
device-generated information, and a supplemental LDAP write ("update the
LDAP Server after all other devices are updated", section 5.5).  The seed
implemented that sequence as one monolithic method; this module breaks it
into explicit stages with first-class plan/outcome objects:

* **intake** — build the :class:`~repro.lexpress.descriptor.UpdateDescriptor`
  that enters the sequence, whether it originates at LTAP (an LDAP event)
  or at a device (a DDU being translated for forwarding).  Both paths
  funnel through here so they share instrumentation and semantics.
* **enrich** — run the transitive closure over the LDAP image.
* **plan** — translate the enriched descriptor for *every* device binding
  up front (partition routing, Originator/conditional marking) and capture
  each repository's before-image for saga compensation.  The result is an
  :class:`UpdatePlan` holding one :class:`DevicePlan` per affected device.
* **fanout** — submit the planned updates to the device links, which
  overlap every device's round-trip (see below).  A pipeline without a
  link for every planned binding falls back to the paper's serial
  discipline: one device at a time, in binding order.
* **merge** — fold the closure-derived attributes and every device echo
  (defaults, truncations, generated ids) into one supplemental image.
  Attribute names are merged *case-insensitively* — LDAP attribute names
  are caseless, so a device echoing ``telephonenumber`` must land on the
  same canonical key as the closure's ``telephoneNumber``.
* **supplemental** — write the merged image back through the LDAP filter,
  re-entering the originating session's entry lock.

Why link fan-out preserves the serialization discipline
------------------------------------------------------

The queue serializes *sequences* that might conflict.  Within a sequence,
each device binding receives at most one translated update, and the
device repositories are disjoint (partitioned PBXes, the Messaging
Platform) — so the per-repository apply order seen by any single device
is identical whether the devices are updated one after another or all at
once.  Each link is FIFO, so a device also sees sequences in submission
order.  This is the same observation that lets multimaster replication
propagate to independent peers without quiescing: concurrency across
*non-conflicting* targets cannot reorder the per-target history.

Failure policies run *after* the fan-out barrier, replaying the device
outcomes in binding order — so error-log records, abort decisions and
saga-compensation order are byte-for-byte identical to the serial path.
Link fan-out is optimistic: a device that committed *after* the abort
point (it could not know a predecessor failed) is rolled back to its
before-image, restoring exactly the state the serial path would have
left.  A barrier before the supplemental write guarantees the section-5.5
ordering on both paths.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FutureTimeout
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, TYPE_CHECKING

from ..devices.links import DeviceLink, LinkTimeout
from ..ldap.backend import ChangeType
from ..ldap.dn import DN
from ..ldap.protocol import Session
from ..lexpress.closure import ClosureEngine
from ..lexpress.descriptor import (
    TargetAction,
    TargetUpdate,
    UpdateDescriptor,
    UpdateOp,
)
from ..ltap.triggers import TriggerEvent
from ..obs.events import (
    DEVICE_ATTEMPT,
    DEVICE_COMMIT,
    DEVICE_FAILURE,
    DEVICE_ROLLBACK,
    SEQUENCE_ABORTED,
    SUPPLEMENTAL_WRITE,
    UPDATE_PLANNED,
)
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Trace, trace_span
from .errorlog import ErrorLog
from .filters.base import ApplyResult, FilterError
from .filters.ldap_filter import LdapFilter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .update_manager import DeviceBinding

__all__ = [
    "STAGES",
    "DeviceOutcome",
    "DevicePlan",
    "FailurePolicy",
    "SequenceOutcome",
    "UpdatePlan",
    "UpdateSequencePipeline",
    "merge_attrs",
]

#: The stages of one update sequence, in execution order.
STAGES = ("intake", "enrich", "plan", "fanout", "merge", "supplemental")

#: Span names per stage.  ``enrich`` and ``supplemental`` keep their
#: historical names so existing trace consumers stay valid.
STAGE_SPANS = {
    "intake": "stage.intake",
    "enrich": "closure.enrich",
    "plan": "stage.plan",
    "fanout": "stage.fanout",
    "merge": "stage.merge",
    "supplemental": "ldap.supplemental",
}


def merge_attrs(
    dest: dict[str, list[str]], src: Mapping[str, list[str]]
) -> dict[str, list[str]]:
    """Merge ``src`` into ``dest`` with case-insensitive attribute names.

    LDAP attribute names are caseless, but ``dict.update`` is not: a
    device echoing ``telephonenumber`` used to shadow or duplicate the
    closure's ``telephoneNumber``.  Each attribute keeps exactly one
    canonical key — the spelling already in ``dest`` wins, new attributes
    keep the spelling of their first appearance.  Returns ``dest``.
    """
    canonical = {name.lower(): name for name in dest}
    for name, values in src.items():
        existing = canonical.get(name.lower())
        if existing is None:
            dest[name] = list(values)
            canonical[name.lower()] = name
        else:
            dest[existing] = list(values)
    return dest


@dataclass(frozen=True)
class FailurePolicy:
    """What happens when a device rejects its planned update.

    ``abort_on_failure`` — stop the remaining sequence (section 4.4's
    shipped behaviour).  ``undo_on_failure`` — saga-style compensation of
    the device updates already applied (section 4.4's sketched future).
    Both act on the fan-out outcomes *in binding order*, so their effects
    are identical whether the fan-out ran serially or over device links.
    """

    abort_on_failure: bool = True
    undo_on_failure: bool = False


@dataclass
class DevicePlan:
    """One device's share of an update sequence, computed up front."""

    index: int
    binding: "DeviceBinding"
    update: TargetUpdate
    #: The repository's pre-update image (saga compensation input).
    before: dict[str, list[str]] | None = None


@dataclass
class UpdatePlan:
    """Everything the fan-out stage needs, fixed before any device write."""

    descriptor: UpdateDescriptor
    enriched: UpdateDescriptor
    serial: int = 0
    #: Closure-derived LDAP image (the base of the supplemental write).
    base_supplement: dict[str, list[str]] = field(default_factory=dict)
    device_plans: list[DevicePlan] = field(default_factory=list)


@dataclass
class DeviceOutcome:
    """What one :class:`DevicePlan` produced at its repository."""

    plan: DevicePlan
    #: False when the plan was never attempted (sequence aborted first).
    executed: bool = False
    result: ApplyResult | None = None
    error: FilterError | None = None
    #: A non-FilterError escape (re-raised after the fan-out barrier).
    unexpected: Exception | None = None
    #: Device echo / generated attributes for the fold-back merge.
    supplement: dict[str, list[str]] = field(default_factory=dict)
    #: True when link fan-out undid a commit past the abort point.
    rolled_back: bool = False

    @property
    def applied(self) -> bool:
        return self.executed and self.error is None and self.unexpected is None


@dataclass
class SequenceOutcome:
    """The full result of one update sequence through the pipeline."""

    plan: UpdatePlan
    outcomes: list[DeviceOutcome] = field(default_factory=list)
    aborted: bool = False
    #: Binding index of the failure that aborted the sequence.
    abort_index: int | None = None
    #: Device names compensated by the saga policy, in compensation order.
    compensated: list[str] = field(default_factory=list)
    #: Device names rolled back past the abort point (link fan-out only).
    rolled_back: list[str] = field(default_factory=list)
    supplement: dict[str, list[str]] = field(default_factory=dict)
    supplemental_written: bool = False


class UpdateSequencePipeline:
    """Executes update sequences as explicit stages.

    The fan-out stage runs over the device links attached with
    :meth:`attach_links` when every planned binding has one, and serially
    in binding order otherwise.
    """

    def __init__(
        self,
        bindings: Iterable["DeviceBinding"],
        closure: ClosureEngine,
        ldap_filter: LdapFilter,
        error_log: ErrorLog,
        policy: FailurePolicy | None = None,
        registry: MetricsRegistry | None = None,
        compensate: Callable[[list, Trace | None], None] | None = None,
        journal=None,
        health=None,
    ):
        self.bindings = list(bindings)
        self.closure = closure
        self.ldap_filter = ldap_filter
        self.error_log = error_log
        self.policy = policy if policy is not None else FailurePolicy()
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Health-plane hooks (both optional): the event journal receives
        #: lifecycle events, the health board the per-device outcome feed.
        self.journal = journal
        self.health = health
        self._compensate = compensate
        #: Event-driven device links by binding name (see
        #: :mod:`repro.devices.links`).  The fan-out stage dispatches apply
        #: closures onto the links: one dispatcher thread overlaps every
        #: device's round-trip and coalesces ops into pipelined command
        #: streams.
        self._links: dict[str, DeviceLink] = {}
        #: The outcome of the most recent sequence (diagnostic handle).
        self.last_outcome: SequenceOutcome | None = None

        self.fanout_total = self.registry.counter(
            "metacomm_um_fanout_total",
            "Translated updates applied to device repositories",
            labelnames=("device",),
        )
        self.reapplied_total = self.registry.counter(
            "metacomm_um_reapplied_total",
            "Conditional reapplications to an update's originating device "
            "(the section-5.4 write-write consistency technique)",
            labelnames=("device",),
        )
        self.aborted_total = self.registry.counter(
            "metacomm_um_aborted_sequences_total",
            "Update sequences aborted by a repository rejection",
            labelnames=("target",),
        )
        self.supplemental_total = self.registry.counter(
            "metacomm_um_supplemental_writes_total",
            "Supplemental LDAP writes (closure-derived and "
            "device-generated attributes folded back, section 5.5)",
        )
        self.rolled_back_total = self.registry.counter(
            "metacomm_um_rolled_back_total",
            "Link fan-out rollbacks of device commits past an abort point",
            labelnames=("device",),
        )
        self.stage_seconds = self.registry.histogram(
            "metacomm_um_stage_seconds",
            "Duration of one pipeline stage of an update sequence",
            labelnames=("stage",),
        )

    # -- configuration -----------------------------------------------------------

    def attach_links(self, links: Mapping[str, DeviceLink]) -> None:
        """Route fan-out through event-driven device links.

        ``links`` maps binding names to their :class:`DeviceLink`.  A
        sequence whose planned bindings do not all have a link runs the
        serial fan-out instead (``attach_links({})`` forces it)."""
        self._links = dict(links)

    # -- stage bookkeeping --------------------------------------------------------

    @contextmanager
    def _stage(self, stage: str, trace: Trace | None, **attributes):
        start = time.perf_counter()
        try:
            with trace_span(trace, STAGE_SPANS[stage], **attributes) as span:
                yield span
        finally:
            self.stage_seconds.labels(stage=stage).observe(
                time.perf_counter() - start
            )

    # -- intake ------------------------------------------------------------------

    def intake_event(
        self, event: TriggerEvent, trace: Trace | None
    ) -> UpdateDescriptor | None:
        """Build the descriptor for an LDAP-originated update (LTAP event)."""
        with self._stage("intake", trace, origin="ldap-event"):
            return _descriptor_from_event(event)

    def intake_ddu(
        self,
        binding: "DeviceBinding",
        descriptor: UpdateDescriptor,
        trace: Trace | None,
    ) -> TargetUpdate | None:
        """Translate a direct device update for forwarding through LTAP.

        Returns ``None`` when the mapping deems the DDU irrelevant.  The
        translated update re-enters the pipeline as an LDAP event once
        LTAP has obtained the proper locks (section 4.4) — so both intake
        paths converge on :meth:`intake_event`.
        """
        with self._stage("intake", trace, origin="ddu"):
            with trace_span(trace, "ddu.translate", device=binding.name):
                update = binding.to_ldap.translate(descriptor)
        if update is None or update.action is TargetAction.SKIP:
            return None
        return update

    # -- enrich + plan ------------------------------------------------------------

    def build_plan(
        self,
        descriptor: UpdateDescriptor,
        trace: Trace | None = None,
        serial: int = 0,
    ) -> UpdatePlan:
        """Run the enrich and plan stages for one descriptor."""
        if descriptor.op is UpdateOp.DELETE:
            enriched = descriptor
        else:
            with self._stage("enrich", trace):
                enriched = self._enrich(descriptor)
        plan = UpdatePlan(
            descriptor=descriptor,
            enriched=enriched,
            serial=serial,
            base_supplement=merge_attrs({}, enriched.new or {})
            if descriptor.op is not UpdateOp.DELETE
            else {},
        )
        with self._stage("plan", trace) as span:
            for index, binding in enumerate(self.bindings):
                device_plan = self.plan_device_update(binding, enriched, index)
                if device_plan is not None:
                    plan.device_plans.append(device_plan)
            if span is not None:
                span.attributes["devices"] = len(plan.device_plans)
        if self.journal is not None:
            self.journal.emit(
                UPDATE_PLANNED,
                trace=trace,
                serial=serial,
                op=descriptor.op.value,
                key=descriptor.key,
                devices=[p.binding.name for p in plan.device_plans],
            )
        return plan

    def plan_device_update(
        self,
        binding: "DeviceBinding",
        descriptor: UpdateDescriptor,
        index: int = 0,
    ) -> DevicePlan | None:
        """Translate + partition-route one descriptor for one binding and
        capture the repository's before-image.  Returns ``None`` when the
        binding is not affected (irrelevant mapping or partition miss)."""
        update = binding.from_ldap.translate(
            descriptor,
            extra_partition=binding.partition,
            target_name=binding.name,
        )
        if update is None or update.action is TargetAction.SKIP:
            return None
        return DevicePlan(
            index=index,
            binding=binding,
            update=update,
            before=binding.filter.before_image(update),
        )

    def _enrich(self, descriptor: UpdateDescriptor) -> UpdateDescriptor:
        """Run the transitive closure; return a descriptor whose new image
        includes all derived LDAP attributes."""
        result = self.closure.propagate(
            "ldap",
            descriptor.new or {},
            changed=descriptor.changed_attributes(),
            explicit=descriptor.explicit,
        )
        merged = dict(descriptor.new or {})
        have = {n.lower() for n in merged}
        for name, values in result.image("ldap").items():
            if name.lower() not in have:
                merged[name] = values
        return replace(descriptor, new=merged)

    # -- the full sequence ---------------------------------------------------------

    def run(
        self,
        descriptor: UpdateDescriptor,
        session: Session | None,
        trace: Trace | None = None,
        serial: int = 0,
        timeout: float | None = None,
    ) -> SequenceOutcome:
        """Execute one update sequence: enrich → plan → fanout → merge →
        supplemental.  Failure policies are applied inside the fan-out
        stage; the merge and supplemental stages are skipped for aborted
        sequences and DELETE descriptors (matching section 4.4/5.5).

        ``timeout`` bounds the wait for the device links (seconds, for the
        whole fan-out); expiry raises :class:`LinkTimeout`."""
        plan = self.build_plan(descriptor, trace, serial=serial)
        outcome = SequenceOutcome(plan=plan)
        self.last_outcome = outcome

        linked = bool(self._links) and all(
            p.binding.name in self._links for p in plan.device_plans
        )
        with self._stage(
            "fanout",
            trace,
            mode="links" if linked else "serial",
            devices=len(plan.device_plans),
        ):
            if linked:
                outcomes = self._fanout_links(
                    plan.device_plans, trace, serial, timeout
                )
            else:
                outcomes = self._fanout_serial(
                    plan.device_plans, trace, serial
                )
            outcome.outcomes = outcomes
            self._raise_unexpected(outcomes)
            self._apply_failure_policy(outcome, trace)
            if outcome.aborted:
                self._rollback_past_abort(outcome, trace)
            self._count_applied(outcome)

        if outcome.aborted:
            return outcome

        with self._stage("merge", trace):
            supplement = merge_attrs({}, plan.base_supplement)
            for device_outcome in outcome.outcomes:
                if device_outcome.applied:
                    merge_attrs(supplement, device_outcome.supplement)
            outcome.supplement = supplement

        if supplement and descriptor.op is not UpdateOp.DELETE:
            dn = DN.parse(descriptor.key) if descriptor.key else None
            if dn is not None:
                with self._stage("supplemental", trace) as span:
                    wrote = self.ldap_filter.apply_supplemental(
                        dn, supplement, session
                    )
                    if span is not None:
                        span.attributes["wrote"] = wrote
                if wrote:
                    self.supplemental_total.inc()
                    outcome.supplemental_written = True
                    if self.journal is not None:
                        self.journal.emit(
                            SUPPLEMENTAL_WRITE,
                            trace=trace,
                            serial=serial,
                            key=descriptor.key,
                            attributes_written=len(supplement),
                        )
        return outcome

    # -- fan-out executors ---------------------------------------------------------

    def _fanout_serial(
        self, plans: list[DevicePlan], trace: Trace | None, serial: int = 0
    ) -> list[DeviceOutcome]:
        """The paper's discipline: one device at a time, in binding order,
        stopping at the first failure when the policy says abort."""
        outcomes = [DeviceOutcome(plan=plan) for plan in plans]
        for i, plan in enumerate(plans):
            outcomes[i] = self._apply_one(plan, trace, serial)
            if outcomes[i].unexpected is not None:
                raise outcomes[i].unexpected
            if outcomes[i].error is not None and self.policy.abort_on_failure:
                break
        return outcomes

    def _fanout_links(
        self,
        plans: list[DevicePlan],
        trace: Trace | None,
        serial: int = 0,
        timeout: float | None = None,
    ) -> list[DeviceOutcome]:
        """Event-driven fan-out: each plan's apply closure is queued on its
        device link, where the dispatcher coalesces it with other
        sequences' ops for the same device into one pipelined command
        stream.  The barrier (awaiting every future) still runs before any
        failure policy, so the policy replay — and therefore error-log and
        saga-compensation order — is identical to the serial path.

        Optimistic with respect to failures: every plan is applied, and a
        commit past an abort point is undone afterwards by
        :meth:`_rollback_past_abort`.  The barrier waits at most
        ``timeout`` seconds in total; on expiry the ops not yet started
        are cancelled and :class:`LinkTimeout` is raised."""
        futures = [
            self._links[plan.binding.name].submit(
                lambda p=plan: self._apply_one(p, trace, serial),
                op=plan.update.action.value,
                key=str(plan.update.key),
            )
            for plan in plans
        ]
        deadline = None if timeout is None else time.monotonic() + timeout
        outcomes: list[DeviceOutcome] = []
        for plan, future in zip(plans, futures):
            left = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            try:
                outcomes.append(future.result(timeout=left))
            except FutureTimeout:
                for pending in futures:
                    pending.cancel()
                raise LinkTimeout(
                    f"{plan.binding.name}: no link completion for "
                    f"{plan.update.action.value} key={plan.update.key} "
                    f"within {timeout}s"
                ) from None
        return outcomes

    def _apply_one(
        self, plan: DevicePlan, trace: Trace | None, serial: int = 0
    ) -> DeviceOutcome:
        """Apply one planned update at its repository (link op body).

        Also the health plane's **outcome feed**: every attempt emits a
        ``device.attempt`` then a ``device.commit``/``device.failure``
        journal event, and the timed outcome lands on the health board
        (which owns the error window, streak and derived state)."""
        outcome = DeviceOutcome(plan=plan, executed=True)
        binding, update = plan.binding, plan.update
        if self.journal is not None:
            self.journal.emit(
                DEVICE_ATTEMPT,
                trace=trace,
                serial=serial,
                device=binding.name,
                action=update.action.value,
                key=update.key,
                conditional=update.conditional,
            )
        started = time.perf_counter()
        with trace_span(
            trace,
            "filter.apply",
            device=binding.name,
            conditional=update.conditional,
        ) as span:
            try:
                result = binding.filter.apply(update)
            except FilterError as exc:
                if span is not None:
                    span.attributes["error"] = exc.message
                outcome.error = exc
                self._note_outcome(outcome, trace, serial, started)
                return outcome
            except Exception as exc:  # re-raised after the barrier
                outcome.unexpected = exc
                self._note_outcome(outcome, trace, serial, started)
                return outcome
        outcome.result = result
        self._note_outcome(outcome, trace, serial, started)
        if update.key is not None and (
            update.action is TargetAction.ADD or result.recovered
        ):
            # A record was (re)created at the device: echo its full
            # view — defaults, truncations, generated ids — back to
            # the directory so both sides agree (section 5.5).
            outcome.supplement = self._echo_supplement(binding, update.key)
        elif result.generated and update.key is not None:
            outcome.supplement = self._generated_supplement(
                binding, update.key, result.generated
            )
        return outcome

    def _note_outcome(
        self,
        outcome: DeviceOutcome,
        trace: Trace | None,
        serial: int,
        started: float,
    ) -> None:
        """Publish one apply outcome to the journal and the health board."""
        elapsed = time.perf_counter() - started
        name = outcome.plan.binding.name
        ok = outcome.applied
        if self.journal is not None:
            if ok:
                self.journal.emit(
                    DEVICE_COMMIT,
                    trace=trace,
                    serial=serial,
                    device=name,
                    key=outcome.plan.update.key,
                    duration=round(elapsed, 6),
                )
            else:
                error = outcome.error
                message = (
                    error.message
                    if error is not None
                    else str(outcome.unexpected)
                )
                self.journal.emit(
                    DEVICE_FAILURE,
                    trace=trace,
                    serial=serial,
                    device=name,
                    key=outcome.plan.update.key,
                    error=message,
                    duration=round(elapsed, 6),
                )
        if self.health is not None:
            self.health.record_outcome(name, elapsed, ok)
            if ok and serial:
                self.health.note_applied(name, serial)

    def _count_applied(self, outcome: SequenceOutcome) -> None:
        """Account the fan-out counters once the sequence's fate is known.

        Counting after the policy pass (instead of inside the applies)
        keeps the totals identical over links and serially: a
        speculative commit that was rolled back past an abort point never
        counts as fanned out — it shows up in ``rolled_back_total``."""
        for device_outcome in outcome.outcomes:
            if not device_outcome.applied or device_outcome.rolled_back:
                continue
            name = device_outcome.plan.binding.name
            self.fanout_total.labels(device=name).inc()
            if device_outcome.plan.update.conditional:
                self.reapplied_total.labels(device=name).inc()

    def _raise_unexpected(self, outcomes: list[DeviceOutcome]) -> None:
        for outcome in outcomes:
            if outcome.unexpected is not None:
                raise outcome.unexpected

    # -- failure policies ----------------------------------------------------------

    def _apply_failure_policy(
        self, outcome: SequenceOutcome, trace: Trace | None
    ) -> None:
        """Replay the fan-out outcomes in binding order, producing exactly
        the error-log records, abort decision and saga compensations that
        serial execution interleaves with its applies.  Deterministic by
        construction: the replay order is the binding order, regardless of
        the order in which concurrent applies actually finished."""
        applied: list[tuple] = []
        for device_outcome in outcome.outcomes:
            if not device_outcome.executed:
                continue
            plan = device_outcome.plan
            if device_outcome.error is None:
                applied.append((plan.binding, plan.update, plan.before))
                continue
            exc = device_outcome.error
            self.aborted_total.labels(target=plan.binding.name).inc()
            self.error_log.record(
                target=plan.binding.name,
                message=exc.message,
                context=(
                    f"update serial={outcome.plan.serial} key={plan.update.key}"
                ),
            )
            if self.policy.undo_on_failure:
                outcome.compensated.extend(
                    binding.name for binding, _, _ in reversed(applied)
                )
                if self._compensate is not None:
                    self._compensate(applied, trace)
            if self.policy.abort_on_failure:
                outcome.aborted = True
                outcome.abort_index = plan.index
                if self.journal is not None:
                    self.journal.emit(
                        SEQUENCE_ABORTED,
                        trace=trace,
                        serial=outcome.plan.serial,
                        device=plan.binding.name,
                        error=exc.message,
                    )
                break

    def _rollback_past_abort(
        self, outcome: SequenceOutcome, trace: Trace | None
    ) -> None:
        """Undo commits past the abort point (link fan-out only).

        On the serial path a device past the failure is simply never
        reached; over the links it may already have committed before the
        policy replay discovered the abort.  Restoring those repositories
        to their before-images re-establishes the serial post-abort state.
        Distinct from saga compensation: this is an artifact of optimistic
        fan-out, counted separately and applied in reverse binding order."""
        if outcome.abort_index is None:
            return
        late = [
            device_outcome
            for device_outcome in outcome.outcomes
            if device_outcome.applied
            and device_outcome.plan.index > outcome.abort_index
        ]
        for device_outcome in reversed(late):
            plan = device_outcome.plan
            try:
                with trace_span(trace, "filter.rollback", device=plan.binding.name):
                    plan.binding.filter.compensate(plan.update, plan.before)
                device_outcome.rolled_back = True
                outcome.rolled_back.append(plan.binding.name)
                self.rolled_back_total.labels(device=plan.binding.name).inc()
                if self.journal is not None:
                    self.journal.emit(
                        DEVICE_ROLLBACK,
                        trace=trace,
                        serial=outcome.plan.serial,
                        device=plan.binding.name,
                        key=plan.update.key,
                    )
            except Exception as exc:  # rollback is best-effort
                self.error_log.record(
                    target=plan.binding.name,
                    message=f"rollback failed: {exc}",
                    context=(
                        f"undo of {plan.update.action.value} "
                        f"key={plan.update.key} past abort point"
                    ),
                )

    # -- fold-back supplements -------------------------------------------------------

    def _echo_supplement(
        self, binding: "DeviceBinding", key: str
    ) -> dict[str, list[str]]:
        """The device's committed view of a freshly created record, mapped
        back into LDAP attributes (excluding the Originator stamp, which
        must reflect who really made the update)."""
        record = binding.filter.fetch(key)
        if record is None:
            return {}
        image = binding.to_ldap.image(record) or {}
        return {
            name: values
            for name, values in image.items()
            if name.lower() != "lastupdater"
        }

    def _generated_supplement(
        self,
        binding: "DeviceBinding",
        key: str,
        generated: dict[str, list[str]],
    ) -> dict[str, list[str]]:
        """Fold device-generated information back toward LDAP (section 5.5).

        Only attributes that *derive from* the generated fields are folded
        back: the full committed record is mapped once with and once
        without those fields, and the difference is the supplement."""
        record = binding.filter.fetch(key)
        if record is None:
            return {}
        without = {
            name: values
            for name, values in record.items()
            if name.lower() not in {g.lower() for g in generated}
        }
        image_full = binding.to_ldap.image(record) or {}
        image_without = binding.to_ldap.image(without) or {}
        out: dict[str, list[str]] = {}
        for name, values in image_full.items():
            if image_without.get(name) != values:
                out[name] = values
        return out


def _descriptor_from_event(event: TriggerEvent) -> UpdateDescriptor | None:
    """The LDAP-event half of intake: one trigger event → one descriptor."""
    origin = str(event.session.state.get("metacomm.origin", "ldap"))
    before = event.before.attributes.to_dict() if event.before else None
    after = event.after.attributes.to_dict() if event.after else None
    if event.change_type is ChangeType.ADD:
        op = UpdateOp.ADD
    elif event.change_type is ChangeType.DELETE:
        op = UpdateOp.DELETE
    else:
        op = UpdateOp.MODIFY
        if before is None or after is None:
            return None
    key = str(event.after.dn if event.after is not None else event.dn)
    explicit: set[str] = set()
    if before is not None and after is not None:
        names = {n.lower() for n in before} | {n.lower() for n in after}
        for name in names:
            if _get(before, name) != _get(after, name):
                explicit.add(name)
    elif after is not None:
        explicit = {n.lower() for n in after}
    # Stamp the update's source so the Originator machinery (section
    # 5.4) sees who really made this change, not a stale value.
    if after is not None:
        after = dict(after)
        for name in list(after):
            if name.lower() == "lastupdater":
                del after[name]
        after["lastUpdater"] = [origin]
    return UpdateDescriptor(
        op=op,
        source="ldap",
        key=key,
        old=before,
        new=after,
        explicit=frozenset(explicit),
        origin=origin,
    )


def _get(attrs: dict[str, list[str]] | None, name: str) -> list[str]:
    if not attrs:
        return []
    for key, values in attrs.items():
        if key.lower() == name:
            return list(values)
    return []
