"""Per-layer spans for the traced benchmark run.

The traced run wraps public functions of each layer, from this file,
for the length of one measured phase; nothing in ``src/`` changes.
Every wrapped call records a span: name, request id, thread, wall time
(``perf_counter``) and thread CPU (``thread_time``), plus the wall and
CPU of the measured spans nested directly inside it on the same thread,
so each span's *self* time is its duration minus its children.

Request ids follow one update across threads: the id is stamped into
the LDAP session at ``LtapGateway.process`` (the session is what LTAP
hands to the Update Manager), read back at ``UpdateSequencePipeline.run``
on whichever lane thread runs the sequence, and carried by the callable
handed to ``DeviceLink.submit`` onto the link dispatcher thread.

A target that no longer exists (a class or method removed by a later
refactor) is skipped; the metrics that need it are reported absent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time

_REQUEST_KEY = "perfbench.request"

_WRITE_REQUESTS = ("AddRequest", "DeleteRequest", "ModifyRequest", "ModifyRdnRequest")


def _request_kind(request) -> str:
    name = type(request).__name__
    if name == "SearchRequest":
        return "search"
    return "write" if name in _WRITE_REQUESTS else "other"


class Recorder:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.link_waits: list[float] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._installed: list[tuple[object, str, object]] = []

    # -- thread context ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self) -> int | None:
        return getattr(self._local, "request", None)

    @request.setter
    def request(self, value: int | None) -> None:
        self._local.request = value

    def new_request(self) -> int:
        return next(self._ids)

    # -- spans ---------------------------------------------------------------------

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside one span called ``name``."""
        stack = self._stack()
        frame = [name, 0.0, 0.0]
        stack.append(frame)
        w0 = time.perf_counter()
        c0 = time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - w0
            cpu = time.thread_time() - c0
            stack.pop()
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[1] += wall
                parent[2] += cpu
            self.spans.append(
                (
                    name,
                    self.request,
                    threading.get_ident(),
                    parent[0] if parent is not None else None,
                    wall,
                    cpu,
                    frame[1],
                    frame[2],
                )
            )

    def count(self, name: str, amount: int = 1) -> None:
        with self._count_lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    # -- installation --------------------------------------------------------------

    def _patch(self, module: str, owner: str, attr: str, make) -> bool:
        try:
            cls = getattr(importlib.import_module(module), owner)
            original = cls.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            self.absent.append(f"{module}.{owner}.{attr}")
            return False
        setattr(cls, attr, functools.wraps(original)(make(original)))
        self._installed.append((cls, attr, original))
        return True

    def span(self, module: str, owner: str, attr: str, name) -> bool:
        """Wrap ``owner.attr`` in a span; ``name`` may be a function of the
        call's ``(args, kwargs)`` returning the span name."""
        namer = name if callable(name) else (lambda args, kwargs: name)

        def make(original):
            def wrapper(*args, **kwargs):
                return self.timed(namer(args, kwargs), original, *args, **kwargs)

            return wrapper

        return self._patch(module, owner, attr, make)

    def counter(self, module: str, owner: str, attr: str, name: str) -> bool:
        def make(original):
            def wrapper(*args, **kwargs):
                self.count(name)
                return original(*args, **kwargs)

            return wrapper

        return self._patch(module, owner, attr, make)

    def install(self) -> dict[str, bool]:
        """Wrap every layer boundary; returns which targets exist."""
        have: dict[str, bool] = {}
        recorder = self

        def gateway(original):
            def process(gateway, request, session=None, *args, **kwargs):
                kind = _request_kind(request)
                if kind == "search":
                    return recorder.timed(
                        "ltap.read", original, gateway, request, session,
                        *args, **kwargs,
                    )
                if session is not None:
                    rid = session.state.get(_REQUEST_KEY)
                    if rid is None:
                        rid = recorder.request or recorder.new_request()
                        session.state[_REQUEST_KEY] = rid
                else:
                    rid = recorder.request or recorder.new_request()
                outer = recorder.request
                recorder.request = rid
                try:
                    return recorder.timed(
                        "ltap.process", original, gateway, request, session,
                        *args, **kwargs,
                    )
                finally:
                    recorder.request = outer

            return process

        have["ltap.process"] = self._patch(
            "repro.ltap.gateway", "LtapGateway", "process", gateway
        )
        have["ltap.lock"] = self.span(
            "repro.ltap.locks", "LockManager", "acquire", "ltap.lock_wait"
        )
        have["ltap.fire"] = self.span(
            "repro.ltap.triggers",
            "TriggerRegistry",
            "fire",
            lambda args, kwargs: "ltap.fire."
            + getattr(getattr(args[1], "timing", None), "name", "other").lower(),
        )
        have["ldap.process"] = self.span(
            "repro.ldap.server",
            "LdapServer",
            "process",
            lambda args, kwargs: "ldap." + _request_kind(args[1]),
        )
        have["queue.wait"] = any(
            [
                self.span(
                    "repro.core.queue", "GlobalUpdateQueue", "dequeue", "queue.wait"
                ),
                self.span(
                    "repro.core.queue", "ShardedUpdateQueue", "wait_turn", "queue.wait"
                ),
            ]
        )

        def pipeline_run(original):
            def run(pipeline, descriptor, session=None, *args, **kwargs):
                outer = recorder.request
                if session is not None:
                    recorder.request = session.state.get(_REQUEST_KEY, outer)
                try:
                    return recorder.timed(
                        "pipeline.run", original, pipeline, descriptor, session,
                        *args, **kwargs,
                    )
                finally:
                    recorder.request = outer

            return run

        have["pipeline.run"] = self._patch(
            "repro.core.pipeline", "UpdateSequencePipeline", "run", pipeline_run
        )
        have["pipeline.plan"] = self.span(
            "repro.core.pipeline", "UpdateSequencePipeline", "build_plan",
            "pipeline.plan",
        )
        have["lexpress.enrich"] = self.span(
            "repro.lexpress.closure", "ClosureEngine", "propagate",
            "lexpress.enrich",
        )
        have["lexpress.translate"] = self.span(
            "repro.lexpress.mapping", "CompiledMapping", "translate",
            "lexpress.translate",
        )
        have["filters.device"] = self.span(
            "repro.core.filters.device_filter", "DeviceFilter", "apply",
            "filters.device",
        )
        have["filters.before_image"] = self.span(
            "repro.core.filters.base", "Filter", "before_image",
            "filters.before_image",
        )
        have["filters.supplemental"] = self.span(
            "repro.core.filters.ldap_filter", "LdapFilter", "apply_supplemental",
            "filters.supplemental",
        )
        have["filters.ddu_forward"] = self.span(
            "repro.core.filters.ldap_filter", "LdapFilter", "forward_ddu",
            "filters.ddu_forward",
        )
        have["devices.op"] = all(
            [
                self.span("repro.devices.base", "Device", op, "devices.op")
                for op in ("add", "modify", "delete")
            ]
        )

        def link_submit(original):
            def submit(link, fn, *args, **kwargs):
                rid = recorder.request
                submitted = time.perf_counter()
                ran = [0.0]

                def traced():
                    outer = recorder.request
                    recorder.request = rid
                    start = time.perf_counter()
                    try:
                        return recorder.timed("links.op", fn)
                    finally:
                        ran[0] = time.perf_counter() - start
                        recorder.request = outer

                future = recorder.timed(
                    "links.submit", original, link, traced, *args, **kwargs
                )
                future.add_done_callback(
                    lambda _f: recorder.link_waits.append(
                        time.perf_counter() - submitted - ran[0]
                    )
                )
                return future

            return submit

        have["links.submit"] = self._patch(
            "repro.devices.links", "DeviceLink", "submit", link_submit
        )
        have["obs.spans"] = all(
            [
                self.counter("repro.obs.trace", "Trace", "span", "obs.spans"),
                self.counter("repro.obs.trace", "Trace", "record", "obs.spans"),
            ]
        )
        return have

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._installed):
            setattr(cls, attr, original)
        self._installed.clear()

    # -- aggregation -----------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: count, wall, cpu, self wall and self cpu (s)."""
        out: dict[str, dict[str, float]] = {}
        for name, _rid, _tid, _parent, wall, cpu, cwall, ccpu in self.spans:
            row = out.setdefault(
                name, {"count": 0, "wall": 0.0, "cpu": 0.0, "self": 0.0, "self_cpu": 0.0}
            )
            row["count"] += 1
            row["wall"] += wall
            row["cpu"] += cpu
            row["self"] += wall - cwall
            row["self_cpu"] += cpu - ccpu
        return out

    def run_cpu_under(self, parent: str) -> float:
        """CPU of ``pipeline.run`` spans nested directly in ``parent``."""
        return sum(
            span[5]
            for span in self.spans
            if span[0] == "pipeline.run" and span[3] == parent
        )
