"""MetaComm update-path benchmark.

Runs one workload against a freshly built MetaComm deployment (four PBXes
with extension prefixes 41-44 plus the messaging platform, compiled
lexpress rules, event-driven device links, observability on) and prints
its metrics::

    python3 perfbench/run.py --workload admin-1ms --seed 1 --seconds 30 --trace 0

Each step of a client's closed loop is a point read (a search by
extension through LTAP) followed by one update: an LDAP modify, add,
delete or rename, or a direct device update (DDU) typed on a PBX craft
terminal.  After the measured phase every repository is compared with
the state the generated operations imply, and ``consistent()`` runs.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same workload once untraced and once with spans around each layer's
public functions (``layers.py``) and reports the per-layer metrics.
The last line of standard output is one JSON object.  The exit code is
0 only when every operation and every output check succeeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import faulthandler
import gc
import json
import math
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

try:
    from repro import lexpress
    from repro.core import MetaComm, MetaCommConfig, PbxConfig
    from repro.ldap.protocol import Modification
    from repro.schemas import PERSON_CLASSES
except ImportError as exc:  # run outside a checkout of the repository
    sys.exit(f"perfbench: cannot import the MetaComm sources: {exc}")

import model
from layers import Recorder

#: Hard cap on one benchmark process; expiry dumps every thread's stack.
PROCESS_DEADLINE_S = 175.0
#: How long ``MetaComm.close()`` may take before the run counts as hung.
CLOSE_DEADLINE_S = 20.0
#: How long clients may overrun the measured phase before counting as hung.
CLIENT_GRACE_S = 30.0
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Where traced runs write their spans (JSON lines, one span each).
SPANS_DIR = HERE.parent / ".perfbench"
#: Craft-channel commands per blocking op, as in ``BENCH_links.json``.
PBX_COMMANDS = 2
MESSAGING_COMMANDS = 3
#: Stream length per client and measured second: far above any rate seen,
#: so a client never runs out of generated operations.
STREAM_RATE = 1500


@dataclass(frozen=True)
class Workload:
    name: str
    clients: int
    coordinator_lanes: int
    #: Seconds per craft-channel command on every device link (0: none).
    link_latency: float
    #: Run the Update Manager's coordinator lanes on their own threads.
    start_lanes: bool
    #: Warm-up operations per client (part of set-up).
    warmup: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("admin-1ms", clients=1, coordinator_lanes=1, link_latency=0.001,
                 start_lanes=False, warmup=200),
        Workload("fleet-2ms", clients=2, coordinator_lanes=2, link_latency=0.002,
                 start_lanes=True, warmup=150),
    )
}


# -- deployment ------------------------------------------------------------------------


def build_config(workload: Workload, observability: bool = True):
    """The aim-2 deployment; returns the config and the fields it skipped
    because this version of ``MetaCommConfig`` no longer has them."""
    wanted = {
        "pbxes": [PbxConfig(f"pbx-{p}", (p,)) for p in model.PREFIXES],
        "messaging_name": "messaging",
        "phone_prefix": model.PHONE_PREFIX,
        "lexpress_mode": "compiled",
        "device_links": True,
        "coordinator_lanes": workload.coordinator_lanes,
    }
    if not observability:
        wanted["observability"] = False
    names = {f.name for f in dataclasses.fields(MetaCommConfig)}
    skipped = sorted(k for k in wanted if k not in names)
    return MetaCommConfig(**{k: v for k, v in wanted.items() if k in names}), skipped


def close_bounded(system, problems: list[str]) -> None:
    """Close ``system`` within ``CLOSE_DEADLINE_S``; on expiry dump every
    thread's stack and record the hang in ``problems``."""
    errors: list[BaseException] = []

    def close() -> None:
        try:
            system.close()
        except BaseException as exc:  # reported below, never swallowed
            errors.append(exc)

    closer = threading.Thread(target=close, name="perfbench-close", daemon=True)
    closer.start()
    closer.join(CLOSE_DEADLINE_S)
    if closer.is_alive():
        print(f"perfbench: close() still running after {CLOSE_DEADLINE_S}s; "
              "thread stacks follow", file=sys.stderr)
        faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
        problems.append("close() hung past its deadline")
    elif errors:
        problems.append(f"close() raised {errors[0]!r}")


# -- clients ---------------------------------------------------------------------------


@dataclass
class ClientResult:
    """One client's counts and latency samples (seconds)."""

    executed: int = 0
    reads: int = 0
    updates: int = 0
    writes: list[float] = field(default_factory=list)
    ddus: list[float] = field(default_factory=list)
    read_latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def _read_matches(entries, expected: model.Person | None) -> bool:
    if expected is None:
        return not entries
    if len(entries) != 1:
        return False
    entry = entries[0]
    return all(
        entry.get(name) == values
        for name, values in expected.directory_view().items()
    )


def run_client(system, ops: list[model.Op], deadline: float | None,
               result: ClientResult) -> None:
    conn = system.connection()
    terminals = {}
    perf = time.perf_counter
    for op in ops:
        if deadline is not None and time.monotonic() >= deadline:
            return
        result.reads += 1
        start = perf()
        try:
            entries = conn.search(
                model.SUFFIX, filter=f"(definityExtension={op.read_ext})"
            )
        except Exception as exc:
            result.failures.append(f"read {op.read_ext}: {exc!r}")
        else:
            result.read_latencies.append(perf() - start)
            if not _read_matches(entries, op.before):
                result.failures.append(f"read {op.read_ext}: stale or wrong entry")
        result.updates += 1
        result.executed += 1
        kind, before, after = op.kind, op.before, op.after
        start = perf()
        try:
            if kind == "ddu":
                pbx = f"pbx-{op.read_ext[:2]}"
                terminal = terminals.get(pbx) or terminals.setdefault(
                    pbx, system.terminal(pbx)
                )
                fields = " ".join(f"{name} {value}" for name, value in op.changes)
                response = terminal.execute(f"change station {before.ext} {fields}")
                if not response.ok:
                    raise RuntimeError(response.text)
            elif kind == "modify":
                conn.modify(
                    before.dn,
                    [Modification.replace(model.LDAP_FIELDS[name], value)
                     for name, value in op.changes],
                )
            elif kind == "add":
                conn.add(after.dn, after.ldap_add_attributes(PERSON_CLASSES))
            elif kind == "delete":
                conn.delete(before.dn)
            else:
                conn.modify_rdn(before.dn, f"cn={after.cn}")
        except Exception as exc:
            result.failures.append(f"{kind} {op.read_ext}: {exc!r}")
            continue
        (result.ddus if kind == "ddu" else result.writes).append(perf() - start)


@dataclass
class Phase:
    results: list[ClientResult]
    elapsed: float
    cpu: float
    hung: bool

    @property
    def updates(self) -> int:
        return sum(r.updates for r in self.results)

    @property
    def failures(self) -> list[str]:
        return [f for r in self.results for f in r.failures]

    def merged(self, attr: str) -> list[float]:
        return sorted(x for r in self.results for x in getattr(r, attr))


def run_phase(system, op_lists: list[list[model.Op]],
              seconds: float | None) -> Phase:
    """Run each client's ops in its own thread until they or ``seconds``
    run out."""
    results = [ClientResult() for _ in op_lists]
    deadline = None if seconds is None else time.monotonic() + seconds
    threads = [
        threading.Thread(
            target=run_client,
            args=(system, ops, deadline, result),
            name=f"perfbench-client-{i}",
            daemon=True,
        )
        for i, (ops, result) in enumerate(zip(op_lists, results))
    ]
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for thread in threads:
        thread.start()
    limit = time.monotonic() + (seconds or 60.0) + CLIENT_GRACE_S
    for thread in threads:
        thread.join(max(0.0, limit - time.monotonic()))
    elapsed = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    hung = any(thread.is_alive() for thread in threads)
    if hung:
        print("perfbench: a client is still running past its deadline; "
              "thread stacks follow", file=sys.stderr)
        faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
    return Phase(results, elapsed, cpu, hung)


def set_up(workload: Workload, population: model.Population,
           streams: list[list[model.Op]], observability: bool = True):
    """Build the deployment, preload the population through LTAP and run
    the warm-up ops; returns ``(system, seconds, warm-up phase)``."""
    config, _skipped = build_config(workload, observability)
    start = time.perf_counter()
    system = MetaComm(config)
    conn = system.connection()
    for person in population.preload_order():
        conn.add(person.dn, person.ldap_add_attributes(PERSON_CLASSES))
    if workload.link_latency > 0:
        devices = [(pbx, PBX_COMMANDS) for pbx in system.pbxes.values()]
        devices.append((system.messaging, MESSAGING_COMMANDS))
        for device, commands in devices:
            device.link_latency = workload.link_latency
            device.link_serial = True
            device.link_commands = commands
    if workload.start_lanes:
        system.um.start()
    warmup = run_phase(system, [ops[:workload.warmup] for ops in streams], None)
    return system, time.perf_counter() - start, warmup


# -- output check ---------------------------------------------------------------------


def check_outputs(system, expected: dict[int, model.Person]) -> list[str]:
    """Compare the directory, every PBX and the messaging platform with
    the expected state, then run the system's own ``consistent()``."""
    problems: list[str] = []
    by_ext = {p.ext: p for p in expected.values()}
    seen: set[str] = set()
    for entry in system.connection().search(
        model.SUFFIX, filter="(objectClass=person)"
    ):
        ext = (entry.get("definityExtension") or [None])[0]
        person = by_ext.get(ext)
        if person is None:
            problems.append(f"directory: unexpected entry {entry.dn}")
            continue
        seen.add(ext)
        for name, values in person.directory_view().items():
            if entry.get(name) != values:
                problems.append(
                    f"directory: {entry.dn}: {name}={entry.get(name)} "
                    f"expected {values}"
                )
                break
    problems.extend(
        f"directory: missing {by_ext[ext].dn}" for ext in sorted(set(by_ext) - seen)
    )

    def compare(device, key_field: str, want: dict[str, dict[str, str]]) -> None:
        have = {record[key_field]: record for record in device.dump()}
        for key in sorted(set(have) | set(want)):
            record, view = have.get(key), want.get(key)
            if record is None:
                problems.append(f"{device.name}: missing {key}")
            elif view is None:
                problems.append(f"{device.name}: unexpected record {key}")
            elif any(record.get(k) != v for k, v in view.items()):
                problems.append(f"{device.name}: {key}: {record} expected {view}")

    for prefix in model.PREFIXES:
        compare(
            system.pbx(f"pbx-{prefix}"),
            "Extension",
            {p.ext: p.pbx_view() for p in expected.values() if p.ext[:2] == prefix},
        )
    compare(
        system.messaging,
        "TelephoneNumber",
        {p.phone: p.mp_view() for p in expected.values()},
    )
    inconsistencies = system.inconsistencies()
    if inconsistencies:
        problems.append(
            f"consistent() is False: {len(inconsistencies)} findings, first "
            f"{inconsistencies[0]}"
        )
    return problems


# -- metrics ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted ``values`` and how many samples
    lie beyond it."""
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    return values[rank - 1], len(values) - rank


def rss_mb() -> float:
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


PERCENTILES = (
    ("write", "writes", (50, 75)),
    ("ddu", "ddus", (50, 75)),
    ("read", "read_latencies", (50, 95)),
)


def end_to_end(phase: Phase, setups: list[float], notes: list[str]) -> dict:
    """The end-to-end metrics of the measured phase, pooled over all of it.

    A full collection of the cyclic garbage collector stalls the process
    for about a quarter of a second once every few seconds.  Pooled over
    the whole phase, that cost is counted the same way in every run."""
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_s": (phase.updates / phase.elapsed, "ops/s"),
        "cpu_ms_per_op": (1000.0 * phase.cpu / max(1, phase.updates), "ms"),
    }
    for label, attr, quantiles in PERCENTILES:
        samples = phase.merged(attr)
        beyond = []
        for q in quantiles:
            if samples:
                value, count = percentile(samples, q)
                metrics[f"{label}_p{q}_ms"] = (1000.0 * value, "ms")
                beyond.append(f"p{q}: {count}")
                if count < 10:
                    notes.append(f"{label}: fewer than 10 samples beyond p{q}")
        notes.append(f"{label} samples: {len(samples)}; beyond {', '.join(beyond)}")
    metrics["rss_mb"] = (rss_mb(), "MB")
    return metrics


def _per_op(total: float, updates: int, scale: float = 1.0) -> float:
    return scale * total / max(1, updates)


def per_layer(recorder: Recorder, have: dict[str, bool], traced: Phase,
              untraced: Phase, obs_off: Phase | None, deltas: dict) -> dict:
    """Per-layer metrics of the traced phase, per update unless noted."""
    totals = recorder.totals()
    updates = traced.updates
    empty = {"count": 0, "wall": 0.0, "cpu": 0.0, "self": 0.0, "self_cpu": 0.0}

    def span(name: str) -> dict:
        return totals.get(name, empty)

    def ms(name: str, key: str) -> float:
        return _per_op(span(name)[key], updates, 1000.0)

    out: dict[str, tuple[tuple[str, ...], float, str]] = {}

    def timed(metric: str, needs: tuple[str, ...], name: str, wall: str = "wall",
              cpu: str = "cpu") -> None:
        out[f"{metric}_ms"] = (needs, ms(name, wall), "ms")
        out[f"{metric}_cpu_ms"] = (needs, ms(name, cpu), "ms")

    timed("ltap.self", ("ltap.process",), "ltap.process", "self", "self_cpu")
    timed("ltap.lock_wait", ("ltap.lock",), "ltap.lock_wait")
    timed("ldap.write", ("ldap.process",), "ldap.write")
    timed("ldap.search", ("ldap.process",), "ldap.search")
    requests = sum(span(f"ldap.{k}")["count"] for k in ("write", "search", "other"))
    out["ldap.requests_per_op"] = (
        ("ldap.process",), _per_op(requests, updates), "count"
    )
    out["ldap.changelog_per_op"] = ((), _per_op(deltas["changelog"], updates), "count")
    timed("queue.wait", ("queue.wait",), "queue.wait")
    out["queue.serial_ratio"] = ((), deltas["serial_ratio"], "ratio")
    handoff_needs = ("ltap.fire", "pipeline.run")
    out["um.handoff_ms"] = (
        handoff_needs,
        _per_op(span("ltap.fire.after")["wall"] - span("pipeline.run")["wall"],
                updates, 1000.0),
        "ms",
    )
    out["um.handoff_cpu_ms"] = (
        handoff_needs,
        _per_op(span("ltap.fire.after")["cpu"]
                - recorder.run_cpu_under("ltap.fire.after"), updates, 1000.0),
        "ms",
    )
    timed("pipeline.run", ("pipeline.run",), "pipeline.run")
    timed("pipeline.plan", ("pipeline.plan",), "pipeline.plan")
    timed("pipeline.self", ("pipeline.run",), "pipeline.run", "self", "self_cpu")
    timed("lexpress.enrich", ("lexpress.enrich",), "lexpress.enrich")
    timed("lexpress.translate", ("lexpress.translate",), "lexpress.translate")
    out["lexpress.translate_per_op"] = (
        ("lexpress.translate",),
        _per_op(span("lexpress.translate")["count"], updates),
        "count",
    )
    out["lexpress.cache_lookups_per_op"] = (
        (), _per_op(deltas["cache_lookups"], updates), "count"
    )
    timed("filters.device_self", ("filters.device",), "filters.device", "self",
          "self_cpu")
    timed("filters.before_image", ("filters.before_image",), "filters.before_image")
    timed("filters.supplemental", ("filters.supplemental",), "filters.supplemental")
    timed("filters.ddu_forward", ("filters.ddu_forward",), "filters.ddu_forward")
    timed("devices.op", ("devices.op",), "devices.op", "self", "self_cpu")
    out["devices.ops_per_op"] = (
        ("devices.op",), _per_op(span("devices.op")["count"], updates), "count"
    )
    out["links.wait_ms"] = (
        ("links.submit",), _per_op(sum(recorder.link_waits), updates, 1000.0), "ms"
    )
    out["links.wait_cpu_ms"] = (("links.submit",), ms("links.submit", "cpu"), "ms")
    out["links.ops_per_flush"] = ((), deltas["ops_per_flush"], "count")
    out["obs.events_per_op"] = (
        (), _per_op(recorder.counts.get("obs.events", 0), updates), "count"
    )
    out["obs.spans_per_op"] = (
        ("obs.spans",), _per_op(recorder.counts.get("obs.spans", 0), updates), "count"
    )
    if obs_off is not None:
        share = 1.0 - (obs_off.cpu / max(1, obs_off.updates)) / (
            untraced.cpu / max(1, untraced.updates)
        )
        out["obs.share"] = ((), share, "ratio")
    out["trace.overhead"] = (
        (),
        (traced.updates / traced.elapsed) / (untraced.updates / untraced.elapsed),
        "ratio",
    )
    return {
        name: (value, unit)
        for name, (needs, value, unit) in out.items()
        if all(have.get(n, False) for n in needs)
    }


def _layer_counters(system) -> dict:
    stats = lexpress.rule_cache().stats()
    queue_stats = dict(system.um.queue.statistics)
    links = system.links.snapshot() if system.links is not None else []
    return {
        "changelog": len(system.server.backend.changelog),
        "cache_lookups": stats["hits"] + stats["misses"],
        "processed": queue_stats.get("processed", 0),
        # A single global queue serializes every update.
        "serial": queue_stats.get("serial_routed", queue_stats.get("processed", 0)),
        "ops": sum(row["completed"] + row["failed"] for row in links),
        "flushes": sum(row["flushes"] for row in links),
    }


def _deltas(before: dict, after: dict) -> dict:
    d = {k: after[k] - before[k] for k in before}
    return {
        "changelog": d["changelog"],
        "cache_lookups": d["cache_lookups"],
        "serial_ratio": d["serial"] / d["processed"] if d["processed"] else 0.0,
        "ops_per_flush": d["ops"] / d["flushes"] if d["flushes"] else 0.0,
    }


# -- runs ------------------------------------------------------------------------------


class Run:
    """One benchmark invocation: its inputs, failures and notes."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 people_per_pbx: int = model.PEOPLE_PER_PBX):
        self.workload = workload
        self.population = model.Population(seed, people_per_pbx)
        self.streams = model.make_streams(
            seed, self.population, workload.clients,
            workload.warmup + int(STREAM_RATE * seconds),
        )
        self.attempted = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        _config, skipped = build_config(workload)
        if skipped:
            self.notes.append(f"MetaCommConfig fields skipped: {', '.join(skipped)}")

    @property
    def failed_ratio(self) -> float:
        return len(self.problems) / max(1, self.attempted)

    def result(self, metrics: dict) -> dict:
        """The benchmark's closing JSON object."""
        return {
            "correct": not self.problems,
            "attempted": max(1, self.attempted),
            "failed": len(self.problems),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }

    def account(self, phase: Phase) -> None:
        self.attempted += sum(r.reads + r.updates for r in phase.results)
        self.problems.extend(phase.failures)
        if phase.hung:
            self.problems.append("a client hung past its deadline")

    def measured_ops(self, offsets: list[int] | None = None) -> list[list[model.Op]]:
        """Each client's ops from its offset (default: after the warm-up)."""
        offsets = offsets or [self.workload.warmup] * len(self.streams)
        return [ops[offset:] for ops, offset in zip(self.streams, offsets)]

    def check(self, system, phases: list[Phase]) -> None:
        """Check outputs after ``phases`` ran on ``system`` from op 0."""
        executed = [
            ops[:sum(p.results[c].executed for p in phases)]
            for c, ops in enumerate(self.streams)
        ]
        expected = model.expected_state(self.population, executed)
        self.problems.extend(check_outputs(system, expected))


def run_untraced(run: Run, seconds: float) -> dict:
    setups: list[float] = []
    system = None
    for _ in range(SETUPS):
        if system is not None:
            close_bounded(system, run.problems)
            system = None
            gc.collect()
        system, seconds_taken, warmup = set_up(
            run.workload, run.population, run.streams
        )
        setups.append(seconds_taken)
    run.account(warmup)
    try:
        phase = run_phase(system, run.measured_ops(), seconds)
        run.account(phase)
        if not phase.hung:
            run.check(system, [warmup, phase])
        metrics = end_to_end(phase, setups, run.notes)
        run.notes.append(
            "setups: " + ", ".join(f"{s:.3f}s" for s in setups)
        )
    finally:
        close_bounded(system, run.problems)
    return metrics


def run_traced(run: Run, seconds: float, spans_path: Path) -> dict:
    part = seconds / 3.0
    system, _, warmup = set_up(run.workload, run.population, run.streams)
    run.account(warmup)
    recorder = Recorder()
    try:
        untraced = run_phase(system, run.measured_ops(), part)
        run.account(untraced)
        offset = [run.workload.warmup + r.executed for r in untraced.results]
        subscription = system.obs.journal.subscribe(
            lambda _event: recorder.count("obs.events")
        )
        have = recorder.install()
        counters = _layer_counters(system)
        try:
            traced = run_phase(system, run.measured_ops(offset), part)
        finally:
            recorder.uninstall()
            system.obs.journal.unsubscribe(subscription)
        deltas = _deltas(counters, _layer_counters(system))
        run.account(traced)
        if not (untraced.hung or traced.hung):
            run.check(system, [warmup, untraced, traced])
    finally:
        close_bounded(system, run.problems)
        system = None
        gc.collect()

    obs_off = None
    config, _ = build_config(run.workload, observability=False)
    if getattr(config, "observability", True) is False:
        quiet, _, quiet_warmup = set_up(
            run.workload, run.population, run.streams, observability=False
        )
        run.account(quiet_warmup)
        try:
            obs_off = run_phase(quiet, run.measured_ops(), part)
            run.account(obs_off)
            if not obs_off.hung:
                run.check(quiet, [quiet_warmup, obs_off])
        finally:
            close_bounded(quiet, run.problems)
    else:
        run.notes.append("observability cannot be turned off: obs.share absent")

    if recorder.absent:
        run.notes.append("absent layer functions: " + ", ".join(recorder.absent))
    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w") as out:
        for span in recorder.spans:
            out.write(json.dumps(dict(zip(
                ("name", "request", "thread", "parent", "wall_s", "cpu_s",
                 "child_wall_s", "child_cpu_s"), span))) + "\n")
    run.notes.append(
        f"traced updates: {traced.updates}, spans: {len(recorder.spans)} "
        f"written to {spans_path}"
    )
    return per_layer(recorder, have, traced, untraced, obs_off, deltas)


def pin_to_one_cpu(notes: list[str]) -> None:
    """Run the whole process on one CPU.

    On a small shared VM most run-to-run spread came from waking threads
    on the other vCPU (client, link dispatcher and lane threads hand
    each update back and forth); on one CPU the spread of every metric
    dropped several-fold.  With the GIL the system never runs Python on
    two CPUs at once, so the pin removes noise, not parallelism."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError) as exc:
        notes.append(f"running unpinned: {exc}")
    else:
        notes.append(f"pinned to CPU {cpu}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    faulthandler.dump_traceback_later(PROCESS_DEADLINE_S, exit=True)
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds)
    pin_to_one_cpu(run.notes)
    if args.trace:
        spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics = run_traced(run, args.seconds, spans)
    else:
        metrics = run_untraced(run, args.seconds)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>12.4f} {unit}")
    # Reported here, not as a metric: it is 0 on a correct run.
    print(f"  {'failed_ratio':<30} {run.failed_ratio:>12.6f} ratio")
    for note in run.notes:
        print(f"  note: {note}")
    for problem in run.problems[:20]:
        print(f"  FAILED: {problem}")
    print(json.dumps(run.result(metrics)))
    sys.stdout.flush()
    faulthandler.cancel_dump_traceback_later()
    return 0 if not run.problems else 1


if __name__ == "__main__":
    code = main()
    # A hung daemon thread must not hold the process open after the result.
    os._exit(code)
