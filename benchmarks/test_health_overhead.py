"""Overhead of the runtime health plane on pipeline throughput.

The health plane observes every update (journal events, per-device
outcome/link telemetry, queue staleness) and runs a background
consistency auditor — none of which may meaningfully slow the pipeline
down.  This benchmark drives a 4-PBX fleet (plus the messaging platform,
fan-out over the device links, simulated management-link latency) twice
in the same run: once with the plane **fully enabled** — journal +
health board + queue gauges + the auditor sampling in the background —
and once with ``observability=False``.

Writes the measurements and their ratio to ``BENCH_health.json`` and
asserts the plane-on run keeps at least ``RATIO_FLOOR`` (i.e. < 5%
regression) of the plane-off run.  Run with::

    make bench-health
"""

import json
import time
from pathlib import Path

import pytest

from conftest import person_attrs

from repro.core import MetaComm, MetaCommConfig, PbxConfig

#: Simulated management-link round-trip per device write (seconds).
LINK_LATENCY = 0.002
#: PBX count (plus the messaging platform -> 5 devices per fan-out).
PBXES = 4
#: Update sequences per measured run.
UPDATES = 25
#: Best-of runs per cell.
REPEATS = 5
#: Background auditor sampling interval while measuring (seconds).
AUDIT_INTERVAL = 0.05
#: plane-on throughput must stay >= this fraction of the plane-off
#: throughput measured in the same run.
RATIO_FLOOR = 0.95

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_health.json"


def _fleet(observability: bool) -> MetaComm:
    system = MetaComm(
        MetaCommConfig(
            pbxes=[PbxConfig(f"pbx-{i + 1}", ("4",)) for i in range(PBXES)],
            observability=observability,
        )
    )
    for pbx in system.pbxes.values():
        pbx.link_latency = LINK_LATENCY
    system.messaging.link_latency = LINK_LATENCY
    return system


def _run_once(observability: bool) -> float:
    system = _fleet(observability)
    try:
        if observability:
            system.auditor.start(interval=AUDIT_INTERVAL)
        conn = system.connection()
        start = time.perf_counter()
        for i in range(UPDATES):
            conn.add(
                f"cn=U{i},o=Lucent",
                person_attrs(f"U{i}", "U", definityExtension=str(4100 + i)),
            )
        elapsed = time.perf_counter() - start
        if observability:
            system.auditor.stop()
        assert system.consistent(), "oracle failed after run"
        return UPDATES / elapsed
    finally:
        system.close()


def _measure(observability: bool) -> float:
    return max(_run_once(observability) for _ in range(REPEATS))


@pytest.mark.benchmarks
def test_health_plane_overhead():
    plane_off = _measure(observability=False)
    plane_on = _measure(observability=True)
    ratio = plane_on / plane_off

    document = {
        "benchmark": "health_plane_overhead",
        "workload": {
            "pbxes": PBXES,
            "devices": PBXES + 1,
            "updates_per_run": UPDATES,
            "repeats": REPEATS,
            "link_latency_s": LINK_LATENCY,
            "audit_interval_s": AUDIT_INTERVAL,
            "metric": "update sequences per second, best of repeats",
        },
        "results": {
            "plane_on_seq_per_s": round(plane_on, 1),
            "plane_off_seq_per_s": round(plane_off, 1),
            "ratio_vs_plane_off": round(ratio, 3),
            "ratio_floor": RATIO_FLOOR,
        },
    }
    RESULTS_PATH.write_text(json.dumps(document, indent=2) + "\n")

    print("\n=== health plane overhead (linked 4-PBX fleet) ===")
    print(f"plane off:           {plane_off:8.1f} seq/s")
    print(
        f"plane on:            {plane_on:8.1f} seq/s"
        "  (journal + health + gauges + auditor)"
    )
    print(f"ratio vs plane off:  {ratio:8.3f}   (floor {RATIO_FLOOR})")

    assert ratio >= RATIO_FLOOR, (
        f"health plane costs {(1 - ratio) * 100:.1f}% throughput "
        f"(allowed {(1 - RATIO_FLOOR) * 100:.0f}%)"
    )
