"""Coordinator-lane throughput: the commutativity-sharded Update Manager.

The routing oracle (docs/CONCURRENCY.md) proves updates that land in
disjoint extension-prefix partitions commute, so the sharded queue may
drain them on concurrent coordinator lanes.  This benchmark builds the
workload that proof targets: eight PBXes owning disjoint prefixes, every
device write paying a simulated management-link round-trip, and eight
client threads each updating only its own partition.  A single lane
serializes the whole stream behind one coordinator; more lanes overlap
the link latency of provably-independent sequences.

Measures update sequences/second for ``coordinator_lanes`` in {1, 2, 4,
8}, checks the ``consistent()`` oracle and that *nothing* fell back to
the serial lane after every run, asserts the headline speedup (>= 2x at
four lanes) and writes the results to ``BENCH_lanes.json``.  Run with::

    make bench-lanes
"""

import json
import threading
import time
from pathlib import Path

import pytest

from conftest import person_attrs

from repro.core import MetaComm, MetaCommConfig, PbxConfig

#: Simulated management-link round-trip per device write (seconds).
LINK_LATENCY = 0.002
#: Concurrent client threads == PBX partitions (prefixes 41..48).
CLIENTS = 8
#: Person adds per client per measured run.
UPDATES_PER_CLIENT = 5
#: Best-of runs per lane count.
REPEATS = 3
#: Lane counts to sweep.
LANES = (1, 2, 4, 8)
#: Required speedup of 4 lanes over 1 lane.
SPEEDUP_FLOOR = 2.0

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_lanes.json"


def _fleet(lanes: int) -> MetaComm:
    """Eight PBXes with disjoint extension prefixes: every update fans
    out to exactly one PBX (plus messaging), and updates from different
    prefixes provably commute.  Rules run on the compiled tier — the
    production configuration this benchmark gates."""
    system = MetaComm(
        MetaCommConfig(
            pbxes=[
                PbxConfig(f"pbx-{i + 1}", (str(41 + i),))
                for i in range(CLIENTS)
            ],
            coordinator_lanes=lanes,
        )
    )
    for pbx in system.pbxes.values():
        pbx.link_latency = LINK_LATENCY
    system.messaging.link_latency = LINK_LATENCY
    system.um.start()
    return system


def _run_once(lanes: int) -> float:
    """One measured run: CLIENTS threads adding into disjoint partitions;
    returns update sequences per second."""
    system = _fleet(lanes)
    try:
        errors: list[Exception] = []

        def client(i: int) -> None:
            try:
                conn = system.connection()
                for j in range(UPDATES_PER_CLIENT):
                    conn.add(
                        f"cn=U{i}-{j},o=Lucent",
                        person_attrs(
                            f"U{i}-{j}", "U",
                            definityExtension=f"{41 + i}{j:02d}",
                        ),
                    )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start

        assert errors == [], errors
        assert system.consistent(), "oracle failed after run"
        total = CLIENTS * UPDATES_PER_CLIENT
        assert system.messaging.size() == total
        for pbx in system.pbxes.values():
            assert pbx.size() == UPDATES_PER_CLIENT
        stats = dict(system.um.queue.statistics)
        assert stats["processed"] == total
        # The whole point: partition-disjoint traffic never serializes.
        assert stats.get("serial_routed", 0) == 0
        return total / elapsed
    finally:
        system.close()


def _measure(lanes: int) -> float:
    return max(_run_once(lanes) for _ in range(REPEATS))


@pytest.mark.benchmarks
def test_coordinator_lane_throughput():
    results = []
    baseline = None
    for lanes in LANES:
        rate = _measure(lanes)
        if baseline is None:
            baseline = rate
        results.append(
            {
                "lanes": lanes,
                "seq_per_s": round(rate, 1),
                "speedup": round(rate / baseline, 2),
            }
        )

    document = {
        "benchmark": "coordinator_lane_throughput",
        "workload": {
            "clients": CLIENTS,
            "updates_per_client": UPDATES_PER_CLIENT,
            "repeats": REPEATS,
            "link_latency_s": LINK_LATENCY,
            "metric": "update sequences per second, best of repeats",
            "partitioning": "8 PBXes, disjoint extension prefixes 41..48",
        },
        "results": results,
    }
    RESULTS_PATH.write_text(json.dumps(document, indent=2) + "\n")

    print("\n=== coordinator lane throughput ===")
    print("lanes  seq/s  speedup")
    for row in results:
        print(
            f"{row['lanes']:>5}  {row['seq_per_s']:>5}  {row['speedup']:>6}x"
        )

    by_lanes = {row["lanes"]: row for row in results}
    assert by_lanes[4]["speedup"] >= SPEEDUP_FLOOR, (
        f"4-lane speedup {by_lanes[4]['speedup']}x over the single-lane "
        f"coordinator is below the {SPEEDUP_FLOOR}x floor"
    )
