"""Fast self-test of the benchmark harness on a tiny deployment.

Checks that an untraced and a traced run emit every metric that
``BENCHMARK.json`` names, with its unit, that a clean run passes its
output check, and that a planted mismatch — a person removed from the
directory and both devices behind MetaComm's back, which
``consistent()`` cannot see — raises ``failed_ratio``.  Run with::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402  (path set up above)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = 10  # people per PBX


def tiny_run(name: str = "admin-1ms") -> bench.Run:
    workload = dataclasses.replace(bench.WORKLOADS[name], warmup=20)
    return bench.Run(workload, seed=3, seconds=0.6, people_per_pbx=TINY)


def _units(metrics: dict) -> dict[str, str]:
    return {name: unit for name, (_value, unit) in metrics.items()}


def test_every_end_to_end_metric_is_emitted_with_its_unit():
    for name in bench.WORKLOADS:
        run = tiny_run(name)
        metrics = bench.run_untraced(run, 0.6)
        assert run.problems == []
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert _units(metrics) == expected
        result = run.result(metrics)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_per_layer_metric_is_emitted_with_its_unit():
    run = tiny_run("fleet-2ms")
    spans = bench.SPANS_DIR / "spans-selftest.jsonl"
    metrics = bench.run_traced(run, 0.9, spans)
    assert run.problems == []
    assert spans.read_text().count("\n") > 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert _units(metrics) == expected


def test_planted_mismatch_raises_failed_ratio():
    from repro.core.filters.device_filter import UM_AGENT

    run = tiny_run()
    system, _seconds, warmup = bench.set_up(
        run.workload, run.population, run.streams
    )
    try:
        run.account(warmup)
        run.check(system, [warmup])
        assert run.problems == [] and run.failed_ratio == 0

        expected = bench.model.expected_state(
            run.population, [ops[: run.workload.warmup] for ops in run.streams]
        )
        victim = next(iter(expected.values()))
        system.direct_connection().delete(victim.dn)
        system.pbx(f"pbx-{victim.ext[:2]}").delete(victim.ext, agent=UM_AGENT)
        system.messaging.delete(victim.phone, agent=UM_AGENT)
        assert system.consistent()  # lost on both sides: the oracle is blind

        run.check(system, [warmup])
        assert run.failed_ratio > 0
        assert any(victim.dn in p for p in run.problems)
        assert not run.result({})["correct"]
    finally:
        bench.close_bounded(system, run.problems)
