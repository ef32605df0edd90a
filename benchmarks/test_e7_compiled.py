"""E7 (compiled tier) — interpreter vs compiled-closure rule evaluation.

The compilation tier (docs/LEXPRESS_COMPILER.md) lowers verified lexpress
byte code into plain Python closures, bound to each rule when its
mapping compiles.  This benchmark measures the payoff on the E7
steady-state workload: full target-schema ``image()`` evaluation of the
standard ``pbx_to_ldap`` mapping — the exact computation the Update
Manager's enrich/plan stages run per update — under three engines
behind the rule entry point ``CompiledRule.evaluate``: the bound
closures (production), the interpreter, and verify (both, compared).

Asserts the headline speedup (compiled >= 2x over the interpreter), that
verify completes the whole run with zero divergences, and writes the
results to ``BENCH_e7.json``.  Run with::

    make bench-e7
"""

import json
import time
from pathlib import Path

import pytest

from repro.lexpress import CompiledRule, execute, rule_cache
from repro.schemas import standard_mappings

#: image() evaluations per measured run.
ITERATIONS = 10_000
#: Best-of runs per mode.
REPEATS = 3
#: Required speedup of compiled closures over the interpreter.
SPEEDUP_FLOOR = 2.0

#: A representative PBX station record: exercises the regex name swap,
#: prefix concatenation, and the plain identity rules.
RECORD = {
    "Extension": "4100",
    "Name": "Doe, John",
    "Room": "2B-110",
    "COS": "standard",
    "CoveragePath": "ops",
}

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_e7.json"


_compiled = CompiledRule.evaluate


def _interpret(rule, attrs, value=None):
    return execute(rule.code, attrs, value, canonical=True)


def _verify(rule, attrs, value=None):
    compiled = _compiled(rule, attrs, value)
    interpreted = _interpret(rule, attrs, value)
    assert compiled == interpreted and type(compiled) is type(interpreted), (
        f"divergence in {rule.code.name}: {interpreted!r} != {compiled!r}"
    )
    return interpreted


ENGINES = {"interpret": _interpret, "compiled": _compiled, "verify": _verify}


def _measure(mapping, mode: str, monkeypatch) -> float:
    """Best-of image() evaluations per second under engine *mode*."""
    monkeypatch.setattr(CompiledRule, "evaluate", ENGINES[mode])
    expected = mapping.image(RECORD)  # warm up outside the timing
    best = 0.0
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(ITERATIONS):
            mapping.image(RECORD)
        elapsed = time.perf_counter() - start
        best = max(best, ITERATIONS / elapsed)
    assert mapping.image(RECORD) == expected
    return best


@pytest.mark.benchmarks
def test_e7_compiled_vs_interpreter(monkeypatch):
    rule_cache().clear()
    mapping = standard_mappings()["pbx_to_ldap"]
    rates = {mode: _measure(mapping, mode, monkeypatch) for mode in ENGINES}
    speedup = rates["compiled"] / rates["interpret"]
    cache = rule_cache().stats()

    document = {
        "benchmark": "e7_compiled_rule_evaluation",
        "workload": {
            "mapping": "pbx_to_ldap",
            "iterations": ITERATIONS,
            "repeats": REPEATS,
            "metric": "full image() evaluations per second, best of repeats",
        },
        "results": [
            {"mode": mode, "images_per_s": round(rate, 1)}
            for mode, rate in rates.items()
        ],
        "compiled_speedup": round(speedup, 2),
        "cache": {
            "entries": cache["entries"],
            "compiles": cache["compiles"],
            "rejected": cache["rejected"],
        },
    }
    RESULTS_PATH.write_text(json.dumps(document, indent=2) + "\n")

    print("\n=== E7: rule evaluation engines ===")
    print("mode       images/s")
    for mode, rate in rates.items():
        print(f"{mode:<9} {rate:>9,.0f}")
    print(f"compiled speedup: {speedup:.2f}x")

    # verify mode ran both engines for every evaluation without raising:
    # the shipped mapping library has zero divergences on this workload.
    assert cache["rejected"] == 0, "verifier rejected a shipped rule"
    assert speedup >= SPEEDUP_FLOOR, (
        f"compiled closures are {speedup:.2f}x the interpreter, below "
        f"the {SPEEDUP_FLOOR}x floor"
    )
