"""Shared helpers for the MetaComm experiment harness.

Every module in this directory regenerates one row of the experiment
index in DESIGN.md (the paper has no numeric tables; each experiment
checks the *shape* of a claimed behaviour and reports measurements).
Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.core import MetaComm, MetaCommConfig
from repro.schemas import PERSON_CLASSES


#: Systems built during the current benchmark; closed after it, so no
#: test leaves link dispatcher and notifier threads polling under the
#: benchmarks that run after it.
_built: list[MetaComm] = []


def tracked(system: MetaComm) -> MetaComm:
    """Close ``system`` when the current benchmark ends."""
    _built.append(system)
    return system


def fresh_system(**kwargs) -> MetaComm:
    config = MetaCommConfig(organizations=("Marketing", "R&D"), **kwargs)
    return tracked(MetaComm(config))


def person_attrs(cn: str, sn: str, **extra) -> dict:
    attrs = {"objectClass": list(PERSON_CLASSES), "cn": cn, "sn": sn}
    attrs.update(extra)
    return attrs


def report(title: str, headers: list[str], rows: list[tuple]) -> None:
    """Print one experiment's result table (captured by pytest -s)."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


@pytest.fixture(autouse=True)
def _close_built_systems():
    yield
    while _built:
        _built.pop().close()


@pytest.fixture
def system():
    return fresh_system()
