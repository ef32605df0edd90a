"""E12 — Scalability in the number of integrated data sources.

Claim (section 7): "We are currently investigating its scalability by
adding new data sources."  We carry the investigation out: deployments
with 1, 2, 4 and 8 PBXes (plus the messaging platform) receive the same
update; per-update propagation cost should grow at most linearly in the
number of devices, and partitioning keeps irrelevant devices untouched
(translate-and-skip, no device I/O).
"""

import itertools

import pytest
from conftest import person_attrs, report, tracked

from repro.core import MetaComm, MetaCommConfig, PbxConfig

ROWS: list[tuple] = []
_serial = itertools.count()


def build_system(n_pbx: int) -> MetaComm:
    # Split extension space 4000-4999 into n_pbx prefix ranges like
    # 40xx-41xx..., using 2-digit prefixes.
    prefixes_per_pbx = 10 // n_pbx
    pbxes = []
    for i in range(n_pbx):
        prefixes = tuple(
            f"4{j}" for j in range(i * prefixes_per_pbx, (i + 1) * prefixes_per_pbx)
        )
        pbxes.append(PbxConfig(f"pbx-{i}", prefixes))
    return tracked(
        MetaComm(MetaCommConfig(organizations=("Marketing",), pbxes=pbxes))
    )


@pytest.mark.parametrize("n_pbx", [1, 2, 4, 8])
def test_e12_fanout_cost_vs_device_count(benchmark, n_pbx):
    system = build_system(n_pbx)
    conn = system.connection()

    def add_user():
        serial = next(_serial)
        ext = str(40000 + serial % 10000)
        conn.add(
            f"cn=S{serial},o=Marketing,o=Lucent",
            person_attrs(f"S{serial}", "S", definityExtension=ext),
        )

    benchmark(add_user)

    # Partitioning: each user landed on exactly one PBX.
    total_stations = sum(p.size() for p in system.pbxes.values())
    people = len(system.find_person("(definityExtension=*)"))
    assert total_stations == people
    assert system.consistent()
    ROWS.append((n_pbx, n_pbx + 1, total_stations))
    if n_pbx == 8:
        report(
            "E12: devices in the deployment vs fan-out targets",
            ["PBXes", "devices total (incl. MP)", "stations after run"],
            ROWS,
        )


def test_e12_irrelevant_devices_do_no_io(benchmark):
    """With 4 PBXes, an update inside one partition causes zero device
    operations at the other three (translate yields SKIP)."""
    system = build_system(4)
    conn = system.connection()
    conn.add(
        "cn=Solo,o=Marketing,o=Lucent",
        person_attrs("Solo", "S", definityExtension="4000"),
    )
    before = {
        name: dict(pbx.statistics) for name, pbx in system.pbxes.items()
    }
    counter = itertools.count()

    def modify():
        from repro.ldap import Modification

        conn.modify(
            "cn=Solo,o=Marketing,o=Lucent",
            [Modification.replace("definityRoom", f"R{next(counter) % 997}")],
        )

    benchmark(modify)

    owner = next(
        name for name, pbx in system.pbxes.items() if pbx.manages_extension("4000")
    )
    for name, pbx in system.pbxes.items():
        writes = (
            pbx.statistics["adds"]
            + pbx.statistics["modifies"]
            + pbx.statistics["deletes"]
        )
        before_writes = (
            before[name]["adds"] + before[name]["modifies"] + before[name]["deletes"]
        )
        if name == owner:
            assert writes > before_writes
        else:
            assert writes == before_writes, f"{name} was touched needlessly"
