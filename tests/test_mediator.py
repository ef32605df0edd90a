"""Unit tests for the virtual-mediator baseline (paper section 3)."""

import pytest

from repro.core import MediatorError, MetaComm, MetaCommConfig, VirtualMediator
from repro.schemas import PERSON_CLASSES


def person_attrs(cn, sn, **extra):
    attrs = {"objectClass": list(PERSON_CLASSES), "cn": cn, "sn": sn}
    attrs.update(extra)
    return attrs


@pytest.fixture
def system():
    system = MetaComm(MetaCommConfig())
    conn = system.connection()
    conn.add(
        "cn=John Doe,o=Lucent",
        person_attrs("John Doe", "Doe", definityExtension="4100",
                     definityRoom="2B"),
    )
    conn.add(
        "cn=Jill Lu,o=Lucent",
        person_attrs("Jill Lu", "Lu", definityExtension="4200"),
    )
    yield system
    system.close()


@pytest.fixture
def mediator(system):
    return VirtualMediator(system.um.bindings, system.suffix)


class TestVirtualView:
    def test_joins_devices_per_person(self, mediator):
        (entry,) = mediator.search("(definityExtension=4100)")
        # PBX data and MP data merged into one virtual entry.
        assert entry.first("definityRoom") == "2B"
        assert entry.first("mpMailboxId", "").startswith("MB-")
        assert entry.first("telephoneNumber") == "+1 908 582 4100"

    def test_filter_evaluation(self, mediator):
        hits = mediator.search("(&(objectClass=person)(definityRoom=2B))")
        assert [e.first("cn") for e in hits] == ["John Doe"]
        assert mediator.search("(definityRoom=9Z)") == []

    def test_names_derived_from_pbx(self, mediator):
        (entry,) = mediator.search("(definityExtension=4200)")
        assert entry.first("cn") == "Jill Lu"
        assert str(entry.dn) == "cn=Jill Lu,o=Lucent"

    def test_reads_are_always_fresh(self, system, mediator):
        """The mediator's one advantage: it cannot be stale."""
        # Sabotage the device silently (no notification).
        system.pbx()._records["4100"]["Room"] = "SNEAKY"
        (entry,) = mediator.search("(definityExtension=4100)")
        assert entry.first("definityRoom") == "SNEAKY"
        # ... whereas the materialized view still shows the old value
        # until resynchronization.
        (stale,) = system.find_person("(definityExtension=4100)")
        assert stale.first("definityRoom") == "2B"

    def test_source_outage_fails_query(self, system, mediator):
        system.messaging.available = False
        with pytest.raises(MediatorError, match="messaging"):
            mediator.search("(definityExtension=4100)")

    def test_statistics(self, mediator):
        mediator.search("(objectClass=person)")
        assert mediator.statistics["queries"] == 1
        assert mediator.statistics["source_dumps"] == 2
        assert mediator.statistics["records_mapped"] == 4  # 2 stations + 2 subs
