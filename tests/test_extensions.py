"""Tests for the paper's future-work features, implemented as extensions.

* saga-style compensation of device updates (section 4.4);
* the sophisticated security model (section 7) — LTAP ACLs;
* multi-entry single-site transactions (section 5.3);
* intra-entry constraints (section 5.3).
"""

import pytest

from repro.core import MetaComm, MetaCommConfig
from repro.devices import InvalidFieldError
from repro.ldap import (
    DN,
    Entry,
    LdapConnection,
    LdapError,
    LdapServer,
    Modification,
    NoSuchObjectError,
    ResultCode,
    Schema,
)
from repro.ldap.schema import AttributeType, ClassKind, ObjectClass
from repro.ltap import AccessControl, LtapGateway, Rights, Subject
from repro.schemas import PERSON_CLASSES


def person_attrs(cn, sn, **extra):
    attrs = {"objectClass": list(PERSON_CLASSES), "cn": cn, "sn": sn}
    attrs.update(extra)
    return attrs


class TestSagaCompensation:
    """Section 4.4: "use pre-update information to attempt to undo device
    updates, making the overall technique akin to sagas"."""

    @pytest.fixture
    def system(self):
        with MetaComm(MetaCommConfig(undo_on_failure=True)) as system:
            yield system

    def test_add_compensated_when_later_device_fails(self, system):
        # PBX (first binding) succeeds, MP (second) fails: the PBX add
        # must be rolled back.
        system.messaging.fault_injector = lambda op, key: (_ for _ in ()).throw(
            InvalidFieldError("mp full")
        )
        system.connection().add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        assert not system.pbx().contains("4100")  # compensated
        assert system.um.statistics["compensated"] == 1
        assert len(system.error_log) == 1

    def test_modify_compensated(self, system):
        conn = system.connection()
        conn.add(
            "cn=A B,o=Lucent",
            person_attrs("A B", "B", definityExtension="4100", definityRoom="1A"),
        )
        system.messaging.fault_injector = lambda op, key: (_ for _ in ()).throw(
            InvalidFieldError("mp sick")
        )
        conn.modify(
            "cn=A B,o=Lucent",
            [
                Modification.replace("definityRoom", "9Z"),
                Modification.replace("mpCOS", "2"),
            ],
        )
        # The PBX modify was applied then undone.
        assert system.pbx().station("4100")["Room"] == "1A"
        assert system.um.statistics["compensated"] >= 1

    def test_delete_compensated(self, system):
        conn = system.connection()
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        system.messaging.fault_injector = lambda op, key: (_ for _ in ()).throw(
            InvalidFieldError("mp sick")
        )
        conn.delete("cn=A B,o=Lucent")
        # The PBX delete was applied, then the station re-added.
        assert system.pbx().contains("4100")
        assert system.um.statistics["compensated"] >= 1

    def test_without_saga_no_compensation(self):
        system = MetaComm(MetaCommConfig(undo_on_failure=False))
        system.messaging.fault_injector = lambda op, key: (_ for _ in ()).throw(
            InvalidFieldError("mp full")
        )
        system.connection().add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        # Classic section-4.4 behaviour: the PBX keeps the orphaned add
        # until an admin repairs it (that's what the error log is for).
        assert system.pbx().contains("4100")
        assert system.um.statistics["compensated"] == 0

    def test_compensation_failure_is_logged_not_raised(self, system):
        system.messaging.fault_injector = lambda op, key: (_ for _ in ()).throw(
            InvalidFieldError("mp full")
        )
        # Make the compensation itself fail too.
        original_compensate = system.um.bindings[0].filter.compensate

        def broken(update, before):
            raise RuntimeError("compensation path down")

        system.um.bindings[0].filter.compensate = broken
        system.connection().add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        targets = {e.first("metacommErrorTarget") for e in system.error_log.entries()}
        assert "messaging" in targets and "definity" in targets


class TestAccessControl:
    """Section 7: a richer security model for LTAP."""

    @pytest.fixture
    def secured(self):
        server = LdapServer(["o=Lucent"])
        acl = AccessControl(default_allow=False)
        acl.allow(Subject.ANYONE, rights=Rights.READ)
        acl.allow("cn=admin,o=Lucent", rights=Rights.ALL)
        acl.allow(
            Subject.SELF,
            rights=Rights.WRITE,
            attributes=("telephoneNumber", "description"),
        )
        acl.allow(
            subject_subtree="ou=helpdesk,o=Lucent",
            rights=Rights.WRITE,
            base="o=Staff,o=Lucent",
        )
        gateway = LtapGateway(server, access_control=acl)
        boot = LdapConnection(server)  # bypass ACL for fixture setup
        boot.add("o=Lucent", {"objectClass": "organization", "o": "Lucent"})
        boot.add("o=Staff,o=Lucent", {"objectClass": "organization", "o": "Staff"})
        boot.add(
            "ou=helpdesk,o=Lucent",
            {"objectClass": "organizationalUnit", "ou": "helpdesk"},
        )
        boot.add(
            "cn=admin,o=Lucent",
            {"objectClass": "person", "cn": "admin", "sn": "admin",
             "userPassword": "adminpw"},
        )
        boot.add(
            "cn=helper,ou=helpdesk,o=Lucent",
            {"objectClass": "person", "cn": "helper", "sn": "h",
             "userPassword": "helppw"},
        )
        boot.add(
            "cn=user,o=Staff,o=Lucent",
            {"objectClass": "person", "cn": "user", "sn": "u",
             "userPassword": "userpw"},
        )
        return gateway

    def test_anonymous_reads_allowed(self, secured):
        conn = LdapConnection(secured)
        assert conn.search("o=Lucent")

    def test_anonymous_write_denied(self, secured):
        conn = LdapConnection(secured)
        with pytest.raises(LdapError) as err:
            conn.add("cn=X,o=Lucent", {"objectClass": "person", "cn": "X", "sn": "X"})
        assert err.value.code is ResultCode.INSUFFICIENT_ACCESS_RIGHTS

    def test_admin_writes_anywhere(self, secured):
        conn = LdapConnection(secured)
        conn.bind("cn=admin,o=Lucent", "adminpw")
        conn.add("cn=X,o=Lucent", {"objectClass": "person", "cn": "X", "sn": "X"})
        conn.delete("cn=X,o=Lucent")

    def test_self_service_limited_to_granted_attributes(self, secured):
        conn = LdapConnection(secured)
        conn.bind("cn=user,o=Staff,o=Lucent", "userpw")
        conn.modify(
            "cn=user,o=Staff,o=Lucent",
            [Modification.replace("telephoneNumber", "+1 2")],
        )
        with pytest.raises(LdapError) as err:
            conn.modify(
                "cn=user,o=Staff,o=Lucent", [Modification.replace("sn", "hax")]
            )
        assert err.value.code is ResultCode.INSUFFICIENT_ACCESS_RIGHTS

    def test_self_service_only_own_entry(self, secured):
        conn = LdapConnection(secured)
        conn.bind("cn=user,o=Staff,o=Lucent", "userpw")
        with pytest.raises(LdapError):
            conn.modify(
                "cn=admin,o=Lucent",
                [Modification.replace("telephoneNumber", "+1 666")],
            )

    def test_helpdesk_scope(self, secured):
        conn = LdapConnection(secured)
        conn.bind("cn=helper,ou=helpdesk,o=Lucent", "helppw")
        conn.modify(
            "cn=user,o=Staff,o=Lucent", [Modification.replace("sn", "fixed")]
        )
        with pytest.raises(LdapError):
            conn.modify(
                "cn=admin,o=Lucent", [Modification.replace("sn", "nope")]
            )

    def test_deny_rule_first_match_wins(self):
        server = LdapServer(["o=L"])
        LdapConnection(server).add("o=L", {"objectClass": "organization", "o": "L"})
        acl = AccessControl(default_allow=True)
        acl.deny(Subject.ANONYMOUS, rights=Rights.READ, base="o=Secret,o=L")
        gateway = LtapGateway(server, access_control=acl)
        LdapConnection(server).add(
            "o=Secret,o=L", {"objectClass": "organization", "o": "Secret"}
        )
        conn = LdapConnection(gateway)
        assert conn.search("o=L", filter="(o=L)")  # default allow elsewhere
        with pytest.raises(LdapError):
            conn.search("o=Secret,o=L")

    def test_denied_write_never_fires_triggers(self, secured):
        fired = []
        from repro.ltap import Trigger

        secured.register_trigger(Trigger(action=fired.append))
        conn = LdapConnection(secured)
        with pytest.raises(LdapError):
            conn.add("cn=X,o=Lucent", {"objectClass": "person", "cn": "X", "sn": "X"})
        assert not fired

    def test_statistics(self, secured):
        conn = LdapConnection(secured)
        conn.search("o=Lucent")
        with pytest.raises(LdapError):
            conn.delete("cn=admin,o=Lucent")
        assert secured.access_control.statistics["allowed"] >= 1
        assert secured.access_control.statistics["denied"] >= 1


class TestSiteTransactions:
    """Section 5.3: multi-entry atomicity at a single site."""

    @pytest.fixture
    def server(self):
        s = LdapServer(["o=L"])
        conn = LdapConnection(s)
        conn.add("o=L", {"objectClass": "organization", "o": "L"})
        conn.add("cn=P,o=L", {"objectClass": "person", "cn": "P", "sn": "P"})
        return s

    def test_commit_applies_all(self, server):
        with server.backend.transaction() as txn:
            txn.add(Entry("cn=A,o=L", {"objectClass": "person", "cn": "A", "sn": "A"}))
            txn.modify(DN.parse("cn=P,o=L"), [Modification.replace("sn", "Q")])
        assert server.backend.contains(DN.parse("cn=A,o=L"))
        assert server.get("cn=P,o=L").first("sn") == "Q"

    def test_failure_rolls_back_everything(self, server):
        size_before = server.backend.size()
        log_before = len(server.backend.changelog)
        with pytest.raises(NoSuchObjectError):
            with server.backend.transaction() as txn:
                txn.add(
                    Entry("cn=A,o=L", {"objectClass": "person", "cn": "A", "sn": "A"})
                )
                txn.delete(DN.parse("cn=Ghost,o=L"))  # fails
        assert server.backend.size() == size_before
        assert not server.backend.contains(DN.parse("cn=A,o=L"))
        assert len(server.backend.changelog) == log_before

    def test_listeners_see_nothing_on_rollback(self, server):
        seen = []
        server.backend.add_listener(seen.append)
        with pytest.raises(LdapError):
            with server.backend.transaction() as txn:
                txn.modify(DN.parse("cn=P,o=L"), [Modification.replace("sn", "X")])
                txn.modify(DN.parse("cn=Ghost,o=L"), [Modification.replace("sn", "Y")])
        assert seen == []
        assert server.get("cn=P,o=L").first("sn") == "P"

    def test_listeners_see_all_on_commit(self, server):
        seen = []
        server.backend.add_listener(seen.append)
        with server.backend.transaction() as txn:
            txn.add(Entry("cn=A,o=L", {"objectClass": "person", "cn": "A", "sn": "A"}))
            txn.add(Entry("cn=B,o=L", {"objectClass": "person", "cn": "B", "sn": "B"}))
        assert len(seen) == 2

    def test_atomic_rdn_plus_modify(self, server):
        """The exact section-5.1 pain point, made atomic: rename and
        attribute change commit together."""
        from repro.ldap import Rdn

        with server.backend.transaction() as txn:
            txn.modify_rdn(DN.parse("cn=P,o=L"), Rdn.parse("cn=P2"))
            txn.modify(
                DN.parse("cn=P2,o=L"), [Modification.replace("sn", "Renamed")]
            )
        entry = server.get("cn=P2,o=L")
        assert entry.first("sn") == "Renamed"

    def test_atomic_rdn_plus_modify_rollback(self, server):
        from repro.ldap import Rdn

        with pytest.raises(LdapError):
            with server.backend.transaction() as txn:
                txn.modify_rdn(DN.parse("cn=P,o=L"), Rdn.parse("cn=P2"))
                txn.modify(
                    DN.parse("cn=P2,o=L"), [Modification.delete("absent")]
                )
        assert server.backend.contains(DN.parse("cn=P,o=L"))
        assert not server.backend.contains(DN.parse("cn=P2,o=L"))

    def test_parent_child_pair(self, server):
        """The section-5.2 child-entry schema design becomes viable."""
        with server.backend.transaction() as txn:
            txn.add(
                Entry(
                    "cn=Dev,cn=P,o=L",
                    {"objectClass": "person", "cn": "Dev", "sn": "d"},
                )
            )
            txn.modify(DN.parse("cn=P,o=L"), [Modification.replace("sn", "HasDev")])
        assert server.backend.contains(DN.parse("cn=Dev,cn=P,o=L"))
        assert server.get("cn=P,o=L").first("sn") == "HasDev"

    def test_double_commit_rejected(self, server):
        txn = server.backend.transaction()
        txn.modify(DN.parse("cn=P,o=L"), [Modification.replace("sn", "Z")])
        txn.commit()
        with pytest.raises(RuntimeError):
            txn.commit()

    def test_empty_transaction_is_noop(self, server):
        with server.backend.transaction():
            pass
        assert server.get("cn=P,o=L").first("sn") == "P"


class TestIntraEntryConstraints:
    """Section 5.3: constraints over whole entries."""

    @pytest.fixture
    def schema(self):
        s = Schema()
        for name in ("cn", "sn", "definityExtension", "telephoneNumber"):
            s.define_attribute(AttributeType(name))
        s.define_class(ObjectClass("top", kind=ClassKind.ABSTRACT))
        s.define_class(
            ObjectClass(
                "person",
                sup="top",
                must=("cn", "sn"),
                may=("definityExtension", "telephoneNumber"),
            )
        )

        def phone_matches_extension(entry):
            ext = entry.first("definityExtension")
            phone = entry.first("telephoneNumber")
            if ext and phone and not phone.endswith(ext):
                return f"telephoneNumber {phone} does not end with extension {ext}"
            return None

        s.define_entry_constraint("phone-matches-extension", phone_matches_extension)
        return s

    def test_consistent_entry_passes(self, schema):
        schema.check_entry(
            Entry(
                "cn=A,o=L",
                {
                    "objectClass": "person", "cn": "A", "sn": "A",
                    "definityExtension": "4100",
                    "telephoneNumber": "+1 908 582 4100",
                },
            )
        )

    def test_violating_entry_rejected(self, schema):
        with pytest.raises(LdapError) as err:
            schema.check_entry(
                Entry(
                    "cn=A,o=L",
                    {
                        "objectClass": "person", "cn": "A", "sn": "A",
                        "definityExtension": "4100",
                        "telephoneNumber": "+1 908 582 9999",
                    },
                )
            )
        assert err.value.code is ResultCode.CONSTRAINT_VIOLATION

    def test_constraint_enforced_by_server(self, schema):
        server = LdapServer(["o=L"], schema=schema)
        conn = LdapConnection(server)
        # Build the suffix without schema checking (the minimal fixture
        # schema has no organization class), then re-enable it.
        server.backend.schema = None
        server.backend.add(Entry("o=L", {"objectClass": "organization", "o": "L"}))
        server.backend.schema = schema
        with pytest.raises(LdapError):
            conn.add(
                "cn=A,o=L",
                {
                    "objectClass": "person", "cn": "A", "sn": "A",
                    "definityExtension": "4100",
                    "telephoneNumber": "+1 999",
                },
            )

    def test_duplicate_constraint_name_rejected(self, schema):
        with pytest.raises(ValueError):
            schema.define_entry_constraint(
                "phone-matches-extension", lambda e: None
            )

    def test_remove_constraint(self, schema):
        schema.remove_entry_constraint("phone-matches-extension")
        schema.check_entry(
            Entry(
                "cn=A,o=L",
                {
                    "objectClass": "person", "cn": "A", "sn": "A",
                    "definityExtension": "4100",
                    "telephoneNumber": "+1 908 582 9999",
                },
            )
        )
