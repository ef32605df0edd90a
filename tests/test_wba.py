"""Tests for the Web-Based Administration layer and the hoteling app."""

import pytest

from repro.core import MetaComm, MetaCommConfig
from repro.ldap import LdapError
from repro.wba import FormValidationError, WebAdmin, validate


@pytest.fixture
def system():
    with MetaComm(MetaCommConfig(organizations=("Marketing", "R&D"))) as system:
        yield system


@pytest.fixture
def wba(system):
    return WebAdmin(system)


class TestFormValidation:
    def test_valid_submission(self):
        cleaned = validate(
            {"full_name": "John Doe", "surname": "Doe", "extension": "4100"}
        )
        assert cleaned["extension"] == "4100"

    def test_missing_mandatory(self):
        with pytest.raises(FormValidationError) as err:
            validate({"full_name": "X"})
        assert "surname" in err.value.problems

    def test_bad_extension(self):
        with pytest.raises(FormValidationError) as err:
            validate(
                {"full_name": "X", "surname": "Y", "extension": "41x"},
            )
        assert "extension" in err.value.problems

    def test_bad_phone(self):
        with pytest.raises(FormValidationError):
            validate({"full_name": "X", "surname": "Y", "phone": "abc"})

    def test_unknown_field_rejected(self):
        with pytest.raises(FormValidationError):
            validate({"full_name": "X", "surname": "Y", "shoe_size": "42"})

    def test_read_only_field_rejected(self):
        with pytest.raises(FormValidationError):
            validate({"full_name": "X", "surname": "Y", "mailbox": "MB-1"})

    def test_whitespace_trimmed(self):
        cleaned = validate({"full_name": "  X ", "surname": "Y"})
        assert cleaned["full_name"] == "X"


class TestUserLifecycle:
    def test_create_provisions_devices(self, system, wba):
        dn = wba.create_user(
            "Marketing", full_name="John Doe", surname="Doe",
            extension="4100", room="2B-110",
        )
        assert dn == "cn=John Doe,o=Marketing,o=Lucent"
        assert system.pbx().station("4100")["Room"] == "2B-110"
        assert system.messaging.contains("+1 908 582 4100")

    def test_form_round_trip(self, system, wba):
        dn = wba.create_user(
            "Marketing", full_name="John Doe", surname="Doe", extension="4100"
        )
        form = wba.user_form(dn)
        assert form["full_name"] == "John Doe"
        assert form["extension"] == "4100"
        assert form["mailbox"].startswith("MB-")
        assert form["updated_by"] == "ldap"

    def test_update_user_changes_device(self, system, wba):
        dn = wba.create_user(
            "Marketing", full_name="John Doe", surname="Doe", extension="4100"
        )
        wba.update_user(dn, room="9Z-001", cos="3")
        station = system.pbx().station("4100")
        assert station["Room"] == "9Z-001"
        assert station["COS"] == "3"

    def test_update_clearing_field(self, system, wba):
        dn = wba.create_user(
            "Marketing", full_name="John Doe", surname="Doe",
            extension="4100", room="2B",
        )
        wba.update_user(dn, room="")
        assert "Room" not in system.pbx().station("4100")

    def test_rename_via_form(self, system, wba):
        dn = wba.create_user(
            "Marketing", full_name="John Doe", surname="Doe", extension="4100"
        )
        wba.update_user(dn, full_name="Johnny Doe")
        assert wba.connection.exists("cn=Johnny Doe,o=Marketing,o=Lucent")
        assert system.pbx().station("4100")["Name"] == "Doe, Johnny"

    def test_delete_user_cleans_devices(self, system, wba):
        dn = wba.create_user(
            "Marketing", full_name="John Doe", surname="Doe", extension="4100"
        )
        wba.delete_user(dn)
        assert not system.pbx().contains("4100")
        assert system.messaging.size() == 0

    def test_invalid_form_never_reaches_devices(self, system, wba):
        with pytest.raises(FormValidationError):
            wba.create_user("Marketing", full_name="X", surname="Y", extension="bad")
        assert system.pbx().size() == 0

    def test_list_users(self, wba):
        wba.create_user("Marketing", full_name="B B", surname="B", extension="4101")
        wba.create_user("R&D", full_name="A A", surname="A", extension="4100")
        rows = wba.list_users()
        assert [r.name for r in rows] == ["A A", "B B"]
        assert rows[0].extension == "4100"

    def test_renderers(self, system, wba):
        dn = wba.create_user(
            "Marketing", full_name="John Doe", surname="Doe", extension="4100"
        )
        listing = wba.render_user_list()
        assert "John Doe" in listing and "4100" in listing
        form = wba.render_user_form(dn)
        assert "PBX extension" in form and "(read-only)" in form


class TestHoteling:
    """Section 4.5: redirecting an extension to another room as needed."""

    def test_checkin_moves_room_and_port(self, system, wba):
        dn = wba.create_user(
            "Marketing", full_name="John Doe", surname="Doe",
            extension="4100", room="2B-110",
        )
        wba.hotel_checkin(dn, room="6F-002", port="02B0101")
        station = system.pbx().station("4100")
        assert station["Room"] == "6F-002"
        assert station["Port"] == "02B0101"

    def test_checkout_restores_home_room(self, system, wba):
        dn = wba.create_user(
            "Marketing", full_name="John Doe", surname="Doe",
            extension="4100", room="2B-110",
        )
        wba.hotel_checkin(dn, room="6F-002", port="02B0101")
        wba.hotel_checkout(dn)
        station = system.pbx().station("4100")
        assert station["Room"] == "2B-110"
        assert "Port" not in station

    def test_checkin_without_extension_rejected(self, system, wba):
        dn = wba.create_user("Marketing", full_name="NoPhone", surname="P")
        with pytest.raises(LdapError):
            wba.hotel_checkin(dn, room="6F-002")

    def test_visiting_desk_visible_to_device_admins(self, system, wba):
        """The same data is visible on the legacy terminal — the point of
        the meta-directory."""
        dn = wba.create_user(
            "Marketing", full_name="John Doe", surname="Doe",
            extension="4100", room="2B-110",
        )
        wba.hotel_checkin(dn, room="6F-002")
        response = system.terminal().execute("display station 4100")
        assert "6F-002" in response.text
