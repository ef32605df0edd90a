"""F2 — Figure 2: the sample LDAP tree.

The paper's Figure 2 shows o=Lucent with four organizations and one person
under each: cn=John Doe (Marketing), cn=Pat Smith (Accounting),
cn=Tim Dickens (R&D), cn=Jill Lu (DEN Group).  This experiment builds that
exact tree, verifies the DN semantics the section-2 text walks through,
and benchmarks subtree search over it.
"""

from conftest import person_attrs, report, tracked

from repro.core import MetaComm, MetaCommConfig
from repro.ldap import DN, Scope

FIGURE_2 = {
    "Marketing": "John Doe",
    "Accounting": "Pat Smith",
    "R&D": "Tim Dickens",
    "DEN Group": "Jill Lu",
}


def build_tree() -> MetaComm:
    system = tracked(
        MetaComm(
            MetaCommConfig(organizations=tuple(FIGURE_2), messaging_name=None)
        )
    )
    conn = system.connection()
    for org, cn in FIGURE_2.items():
        conn.add(
            f"cn={cn},o={org},o=Lucent",
            person_attrs(cn, cn.split()[-1]),
        )
    return system


def test_f2_tree_structure_and_search(benchmark):
    system = build_tree()
    conn = system.connection()

    # Section 2: "the DN for John Doe is cn=John Doe, o=Marketing, o=Lucent".
    john = conn.get("cn=John Doe, o=Marketing, o=Lucent")
    assert john.first("cn") == "John Doe"
    # The DN is a leaf-to-root path; its parent is the organization.
    assert str(john.dn.parent()) == "o=Marketing,o=Lucent"
    # RDNs are unique among the children of a parent: a second John Doe
    # under Marketing must be rejected.
    from repro.ldap import LdapError

    try:
        conn.add("cn=John Doe,o=Marketing,o=Lucent", person_attrs("John Doe", "Doe"))
        raise AssertionError("duplicate RDN accepted")
    except LdapError:
        pass

    def subtree_people():
        return conn.search("o=Lucent", Scope.SUB, "(objectClass=person)")

    people = benchmark(subtree_people)
    assert {e.first("cn") for e in people} == set(FIGURE_2.values())

    # One-level search sees exactly the organizations (plus the error log).
    orgs = conn.search("o=Lucent", Scope.ONE, "(objectClass=organization)")
    assert {e.first("o") for e in orgs} == set(FIGURE_2)

    report(
        "F2: the Figure-2 tree",
        ["dn"],
        [(f"cn={cn},o={org},o=Lucent",) for org, cn in FIGURE_2.items()],
    )


def test_f2_subtree_relocation(benchmark):
    """Section 2: 'it is straightforward to move an arbitrary sub-tree' —
    renaming an organization re-keys its whole subtree."""
    system = build_tree()
    conn = system.connection()

    def rename_and_back():
        conn.modify_rdn("o=Marketing,o=Lucent", "o=Sales")
        assert conn.exists("cn=John Doe,o=Sales,o=Lucent")
        conn.modify_rdn("o=Sales,o=Lucent", "o=Marketing")

    benchmark(rename_and_back)
    assert conn.exists("cn=John Doe,o=Marketing,o=Lucent")
