"""Seeded inputs and the expected-state model for the MetaComm benchmark.

Everything here is plain data: the people preloaded into the directory,
the per-client operation streams, and the state every repository should
hold after a prefix of those streams has run.  The system under test
receives only what this module generates; it never sees the seed.

A person fans out to exactly one PBX (chosen by extension prefix) and to
the messaging platform.  Names are built so that every mapping round-trip
is lossless: ``cn`` is ``"<given> <surname>"`` with a surname that holds
no space or comma, which the PBX shows as ``"<surname>, <given>"``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

#: Extension prefixes of the four PBXes; an extension is prefix + 3 digits.
PREFIXES = ("41", "42", "43", "44")
#: People per PBX in the preloaded directory (4 x 500 = 2,000).
PEOPLE_PER_PBX = 500
#: The deployment's dial-plan prefix (``MetaCommConfig.phone_prefix``).
PHONE_PREFIX = "+1 908 582 "
SUFFIX = "o=Lucent"

GIVEN = (
    "Ada", "Alan", "Barbara", "Bjarne", "Brian", "Carl", "Dana", "Donald",
    "Edsger", "Frances", "Grace", "Guido", "Hedy", "Ivan", "Jean", "Ken",
    "Leslie", "Linus", "Margaret", "Niklaus", "Radia", "Robin", "Sophie",
    "Tim", "Ursula", "Vint", "Whitfield", "Yukihiro",
)
SURNAMES = (
    "Abbott", "Baker", "Castro", "Dunn", "Ellis", "Fischer", "Garcia",
    "Hughes", "Ito", "Jensen", "Kowalski", "Larsen", "Moreau", "Novak",
    "Okafor", "Patel", "Quinn", "Rossi", "Sato", "Tanaka", "Ueda",
    "Varga", "Weber", "Xu", "Yilmaz", "Zhang", "Murphy", "Olsen",
    "Schmidt", "Nguyen", "Kim", "Silva", "Haddad", "Ivanova", "Lopez",
    "Mendes", "Brown", "Costa", "Dubois", "Eriksen",
)
BUILDINGS = ("MH", "HO", "WST", "NR", "IH", "CR")

#: Operation mix per step (each step is one point read, then this update).
MIX = (
    ("modify", 0.62),
    ("ddu", 0.20),
    ("add", 0.08),
    ("delete", 0.08),
    ("rename", 0.02),
)
#: Device-side fields a DDU changes; each name is also its OSSI keyword.
DDU_FIELDS = ("room", "cos", "building")
#: LDAP attributes an administrator's modify may replace.
LDAP_FIELDS = {
    "room": "definityRoom",
    "cos": "definityCOS",
    "building": "definityBuilding",
    "mp_cos": "mpCOS",
}


def _tag(n: int) -> str:
    """A lowercase letter suffix that makes surname ``n`` unique."""
    out = ""
    while n:
        n, digit = divmod(n - 1, 26)
        out = chr(ord("a") + digit) + out
    return out


@dataclass(frozen=True, slots=True)
class Person:
    pid: int
    #: The ``givenName`` attribute, fixed when the person is created.
    given_name: str
    #: The first word of ``cn``; a rename changes it.
    given: str
    surname: str
    ext: str
    room: str
    cos: str
    building: str
    mp_cos: str
    #: The messaging platform's SubscriberName: set from cn when the
    #: subscriber is provisioned and kept across renames.
    mp_name: str

    @property
    def cn(self) -> str:
        return f"{self.given} {self.surname}"

    @property
    def dn(self) -> str:
        return f"cn={self.cn},{SUFFIX}"

    @property
    def phone(self) -> str:
        return PHONE_PREFIX + self.ext

    def ldap_add_attributes(self, person_classes) -> dict:
        return {
            "objectClass": list(person_classes),
            "cn": self.cn,
            "sn": self.surname,
            "givenName": self.given_name,
            "definityExtension": self.ext,
            "definityRoom": self.room,
            "definityCOS": self.cos,
            "definityBuilding": self.building,
            "mpCOS": self.mp_cos,
        }

    def directory_view(self) -> dict[str, list[str]]:
        """The attributes the directory entry must carry (a subset)."""
        return {
            "cn": [self.cn],
            "sn": [self.surname],
            "givenName": [self.given_name],
            "definityExtension": [self.ext],
            "telephoneNumber": [self.phone],
            "definityRoom": [self.room],
            "definityCOS": [self.cos],
            "definityBuilding": [self.building],
            "mpCOS": [self.mp_cos],
            "mpSubscriberName": [self.mp_name],
        }

    def pbx_view(self) -> dict[str, str]:
        return {
            "Extension": self.ext,
            "Name": f"{self.surname}, {self.given}",
            "Room": self.room,
            "COS": self.cos,
            "Building": self.building,
        }

    def mp_view(self) -> dict[str, str]:
        return {
            "TelephoneNumber": self.phone,
            "SubscriberName": self.mp_name,
            "COS": self.mp_cos,
        }


@dataclass(frozen=True, slots=True)
class Op:
    """One benchmark step: a point read of ``read_ext`` then one update.

    ``before`` is what the read must return (``None``: no entry) and
    ``after`` the person's state once the update is acknowledged
    (``None`` for a delete).  ``changes`` holds the fields a modify or
    DDU replaces."""

    kind: str
    read_ext: str
    before: Person | None
    after: Person | None
    changes: tuple[tuple[str, str], ...] = ()

    @property
    def pid(self) -> int:
        return (self.after or self.before).pid


def _room(rng: random.Random) -> str:
    return f"{rng.randint(1, 9)}{rng.choice('ABC')}-{rng.randint(100, 999)}"


def _new_person(rng: random.Random, pid: int, ext: str) -> Person:
    surname = SURNAMES[pid % len(SURNAMES)] + _tag(pid // len(SURNAMES))
    given = rng.choice(GIVEN)
    return Person(
        pid=pid,
        given_name=given,
        given=given,
        surname=surname,
        ext=ext,
        room=_room(rng),
        cos=str(rng.randint(1, 9)),
        building=rng.choice(BUILDINGS),
        mp_cos=str(rng.randint(1, 9)),
        mp_name=f"{given} {surname}",
    )


def _value(rng: random.Random, field: str) -> str:
    if field == "room":
        return _room(rng)
    if field == "building":
        return rng.choice(BUILDINGS)
    return str(rng.randint(1, 9))  # cos, mp_cos


class Population:
    """The preloaded directory plus each client's owned partitions."""

    def __init__(self, seed: int, people_per_pbx: int = PEOPLE_PER_PBX):
        rng = random.Random(seed)
        self.people: dict[int, Person] = {}
        self.free: dict[str, list[str]] = {}
        self.next_pid = 0
        for prefix in PREFIXES:
            slots = [f"{prefix}{n:03d}" for n in range(1000)]
            rng.shuffle(slots)
            used, self.free[prefix] = (
                slots[:people_per_pbx],
                sorted(slots[people_per_pbx:]),
            )
            for ext in used:
                person = _new_person(rng, self.next_pid, ext)
                self.people[person.pid] = person
                self.next_pid += 1

    def preload_order(self) -> list[Person]:
        return [self.people[pid] for pid in sorted(self.people)]


def partition(prefixes: tuple[str, ...], clients: int) -> list[tuple[str, ...]]:
    """Split the PBX prefixes into ``clients`` disjoint, equal groups."""
    size = len(prefixes) // clients
    return [prefixes[i * size:(i + 1) * size] for i in range(clients)]


def make_streams(
    seed: int, population: Population, clients: int, length: int
) -> list[list[Op]]:
    """``length`` operations per client over disjoint PBX partitions.

    The generator simulates the state its own operations produce, so
    every operation is valid (no add of a taken extension, no update of
    a deleted person) when the stream runs in order and no update
    fails."""
    streams = []
    pid_counter = [population.next_pid]
    for client, prefixes in enumerate(partition(PREFIXES, clients)):
        rng = random.Random(seed * 1009 + client + 1)
        owned = {
            pid: p
            for pid, p in population.people.items()
            if p.ext[:2] in prefixes
        }
        live = sorted(owned)
        index = {pid: i for i, pid in enumerate(live)}
        free = {prefix: list(population.free[prefix]) for prefix in prefixes}
        kinds = [k for k, _ in MIX]
        weights = [w for _, w in MIX]
        ops: list[Op] = []

        def drop(pid: int) -> None:
            i = index.pop(pid)
            last = live.pop()
            if last != pid:
                live[i] = last
                index[last] = i

        for _ in range(length):
            kind = rng.choices(kinds, weights)[0]
            if kind == "add" or (kind == "delete" and len(live) < 2):
                prefix = rng.choice(prefixes)
                slots = free[prefix]
                ext = slots.pop(rng.randrange(len(slots)))
                after = _new_person(rng, pid_counter[0], ext)
                pid_counter[0] += 1
                owned[after.pid] = after
                index[after.pid] = len(live)
                live.append(after.pid)
                ops.append(Op("add", ext, None, after))
                continue
            before = owned[live[rng.randrange(len(live))]]
            if kind == "delete":
                del owned[before.pid]
                drop(before.pid)
                free[before.ext[:2]].append(before.ext)
                ops.append(Op("delete", before.ext, before, None))
                continue
            if kind == "rename":
                given = rng.choice([g for g in GIVEN if g != before.given])
                after = replace(before, given=given)
                changes: tuple = ()
            else:
                pool = DDU_FIELDS if kind == "ddu" else LDAP_FIELDS
                fields = rng.sample(sorted(pool), rng.randint(1, 2))
                changes = tuple((f, _value(rng, f)) for f in fields)
                after = replace(before, **dict(changes))
            owned[before.pid] = after
            ops.append(Op(kind, before.ext, before, after, changes))
        streams.append(ops)
    return streams


def expected_state(
    population: Population, executed: list[list[Op]]
) -> dict[int, Person]:
    """Replay the executed prefix of every stream on the preload."""
    state = dict(population.people)
    for ops in executed:
        for op in ops:
            if op.after is None:
                state.pop(op.pid, None)
            else:
                state[op.pid] = op.after
    return state
