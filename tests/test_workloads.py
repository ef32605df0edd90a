"""Tests for the synthetic workload generators."""


from repro.core import MetaComm, MetaCommConfig
from repro.workloads import (
    NameGenerator,
    UpdatePath,
    apply_stream,
    make_population,
    make_stream,
    populate_via_ldap,
    populate_via_pbx,
)


class TestNameGenerator:
    def test_deterministic_with_seed(self):
        a = [NameGenerator(42).full_name() for _ in range(10)]
        b = [NameGenerator(42).full_name() for _ in range(10)]
        # Two separate generators with the same seed produce the same names.
        assert [NameGenerator(42).full_name() for _ in range(1)] == [
            NameGenerator(42).full_name() for _ in range(1)
        ]
        gen1, gen2 = NameGenerator(42), NameGenerator(42)
        assert [gen1.full_name() for _ in range(10)] == [
            gen2.full_name() for _ in range(10)
        ]

    def test_names_unique(self):
        gen = NameGenerator(1)
        names = [gen.full_name() for _ in range(300)]
        assert len(set(names)) == 300

    def test_pbx_name_mostly_clean(self):
        gen = NameGenerator(3)
        clean = sum(
             1 for _ in range(200)
            if ", " in gen.pbx_name("John", "Doe")
        )
        assert clean > 120  # mostly the Definity convention, some dirt


class TestPopulation:
    def test_population_shape(self):
        people = make_population(50, seed=1)
        assert len(people) == 50
        assert len({p.extension for p in people}) == 50
        assert all(p.extension.startswith("4") for p in people)
        assert all(p.cn == f"{p.given} {p.surname}" for p in people)

    def test_population_deterministic(self):
        assert make_population(20, seed=9) == make_population(20, seed=9)

    def test_populate_via_ldap_provisions_everything(self):
        with MetaComm(MetaCommConfig()) as system:
            people = make_population(10)
            assert populate_via_ldap(system, people) == 10
            assert system.pbx().size() == 10
            assert system.messaging.size() == 10
            assert system.consistent()

    def test_populate_via_pbx_is_silent(self):
        with MetaComm(MetaCommConfig()) as system:
            people = make_population(10)
            assert populate_via_pbx(system, people) == 10
            assert system.pbx().size() == 10
            assert system.server.size() <= 2  # suffix + error container only
            # Until a sync runs, the directory knows nothing.
            report = system.sync.synchronize("definity")
            assert report.added == 10
            assert system.consistent()


class TestUpdateStream:
    def test_stream_shape(self):
        people = make_population(10)
        events = make_stream(people, 100, ddu_fraction=0.3, seed=5)
        assert len(events) == 100
        ddus = sum(1 for e in events if e.path is UpdatePath.DDU)
        assert 10 < ddus < 60

    def test_conflict_probability_repeats_targets(self):
        people = make_population(10)
        events = make_stream(people, 200, conflict_probability=0.9, seed=5)
        repeats = sum(
            1
            for prev, cur in zip(events, events[1:])
            if prev.person is cur.person
        )
        assert repeats > 120

    def test_zero_conflicts_rarely_repeat(self):
        people = make_population(50)
        events = make_stream(people, 200, conflict_probability=0.0, seed=5)
        repeats = sum(
            1
            for prev, cur in zip(events, events[1:])
            if prev.person is cur.person
        )
        assert repeats < 20

    def test_apply_stream_keeps_system_consistent(self):
        with MetaComm(MetaCommConfig()) as system:
            people = make_population(10)
            populate_via_ldap(system, people)
            events = make_stream(people, 50, ddu_fraction=0.4, seed=11)
            assert apply_stream(system, events) == 50
            assert system.consistent()

    def test_stream_deterministic(self):
        people = make_population(5)
        assert make_stream(people, 30, seed=2) == make_stream(people, 30, seed=2)
