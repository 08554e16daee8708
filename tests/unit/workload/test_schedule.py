"""Unit tests for the lazy churn stream (repro.workload.schedule)."""

import io
import itertools
import json

import pytest

from repro.workload import (
    ChurnModel,
    ChurnSchedule,
    JOIN,
    LEAVE,
    MembershipLedger,
    RegionalDeparture,
    SessionDuration,
)
from repro.workload.model import WorkloadError
from repro.workload.schedule import write_stream_jsonl

SITES = ("a", "b", "c", "d")


def make_schedule(seed=7, channels=20, departures=(), **model_kwargs):
    model = ChurnModel(
        channels=channels, base_rate=20.0,
        session=SessionDuration(scale=5.0, cap=20.0),
        departures=departures,
        **model_kwargs,
    )
    return ChurnSchedule(model, SITES, seed=seed, slot=8.0)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = list(make_schedule(seed=3).events(limit=500))
        b = list(make_schedule(seed=3).events(limit=500))
        assert a == b

    def test_different_seed_different_stream(self):
        a = list(make_schedule(seed=3).events(limit=100))
        b = list(make_schedule(seed=4).events(limit=100))
        assert a != b

    def test_sites_order_irrelevant(self):
        model = make_schedule().model
        fwd = ChurnSchedule(model, SITES, seed=5, slot=8.0)
        rev = ChurnSchedule(model, tuple(reversed(SITES)), seed=5, slot=8.0)
        assert list(fwd.events(limit=200)) == list(rev.events(limit=200))


class TestStreamStructure:
    def test_time_ordered(self):
        events = list(make_schedule().events(limit=1_000))
        times = [event.time for event in events]
        assert times == sorted(times)

    def test_joins_precede_their_leaves(self):
        events = list(make_schedule().events(limit=1_000))
        join_times = {}
        for event in events:
            if event.kind == JOIN:
                join_times[event.seq] = event.time
            else:
                assert event.seq in join_times
                assert event.time >= join_times[event.seq]

    def test_replays_cleanly_through_a_ledger(self):
        ledger = MembershipLedger()
        for event in make_schedule().events(limit=2_000):
            if event.kind == JOIN:
                ledger.add(event.channel, event.site, hosts=event.hosts,
                           now=event.time)
            else:
                ledger.remove(event.channel, event.site, hosts=event.hosts)

    def test_channels_in_range(self):
        for event in make_schedule(channels=5).events(limit=500):
            assert 0 <= event.channel < 5


class TestSlicingAndSharding:
    def test_shards_partition_the_limited_stream(self):
        schedule = make_schedule(channels=10)
        full = list(schedule.events(limit=600))
        shards = [
            list(schedule.events(limit=600, channels=range(s, 10, 3)))
            for s in range(3)
        ]
        recombined = sorted(
            itertools.chain.from_iterable(shards),
            key=lambda e: (e.time, 0 if e.kind == JOIN else 1, e.seq),
        )
        assert recombined == full

    def test_start_equals_dropping_the_prefix(self):
        schedule = make_schedule()
        full = list(schedule.events(limit=600))
        cut = 20.0
        resumed = list(schedule.events(limit=600, start=cut))
        assert resumed == [e for e in full if e.time >= cut]


class TestRegionalDepartures:
    def test_departure_retimes_leaves(self):
        trigger = 12.0
        baseline = make_schedule(seed=9)
        departing = make_schedule(
            seed=9,
            departures=(RegionalDeparture(time=trigger, sites=("a", "b"),
                                          fraction=1.0),),
        )
        base_events = list(baseline.events(limit=800))
        dep_events = list(departing.events(limit=800))
        assert base_events != dep_events
        # Every session at a region site spanning the trigger leaves at
        # exactly the trigger instant.
        mass_leaves = [e for e in dep_events
                       if e.kind == LEAVE and e.time == trigger]
        assert mass_leaves
        assert all(e.site in ("a", "b") for e in mass_leaves)

    def test_unknown_departure_site_rejected(self):
        with pytest.raises(WorkloadError):
            make_schedule(
                departures=(RegionalDeparture(time=1.0, sites=("zz",)),),
            )


class TestValidationAndIntrospection:
    def test_needs_sites(self):
        model = make_schedule().model
        with pytest.raises(WorkloadError):
            ChurnSchedule(model, ())

    def test_negative_limit_rejected_at_the_call(self):
        with pytest.raises(WorkloadError, match="event limit"):
            make_schedule().events(limit=-5)

    def test_zero_limit_is_an_empty_stream(self):
        assert list(make_schedule().events(limit=0)) == []

    def test_bad_slot(self):
        model = make_schedule().model
        with pytest.raises(WorkloadError):
            ChurnSchedule(model, SITES, slot=0.0)

    def test_active_sessions_is_a_stream_not_a_state(self):
        with pytest.raises(WorkloadError):
            make_schedule().active_sessions()

    def test_describe(self):
        text = make_schedule().describe()
        assert "ChurnSchedule" in text and "4 sites" in text


class TestLaziness:
    """The stream is merged in slot order as it is drawn: pulling N
    events draws at most N sessions plus one lookahead join (the join
    whose due leaves are yielded first), never a whole 64 s slot."""

    @pytest.mark.parametrize("n", [1, 10, 4_000])
    def test_prefix_draws_only_what_it_yields(self, n, monkeypatch):
        from repro.experiments.churn import (
            build_schedule,
            get_scenario,
            scenario_setup,
        )

        scenario = get_scenario("iptv-primetime")
        setup = scenario_setup(scenario, 1)
        schedule = build_schedule(scenario, tuple(setup.candidates), 1)
        draws = []
        sample = SessionDuration.sample

        def counted(self, rng):
            draws.append(None)
            return sample(self, rng)

        monkeypatch.setattr(SessionDuration, "sample", counted)
        assert len(list(schedule.events(limit=n))) == n
        assert len(draws) <= n + 1


class TestJsonl:
    def test_round_trips_sorted_keys(self):
        schedule = make_schedule()
        buffer = io.StringIO()
        count = write_stream_jsonl(schedule.events(limit=10), buffer)
        lines = buffer.getvalue().splitlines()
        assert count == len(lines) == 10
        for line in lines:
            record = json.loads(line)
            assert list(record) == sorted(record)
            assert record["kind"] in (JOIN, LEAVE)
