"""Property-based tests for the churn workload (repro.workload).

The determinism contract under test: a stream is a pure function of
(model, sites, seed, slot) — independent of process, hash seed, caller
site-ordering, and of how the stream is sliced or sharded.  The lazy
in-slot merge is checked against a whole-slot reference generator
(draw every arrival of a slot, apply its departures, sort, emit).
"""

import itertools
import os
import random
import subprocess
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.workload import (
    ChurnModel,
    ChurnSchedule,
    DiurnalCurve,
    FlashCrowd,
    JOIN,
    LEAVE,
    MembershipEvent,
    RegionalDeparture,
    SessionDuration,
    ZipfPopularity,
)

COMMON = settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
SITES = ("n1", "n2", "n3", "n4", "n5")


def sort_key(event):
    return (event.time, 0 if event.kind == JOIN else 1, event.seq)


@st.composite
def regional_departures(draw, slot):
    """0-4 departures: fractions in (0, 1], some sharing one slot, some
    triggering exactly on a slot boundary."""
    departures = []
    for _ in range(draw(st.integers(0, 4))):
        placement = draw(st.sampled_from(("free", "boundary", "shared")))
        if placement == "boundary":
            time = draw(st.integers(0, 2)) * slot
        elif placement == "shared" and departures:
            first = departures[0].time // slot * slot
            time = first + draw(st.floats(0.0, 0.999)) * slot
        else:
            time = draw(st.floats(0.0, 15.0))
        departures.append(RegionalDeparture(
            time=time,
            sites=tuple(draw(st.lists(st.sampled_from(SITES), min_size=1,
                                      max_size=len(SITES), unique=True))),
            fraction=draw(st.floats(0.0, 1.0, exclude_min=True)),
        ))
    return tuple(departures)


@st.composite
def churn_models(draw, slot=64.0):
    channels = draw(st.integers(2, 40))
    base_rate = draw(st.floats(1.0, 50.0, allow_nan=False))
    kind = draw(st.sampled_from(SessionDuration.KINDS))
    scale = draw(st.floats(1.0, 30.0))
    diurnal = None
    if draw(st.booleans()):
        trough = draw(st.floats(0.1, 1.0))
        peak = draw(st.floats(1.0, 3.0))
        diurnal = DiurnalCurve(peak=peak, trough=trough,
                               period=draw(st.floats(50.0, 500.0)))
    crowds = ()
    if draw(st.booleans()):
        crowds = (FlashCrowd(time=draw(st.floats(0.0, 100.0)),
                             magnitude=draw(st.floats(1.0, 5.0)),
                             rise=draw(st.floats(1.0, 30.0)),
                             decay=draw(st.floats(1.0, 60.0))),)
    return ChurnModel(
        channels=channels, base_rate=base_rate,
        session=SessionDuration(kind=kind, scale=scale, cap=scale * 4),
        popularity_exponent=draw(st.floats(0.0, 1.5)),
        diurnal=diurnal, flash_crowds=crowds,
        departures=draw(regional_departures(slot)),
        host_scale=draw(st.integers(1, 100)),
    )


@st.composite
def churn_schedules(draw):
    """A schedule over a drawn slot width, model and seed."""
    slot = draw(st.one_of(st.just(64.0), st.floats(0.5, 64.0)))
    return ChurnSchedule(draw(churn_models(slot)), SITES,
                         seed=draw(st.integers(0, 2**16)), slot=slot)


def whole_slot_reference(schedule):
    """The stream as whole slots: draw all of a slot's arrivals, apply
    the departures triggering in it, then sort and emit joins and due
    leaves together."""
    model, sites, slot, seed = (schedule.model, schedule.sites,
                                schedule.slot, schedule.seed)
    popularity, peak = model.popularity(), model.peak_rate()
    pending = {}
    departures = sorted(enumerate(model.departures),
                        key=lambda pair: (pair[1].time, pair[0]))
    seq = 0
    for k in itertools.count():
        slot_end = k * slot + slot
        rng = random.Random(f"{seed}/churn/{k}")
        joins = []
        t = k * slot
        while True:
            t += rng.expovariate(peak)
            if t >= slot_end:
                break
            if rng.random() * peak > model.rate(t):
                continue
            channel = popularity.sample(rng)
            site = sites[rng.randrange(len(sites))]
            leave_time = t + model.session.sample(rng)
            joins.append(MembershipEvent(t, JOIN, channel, site,
                                         model.host_scale, seq))
            pending.setdefault(int(leave_time // slot), []).append(
                [leave_time, t, channel, site, seq])
            seq += 1
        while departures and departures[0][1].time < slot_end:
            index, departure = departures.pop(0)
            dep_rng = random.Random(f"{seed}/departure/{index}")
            trigger, moved = departure.time, []
            for key in sorted(pending):
                if (key + 1) * slot <= trigger:
                    continue
                kept = []
                for entry in pending[key]:
                    if (entry[1] <= trigger < entry[0]
                            and entry[3] in departure.sites
                            and dep_rng.random() < departure.fraction):
                        entry[0] = trigger
                        moved.append(entry)
                    else:
                        kept.append(entry)
                pending[key] = kept
            if moved:
                pending.setdefault(int(trigger // slot), []).extend(moved)
        leaves = [MembershipEvent(e[0], LEAVE, e[2], e[3],
                                  model.host_scale, e[4])
                  for e in pending.pop(k, ())]
        yield from sorted(joins + leaves, key=sort_key)


class TestSeedDeterminism:
    @COMMON
    @given(churn_models(), st.integers(0, 2**32))
    def test_same_seed_means_identical_stream(self, model, seed):
        first = list(ChurnSchedule(model, SITES, seed=seed)
                     .events(limit=120))
        second = list(ChurnSchedule(model, SITES, seed=seed)
                      .events(limit=120))
        assert first == second

    @COMMON
    @given(churn_models(), st.integers(0, 2**16))
    def test_site_ordering_is_irrelevant(self, model, seed):
        fwd = ChurnSchedule(model, SITES, seed=seed)
        rev = ChurnSchedule(model, tuple(reversed(SITES)), seed=seed)
        assert list(fwd.events(limit=80)) == list(rev.events(limit=80))

    def test_stream_survives_pythonhashseed(self):
        """The stream is byte-identical across hash-randomized
        interpreters — string seeding, not hash(), keys the RNGs."""
        script = (
            "import json, sys\n"
            "from repro.workload import ChurnModel, ChurnSchedule, "
            "SessionDuration\n"
            "model = ChurnModel(channels=8, base_rate=12.0,\n"
            "    session=SessionDuration(scale=4.0, cap=16.0))\n"
            "schedule = ChurnSchedule(model, ('x', 'y', 'z'), seed=11)\n"
            "for event in schedule.events(limit=40):\n"
            "    print(json.dumps(event.to_dict(), sort_keys=True))\n"
        )
        outputs = []
        for hashseed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, ["src", env.get("PYTHONPATH", "")]))
            result = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\n") == 40


class TestSlicingEquivalence:
    @COMMON
    @given(churn_schedules(), st.integers(2, 4))
    def test_shards_partition_the_stream(self, schedule, shards):
        full = list(schedule.events(limit=90))
        channels = schedule.model.channels
        pieces = [
            list(schedule.events(
                limit=90, channels=range(s, channels, shards)))
            for s in range(shards)
        ]
        recombined = sorted(itertools.chain.from_iterable(pieces),
                            key=sort_key)
        assert recombined == full

    @COMMON
    @given(churn_schedules(), st.floats(1.0, 60.0, allow_nan=False))
    def test_resume_equals_prefix_drop(self, schedule, cut):
        full = list(schedule.events(limit=90))
        resumed = list(schedule.events(limit=90, start=cut))
        assert resumed == [e for e in full if e.time >= cut]


class TestLazyMerge:
    @COMMON
    @given(churn_schedules())
    def test_lazy_merge_equals_whole_slot_reference(self, schedule):
        lazy = list(schedule.events(limit=1_000))
        reference = list(itertools.islice(whole_slot_reference(schedule),
                                          1_000))
        assert lazy == reference


class TestModelBounds:
    @COMMON
    @given(st.floats(0.1, 1.0), st.floats(1.0, 4.0),
           st.floats(10.0, 1000.0), st.floats(0.0, 2000.0))
    def test_diurnal_stays_within_band(self, trough, peak, period, t):
        curve = DiurnalCurve(peak=peak, trough=trough, period=period)
        assert trough - 1e-9 <= curve.multiplier(t) <= peak + 1e-9

    @COMMON
    @given(st.integers(1, 500), st.floats(0.0, 2.0))
    def test_zipf_shares_are_a_distribution(self, channels, exponent):
        pop = ZipfPopularity(channels, exponent=exponent)
        shares = [pop.share(c) for c in range(channels)]
        assert all(s > 0 for s in shares)
        assert abs(sum(shares) - 1.0) < 1e-9
        # Non-increasing in rank (up to cdf-difference rounding noise).
        assert all(shares[i] >= shares[i + 1] - 1e-12
                   for i in range(channels - 1))

    @COMMON
    @given(churn_models(), st.floats(0.0, 1000.0))
    def test_rate_never_exceeds_envelope(self, model, t):
        assert model.rate(t) <= model.peak_rate() + 1e-9
