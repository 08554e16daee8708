"""Integration: the churn experiment end to end.

The acceptance contract for ``experiments churn``: archives are
byte-identical between ``--jobs 1`` and ``--jobs 2`` (sharding is fixed,
parallelism only changes scheduling), the metrics planes all populate,
and the stream prefix matches the committed golden.
"""

import hashlib
import io
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.experiments.churn import (
    SHARD_COUNT,
    archive_text,
    get_scenario,
    render_report,
    run_churn,
    write_stream_prefix,
)

# A trimmed ci-small keeps the whole module comfortably fast while
# still exercising both protocols, all shards and the settle loop.
RUN_KWARGS = dict(scenario_name="ci-small", seed=1, events=600,
                  channels=30)


@pytest.fixture(scope="module")
def serial_payloads():
    return run_churn(jobs=1, **RUN_KWARGS)


class TestDeterminismAcrossJobs:
    def test_archive_is_byte_identical_at_two_workers(
            self, serial_payloads):
        parallel_payloads = run_churn(jobs=2, **RUN_KWARGS)
        assert archive_text(parallel_payloads, "ci-small", 1) == \
            archive_text(serial_payloads, "ci-small", 1)

    def test_report_is_deterministic(self, serial_payloads):
        again = run_churn(jobs=1, **RUN_KWARGS)
        assert render_report(again, "ci-small", 1) == \
            render_report(serial_payloads, "ci-small", 1)


class TestPayloadShape:
    def test_one_payload_per_protocol_shard(self, serial_payloads):
        assert len(serial_payloads) == 2 * SHARD_COUNT
        for payload in serial_payloads:
            assert payload["scenario"] == "ci-small"
            assert payload["protocol"] in ("hbh", "reunite")
            assert 0 <= payload["shard"] < SHARD_COUNT

    def test_all_events_applied_once(self, serial_payloads):
        for protocol in ("hbh", "reunite"):
            applied = sum(p["events_applied"] for p in serial_payloads
                          if p["protocol"] == protocol)
            assert applied == RUN_KWARGS["events"]

    def test_metrics_planes_populate(self, serial_payloads):
        for payload in serial_payloads:
            digest = payload["metrics"]
            assert digest["churn.events.join"]["value"] > 0
            assert digest["churn.edges.join"]["value"] > 0
            assert digest["convergence.latency"]["count"] > 0
            assert digest["control.messages"]["value"] > 0
            assert "tree.churn.entries" in digest

    def test_oracle_ran_clean(self, serial_payloads):
        checked = sum(p["metrics"].get("churn.oracle.checked",
                                       {"value": 0})["value"]
                      for p in serial_payloads)
        violations = sum(p["metrics"].get("churn.oracle.violations",
                                          {"value": 0})["value"]
                         for p in serial_payloads)
        assert checked > 0
        assert violations == 0


class TestGoldenStreamPrefix:
    def test_prefix_matches_committed_golden(self):
        """Regenerate with::

            PYTHONPATH=src python -m repro.experiments churn \
                --scenario ci-small --seed 1 \
                --stream-out tests/golden/churn_stream_prefix.jsonl
        """
        golden = (Path(__file__).parent.parent / "golden"
                  / "churn_stream_prefix.jsonl")
        buffer = io.StringIO()
        count = write_stream_prefix("ci-small", 1, buffer, limit=256)
        assert count == 256
        assert buffer.getvalue() == golden.read_text()

    def test_blackout_stream_matches_committed_digest(self):
        """The regional-blackout stream across its t=300 s departure
        (event #267,776 is the first after it; 23,288 leaves are retimed
        to the trigger).  The digest is ``sha256sum``'s, checked by CI
        as well; regenerate with::

            PYTHONPATH=src python -m repro.experiments churn \
                --scenario regional-blackout --seed 1 --events 1 \
                --stream-out blackout.jsonl --stream-limit 270000
            sha256sum blackout.jsonl \
                > tests/golden/churn_blackout_stream.sha256
        """
        golden = (Path(__file__).parent.parent / "golden"
                  / "churn_blackout_stream.sha256")
        buffer = io.StringIO()
        count = write_stream_prefix("regional-blackout", 1, buffer,
                                    limit=270_000)
        assert count == 270_000
        digest = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
        assert digest == golden.read_text().split()[0]


class TestSizeOverrides:
    def test_zero_events_means_zero_not_the_default(self):
        payloads = run_churn(scenario_name="ci-small", seed=1, events=0,
                             channels=30)
        assert len(payloads) == 2 * SHARD_COUNT
        assert all(p["events_applied"] == 0 for p in payloads)

    @pytest.mark.parametrize("sizes", [dict(events=-5), dict(channels=0)])
    def test_bad_sizes_fail_before_any_cell(self, sizes):
        with pytest.raises(ExperimentError, match="churn needs"):
            run_churn(scenario_name="ci-small", seed=1, **sizes)


class TestScenarioCatalogue:
    def test_known_scenarios_resolve(self):
        for name in ("iptv-primetime", "flash-crowd", "regional-blackout",
                     "ci-small"):
            scenario = get_scenario(name)
            assert scenario.name == name
            assert scenario.channels > 0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ExperimentError):
            get_scenario("nope")
