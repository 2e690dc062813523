"""Live telemetry and SLOs: health engine, writer, cockpit, swarm records.

Covers the run-level health plane from ``docs/observability.md`` →
*Live telemetry & SLOs*: ``--slo`` spec parsing, burn-rate breach
timing (grace/confirm semantics), the watchdog alert catalog, the
streaming :class:`TelemetryWriter` (obs file + Prometheus exposition),
the :class:`Cockpit` renderer, and the single-process
:class:`LiveSwarm` period records feeding the same stream the cluster
coordinator consumes.
"""

import io
import json

import pytest

from repro.obs import (
    Alert,
    Cockpit,
    HealthEngine,
    ObsConfig,
    SloSpec,
    SloViolation,
    TelemetryWriter,
    parse_slo,
    run_live,
)
from repro.obs.record import parse_lines, record_shard
from repro.runtime import LiveSwarm
from repro.scenarios.library import builtin_scenario


def read_lines(path):
    """Every line of an obs file as a dict (``None`` for a torn one)."""
    with open(path, encoding="utf-8") as fh:
        return list(parse_lines(fh))


def period_record(shard=0, period=0, playing=10, total=10, t=None, gauges=None, **extra):
    """One period record in the schema ``repro.obs.record.build_record`` builds."""
    body = {
        "shard": shard,
        "period": period,
        "t": float(period) if t is None else t,
        "playing": playing,
        "total": total,
        "continuity": (playing / total) if total else 1.0,
        "peers_live": 20,
        "gauges": gauges or {},
        "counters": {},
        "miss_causes": {},
        "flight": [],
    }
    body.update(extra)
    return body


class TestSloSpec:
    def test_parse_full_spec(self):
        slo = SloSpec.parse("continuity>=0.95:burn=3x:grace=5:confirm=4")
        assert slo.target == 0.95
        assert slo.burn == 3.0
        assert slo.grace == 5
        assert slo.confirm == 4
        assert slo.budget == pytest.approx(0.05)

    def test_parse_defaults_and_text_round_trip(self):
        slo = SloSpec.parse("continuity>=0.9")
        assert slo.burn == 3.0
        assert slo.confirm == 2
        assert slo.grace is None
        assert SloSpec.parse(slo.text) == slo

    def test_parse_tolerates_spaces_and_bare_burn(self):
        slo = SloSpec.parse(" continuity >= 0.8 : burn=2 ")
        assert slo.target == 0.8
        assert slo.burn == 2.0

    @pytest.mark.parametrize(
        "spec",
        [
            "latency>=0.95",  # unsupported metric
            "continuity<=0.95",  # unsupported operator
            "continuity>=1.5",  # target out of (0, 1]
            "continuity>=0.95:burn=0x",  # non-positive burn
            "continuity>=0.95:confirm=0",  # confirm below 1
            "continuity>=0.95:frobnicate=1",  # unknown option
            "nonsense",
        ],
    )
    def test_bad_specs_are_rejected(self, spec):
        with pytest.raises(ValueError):
            SloSpec.parse(spec)

    def test_parse_slo_passes_none_through(self):
        assert parse_slo(None) is None
        assert parse_slo("continuity>=0.9").target == 0.9


class TestBurnRateBreach:
    SLO = SloSpec.parse("continuity>=0.95:burn=2x:grace=1:confirm=2")

    def test_breach_after_confirm_consecutive_burning_periods(self):
        engine = HealthEngine(slo=self.SLO)
        # continuity 0.5 burns at 10x the budget — period 0 is grace,
        # periods 1 and 2 make the confirm=2 streak.
        engine.observe_record(period_record(period=0, playing=5, total=10))
        assert engine.breach is None
        engine.observe_record(period_record(period=1, playing=5, total=10))
        assert engine.breach is None, "one burning period is noise, not a breach"
        engine.observe_record(period_record(period=2, playing=5, total=10))
        assert engine.breach is not None
        assert engine.breach.kind == "continuity_burn"
        assert engine.breach.severity == "critical"
        assert engine.breach.period == 2
        assert "burned the error budget" in engine.breach.message

    def test_good_period_resets_the_streak(self):
        engine = HealthEngine(slo=self.SLO)
        engine.observe_record(period_record(period=0, playing=5, total=10))
        engine.observe_record(period_record(period=1, playing=5, total=10))
        engine.observe_record(period_record(period=2, playing=10, total=10))  # recovers
        engine.observe_record(period_record(period=3, playing=5, total=10))
        assert engine.breach is None, "non-consecutive burn must not breach"

    def test_grace_periods_never_count(self):
        slo = SloSpec.parse("continuity>=0.95:burn=2x:confirm=1")
        engine = HealthEngine(slo=slo, grace=3)
        for period in range(3):
            engine.observe_record(period_record(period=period, playing=0, total=10))
        assert engine.breach is None
        engine.observe_record(period_record(period=3, playing=0, total=10))
        assert engine.breach is not None
        assert engine.breach.period == 3

    def test_no_slo_means_no_breach_ever(self):
        engine = HealthEngine()
        for period in range(6):
            engine.observe_record(period_record(period=period, playing=0, total=10))
        assert engine.breach is None
        assert engine.alerts == []

    def test_breach_writes_a_postmortem_to_the_recorder(self):
        events, postmortems = [], []

        class Recorder:
            def flight(self, event, **fields):
                events.append((event, fields))

            def postmortem(self, reason):
                postmortems.append(reason)

        engine = HealthEngine(slo=self.SLO, recorder=Recorder())
        for period in range(3):
            engine.observe_record(period_record(period=period, playing=5, total=10))
        assert [e for e, _ in events] == ["alert"]
        assert events[0][1]["kind"] == "continuity_burn"
        assert len(postmortems) == 1
        assert "SLO breach" in postmortems[0]

    def test_violation_carries_the_alert_and_obs(self):
        alert = Alert(kind="continuity_burn", severity="critical", message="boom")
        exc = SloViolation(alert, obs={"spans": []})
        assert exc.alert is alert
        assert exc.obs == {"spans": []}
        assert "boom" in str(exc)
        assert isinstance(exc, RuntimeError)


class TestPeriodClosing:
    def test_period_closes_only_when_every_known_shard_reported(self):
        engine = HealthEngine(expected_shards=2)
        engine.observe_record(period_record(shard=0, period=0, playing=3, total=10))
        assert engine._closed_through == -1, "shard 1 has not been heard from"
        engine.observe_record(period_record(shard=1, period=0, playing=7, total=10))
        assert engine._closed_through == 0
        # Run-level continuity sums playing/total across the fleet.
        period, continuity, _ = engine.continuity[-1]
        assert period == 0
        assert continuity == pytest.approx(0.5)
        # Period 1 stays open until the slower shard reports it too.
        engine.observe_record(period_record(shard=0, period=1, playing=9, total=10))
        assert engine._closed_through == 0, "shard 1 has not reported period 1"
        engine.observe_record(period_record(shard=1, period=1, playing=7, total=10))
        assert engine._closed_through == 1
        assert engine.continuity[-1][1] == pytest.approx(0.8)

    def test_dead_shard_unblocks_closing_on_the_survivors(self):
        engine = HealthEngine()
        engine.observe_record(period_record(shard=0, period=0))
        engine.observe_record(period_record(shard=1, period=0))
        engine.observe_record(period_record(shard=0, period=1))
        engine.observe_record(period_record(shard=0, period=2))
        assert engine._closed_through == 0, "gated on shard 1"
        engine.mark_shard_dead(1)
        assert engine._closed_through == 2
        assert engine.dead_shards == {1}

    def test_empty_period_defaults_to_full_continuity(self):
        engine = HealthEngine()
        engine.observe_record(period_record(period=0, playing=0, total=0))
        _, continuity, burn = engine.continuity[-1]
        assert continuity == 1.0
        assert burn == 0.0

    def test_shard_dead_before_first_frame_still_unblocks_the_fleet(self):
        # A shard killed before it ever reports must count toward the
        # expected fleet via dead_shards, or no period would ever close.
        engine = HealthEngine(expected_shards=2)
        engine.observe_record(period_record(shard=0, period=0, playing=6, total=10))
        engine.observe_record(period_record(shard=0, period=1, playing=8, total=10))
        assert engine._closed_through == -1, "shard 1 was never heard from"
        engine.mark_shard_dead(1, reason="SIGKILL before first frame")
        assert engine._closed_through == 1, "survivor's periods close now"
        assert [c for _, c, _ in engine.continuity] == [
            pytest.approx(0.6),
            pytest.approx(0.8),
        ]
        dead = [a for a in engine.alerts if a.kind == "shard_dead"]
        assert len(dead) == 1
        assert dead[0].period is None, "no last period — it never reported"
        # Frames from the survivor keep closing periods afterwards.
        engine.observe_record(period_record(shard=0, period=2, playing=10, total=10))
        assert engine._closed_through == 2


class TestFrameRejection:
    """Frames without a valid shard id are dropped, not coerced to shard 0."""

    @pytest.mark.parametrize(
        "body",
        [
            period_record(shard=None),
            period_record(shard="1"),
            period_record(shard=1.0),
            period_record(shard=True),
            period_record(shard=-1),
            {"period": 0, "playing": 5, "total": 10},  # no shard key at all
        ],
    )
    def test_invalid_shard_is_rejected_without_polluting_state(self, body):
        engine = HealthEngine()
        engine.observe_record(body)
        assert engine.rejected_frames == 1
        assert engine.shards == {}, "no shard record was fabricated"
        assert engine._acc == {}, "no playback accumulated"
        assert engine._closed_through == -1

    def test_rejection_counts_accumulate_and_valid_frames_still_land(self):
        engine = HealthEngine()
        engine.observe_record(period_record(shard=None, playing=0, total=10))
        engine.observe_record(period_record(shard=0, period=0, playing=9, total=10))
        engine.observe_record(period_record(shard="oops", period=0, playing=0, total=10))
        assert engine.rejected_frames == 2
        assert engine.shards[0].frames == 1
        # The rejected frames' zeros never reached the rollup.
        assert engine.continuity[-1][1] == pytest.approx(0.9)

    def test_snapshot_surfaces_the_rejected_count(self):
        engine = HealthEngine()
        engine.observe_record(period_record(shard=None))
        engine.observe_record(period_record(shard=0, period=0))
        snap = engine.snapshot()
        json.dumps(snap)
        assert snap["rejected_frames"] == 1


class TestWatchdogs:
    def test_dilation_stretch_warns_once_and_rearms(self):
        engine = HealthEngine()
        engine.observe_record(period_record(period=0, gauges={"dilation_stretch": 5.0}))
        engine.observe_record(period_record(period=1, gauges={"dilation_stretch": 6.0}))
        stretch = [a for a in engine.alerts if a.kind == "dilation_stretch"]
        assert len(stretch) == 1, "one alert per episode"
        assert stretch[0].severity == "warn"
        # Recovery re-arms the watchdog; a new episode alerts again.
        engine.observe_record(period_record(period=2, gauges={"dilation_stretch": 1.0}))
        engine.observe_record(period_record(period=3, gauges={"dilation_stretch": 13.0}))
        stretch = [a for a in engine.alerts if a.kind == "dilation_stretch"]
        assert len(stretch) == 2
        assert stretch[1].severity == "critical"

    def test_credit_starvation_needs_a_stuck_streak(self):
        engine = HealthEngine()
        for period in range(2):
            engine.observe_record(
                period_record(period=period, gauges={"credit_pending_total": 4.0})
            )
        assert not any(a.kind == "credit_starvation" for a in engine.alerts)
        engine.observe_record(period_record(period=2, gauges={"credit_pending_total": 4.0}))
        starving = [a for a in engine.alerts if a.kind == "credit_starvation"]
        assert len(starving) == 1
        assert starving[0].severity == "warn"
        # Credits draining to zero ends the episode.
        engine.observe_record(period_record(period=3, gauges={"credit_pending_total": 0.0}))
        assert engine.shards[0].credit_streak == 0

    def test_lagging_shard_trips_the_stall_watchdog(self):
        engine = HealthEngine()
        engine.observe_record(period_record(shard=1, period=0))
        for period in range(5):
            engine.observe_record(period_record(shard=0, period=period))
        stalls = [a for a in engine.alerts if a.kind == "telemetry_stall"]
        assert len(stalls) == 1
        assert stalls[0].shard == 1

    def test_shard_dead_alerts_exactly_once(self):
        engine = HealthEngine()
        engine.observe_record(period_record(shard=0, period=2))
        engine.mark_shard_dead(0, reason="SIGKILL")
        engine.mark_shard_dead(0)
        dead = [a for a in engine.alerts if a.kind == "shard_dead"]
        assert len(dead) == 1
        assert dead[0].severity == "critical"
        assert "shard 0 presumed dead (SIGKILL)" in dead[0].message
        assert dead[0].period == 2

    def test_drain_alerts_returns_each_alert_once(self):
        engine = HealthEngine()
        engine.mark_shard_dead(0)
        first = engine.drain_alerts()
        assert [a.kind for a in first] == ["shard_dead"]
        assert engine.drain_alerts() == []
        assert engine.alerts == first, "history is kept even after draining"

    def test_snapshot_is_json_friendly(self):
        engine = HealthEngine(slo=SloSpec.parse("continuity>=0.9"), grace=1)
        engine.observe_record(period_record(period=0, gauges={"dilation_stretch": 5.0}))
        engine.mark_shard_dead(1)
        snap = engine.snapshot()
        json.dumps(snap)  # must serialise as-is
        assert snap["slo"] == "continuity>=0.9:burn=3x"
        assert snap["grace"] == 1
        assert snap["dead_shards"] == [1]
        assert snap["closed_through"] == 0
        assert snap["breach"] is None
        assert [a["kind"] for a in snap["alerts"]] == ["dilation_stretch", "shard_dead"]
        assert snap["shards"][0]["frames"] == 1


class TestTelemetryWriter:
    def test_jsonl_stream_and_exposition(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(path) as writer:
            writer.record(
                period_record(
                    shard=0, period=0, playing=9, total=10,
                    gauges={"dilation_stretch": 1.0},
                    counters={"messages_sent": 5},
                    miss_causes={"delivered_late": 1},
                )
            )
            writer.record(
                period_record(
                    shard=0, period=1, counters={"messages_sent": 7},
                    miss_causes={"delivered_late": 1},
                )
            )
            writer.record(period_record(shard=1, period=1))
            writer.alert(
                Alert(kind="shard_dead", severity="critical", message="gone", shard=1)
            )
        records = list(read_lines(path))
        assert [r["type"] for r in records] == ["period", "period", "period", "alert"]
        assert records[0]["continuity"] == pytest.approx(0.9)
        assert records[3]["kind"] == "shard_dead"

        prom = writer.exposition_path.read_text()
        assert writer.exposition_path.name == "telemetry.jsonl.prom"
        assert "# TYPE continu_continuity gauge" in prom
        assert 'continu_telemetry_period{shard="1"} 1' in prom
        # Counters are cumulative in a record: the latest one's totals.
        assert 'continu_messages_sent{shard="0"} 7' in prom
        assert "# TYPE continu_miss_cause_delivered_late counter" in prom

    def test_metric_names_are_sanitized_to_the_prom_charset(self, tmp_path):
        """Scenario-derived names with quotes/backslashes/newlines must
        still produce a parseable exposition file."""
        import re

        path = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(path) as writer:
            writer.record(
                period_record(
                    shard=0,
                    gauges={'weird "gauge"\nwith\\stuff': 1.5, "dotted.name-x": 2.0},
                    counters={"3starts_with_digit": 4.0},
                    miss_causes={'ca"use\\with\nnewline': 2},
                )
            )
        prom = writer.exposition_path.read_text()
        assert "continu_weird__gauge__with_stuff" in prom
        assert "continu_dotted_name_x" in prom
        assert "continu__3starts_with_digit" in prom
        assert "continu_miss_cause_ca_use_with_newline" in prom
        # Every non-comment line must match the exposition grammar.
        sample = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*\{shard="[^"\n]*"\} \S+$'
        )
        for line in prom.splitlines():
            if not line or line.startswith("# "):
                continue
            assert sample.match(line), line

    def test_colliding_sanitized_names_merge_instead_of_duplicating(self, tmp_path):
        with TelemetryWriter(tmp_path / "t.jsonl") as writer:
            writer.record(period_record(shard=0, counters={"a.b": 1.0, "a-b": 2.0}))
        prom = writer.exposition_path.read_text()
        assert prom.count('continu_a_b{shard="0"}') == 1
        assert 'continu_a_b{shard="0"} 3' in prom

    def test_label_values_escape_quotes_backslashes_newlines(self):
        from repro.obs.live import _prom_escape

        assert _prom_escape('a"b') == 'a\\"b'
        assert _prom_escape("a\\b") == "a\\\\b"
        assert _prom_escape("a\nb") == "a\\nb"

    def test_namespace_is_sanitized_too(self, tmp_path):
        with TelemetryWriter(
            tmp_path / "t.jsonl", namespace='bad "ns"'
        ) as writer:
            writer.record(period_record(shard=0))
        prom = writer.exposition_path.read_text()
        assert "bad__ns__continuity" in prom

    def test_writer_counts_and_close_is_idempotent(self, tmp_path):
        writer = TelemetryWriter(tmp_path / "t.jsonl")
        writer.record(period_record())
        writer.alert({"kind": "x", "severity": "warn", "message": "m"})
        writer.close()
        writer.close()
        assert writer.frames == 1
        assert writer.alerts == 1


class TestCockpit:
    def feed_run(self, cockpit):
        for period in range(4):
            cockpit.feed(
                period_record(
                    shard=0, period=period, playing=8 + period % 2, total=10,
                    gauges={"dilation_stretch": 2.0, "messages_sent": 40},
                    miss_causes={"delivered_late": period + 1},
                )
            )
            cockpit.feed(period_record(shard=1, period=period))

    def test_render_shows_every_shard_and_miss_causes(self):
        cockpit = Cockpit()
        self.feed_run(cockpit)
        text = cockpit.render()
        assert "live cockpit — period 3, 2 shard(s), 8 frame(s)" in text
        assert "shard 0" in text and "shard 1" in text
        assert "stretch 2.0x" in text
        assert "miss causes: delivered_late=4" in text
        assert "alerts: none" in text

    def test_alerts_feed_into_the_tail(self):
        cockpit = Cockpit()
        self.feed_run(cockpit)
        cockpit.feed_alert(
            Alert(
                kind="continuity_burn", severity="critical",
                message="budget burned", period=3,
            )
        )
        text = cockpit.render()
        assert "[critical] continuity_burn @p3: budget burned" in text
        assert cockpit.alert_count == 1

    def test_feed_record_dispatches_and_counts_torn_lines(self):
        cockpit = Cockpit()
        cockpit.feed_record({"type": "period", **period_record()})
        cockpit.feed_record({"type": "alert", "kind": "x", "severity": "warn",
                             "message": "m"})
        # The export lines a closed run appends are not the cockpit's.
        cockpit.feed_record({"type": "summary", "counters": {}})
        cockpit.feed_record(None)
        assert cockpit.frames == 1
        assert cockpit.alert_count == 1
        assert cockpit.skipped == 1


class TestRunLive:
    def test_once_renders_from_a_stream_with_garbage_lines(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        lines = [
            json.dumps({"type": "period", **period_record(period=0)}),
            "{not json",
            json.dumps({"type": "period", **period_record(period=1, playing=5)}),
            json.dumps({
                "type": "alert", "kind": "continuity_burn",
                "severity": "critical", "message": "m", "period": 1,
            }),
            '{"type": "period", "period": 2, "contin',  # torn mid-append
        ]
        path.write_text("\n".join(lines) + "\n")
        out = io.StringIO()
        cockpit = run_live(path, once=True, out=out)
        assert cockpit.frames == 2
        assert cockpit.alert_count == 1
        assert cockpit.skipped >= 1
        assert "live cockpit" in out.getvalue()
        assert "continuity_burn" in out.getvalue()


class TestFramesWithoutAValidShard:
    """A string, boolean or missing shard id is rejected by every consumer
    — never a crash, never coerced onto shard 0 (missing) or 1 (``True``)."""

    def bad_frames(self):
        missing = period_record(period=5, counters={"messages_sent": 100})
        del missing["shard"]
        return [
            period_record(shard="abc", period=5, counters={"messages_sent": 100}),
            period_record(shard=True, period=5, counters={"messages_sent": 100}),
            missing,
        ]

    def write_stream(self, path):
        with TelemetryWriter(path) as writer:
            writer.record(period_record(shard=0, period=0, counters={"messages_sent": 2}))
            for body in self.bad_frames():
                writer.record(body)
        return writer

    def test_writer_streams_them_but_leaves_them_out_of_the_exposition(self, tmp_path):
        writer = self.write_stream(tmp_path / "telemetry.jsonl")
        records = list(read_lines(writer.path))
        assert [r["type"] for r in records] == ["period"] * 4
        prom = writer.exposition_path.read_text()
        labels = {line.split("{", 1)[1].split("}", 1)[0]
                  for line in prom.splitlines() if line and not line.startswith("# ")}
        assert labels == {'shard="0"'}
        assert 'continu_messages_sent{shard="0"} 2' in prom
        assert 'continu_telemetry_period{shard="0"} 0' in prom

    def test_live_cockpit_counts_them_as_skipped(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        bodies = [period_record(shard=0, period=0), *self.bad_frames()]
        path.write_text("".join(
            json.dumps({"type": "period", **body}) + "\n" for body in bodies
        ))
        out = io.StringIO()
        cockpit = run_live(path, once=True, out=out)
        assert cockpit.frames == 1
        assert cockpit.skipped == 3
        assert set(cockpit.shards) == {0}
        assert "period 0, 1 shard(s), 1 frame(s)" in out.getvalue()

    def test_health_engine_rejects_them(self):
        engine = HealthEngine(expected_shards=1)
        for body in self.bad_frames():
            engine.observe_record(body)
        assert engine.rejected_frames == 3
        assert engine.shards == {}


_MISSING = object()

#: Shard ids no consumer may accept, by case name (``_MISSING`` = no key).
INVALID_SHARDS = {
    "string": "abc",
    "numeric-string": "2",
    "true": True,
    "false": False,
    "none": None,
    "negative": -1,
    "float": 2.0,
    "list": [0],
    "missing": _MISSING,
}


def frame_with_shard(shard, **kw):
    body = period_record(**kw)
    if shard is _MISSING:
        del body["shard"]
    else:
        body["shard"] = shard
    return body


class TestRecordShard:
    """The one shard-id check every period-record consumer goes through."""

    @pytest.mark.parametrize("shard", [0, 1, 3, 65535])
    def test_a_non_negative_int_is_the_shard(self, shard):
        assert record_shard(period_record(shard=shard)) == shard

    @pytest.mark.parametrize("case", INVALID_SHARDS)
    def test_anything_else_is_no_shard(self, case):
        assert record_shard(frame_with_shard(INVALID_SHARDS[case])) is None


class TestEveryConsumerRejectsAnInvalidShard:
    """Per invalid shard id: nothing is charged to any shard, in any consumer."""

    @pytest.mark.parametrize("case", INVALID_SHARDS)
    def test_cockpit_skips_it(self, case):
        cockpit = Cockpit()
        cockpit.feed(frame_with_shard(INVALID_SHARDS[case], miss_causes={"lost_or_queued": 2}))
        assert (cockpit.frames, cockpit.skipped) == (0, 1)
        assert cockpit.shards == {}
        assert "miss causes" not in cockpit.render()

    @pytest.mark.parametrize("case", INVALID_SHARDS)
    def test_writer_leaves_it_out_of_the_exposition(self, tmp_path, case):
        with TelemetryWriter(tmp_path / "telemetry.jsonl") as writer:
            writer.record(period_record(shard=1, counters={"messages_sent": 2}))
            writer.record(frame_with_shard(INVALID_SHARDS[case], counters={"messages_sent": 5}))
        assert writer.frames == 1
        assert len(list(read_lines(writer.path))) == 2
        prom = writer.exposition_path.read_text()
        assert 'continu_messages_sent{shard="1"} 2' in prom
        samples = [line for line in prom.splitlines() if line and not line.startswith("# ")]
        assert all('{shard="1"}' in line for line in samples)

    @pytest.mark.parametrize("case", INVALID_SHARDS)
    def test_health_engine_rejects_it(self, case):
        engine = HealthEngine(expected_shards=1)
        engine.observe_record(frame_with_shard(INVALID_SHARDS[case], playing=0, total=10))
        assert engine.rejected_frames == 1
        assert engine.shards == {}


class TestSwarmRecords:
    """The single-process LiveSwarm feeds the same stream the cluster does."""

    def run_with_sink(self, obs, rounds=8, sink=None, spec_seed=3):
        spec = builtin_scenario("static").scaled(
            num_nodes=30, rounds=rounds, seed=spec_seed
        )
        swarm = LiveSwarm(spec, clock="virtual", obs=obs)
        frames = []
        swarm.record_sink = sink if sink is not None else frames.append
        result = swarm.run()
        return result, frames

    def test_one_record_per_period_with_the_full_schema(self):
        result, frames = self.run_with_sink(ObsConfig(trace_sample=4))
        assert [f["period"] for f in frames] == list(range(8))
        body = frames[-1]
        assert {
            "shard", "period", "t", "playing", "total", "continuity",
            "peers_live", "gauges", "counters", "miss_causes", "hists",
            "flight", "flows", "topo",
        } <= set(body)
        assert 0.0 <= body["continuity"] <= 1.0
        assert body["gauges"]["peers_live"] == body["peers_live"]
        # The final frame's gauges reflect the run's end state.
        assert body["gauges"]["messages_sent"] == result.messages_sent

    def test_no_records_without_obs_or_with_metrics_off(self):
        _, no_obs = self.run_with_sink(None)
        _, metrics_off = self.run_with_sink(ObsConfig(metrics=False))
        assert no_obs == []
        assert metrics_off == []

    def test_attached_sink_does_not_perturb_the_run(self):
        base, _ = self.run_with_sink(ObsConfig(trace_sample=4), sink=lambda body: None)
        with_frames, frames = self.run_with_sink(ObsConfig(trace_sample=4))
        assert frames
        assert with_frames.continuity_series() == base.continuity_series()
        assert with_frames.messages_sent == base.messages_sent

    def test_sink_raising_slo_violation_aborts_with_obs_attached(self):
        engine = HealthEngine(
            slo=SloSpec.parse("continuity>=0.999:burn=1x:confirm=1"), grace=0
        )

        def sink(body):
            engine.observe_record(body)
            if engine.breach is not None:
                raise SloViolation(engine.breach)

        spec = builtin_scenario("static").scaled(num_nodes=30, rounds=12, seed=1)
        import dataclasses

        spec = dataclasses.replace(spec, loss_rate=0.4)
        swarm = LiveSwarm(spec, clock="virtual", obs=ObsConfig(trace_sample=8))
        swarm.record_sink = sink
        with pytest.raises(SloViolation) as excinfo:
            swarm.run()
        exc = excinfo.value
        assert exc.alert.kind == "continuity_burn"
        assert exc.obs is not None, "the swarm attaches its export at abort"
        assert any(
            "SLO breach" in p["reason"] for p in exc.obs["postmortems"]
        ) or engine.breach is not None

    def test_a_wall_clock_slo_abort_ends_the_run_quietly(self, caplog):
        """On the wall clock the breach is raised inside a delivery-queue
        entry: it must still end the run at once, carry the obs export,
        and not be logged as a failing callback."""
        import dataclasses

        engine = HealthEngine(
            slo=SloSpec.parse("continuity>=0.999:burn=1x:confirm=1"), grace=0
        )
        periods = []

        def sink(body):
            periods.append(body["period"])
            engine.observe_record(body)
            if engine.breach is not None:
                raise SloViolation(engine.breach)

        spec = builtin_scenario("static").scaled(num_nodes=20, rounds=12, seed=1)
        spec = dataclasses.replace(spec, loss_rate=0.4)
        swarm = LiveSwarm(spec, time_scale=0.1, obs=ObsConfig(trace_sample=8))
        swarm.record_sink = sink
        with pytest.raises(SloViolation) as excinfo:
            swarm.run()
        assert excinfo.value.obs is not None
        assert len(periods) < 12 and periods[-1] == engine.breach.period
        assert not [r for r in caplog.records if r.name == "asyncio"]
