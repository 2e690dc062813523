"""The observability plane: metrics, traces, flight recorder, exports.

The load-bearing acceptance here is the *zero-overhead* claim: a
virtual-clock run with the obs plane enabled must be bit-identical to
the same run with it disabled on every protocol-facing output —
continuity series, message counts, ledger totals, transport stats.
Only ``bytes_on_wire`` may grow (traced segment frames carry a physical
8-byte tail the ledger never charges).  The rest covers the metric
registry, trace attribution, the JSONL artifact round-trip and the
report renderer (see docs/observability.md).
"""

import dataclasses
import json

import pytest

from repro.obs import (
    NULL_OBS,
    MetricsRegistry,
    NullObs,
    ObsConfig,
    ObsRecorder,
    format_postmortems,
    load_obs_jsonl,
    merge_metrics,
    merge_obs,
    render_report,
    summarize_traces,
    period_series,
    write_obs_jsonl,
)
from repro.obs.record import build_record
from repro.runtime import LiveSwarm
from repro.scenarios.library import builtin_scenario


def close_period(rec, period, shard=0):
    """Close ``period`` on ``rec`` with an empty playback sample."""
    return build_record(rec, shard, period, playing=0, total=0, peers_live=0)


class TestMetricsRegistry:
    def test_counters_and_gauges_reach_each_period_record(self):
        rec = ObsRecorder(ObsConfig())
        rec.inc("requests")
        rec.inc("requests", 2)
        rec.metrics.set_gauge("depth", 7)
        close_period(rec, 0)
        rec.metrics.set_gauge("depth", 3)
        close_period(rec, 1)
        data = rec.metrics.to_dict()
        assert data["counters"]["requests"] == 3
        assert data["gauges"]["depth"] == 3
        series = period_series(rec.records)
        assert series["requests"] == [[0, 3.0], [1, 3.0]]
        assert series["depth"] == [[0, 7], [1, 3]]

    def test_histogram_windows_reset_per_record(self):
        rec = ObsRecorder(ObsConfig())
        rec.observe("lag", 0.1)
        rec.observe("lag", 0.3)
        close_period(rec, 0)
        rec.observe("lag", 0.5)
        close_period(rec, 1)
        close_period(rec, 2)
        assert [r["hists"] for r in rec.records] == [
            {"lag": [pytest.approx(0.2), pytest.approx(0.3)]},
            {"lag": [pytest.approx(0.5), pytest.approx(0.5)]},
            {},
        ]
        series = period_series(rec.records)
        assert series["lag_mean"] == [[0, pytest.approx(0.2)], [1, pytest.approx(0.5)]]
        assert series["lag_max"] == [[0, pytest.approx(0.3)], [1, pytest.approx(0.5)]]
        hist = rec.metrics.to_dict()["histograms"]["lag"]
        assert hist["count"] == 3
        assert hist["max"] == pytest.approx(0.5)

    def test_record_window_is_bounded(self):
        rec = ObsRecorder(ObsConfig())
        extra = 6
        for period in range(ObsRecorder.RECORD_WINDOW + extra):
            rec.inc("ticks")
            close_period(rec, period)
        records = rec.export()["records"]
        assert len(records) == ObsRecorder.RECORD_WINDOW
        assert records[0]["period"] == extra
        assert records[0]["counters"]["ticks"] == extra + 1

    def test_histogram_envelope_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("lag", 1.0)
        a.observe("lag", 3.0)
        b.observe("lag", 2.0)
        merged = merge_metrics([a.to_dict(), b.to_dict()])["histograms"]["lag"]
        assert merged["count"] == 3
        assert merged["min"] == 1.0
        assert merged["max"] == 3.0
        assert merged["sum"] == pytest.approx(6.0)

    def test_merge_metrics_sums_counters_and_gauges(self):
        parts = []
        for _ in range(2):
            reg = MetricsRegistry()
            reg.inc("sent", 5)
            reg.set_gauge("depth", 2)
            parts.append(reg.to_dict())
        merged = merge_metrics(parts)
        assert merged["counters"]["sent"] == 10
        assert merged["gauges"]["depth"] == 4

    def test_merged_records_concatenate_and_their_series_sum(self):
        parts = []
        for shard in (1, 0):
            rec = ObsRecorder(ObsConfig(), shard=shard)
            for period in range(2):
                rec.inc("sent", 5)
                close_period(rec, period, shard)
            parts.append(rec.export())
        records = merge_obs(parts)["records"]
        assert [(r["period"], r["shard"]) for r in records] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert period_series(records)["sent"] == [[0, 10.0], [1, 20.0]]


class TestRecorder:
    def test_null_obs_is_inert_and_exports_nothing(self):
        assert isinstance(NULL_OBS, NullObs)
        assert not NULL_OBS.enabled
        assert not NULL_OBS.tracing
        assert NULL_OBS.sample_trace(7) == 0
        NULL_OBS.span("request", 1, 2, 3)
        NULL_OBS.inc("x")
        NULL_OBS.flight("y")
        NULL_OBS.postmortem("z")
        assert NULL_OBS.export() is None

    def test_config_validates_sampling(self):
        with pytest.raises(ValueError):
            ObsConfig(trace_sample=0)

    def test_deterministic_counter_sampling(self):
        rec = ObsRecorder(ObsConfig(trace_sample=3))
        ids = [rec.sample_trace(peer_id=5) for _ in range(9)]
        sampled = [tid for tid in ids if tid]
        assert len(sampled) == 3
        assert len(set(sampled)) == 3  # distinct trace ids
        assert all(tid >> 24 == 5 for tid in sampled)  # peer id embedded

    def test_flight_ring_is_bounded_and_postmortem_snapshots_it(self):
        rec = ObsRecorder(ObsConfig(flight_window=4))
        for i in range(10):
            rec.flight("tick", i=i)
        rec.postmortem("boom")
        (dump,) = rec.export()["postmortems"]
        assert dump["reason"] == "boom"
        assert [e["i"] for e in dump["events"]] == [6, 7, 8, 9]

    def test_span_cap_counts_drops(self):
        rec = ObsRecorder(dataclasses.replace(ObsConfig(), span_limit=2))
        for i in range(5):
            rec.span("request", trace=i + 1, peer=0, segment=i)
        out = rec.export()
        assert len(out["spans"]) == 2
        assert out["spans_dropped"] == 3

    def test_an_unbound_recorder_stamps_time_zero(self):
        rec = ObsRecorder(ObsConfig())
        rec.flight("coordinator_side")
        assert rec.new_flight()[0]["t"] == 0.0

    @pytest.mark.parametrize("clock", ["virtual", "wall"])
    def test_a_span_stamped_at_teardown_carries_the_swarms_last_time(self, clock):
        """After the run the swarm's clock stands at its last instant — the
        last period's step, half a period after its closing boundary — in
        simulated seconds, whatever the time scale."""
        rounds = 4
        spec = builtin_scenario("static").scaled(num_nodes=12, rounds=rounds)
        swarm = LiveSwarm(spec, clock=clock, time_scale=0.02, obs=ObsConfig(trace_sample=4))
        swarm.run()
        swarm.obs.span("teardown", 1, 0, 0)
        swarm.obs.span("teardown", 2, 0, 0)
        first, second = (span["t"] for span in swarm.obs.spans[-2:])
        last_step = (rounds + 0.5) * swarm.config.scheduling_period
        if clock == "virtual":
            assert first == last_step
        else:
            assert first >= last_step
        assert second == first


class TestTraceSummary:
    def _spans(self):
        return [
            {"event": "request", "trace": 1, "peer": 1, "segment": 9, "t": 0.0},
            {"event": "deliver", "trace": 1, "peer": 1, "segment": 9, "t": 0.4},
            {"event": "play", "trace": 1, "peer": 1, "segment": 9, "t": 1.0},
            {"event": "request", "trace": 2, "peer": 2, "segment": 10, "t": 0.0},
            {
                "event": "miss", "trace": 2, "peer": 2, "segment": 10, "t": 2.0,
                "cause": "credit_starvation",
            },
            {"event": "request", "trace": 3, "peer": 3, "segment": 11, "t": 0.5},
        ]

    def test_summarize_traces_attributes_misses(self):
        summary = summarize_traces(self._spans())
        assert summary["sampled"] == 3
        assert summary["played"] == 1
        assert summary["missed"] == 1
        assert summary["open"] == 1
        assert summary["miss_causes"] == {"credit_starvation": 1}
        assert summary["request_to_deliver_s"]["mean"] == pytest.approx(0.4)

    def test_merge_obs_merges_shards_and_recomputes_traces(self):
        parts = []
        for shard in range(2):
            rec = ObsRecorder(ObsConfig(), shard=shard)
            rec.inc("sent", 10)
            close_period(rec, 0, shard)
            rec.span("request", trace=shard + 1, peer=shard, segment=1)
            parts.append(rec.export())
        merged = merge_obs(parts)
        assert merged["shards"] == [0, 1]
        assert merged["metrics"]["counters"]["sent"] == 20
        assert len(merged["spans"]) == 2
        assert merged["traces"]["sampled"] == 2
        assert merge_obs([None, None]) is None
        # a disabled shard alongside an enabled one merges fine
        assert merge_obs([None, parts[0]])["shards"] == [0]


class TestJsonlArtifact:
    def test_round_trip_and_report(self, tmp_path):
        rec = ObsRecorder(ObsConfig())
        rec.inc("sent", 3)
        rec.observe("lag", 0.01)
        close_period(rec, 0)
        rec.span("request", trace=1, peer=4, segment=2, dst=9, cause="schedule")
        rec.span("deliver", trace=1, peer=4, segment=2, supplier=9)
        rec.span("play", trace=1, peer=4, segment=2)
        rec.flight("dilate", stretch=1.5)
        rec.postmortem("stall")
        obs = merge_obs([rec.export()])
        path = tmp_path / "obs.jsonl"
        write_obs_jsonl(path, obs)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert {line["type"] for line in lines} >= {
            "meta", "period", "span", "flight", "postmortem", "summary"
        }
        loaded = load_obs_jsonl(path)
        assert loaded["traces"]["sampled"] == 1
        assert loaded["traces"]["played"] == 1
        report = render_report(loaded)
        assert "sent" in report
        assert "1 sampled journeys" in report
        assert "stall" in report
        postmortems = format_postmortems(loaded)
        assert "stall" in postmortems
        assert "dilate" in postmortems


class TestZeroOverheadIdentity:
    """Obs enabled vs disabled: bit-identical virtual-clock runs."""

    SPEC = ("static", 30, 8)

    def _run(self, obs):
        name, nodes, rounds = self.SPEC
        spec = builtin_scenario(name).scaled(num_nodes=nodes, rounds=rounds, seed=3)
        return LiveSwarm(spec, clock="virtual", obs=obs).run()

    def test_enabled_run_is_bit_identical_on_protocol_outputs(self):
        base = self._run(None)
        traced = self._run(ObsConfig(trace_sample=4))
        assert base.obs is None
        assert traced.obs is not None
        assert traced.continuity_series() == base.continuity_series()
        assert traced.messages_sent == base.messages_sent
        assert traced.messages_dropped == base.messages_dropped
        assert traced.transport == base.transport
        for kind in base.ledger.bits:
            assert traced.ledger.bits_of(kind) == base.ledger.bits_of(kind)
            assert traced.ledger.count_of(kind) == base.ledger.count_of(kind)
        # The one legitimate physical difference: traced segment frames
        # carry the 8-byte tail, so the wire byte count may only grow.
        assert traced.bytes_on_wire >= base.bytes_on_wire

    def test_metrics_only_run_has_identical_wire_bytes_too(self):
        base = self._run(None)
        metered = self._run(ObsConfig(tracing=False))
        assert metered.bytes_on_wire == base.bytes_on_wire
        assert metered.continuity_series() == base.continuity_series()
        assert metered.obs is not None

    def test_flows_and_topo_ride_along_without_protocol_impact(self):
        """Flow/topo observation (on by default) never perturbs the run."""
        base = self._run(None)
        full = self._run(ObsConfig(tracing=False))  # flows+topo default on
        lean = self._run(ObsConfig(tracing=False, flows=False, topo=False))
        assert "flows" in full.obs and "topo" in full.obs
        assert "flows" not in lean.obs and "topo" not in lean.obs
        for run in (full, lean):
            assert run.continuity_series() == base.continuity_series()
            assert run.messages_sent == base.messages_sent
            assert run.bytes_on_wire == base.bytes_on_wire
            assert run.transport == base.transport

    def test_flow_pairs_reconcile_with_bytes_on_wire(self):
        run = self._run(ObsConfig(trace_sample=4))
        pairs = run.obs["flows"]["pairs"]
        assert pairs == [[0, 0, pairs[0][2], run.bytes_on_wire]]

    def test_topo_snapshot_reports_coverage_and_components(self):
        run = self._run(ObsConfig(tracing=False))
        topo = run.obs["topo"]
        assert topo["components"] == 1
        assert 0.0 < topo["coverage"] <= 1.0
        assert topo["partner_pairs"] > 0
        assert topo["nodes"] == topo["component_nodes"]
        assert topo["finger_total"] > 0


class TestSparkline:
    """Flat/degenerate series must render without a div-by-zero."""

    def test_empty_series_renders_empty(self):
        from repro.obs.report import _sparkline

        assert _sparkline([]) == ""

    def test_single_value_renders_one_low_block(self):
        from repro.obs.report import _sparkline, _SPARK

        assert _sparkline([3.7]) == _SPARK[0]

    def test_all_equal_values_render_flat(self):
        from repro.obs.report import _sparkline, _SPARK

        for value in (0.0, -2.5, 1e9):
            out = _sparkline([value] * 7)
            assert out == _SPARK[0] * 7

    def test_flat_series_longer_than_width_downsamples_flat(self):
        from repro.obs.report import _sparkline, _SPARK

        out = _sparkline([1.0] * 100, width=32)
        assert out == _SPARK[0] * 32

    def test_varying_series_spans_the_ramp(self):
        from repro.obs.report import _sparkline, _SPARK

        out = _sparkline([0.0, 1.0])
        assert out == _SPARK[0] + _SPARK[-1]


class TestHistogramPercentiles:
    def test_small_sample_percentiles_are_exact(self):
        from repro.obs import Histogram

        h = Histogram()
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        d = h.to_dict()
        assert d["p50"] == 51.0
        assert d["p95"] == 96.0

    def test_empty_histogram_has_no_percentiles(self):
        from repro.obs import Histogram

        assert "p50" not in Histogram().to_dict()

    def test_reservoir_stays_bounded_and_deterministic(self):
        from repro.obs import Histogram

        a, b = Histogram(), Histogram()
        for v in range(20_000):
            a.observe(float(v))
            b.observe(float(v))
        assert len(a._samples) < Histogram.RESERVOIR
        assert a._samples == b._samples  # no RNG anywhere
        # The decimated reservoir still tracks the distribution.
        assert a.to_dict()["p50"] == pytest.approx(10_000, rel=0.15)
        assert a.to_dict()["p95"] == pytest.approx(19_000, rel=0.15)

    def test_merge_weights_percentiles_by_count(self):
        from repro.obs import merge_metrics

        a = {"histograms": {"lag": {"count": 3, "sum": 3.0, "min": 1.0, "max": 1.0, "p50": 1.0, "p95": 1.0}}}
        b = {"histograms": {"lag": {"count": 1, "sum": 5.0, "min": 5.0, "max": 5.0, "p50": 5.0, "p95": 5.0}}}
        merged = merge_metrics([a, b])["histograms"]["lag"]
        assert merged["p50"] == pytest.approx(2.0)
        assert merged["count"] == 4
        assert "_p50_weighted" not in merged

    def test_report_renders_percentiles(self):
        from repro.obs import Histogram
        from repro.obs.report import render_report

        h = Histogram()
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        report = render_report({"metrics": {"histograms": {"phase_gossip_s": h.to_dict()}}})
        assert "p50=" in report and "p95=" in report


class TestJourneyAttribution:
    """A lossy virtual run yields complete journeys with miss causes."""

    @pytest.fixture(scope="class")
    def lossy_obs(self):
        spec = builtin_scenario("static").scaled(num_nodes=30, rounds=10, seed=1)
        spec = dataclasses.replace(spec, loss_rate=0.3)
        result = LiveSwarm(
            spec, clock="virtual", obs=ObsConfig(trace_sample=1)
        ).run()
        assert result.obs is not None
        return result.obs

    def test_traces_cover_the_full_journey(self, lossy_obs):
        traces = lossy_obs["traces"]
        assert traces["sampled"] > 100
        assert traces["played"] > 0
        events = {span["event"] for span in lossy_obs["spans"]}
        assert {"request", "recv_request", "ship", "deliver", "play"} <= events

    def test_misses_are_attributed_to_causes(self, lossy_obs):
        causes = lossy_obs["traces"]["miss_causes"]
        assert causes, "a 30%-loss run must miss some deadlines"
        assert set(causes) <= {
            "delivered_late", "credit_starvation", "lost_or_queued"
        }
        # 30% frame loss must surface loss-attributed misses specifically
        assert causes.get("lost_or_queued", 0) > 0

    def test_every_miss_span_names_its_cause(self, lossy_obs):
        misses = [s for s in lossy_obs["spans"] if s["event"] == "miss"]
        assert misses
        assert all(s.get("cause") for s in misses)


class TestMergeObsOrdering:
    """Merged multi-shard span streams must be deterministically ordered."""

    def _shard_export(self, shard, spans):
        return {
            "shard": shard,
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}, "series": {}},
            "spans": spans,
            "flight": [],
            "postmortems": [],
            "spans_dropped": 0,
        }

    def test_equal_timestamps_tie_break_on_trace_then_seq(self):
        # Virtual-clock shards stamp whole batches at the same sim
        # instant; the merged order must not depend on shard arrival.
        span = lambda trace, seq, shard: {
            "trace": trace, "event": "ship", "peer": 1, "segment": 2,
            "t": 4.0, "seq": seq, "shard": shard,
        }
        a = self._shard_export(0, [span(9, 1, 0), span(2, 2, 0)])
        b = self._shard_export(1, [span(2, 1, 1), span(9, 2, 1)])
        merged_ab = merge_obs([a, b])
        merged_ba = merge_obs([b, a])
        key = lambda s: (s["trace"], s["seq"], s["shard"])
        assert [key(s) for s in merged_ab["spans"]] == [
            (2, 1, 1), (2, 2, 0), (9, 1, 0), (9, 2, 1),
        ]
        assert merged_ab["spans"] == merged_ba["spans"]

    def test_distinct_timestamps_still_sort_on_time_first(self):
        early = {"trace": 9, "event": "request", "peer": 1, "segment": 2,
                 "t": 1.0, "seq": 5, "shard": 1}
        late = {"trace": 1, "event": "play", "peer": 1, "segment": 2,
                "t": 2.0, "seq": 1, "shard": 0}
        merged = merge_obs([
            self._shard_export(0, [late]), self._shard_export(1, [early]),
        ])
        assert [s["t"] for s in merged["spans"]] == [1.0, 2.0]


class TestReportRobustness:
    """Partial exports from dead runs must render, not raise."""

    def test_empty_file_renders_a_no_series_note(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        path.write_text("")
        loaded = load_obs_jsonl(path)
        report = render_report(loaded)
        assert "(no metric series in this export)" in report

    def test_truncated_trailing_line_is_skipped_and_counted(self, tmp_path):
        rec = ObsRecorder(ObsConfig())
        rec.inc("sent", 3)
        close_period(rec, 0)
        path = write_obs_jsonl(tmp_path / "obs.jsonl", rec.export())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "period", "shard": 0, "per')  # torn mid-append
        loaded = load_obs_jsonl(path)
        assert loaded["skipped_lines"] == 1
        report = render_report(loaded)
        assert "sent" in report
        assert "1 malformed/unknown JSONL lines skipped" in report

    def test_postmortems_only_file_renders(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        records = [
            {"type": "postmortem", "reason": "stall", "t": 3.0,
             "events": [{"event": "dilate", "t": 2.5}]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        loaded = load_obs_jsonl(path)
        report = render_report(loaded)
        assert "(no metric series in this export)" in report
        assert "stall" in report
        assert "dilate" in report

    def test_unknown_record_types_are_counted_not_fatal(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        path.write_text('{"type": "wat"}\n[1, 2, 3]\nnot json at all\n')
        loaded = load_obs_jsonl(path)
        assert loaded["skipped_lines"] == 3
        assert "malformed/unknown" in render_report(loaded)
