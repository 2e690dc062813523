"""The observability plane: metrics, period records, traces, flight recorder.

Opt-in instrumentation for the live runtime, in-process or sharded
(``docs/observability.md``).  Set ``obs=ObsConfig()`` on the run's
``RunOptions`` (``run(spec, obs=...)`` / ``LiveSwarm(spec, obs=...)``;
CLI: ``--obs`` / ``--metrics-out``) and the run exports
``RuntimeResult.obs``: one period record per shard and period, the
metric registry's totals, sampled request→ship→deliver→play/miss trace
spans that cross shard sockets, and flight-recorder postmortems dumped
on stalls, shard death or crashes.  Disabled (the default), the plane is
the no-op :data:`NULL_OBS` and runs are bit-identical to an
uninstrumented build.

The period record (:mod:`repro.obs.record`) is the plane's one record:
shards ship it to the coordinator as it is, and one
:class:`TelemetryPlane` — used alike by an in-process run and by the
cluster coordinator — folds it through a :class:`HealthEngine` into
run-level SLO verdicts (``--slo`` aborts on budget burn via
:class:`SloViolation`), streams it into the run's one obs file
(``--metrics-out``, with a Prometheus exposition next to it) and leaves
its snapshot in ``RuntimeResult.health``; the ``obs --live``
:class:`Cockpit`, the ``obs --in`` report and ``obs diff`` read that
file.
"""

from repro.obs.diff import diff_obs, render_diff
from repro.obs.flows import FlowMatrix, merge_flows
from repro.obs.health import (
    Alert,
    HealthEngine,
    SloSpec,
    SloViolation,
    parse_slo,
)
from repro.obs.live import Cockpit, TelemetryPlane, TelemetryWriter, run_live
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    merge_metrics,
    merge_obs,
    summarize_traces,
)
from repro.obs.record import load_obs_jsonl, period_series, write_obs_jsonl
from repro.obs.recorder import NULL_OBS, NullObs, ObsConfig, ObsRecorder
from repro.obs.topo import TopologyObserver, merge_topo
from repro.obs.report import format_postmortems, render_report

__all__ = [
    "Alert",
    "Cockpit",
    "FlowMatrix",
    "HealthEngine",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "NullObs",
    "ObsConfig",
    "ObsRecorder",
    "SloSpec",
    "SloViolation",
    "TelemetryPlane",
    "TelemetryWriter",
    "TopologyObserver",
    "diff_obs",
    "format_postmortems",
    "load_obs_jsonl",
    "merge_flows",
    "merge_metrics",
    "merge_obs",
    "merge_topo",
    "parse_slo",
    "period_series",
    "render_diff",
    "render_report",
    "run_live",
    "summarize_traces",
    "write_obs_jsonl",
]
