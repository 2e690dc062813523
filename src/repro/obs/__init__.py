"""The observability plane: metrics, traces, flight recorder, live telemetry.

Opt-in instrumentation for the live runtime, in-process or sharded
(``docs/observability.md``).  Set ``obs=ObsConfig()`` on the run's
``RunOptions`` (``run(spec, obs=...)`` / ``LiveSwarm(spec, obs=...)``;
CLI: ``--obs`` / ``--metrics-out``) and the run exports
``RuntimeResult.obs``: a per-period metric registry, sampled
request→ship→deliver→play/miss trace spans that cross shard sockets, and
flight-recorder postmortems dumped on stalls, shard death or crashes.
Disabled (the default), the plane is the no-op :data:`NULL_OBS` and runs
are bit-identical to an uninstrumented build.

On top of the recorder sits the live plane: every swarm emits one
telemetry frame body per period (shards ship them to the coordinator as
uncharged ``TelemetryFrame``s), and one :class:`TelemetryPlane` — used
alike by an in-process run and by the cluster coordinator — folds them
through a :class:`HealthEngine` into run-level SLO verdicts (``--slo``
aborts on budget burn via :class:`SloViolation`), feeds the
``--telemetry-out`` JSONL + Prometheus exposition files and leaves its
snapshot in ``RuntimeResult.health``; the ``obs --live``
:class:`Cockpit` renders the stream.
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
from repro.obs.live import (
    Cockpit,
    TelemetryPlane,
    TelemetryWriter,
    load_telemetry_jsonl,
    run_live,
)
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    merge_metrics,
    merge_obs,
    summarize_traces,
)
from repro.obs.recorder import NULL_OBS, NullObs, ObsConfig, ObsRecorder
from repro.obs.topo import TopologyObserver, merge_topo
from repro.obs.report import (
    format_postmortems,
    load_obs_jsonl,
    render_report,
    write_obs_jsonl,
)

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
    "load_telemetry_jsonl",
    "merge_flows",
    "merge_metrics",
    "merge_obs",
    "merge_topo",
    "parse_slo",
    "render_diff",
    "render_report",
    "run_live",
    "summarize_traces",
    "write_obs_jsonl",
]
