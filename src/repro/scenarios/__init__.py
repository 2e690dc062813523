"""The scenario engine: declarative workloads and parallel campaigns.

This package is the layer every ablation and benchmark plugs into:

* :class:`~repro.scenarios.spec.ScenarioSpec` — a declarative workload
  (churn schedule × bandwidth-class mix × loss rate × latency × size) that
  composes into a runnable :class:`~repro.core.system.StreamingSystem`
  through the existing config / pipeline / registry contracts;
* :mod:`~repro.scenarios.library` — six built-in named scenarios
  (``static``, ``paper-dynamic``, ``flash-crowd``, ``diurnal``,
  ``blackout``, ``hetero-swarm``);
* :func:`~repro.scenarios.cell.run_cell` — one
  :class:`~repro.scenarios.cell.Cell` into one versioned
  :class:`~repro.scenarios.results.Record`, for campaigns, the quality
  matrix and sim-vs-live parity pairs alike;
* :class:`~repro.scenarios.campaign.CampaignRunner` — fans a scenario ×
  system × node-count × seed grid across ``multiprocessing`` workers with
  deterministic per-cell seeding;
* :class:`~repro.scenarios.results.ResultsStore` — JSONL cell records plus
  mean/CI aggregate summaries.

See ``docs/scenarios.md`` for the spec schema and the campaign CLI.
"""

from repro.scenarios.campaign import (
    CampaignRunner,
    CampaignSpec,
    cell_seed_for,
    run_campaign,
)
from repro.scenarios.cell import BACKENDS, Cell, run_cell
from repro.scenarios.library import (
    BUILTIN_SCENARIOS,
    builtin_names,
    builtin_scenario,
)
from repro.scenarios.phases import LossyNetworkPhase
from repro.scenarios.results import COUNT_NAMES, METRIC_NAMES, Record, ResultsStore
from repro.scenarios.spec import ScenarioSpec, load_scenarios

__all__ = [
    "BACKENDS",
    "ScenarioSpec",
    "load_scenarios",
    "LossyNetworkPhase",
    "BUILTIN_SCENARIOS",
    "builtin_names",
    "builtin_scenario",
    "CampaignSpec",
    "CampaignRunner",
    "run_campaign",
    "cell_seed_for",
    "Cell",
    "run_cell",
    "Record",
    "ResultsStore",
    "METRIC_NAMES",
    "COUNT_NAMES",
]
