"""The parallel campaign runner.

A *campaign* fans a scenario × system × node-count × seed grid across
``multiprocessing`` workers and collects every cell's record into a
:class:`~repro.scenarios.results.ResultsStore`.  The grid can run on
either **backend**: the lock-step round simulator (``backend="sim"``) or
live asyncio swarms on the deterministic virtual clock
(``backend="runtime"``) — same per-cell seeding, same JSONL schema, same
summaries, so the paper's statistical claims can be checked against real
concurrent peers with the same tooling.  Three properties matter:

* **Deterministic per-cell seeding** — each cell's root seed is derived
  from ``(sweep seed, scenario, node count)`` via the same SHA-256
  construction the per-component RNG streams use
  (:func:`repro.sim.rng.derive_seed`), so cell results depend only on the
  cell's coordinates, never on scheduling order or worker count.  The
  protocol is deliberately excluded so systems sweeping the same cell are
  paired on identical topology/bandwidth/churn (see :func:`cell_seed_for`).
* **Parallel == serial** — workers receive self-contained, picklable cell
  payloads (the scenario's dict form) and return plain records; the parent
  reassembles them in grid order, so a 4-worker campaign produces
  byte-identical aggregated metrics to a serial one.
* **Streaming results** — cells are appended to the store (and its JSONL
  file) as the grid completes, per-seed first, aggregates afterwards.
"""

from __future__ import annotations

import multiprocessing
import re
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.scenarios import cell as cells
from repro.scenarios.results import Record, ResultsStore
from repro.scenarios.spec import ScenarioSpec, load_scenarios
from repro.sim.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - the runtime imports this package's spec module
    from repro.runtime.swarm import RunOptions


def cell_seed_for(seed: int, scenario: str, num_nodes: int) -> int:
    """The deterministic root seed of one campaign cell.

    Deliberately independent of the protocol — and of the backend: two
    systems (or the simulator and the live runtime) sweeping the same
    (seed, scenario, node count) share a root seed and therefore see the
    same topology, bandwidth assignment and churn schedule — the paired
    A/B methodology the figures use too (both systems run one scenario
    from one seed), so continuity deltas isolate the protocol (or engine)
    rather than topology variance.
    """
    return derive_seed(seed, f"campaign/{scenario}/n{num_nodes}")


def cell_obs_filename(payload: Mapping[str, Any]) -> str:
    """The collision-free obs JSONL name of one grid cell.

    Every coordinate that distinguishes cells within a campaign —
    scenario, system, node count, sweep seed and backend — lands in the
    name, so no two cells of one grid (or of a sim/runtime re-run into
    the same directory) can overwrite each other's export.
    """
    raw = (
        f"{payload['scenario']['name']}_{payload['system']}"
        f"_n{payload['num_nodes']}_s{payload['seed']}"
        f"_{payload.get('backend', 'sim')}"
    )
    return f"obs_{re.sub(r'[^A-Za-z0-9._-]+', '-', raw)}.jsonl"


def run_cell(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Execute one campaign cell; top-level so worker processes can pickle it.

    The payload is self-contained: the scenario's dict form plus the cell
    coordinates, with options already placed by backend
    (:meth:`CampaignSpec.cell_options`).  It runs as one
    :class:`~repro.scenarios.cell.Cell` at the derived ``cell_seed``,
    exports the cell's obs plane, if any, to ``obs_dir``, and returns the
    record's dict form carrying the sweep ``seed``.
    """
    spec = ScenarioSpec.from_dict(payload["scenario"])
    record = cells.run_cell(cells.Cell(
        spec, payload.get("backend", "sim"), payload["num_nodes"], payload["rounds"],
        payload["system"], payload["cell_seed"], payload.get("options"),
    ))
    obs_dir = payload.get("obs_dir")
    if obs_dir and getattr(record.result, "obs", None):
        from repro.obs import write_obs_jsonl

        out_dir = Path(obs_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_obs_jsonl(out_dir / cell_obs_filename(payload), record.result.obs)
    return replace(record, seed=payload["seed"]).to_dict()


def _cell_coordinates(payloads: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """The identifying coordinates of not-yet-finished cells (no spec dump)."""
    return [
        {
            "scenario": payload["scenario"]["name"],
            "system": payload["system"],
            "num_nodes": payload["num_nodes"],
            "seed": payload["seed"],
        }
        for payload in payloads
    ]


@dataclass(frozen=True)
class CampaignSpec:
    """The grid one campaign sweeps.

    Attributes:
        scenarios: the scenario specs to run.
        seeds: sweep seeds; each becomes one cell per grid point.
        node_counts: overlay sizes; ``None`` uses each scenario's own.
        systems: protocol names; ``None`` uses each scenario's own.
        rounds: round-count override; ``None`` uses each scenario's own.
        backend: the engine every cell runs on — ``"sim"`` (default),
            ``"runtime"`` (live virtual-clock swarms) or ``"cluster"``
            (sharded multi-process swarms over TCP, wall clock); per-cell
            seeds are backend-independent so sweeps of the same grid pair
            on identical overlays.  Cluster cells carry wall-clock noise
            in their metrics — they measure scale, not determinism.
        options: how runtime/cluster-backend cells run — the live
            runtime's one :class:`~repro.runtime.swarm.RunOptions` record
            (picklable, so it ships in the cell payloads): period
            compression, obs plane, shard count.  The backend fixes
            placement and clock (:meth:`cell_options`); ``None`` is the
            default record.  The sim backend has no live runtime: it
            rejects an obs plane.
        obs_dir: directory for per-cell obs JSONL exports, named by
            :func:`cell_obs_filename` so grid cells never collide;
            requires ``options.obs``.
    """

    scenarios: Tuple[ScenarioSpec, ...]
    seeds: Tuple[int, ...] = (0,)
    node_counts: Optional[Tuple[int, ...]] = None
    systems: Optional[Tuple[str, ...]] = None
    rounds: Optional[int] = None
    backend: str = "sim"
    options: Optional[RunOptions] = None
    obs_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("a campaign needs at least one scenario")
        if not self.seeds:
            raise ValueError("a campaign needs at least one seed")
        if self.backend not in cells.BACKENDS:
            raise ValueError(
                f"unknown campaign backend {self.backend!r}; known: {cells.BACKENDS}"
            )
        options = self.cell_options()  # rejects options the backend cannot run
        if self.backend == "sim":
            if options.obs is not None:
                raise ValueError(
                    "the sim backend has no observability plane; obs campaigns "
                    "need --backend runtime or cluster"
                )
        if self.obs_dir is not None and options.obs is None:
            raise ValueError("obs_dir needs an obs config")
        names = [scenario.name for scenario in self.scenarios]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            # Per-cell seeds and result groups key on the scenario name, so
            # two different workloads sharing a name would silently merge.
            raise ValueError(
                f"duplicate scenario names in campaign: {duplicates}; "
                f"rename the specs so results and seeds stay distinguishable"
            )
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if self.node_counts is not None:
            object.__setattr__(
                self, "node_counts", tuple(int(n) for n in self.node_counts)
            )
        if self.systems is not None:
            object.__setattr__(self, "systems", tuple(self.systems))

    def cell_options(self) -> RunOptions:
        """The record every cell runs under: ``options`` placed by backend.

        ``"runtime"`` cells run in-process on the virtual clock (as
        deterministic and machine-independent as a simulator cell);
        ``"cluster"`` cells run sharded over TCP on the wall clock, 2
        shards unless ``options.shards`` asks for more.
        """
        from repro.runtime.swarm import RunOptions

        options = self.options if self.options is not None else RunOptions()
        if self.backend == "runtime":
            return replace(options, shards=1, clock="virtual")
        if self.backend == "cluster":
            return replace(options, shards=max(2, options.shards), clock="wall")
        return options

    def cell_payloads(self) -> List[Dict[str, Any]]:
        """Every cell of the grid, in deterministic grid order."""
        payloads: List[Dict[str, Any]] = []
        options = self.cell_options()
        for scenario in self.scenarios:
            scenario_dict = scenario.to_dict()
            systems = self.systems or (scenario.system,)
            node_counts = self.node_counts or (scenario.num_nodes,)
            rounds = scenario.rounds if self.rounds is None else self.rounds
            for system in systems:
                for num_nodes in node_counts:
                    for seed in self.seeds:
                        payloads.append(
                            {
                                "scenario": scenario_dict,
                                "system": system,
                                "num_nodes": num_nodes,
                                "rounds": rounds,
                                "seed": seed,
                                "cell_seed": cell_seed_for(
                                    seed, scenario.name, num_nodes
                                ),
                                "backend": self.backend,
                                "options": options,
                                "obs_dir": self.obs_dir,
                            }
                        )
        return payloads


class CampaignRunner:
    """Runs a :class:`CampaignSpec` across ``workers`` processes.

    Args:
        campaign: the grid to sweep.
        workers: worker processes; ``1`` runs serially in-process (no
            multiprocessing involved), which is also the fallback for
            single-cell grids.
    """

    def __init__(self, campaign: CampaignSpec, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.campaign = campaign
        self.workers = workers

    def run(self, store: Optional[ResultsStore] = None) -> ResultsStore:
        """Sweep the grid and return the populated results store.

        Cells are appended to the store (and its JSONL file) as they
        complete — in grid order either way, so an interrupted campaign
        keeps its finished prefix and a finished one is identical
        regardless of worker count.

        A ``KeyboardInterrupt`` (Ctrl-C) or a dying worker does not lose
        the run: the cells already finished stay flushed to the JSONL
        file, the store is marked incomplete with the reason and the
        missing cell coordinates, and the partial store is returned
        instead of the exception propagating.
        """
        payloads = self.campaign.cell_payloads()
        store = store if store is not None else ResultsStore()
        completed = 0
        # Cluster cells spawn their own shard processes; pool workers are
        # daemonic and cannot have children, so a cluster-backend grid
        # always runs its cells serially (each cell is already parallel).
        use_pool = self.workers > 1 and len(payloads) > 1 and self.campaign.backend != "cluster"
        try:
            if use_pool:
                processes = min(self.workers, len(payloads))
                with multiprocessing.get_context().Pool(processes=processes) as pool:
                    for record in pool.imap(run_cell, payloads):
                        store.append(Record.from_dict(record))
                        completed += 1
            else:
                for payload in payloads:
                    store.append(Record.from_dict(run_cell(payload)))
                    completed += 1
        except KeyboardInterrupt:
            store.mark_incomplete(
                "interrupted by user (KeyboardInterrupt)",
                missing_cells=_cell_coordinates(payloads[completed:]),
            )
        except Exception as exc:  # worker death or a failing cell
            # Keep the full traceback visible — the store only records a
            # one-line reason, and silently eating the details would make
            # a broken run_cell much harder to debug.
            traceback.print_exc(file=sys.stderr)
            store.mark_incomplete(
                f"worker failed: {type(exc).__name__}: {exc}",
                missing_cells=_cell_coordinates(payloads[completed:]),
            )
        return store


def run_campaign(
    scenarios: Sequence[Union[str, Path, ScenarioSpec]],
    seeds: Sequence[int] = (0,),
    node_counts: Optional[Sequence[int]] = None,
    systems: Optional[Sequence[str]] = None,
    rounds: Optional[int] = None,
    workers: int = 1,
    results_path: Optional[Union[str, Path]] = None,
    backend: str = "sim",
    options: Optional[RunOptions] = None,
    obs_dir: Optional[Union[str, Path]] = None,
) -> ResultsStore:
    """Convenience wrapper: resolve scenarios, build the grid, run it.

    ``scenarios`` may mix :class:`ScenarioSpec` objects, spec file paths
    and built-in scenario names.  ``backend="runtime"`` fans the same grid
    over live virtual-clock swarms instead of the simulator (identical
    per-cell seeding, JSONL schema and summaries); ``backend="cluster"``
    runs each cell as a sharded swarm over real TCP (cells run serially —
    each one already owns several processes).  ``options`` is the live
    backends' :class:`~repro.runtime.swarm.RunOptions`.
    """
    campaign = CampaignSpec(
        scenarios=load_scenarios(scenarios),
        seeds=tuple(seeds),
        node_counts=None if node_counts is None else tuple(node_counts),
        systems=None if systems is None else tuple(systems),
        rounds=rounds,
        backend=backend,
        options=options,
        obs_dir=None if obs_dir is None else str(obs_dir),
    )
    store = ResultsStore(path=results_path)
    return CampaignRunner(campaign, workers=workers).run(store)
