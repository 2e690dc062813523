"""The parallel campaign runner.

A *campaign* fans a scenario × system × node-count × seed grid across
``multiprocessing`` workers and collects every cell's metrics into a
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
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.scenarios.results import CellResult, ResultsStore
from repro.scenarios.spec import ScenarioSpec, load_scenarios
from repro.sim.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - the runtime imports this package's spec module
    from repro.runtime.swarm import RunOptions

#: The engines a campaign can fan its grid over: the lock-step round
#: simulator, live asyncio swarms on the deterministic virtual clock, or
#: sharded multi-process cluster swarms over real TCP sockets (wall
#: clock — throughput and scale, not bit-determinism; see
#: ``docs/cluster.md``).
BACKENDS = ("sim", "runtime", "cluster")


def cell_seed_for(seed: int, scenario: str, num_nodes: int) -> int:
    """The deterministic root seed of one campaign cell.

    Deliberately independent of the protocol — and of the backend: two
    systems (or the simulator and the live runtime) sweeping the same
    (seed, scenario, node count) share a root seed and therefore see the
    same topology, bandwidth assignment and churn schedule — the paired
    A/B methodology the rest of the repo uses (see ``run_comparison``), so
    continuity deltas isolate the protocol (or engine) rather than
    topology variance.
    """
    return derive_seed(seed, f"campaign/{scenario}/n{num_nodes}")


def cell_obs_filename(payload: Mapping[str, Any]) -> str:
    """The collision-free obs JSONL name of one grid cell.

    Every coordinate that distinguishes cells within a campaign —
    scenario, system, node count, sweep seed, backend, and (for
    non-default fidelity) the fidelity mode with its core size — lands
    in the name, so no two cells of one grid (or of a sim/runtime or
    hybrid/full re-run into the same directory) can overwrite each
    other's export.  Full-fidelity names stay exactly as before, so
    existing tooling keyed on them keeps resolving.
    """
    raw = (
        f"{payload['scenario']['name']}_{payload['system']}"
        f"_n{payload['num_nodes']}_s{payload['seed']}"
        f"_{payload.get('backend', 'sim')}"
    )
    options = payload.get("options")
    if options is not None and options.fidelity != "full":
        raw += f"_{options.fidelity}"
        if options.core_peers is not None:
            raw += f"-c{options.core_peers}"
    return f"obs_{re.sub(r'[^A-Za-z0-9._-]+', '-', raw)}.jsonl"


def run_cell(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Execute one campaign cell; top-level so worker processes can pickle it.

    The payload is self-contained: the scenario's dict form plus the cell
    coordinates.  Returns the :meth:`CellResult.to_record` dict.

    A ``"runtime"`` backend cell runs the identical spec as a live swarm
    on the **virtual clock** (:mod:`repro.runtime.clock`), so the cell is
    exactly as deterministic and machine-independent as a simulator cell:
    the record depends only on the cell coordinates, with ``wall_time_s``
    the single wall-clock-dependent field.  Both backends report the same
    metric names (:data:`~repro.scenarios.results.METRIC_NAMES`), so the
    JSONL schema and the summary structure are byte-compatible.
    """
    backend = payload.get("backend", "sim")
    if backend not in BACKENDS:
        raise ValueError(f"unknown campaign backend {backend!r}; known: {BACKENDS}")
    spec = ScenarioSpec.from_dict(payload["scenario"]).scaled(
        num_nodes=payload["num_nodes"],
        rounds=payload["rounds"],
        seed=payload["cell_seed"],
        system=payload["system"],
    )
    start = time.perf_counter()
    if backend == "sim":
        result = spec.run()
        joined = float(sum(r.nodes_joined for r in result.rounds))
        left = float(sum(r.nodes_left for r in result.rounds))
    else:
        from repro.runtime.swarm import run

        # The payload's options already carry the backend's placement and
        # clock (see CampaignSpec.cell_options).
        result = run(spec, payload.get("options"))
        joined, left = float(result.peers_joined), float(result.peers_left)
    wall_time = time.perf_counter() - start
    obs_dir = payload.get("obs_dir")
    if obs_dir and getattr(result, "obs", None):
        from repro.obs import write_obs_jsonl

        out_dir = Path(obs_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_obs_jsonl(out_dir / cell_obs_filename(payload), result.obs)
    series = result.continuity_series()
    metrics = {
        "stable_continuity": float(result.stable_continuity()),
        "mean_continuity": float(sum(series) / len(series)) if series else 0.0,
        "final_continuity": float(series[-1]) if series else 0.0,
        "prefetch_overhead": float(result.prefetch_overhead()),
        "control_overhead": float(result.control_overhead()),
        "nodes_joined": joined,
        "nodes_left": left,
    }
    return CellResult(
        scenario=payload["scenario"]["name"],
        system=payload["system"],
        num_nodes=payload["num_nodes"],
        seed=payload["seed"],
        cell_seed=payload["cell_seed"],
        rounds=payload["rounds"],
        backend=backend,
        metrics=metrics,
        wall_time_s=wall_time,
    ).to_record()


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
            compression, obs plane, hybrid fidelity, shard count.  The
            backend fixes placement and clock (:meth:`cell_options`);
            ``None`` is the default record.  The sim backend has no live
            runtime: it rejects an obs plane or a hybrid tier.
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
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown campaign backend {self.backend!r}; known: {BACKENDS}"
            )
        options = self.cell_options()  # rejects options the backend cannot run
        if self.backend == "sim":
            if options.obs is not None:
                raise ValueError(
                    "the sim backend has no observability plane; obs campaigns "
                    "need --backend runtime or cluster"
                )
            if options.fidelity == "hybrid":
                raise ValueError(
                    "the sim backend has no hybrid tier; hybrid campaigns need "
                    "--backend runtime or cluster"
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
                        store.append(CellResult.from_record(record))
                        completed += 1
            else:
                for payload in payloads:
                    store.append(CellResult.from_record(run_cell(payload)))
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
