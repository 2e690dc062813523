"""The one record every cell run produces, and the store campaigns keep.

:func:`~repro.scenarios.cell.run_cell` turns one
:class:`~repro.scenarios.cell.Cell` into one :class:`Record`: the quality
matrix, the sim-vs-live parity pairs and campaign cells all read it.  A
:class:`ResultsStore` collects a campaign's records, optionally streaming
each as a JSONL line to disk, and aggregates per-group summary statistics
(mean / std / min / max / 95% CI) over seeds.

Wall-clock time is recorded per cell for capacity planning but kept *out*
of the aggregated metric summary, so a campaign's summary is byte-identical
regardless of worker count or machine speed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.analysis.metrics import summarize_runs
from repro.core.node import LOOKUP_COUNTERS

#: The schema version a :class:`Record` writes.  A line without a
#: ``version`` is a version-1 campaign record (``backend``, ``num_nodes``,
#: ``rounds``, no ``counts``), which :meth:`Record.from_dict` still reads.
RECORD_VERSION = 2

#: The metric names every cell reports, in output order.
METRIC_NAMES: Tuple[str, ...] = (
    "stable_continuity",
    "mean_continuity",
    "final_continuity",
    "prefetch_overhead",
    "control_overhead",
    "nodes_joined",
    "nodes_left",
)

#: The exact counts a live cell reports beside its metrics: the frames and
#: bytes it put on the wire, how its Algorithm 2 lookups ended and the DHT
#: walks they made.  The simulator sends no frames and reports none.
COUNT_NAMES: Tuple[str, ...] = ("messages_sent", "bytes_on_wire") + LOOKUP_COUNTERS


@dataclass(frozen=True)
class Record:
    """What one :class:`~repro.scenarios.cell.Cell` measured: its coordinates,
    the sweep ``seed`` and the ``cell_seed`` the run used (equal outside a
    campaign, which derives one per cell), :data:`METRIC_NAMES` as floats,
    a live run's :data:`COUNT_NAMES` as ints (``{}`` for the simulator),
    and ``wall_time_s`` — not aggregated, and the *only* machine-dependent
    field (see docs/scenarios.md).  ``result`` is the driver's own result
    object for in-process callers (an obs export, postmortems); it is never
    serialised or compared.
    """

    scenario: str
    driver: str
    nodes: int
    periods: int
    system: str
    seed: int
    cell_seed: int
    metrics: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    wall_time_s: float = 0.0
    version: int = RECORD_VERSION
    result: Any = field(default=None, compare=False, repr=False)

    @property
    def group_key(self) -> str:
        """The aggregation group this cell belongs to."""
        return f"{self.scenario}/{self.system}/n{self.nodes}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form; inverse of :meth:`from_dict`."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "result"}

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "Record":
        data = dict(record)
        if "version" not in data:  # version 1
            data.update(driver=data.pop("backend", "sim"), nodes=data.pop("num_nodes"),
                        periods=data.pop("rounds"), version=RECORD_VERSION)
        data["metrics"] = {k: float(v) for k, v in dict(data["metrics"]).items()}
        data["counts"] = {k: int(v) for k, v in dict(data.get("counts", {})).items()}
        return cls(**data)


class ResultsStore:
    """Collects campaign cell records and aggregates them.

    Args:
        path: optional JSONL file; when given, every appended cell is
            written as one line immediately (so a long campaign's partial
            results survive an interruption).  An existing file is
            truncated — a store represents one campaign run.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self._results: List[Record] = []
        self.incomplete_reason: Optional[str] = None
        self.missing_cells: List[Dict[str, Any]] = []
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text("", encoding="utf-8")

    # ------------------------------------------------------------------ recording
    def append(self, record: Record) -> None:
        """Keep one cell record (and stream it to the JSONL file)."""
        self._results.append(record)
        if self.path is not None:
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")

    @property
    def is_complete(self) -> bool:
        """False once :meth:`mark_incomplete` has recorded an aborted run."""
        return self.incomplete_reason is None

    def mark_incomplete(
        self, reason: str, missing_cells: Optional[List[Dict[str, Any]]] = None
    ) -> None:
        """Record that the campaign aborted before sweeping every cell.

        The cells finished so far stay in the store (and were already
        streamed to the JSONL file line by line); a trailing marker line
        records why the run stopped and which grid cells are missing, so a
        partial results file is self-describing instead of silently looking
        like a smaller campaign.
        """
        self.incomplete_reason = str(reason)
        self.missing_cells = [dict(cell) for cell in (missing_cells or [])]
        if self.path is not None:
            marker = {
                "incomplete_reason": self.incomplete_reason,
                "missing_cells": self.missing_cells,
            }
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(marker, sort_keys=True) + "\n")

    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._results)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ResultsStore":
        """Rebuild an in-memory store from a JSONL file (without re-writing it)."""
        store = cls()
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "incomplete_reason" in record:
                store.incomplete_reason = record["incomplete_reason"]
                store.missing_cells = list(record.get("missing_cells", []))
                continue
            store._results.append(Record.from_dict(record))
        return store

    # ---------------------------------------------------------------- aggregation
    def summary(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per-group aggregate statistics over seeds.

        Returns a mapping ``group_key -> metric -> {mean, std, min, max,
        count, ci95}`` where ``std`` is the population standard deviation
        (matching :func:`~repro.analysis.metrics.summarize_runs`) and
        ``ci95`` is the normal-approximation 95% confidence half-width
        ``1.96 · s / sqrt(count)`` computed from the *sample* standard
        deviation ``s`` (ddof=1) — at the small seed counts campaigns use,
        the population std would understate the interval.  Groups and
        metrics are sorted, so equal inputs serialise byte-identically.
        """
        groups: Dict[str, List[Record]] = {}
        for result in self._results:
            groups.setdefault(result.group_key, []).append(result)
        summary: Dict[str, Dict[str, Dict[str, float]]] = {}
        for key in sorted(groups):
            cells = groups[key]
            metric_names = sorted({name for cell in cells for name in cell.metrics})
            per_metric: Dict[str, Dict[str, float]] = {}
            for metric in metric_names:
                values = [cell.metrics[metric] for cell in cells if metric in cell.metrics]
                stats = summarize_runs(values)
                count = stats["count"]
                if count > 1:
                    sample_std = stats["std"] * math.sqrt(count / (count - 1.0))
                    stats["ci95"] = 1.96 * sample_std / math.sqrt(count)
                else:
                    stats["ci95"] = 0.0
                per_metric[metric] = stats
            summary[key] = per_metric
        return summary

    def total_wall_time_s(self) -> float:
        """Sum of per-cell wall-clock seconds (CPU cost, not elapsed time)."""
        return float(sum(result.wall_time_s for result in self._results))

    def write_summary(self, path: Union[str, Path]) -> Path:
        """Write :meth:`summary` as pretty-printed, key-sorted JSON.

        An aborted campaign's summary additionally carries a top-level
        ``__incomplete__`` entry (reason + missing cell coordinates); a
        completed campaign's file is unchanged.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload: Dict[str, Any] = dict(self.summary())
        if not self.is_complete:
            payload["__incomplete__"] = {
                "reason": self.incomplete_reason,
                "missing_cells": self.missing_cells,
            }
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    def format_incomplete(self) -> str:
        """One warning line for an aborted campaign ('' when complete)."""
        if self.is_complete:
            return ""
        return (
            f"WARNING: campaign incomplete ({self.incomplete_reason}); "
            f"{len(self)} cells finished, {len(self.missing_cells)} missing"
        )

    # ------------------------------------------------------------------ rendering
    def format_results(self) -> str:
        """Per-cell lines (the campaign CLI's per-seed output)."""
        lines = []
        for result in self._results:
            metrics = result.metrics
            lines.append(
                f"{result.group_key} seed={result.seed}: "
                f"continuity {metrics.get('stable_continuity', float('nan')):.4f} "
                f"(mean {metrics.get('mean_continuity', float('nan')):.4f}), "
                f"prefetch overhead {metrics.get('prefetch_overhead', float('nan')):.4f}, "
                f"+{metrics.get('nodes_joined', 0):.0f}/-{metrics.get('nodes_left', 0):.0f} nodes, "
                f"{result.wall_time_s:.2f}s"
            )
        return "\n".join(lines)

    def format_summary(self) -> str:
        """Aggregate table: one line per group, mean ± CI for key metrics."""
        lines = []
        for key, metrics in self.summary().items():
            parts = []
            for metric in ("stable_continuity", "prefetch_overhead", "control_overhead"):
                stats = metrics.get(metric)
                if stats is None:
                    continue
                parts.append(
                    f"{metric} {stats['mean']:.4f} ± {stats['ci95']:.4f}"
                )
            count = next(iter(metrics.values()))["count"] if metrics else 0
            lines.append(f"{key} ({count:.0f} seeds): " + ", ".join(parts))
        return "\n".join(lines)
