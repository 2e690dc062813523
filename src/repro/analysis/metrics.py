"""Metric aggregation helpers shared by the experiment harness."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.net.message import MessageLedger


def summarize_runs(values: Iterable[float]) -> Dict[str, float]:
    """Mean / std / min / max summary of repeated runs of one metric."""
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        return {"mean": 0.0, "std": 0.0, "min": 0.0, "max": 0.0, "count": 0.0}
    return {
        "mean": float(data.mean()),
        "std": float(data.std(ddof=0)),
        "min": float(data.min()),
        "max": float(data.max()),
        "count": float(data.size),
    }


def summarize_ledger(
    ledger: MessageLedger, transport: Optional[object] = None
) -> Dict[str, float]:
    """Named scalar facts of one traffic ledger.

    One flat dict per ledger — bits and message counts per kind plus the
    paper's two overhead ratios — shared by the live-runtime CLI and
    ad-hoc analysis so every surface reports the same numbers under the
    same names.

    When a runtime :class:`~repro.runtime.transport.TransportSummary` (or
    anything with a compatible ``to_dict``) is given, its flow-control
    facts join the summary under ``transport_*`` keys — queue
    high-watermarks, send stalls, shed frames and buffer-map desyncs
    (``transport_map_desyncs``) belong next to the traffic they
    throttled.  Note the ledger's bit counts are *model* bits (declared
    segment sizes); the physical byte count of the encoded frames lives
    in ``RuntimeResult.bytes_on_wire``, not here.
    """
    summary: Dict[str, float] = {}
    for kind in ledger.bits:
        summary[f"bits_{kind.value}"] = float(ledger.bits_of(kind))
        summary[f"count_{kind.value}"] = float(ledger.count_of(kind))
    summary["total_bits"] = ledger.total_bits()
    summary["total_messages"] = float(ledger.total_count())
    summary["control_overhead"] = float(ledger.control_overhead())
    summary["prefetch_overhead"] = float(ledger.prefetch_overhead())
    if transport is not None:
        for key, value in transport.to_dict().items():
            summary[f"transport_{key}"] = float(value)
    return summary


def stable_phase_mean(series: Sequence[float], skip_fraction: float = 2 / 3) -> float:
    """Mean of the trailing part of a time series (the "stable phase")."""
    if not series:
        return 0.0
    if not (0.0 <= skip_fraction < 1.0):
        raise ValueError("skip_fraction must be in [0, 1)")
    start = int(len(series) * skip_fraction)
    tail = list(series[start:]) or [series[-1]]
    return float(sum(tail) / len(tail))
