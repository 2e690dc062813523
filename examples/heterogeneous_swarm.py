#!/usr/bin/env python3
"""Heterogeneous-bandwidth scenario and the Section 5.1 theory check.

The paper's analysis models segment arrivals as a Poisson process and
predicts the playback continuity without (``PC_old``) and with (``PC_new``)
the DHT-assisted pre-fetch.  This example

1. prints the analytic predictions for a couple of arrival rates,
2. runs the built-in ``hetero-swarm`` scenario — 20% ethernet / 50% cable /
   30% DSL access classes on a mildly lossy network, declared in
   ``repro.scenarios.library`` rather than hand-wired here — and
3. compares measured PC_old / PC_new / delta against the analytic rows on
   the uniform-bandwidth topology, mirroring the table of Section 5.1.

Run with::

    python examples/heterogeneous_swarm.py
"""

from __future__ import annotations

from repro import playback_continuity_new, playback_continuity_old
from repro.experiments.table_theory import (
    format_theory_table,
    paper_reference_rows,
    run_theory_table,
)
from repro.scenarios import builtin_scenario


def main() -> None:
    playback_rate = 10.0
    period = 1.0
    replicas = 4

    print("Analytic model (Section 5.1):")
    for arrival_rate in (15.0, 14.0, 12.0):
        pc_old = playback_continuity_old(arrival_rate, playback_rate, period)
        pc_new = playback_continuity_new(arrival_rate, playback_rate, period, replicas)
        print(f"  lambda={arrival_rate:>4.1f}  PC_old={pc_old:.4f}  PC_new={pc_new:.4f}  "
              f"delta={pc_new - pc_old:.4f}")
    print()

    # The access-class swarm (scaled to 200 nodes so the example finishes in
    # under a minute; pass num_nodes=1000 to reproduce the paper's scale).
    spec = builtin_scenario("hetero-swarm").scaled(num_nodes=200, rounds=30, seed=11)
    results = {
        system: spec.scaled(system=system).run()
        for system in ("coolstreaming", "continustreaming")
    }
    print("Access-class swarm (20% ethernet / 50% cable / 30% DSL, 2% loss):")
    for system, run in results.items():
        print(f"  {system:<18} stable continuity: {run.stable_continuity():.3f}")
    print()

    # The paper's own uniform-heterogeneous environment for the theory table.
    rows = run_theory_table(nodes=200, rounds=30, seed=11)
    print("Measured (200 nodes; PC_old = CoolStreaming, PC_new = ContinuStreaming):")
    print(format_theory_table(rows))
    print()
    print("Paper reference values (1000 nodes):")
    print(format_theory_table(paper_reference_rows()))


if __name__ == "__main__":
    main()
