"""Command-line runner for the experiment suite.

Usage (installed as ``continustreaming-experiments``)::

    continustreaming-experiments fig3                # Figure 3 (DHT)
    continustreaming-experiments table               # Section 5.1 table
    continustreaming-experiments fig5 --nodes 300    # static continuity track
    continustreaming-experiments fig6 --nodes 300    # dynamic continuity track
    continustreaming-experiments fig7 --sizes 100 200 400
    continustreaming-experiments fig9
    continustreaming-experiments fig10
    continustreaming-experiments fig11
    continustreaming-experiments ablations
    continustreaming-experiments all --scale small

    # scenario campaigns (see docs/scenarios.md):
    continustreaming-experiments campaign --scenario flash-crowd --seeds 4 --workers 4
    continustreaming-experiments campaign --scenario my-spec.yaml --out results/
    continustreaming-experiments campaign --backend runtime --scenario static --seeds 3

    # live asyncio runtime (see docs/runtime.md):
    continustreaming-experiments runtime --scenario static --nodes 50 --rounds 20
    continustreaming-experiments runtime --parity --nodes 200 --rounds 60 --time-scale 0.5
    continustreaming-experiments runtime --parity-matrix --clock virtual --nodes 120

    # sharded multi-process cluster over TCP (see docs/cluster.md):
    continustreaming-experiments cluster --shards 4            # 1000 peers
    continustreaming-experiments cluster --shards 2 --nodes 100 --rounds 20
    continustreaming-experiments runtime --shards 2 --nodes 100  # same engine
    continustreaming-experiments runtime --parity-matrix --backend cluster --nodes 60
    continustreaming-experiments campaign --backend cluster --shards 2 --nodes 80

    # observability plane (see docs/observability.md):
    continustreaming-experiments runtime --obs --metrics-out obs.jsonl
    continustreaming-experiments cluster --shards 2 --metrics-out obs.jsonl
    continustreaming-experiments obs --in obs.jsonl
    continustreaming-experiments campaign --backend runtime --obs --out results/

    # live telemetry, SLO budgets and the cockpit:
    continustreaming-experiments cluster --shards 2 --slo "continuity>=0.9" \
        --telemetry-out telemetry.jsonl
    continustreaming-experiments obs --live --in telemetry.jsonl

``--scale paper`` uses the paper's node counts (slow: thousands of nodes);
``--scale small`` (default) uses laptop-friendly sizes that preserve the
qualitative shape.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.core.config import SystemConfig
from repro.experiments import fig3_dht, fig5_6_track, fig7_8_scale, fig9_control
from repro.experiments import ablations as ablations_mod
from repro.experiments import fig10_11_prefetch, table_theory

#: Round count used when ``--rounds`` is not given.
DEFAULT_ROUNDS = 30


def _obs_config(args: argparse.Namespace):
    """The observability plane requested by the flags (``None`` = off).

    ``--metrics-out``, ``--slo`` and ``--telemetry-out`` all imply
    ``--obs`` — asking for the artifact (or the SLO verdict) is asking
    for the instrumentation.
    """
    if not (args.obs or args.metrics_out or args.slo or args.telemetry_out):
        return None
    from repro.obs import ObsConfig

    return ObsConfig(
        trace_sample=args.trace_sample,
        telemetry_every=args.telemetry_every,
        flows=not args.no_flows,
        topo=not args.no_topo,
    )


def _run_options(args: argparse.Namespace, command: str, shards: int):
    """The flags as the live runtime's one options record.

    Every combination the runtime cannot run (virtual clock on a sharded
    run, ``--core-peers`` without ``--fidelity hybrid``, ...) is rejected
    by the record itself, a malformed ``--slo`` by its parser; the CLI
    only turns that ``ValueError`` into a one-line exit.
    """
    from repro.obs import parse_slo
    from repro.runtime import RunOptions

    try:
        return RunOptions(
            shards=shards,
            time_scale=args.time_scale,
            clock=args.clock,
            batching=not args.no_batch,
            delta_maps=not args.no_delta,
            obs=_obs_config(args),
            slo=parse_slo(args.slo),
            telemetry_out=args.telemetry_out,
            fidelity=args.fidelity,
            core_peers=args.core_peers,
        )
    except ValueError as exc:
        raise SystemExit(f"{command} error: {exc}") from exc


def _fidelity_lines(result) -> List[str]:
    """Summary line for a hybrid-fidelity run ('' for full fidelity)."""
    fid = result.fidelity
    if not fid:
        return []
    slim = int(fid.get("slim_peers", 0))
    mem = int(fid.get("slim_memory_bytes", 0))
    per_peer = f" ({mem / slim:.1f} B/slim peer)" if slim else ""
    return [
        f"  hybrid: {fid.get('core_peers', 0)} live core peers + "
        f"{slim} slim peers of {fid.get('total_peers', 0)} total, "
        f"slim tier {mem} B{per_peer}"
    ]


def _obs_lines(result, args: argparse.Namespace) -> List[str]:
    """Summary lines + JSONL export for an obs-enabled run."""
    obs = result.obs
    if obs is None:
        return []
    from repro.obs import write_obs_jsonl

    traces = obs.get("traces") or {}
    lines = [
        f"  obs: {len(obs.get('spans', []))} spans, "
        f"{traces.get('sampled', 0)} sampled journeys "
        f"({traces.get('played', 0)} played / {traces.get('missed', 0)} missed), "
        f"{len(obs.get('postmortems', []))} postmortems"
    ]
    if args.metrics_out:
        write_obs_jsonl(args.metrics_out, obs)
        lines.append(f"  obs: metrics/trace JSONL written to {args.metrics_out}")
    return lines


def _obs_postmortems(result) -> str:
    """Flight-recorder postmortems for a failure path ('' when none)."""
    if result.obs is None:
        return ""
    from repro.obs import format_postmortems

    return format_postmortems(result.obs)


def _print_slo_breach(exc) -> None:
    """Print the breach postmortem to stderr before exiting non-zero."""
    from repro.obs import format_postmortems

    postmortems = format_postmortems(exc.obs)
    if postmortems:
        print(postmortems, file=sys.stderr)


def _telemetry_lines(args: argparse.Namespace, health) -> List[str]:
    """Summary lines for the live telemetry plane (``health`` is a
    :meth:`~repro.obs.health.HealthEngine.snapshot` dict, or ``None``)."""
    lines = []
    if health is not None:
        slo = health.get("slo")
        lines.append(
            f"  health: {len(health.get('alerts', []))} alert(s), "
            f"closed through period {health.get('closed_through', -1)}"
            + (f", SLO '{slo}' ok" if slo else "")
        )
    if args.telemetry_out:
        lines.append(
            f"  telemetry: JSONL streamed to {args.telemetry_out} "
            f"(exposition at {args.telemetry_out}.prom)"
        )
    return lines


def _sizes_for(scale: str, paper: Sequence[int], small: Sequence[int]) -> List[int]:
    return list(paper if scale == "paper" else small)


def _default_nodes(scale: str) -> int:
    return 1000 if scale == "paper" else 200


def _rounds(args: argparse.Namespace) -> int:
    return DEFAULT_ROUNDS if args.rounds is None else args.rounds


def cmd_fig3(args: argparse.Namespace) -> str:
    counts = args.sizes or _sizes_for(
        args.scale, fig3_dht.PAPER_NODE_COUNTS, fig3_dht.SMALL_NODE_COUNTS
    )
    points = fig3_dht.run_fig3_dht(
        node_counts=counts, lookups_per_size=args.lookups, seed=args.seed
    )
    return fig3_dht.format_fig3(points)


def cmd_table(args: argparse.Namespace) -> str:
    nodes = args.nodes or _default_nodes(args.scale)
    config = SystemConfig(num_nodes=nodes, rounds=_rounds(args), seed=args.seed)
    rows = table_theory.run_theory_table(config)
    measured = table_theory.format_theory_table(rows)
    reference = table_theory.format_theory_table(table_theory.paper_reference_rows())
    return f"measured:\n{measured}\n\npaper reference:\n{reference}"


def _track(args: argparse.Namespace, dynamic: bool) -> str:
    nodes = args.nodes or _default_nodes(args.scale)
    results = fig5_6_track.run_continuity_track(
        num_nodes=nodes, rounds=_rounds(args), dynamic=dynamic, seed=args.seed
    )
    return fig5_6_track.format_track(results)


def cmd_fig5(args: argparse.Namespace) -> str:
    return _track(args, dynamic=False)


def cmd_fig6(args: argparse.Namespace) -> str:
    return _track(args, dynamic=True)


def _scale_sweep(args: argparse.Namespace, dynamic: bool) -> str:
    sizes = args.sizes or _sizes_for(
        args.scale, fig7_8_scale.PAPER_SIZES, fig7_8_scale.SMALL_SIZES
    )
    points = fig7_8_scale.run_scale_sweep(
        sizes=sizes, dynamic=dynamic, rounds=_rounds(args), seed=args.seed
    )
    return fig7_8_scale.format_scale_sweep(points)


def cmd_fig7(args: argparse.Namespace) -> str:
    return _scale_sweep(args, dynamic=False)


def cmd_fig8(args: argparse.Namespace) -> str:
    return _scale_sweep(args, dynamic=True)


def cmd_fig9(args: argparse.Namespace) -> str:
    sizes = args.sizes or _sizes_for(
        args.scale, fig9_control.PAPER_SIZES, fig9_control.SMALL_SIZES
    )
    points = fig9_control.run_control_overhead(
        sizes=sizes, rounds=_rounds(args), seed=args.seed
    )
    return fig9_control.format_control_overhead(points)


def cmd_fig10(args: argparse.Namespace) -> str:
    nodes = args.nodes or _default_nodes(args.scale)
    tracks = fig10_11_prefetch.run_prefetch_overhead_track(
        num_nodes=nodes, rounds=_rounds(args), seed=args.seed
    )
    lines = []
    for label, track in tracks.items():
        lines.append(
            f"{label}: stable pre-fetch overhead {track.stable_overhead:.4f}"
        )
        lines.append(
            "  track: [" + ", ".join(f"{value:.4f}" for value in track.overhead) + "]"
        )
    return "\n".join(lines)


def cmd_fig11(args: argparse.Namespace) -> str:
    sizes = args.sizes or _sizes_for(
        args.scale, fig10_11_prefetch.PAPER_SIZES, fig10_11_prefetch.SMALL_SIZES
    )
    points = fig10_11_prefetch.run_prefetch_overhead_scale(
        sizes=sizes, rounds=_rounds(args), seed=args.seed
    )
    return fig10_11_prefetch.format_prefetch_scale(points)


def cmd_ablations(args: argparse.Namespace) -> str:
    nodes = args.nodes or _default_nodes(args.scale)
    config = SystemConfig(num_nodes=nodes, rounds=_rounds(args), seed=args.seed)
    sections = [
        ("priority / pre-fetch", ablations_mod.run_priority_ablation(config)),
        ("backup replicas k", ablations_mod.run_replica_ablation(base_config=config)),
        ("pre-fetch cap l", ablations_mod.run_prefetch_limit_ablation(base_config=config)),
        ("pipeline phases", ablations_mod.run_phase_ablation(base_config=config)),
    ]
    lines = []
    for title, points in sections:
        lines.append(f"== {title} ==")
        lines.append(ablations_mod.format_ablation(points))
        lines.append("")
    return "\n".join(lines)


def cmd_campaign(args: argparse.Namespace) -> str:
    """Run a scenario × seed campaign across worker processes."""
    from repro.scenarios import builtin_names, run_campaign

    names = args.scenario or ["static", "paper-dynamic"]
    if args.slo or args.telemetry_out:
        raise SystemExit(
            "campaign does not take --slo/--telemetry-out (they govern one "
            "run; use the runtime or cluster command)"
        )
    results_path = None
    summary_path = None
    options = _run_options(args, "campaign", 1 if args.shards is None else args.shards)
    # For campaigns --metrics-out names a *directory*: each grid cell
    # writes its own collision-free obs JSONL there.
    obs_dir = args.metrics_out or (args.out if options.obs is not None else None)
    if args.out:
        from pathlib import Path

        out_dir = Path(args.out)
        results_path = out_dir / "campaign_results.jsonl"
        summary_path = out_dir / "campaign_summary.json"
    try:
        store = run_campaign(
            names,
            # The global --seed offsets the sweep: seeds seed..seed+N-1.
            seeds=range(args.seed, args.seed + args.seeds),
            node_counts=[args.nodes] if args.nodes else None,
            rounds=args.rounds,
            workers=args.workers,
            results_path=results_path,
            backend=args.backend,
            options=options,
            obs_dir=obs_dir,
        )
    except (ValueError, RuntimeError) as exc:
        # ValueError: bad scenario names/specs; RuntimeError: e.g. a YAML
        # spec on an environment without PyYAML.
        raise SystemExit(f"campaign error: {exc}") from exc
    if summary_path is not None:
        store.write_summary(summary_path)
    lines = [
        f"campaign[{args.backend}]: {len(store)} cells "
        f"({args.seeds} seeds x {len(names)} scenarios, {args.workers} workers), "
        f"total simulation time {store.total_wall_time_s():.2f}s",
        "",
        "per-seed results:",
        store.format_results(),
        "",
        "aggregates (mean ± 95% CI over seeds):",
        store.format_summary(),
    ]
    if not store.is_complete:
        lines.insert(1, store.format_incomplete())
    if options.obs is not None and obs_dir:
        lines.append("")
        lines.append(f"per-cell obs JSONL written to {obs_dir}/")
    if args.out:
        lines.append("")
        lines.append(f"results written to {results_path} and {summary_path}")
    else:
        lines.append("")
        lines.append(f"(built-in scenarios: {', '.join(builtin_names())}; "
                     f"--out DIR persists JSONL + summary)")
    out = "\n".join(lines)
    if not store.is_complete:
        # The partial results are flushed and reported above, but an
        # aborted campaign must still fail the invocation (CI smoke steps
        # rely on the exit code).
        print(out)
        raise SystemExit(f"campaign incomplete: {store.incomplete_reason}")
    return out


def _cmd_swarm(args: argparse.Namespace, command: str, nodes: int, rounds: int, shards: int) -> str:
    """Run one scenario on the live runtime — the body of both the
    ``runtime`` and the ``cluster`` command, which differ only in their
    defaults (50 peers × 20 rounds in-process vs 1000 × 30 on 4 shards)."""
    from repro.analysis.metrics import summarize_ledger
    from repro.obs import SloViolation
    from repro.runtime import run, run_parity
    from repro.scenarios import load_scenarios

    names = args.scenario or ["static"]
    parity = args.parity or args.parity_matrix
    if parity and command == "cluster":
        raise SystemExit(
            "cluster error: --parity/--parity-matrix belong to the runtime "
            "command (runtime --parity-matrix --shards N puts the cluster on "
            "the live side)"
        )
    if parity and args.fidelity == "hybrid":
        raise SystemExit(
            "--fidelity hybrid does not combine with the parity harness "
            "(parity pins the full runtime against the sim; hybrid parity "
            "is pinned by tests/test_runtime_hybrid.py)"
        )
    if args.shards is not None:
        shards = args.shards
    if args.parity_matrix:
        # The campaign-oriented --backend flag doubles as the matrix's
        # cluster axis (4 shards unless --shards says otherwise); matrix
        # mode defaults to run_parity_matrix's own scale (120 nodes / 40
        # rounds — what the nightly acceptance runs).
        if args.backend == "cluster" and args.shards is None:
            shards = 4
        return _parity_matrix(
            args, names, args.nodes or 120, args.rounds or 40,
            _run_options(args, command, shards),
        )
    nodes = args.nodes or nodes
    rounds = args.rounds or rounds
    if len(names) > 1:
        raise SystemExit(
            f"{command} runs one scenario per invocation, got {len(names)}: "
            f"{' '.join(names)} (campaigns sweep multiple scenarios)"
        )
    options = _run_options(args, command, shards)
    try:
        (spec,) = load_scenarios(names)
        if args.parity:
            report = run_parity(spec, num_nodes=nodes, rounds=rounds, seed=args.seed, options=options)
            result = report.runtime_result
            out = report.formatted()
        else:
            result = run(spec.scaled(num_nodes=nodes, rounds=rounds, seed=args.seed), options)
    except SloViolation as exc:
        _print_slo_breach(exc)
        raise SystemExit(f"{command} SLO breach: {exc}") from exc
    except (ValueError, RuntimeError) as exc:
        # ValueError: a bad scenario or an option combination the record
        # rejects; RuntimeError: the cluster failed to come up.
        raise SystemExit(f"{command} error: {exc}") from exc
    continuity = result.stable_continuity()
    if not args.parity:
        ledger = summarize_ledger(result.ledger, transport=result.transport)
        cluster = result.cluster
        placement = f"shards={result.shards} " if cluster else ""
        lines = [
            f"{command} {spec.name} n={nodes} rounds={rounds} {placement}"
            f"time_scale={result.time_scale:.3g} clock={result.clock} ({spec.system}):",
            f"  stable continuity {continuity:.4f}  "
            f"(final {result.continuity_series()[-1]:.4f})",
            f"  control overhead {ledger['control_overhead']:.4f}, "
            f"prefetch overhead {ledger['prefetch_overhead']:.4f}",
            f"  {result.messages_sent} wire messages "
            f"({result.messages_per_wall_second():.0f}/s wall), "
            f"{result.segments_delivered()} segments "
            f"({result.segments_per_wall_second():.0f}/s wall), "
            f"{result.bytes_on_wire} bytes on wire",
            f"  transport: {result.transport.formatted()}",
            f"  peers +{result.peers_joined}/-{result.peers_left}, "
            f"{result.messages_dropped} frames dropped, "
            f"schedule dilated {result.clock_dilations}x "
            f"(+{result.clock_dilation_s:.2f}s), "
            f"wall {result.wall_time_s:.2f}s",
        ]
        if cluster:
            socket = cluster["socket"]
            lines.append(
                f"  sockets: {socket.get('frames_out', 0)} frames out / "
                f"{socket.get('frames_in', 0)} in, {socket.get('bytes_out', 0)} bytes out, "
                f"{socket.get('sheds', 0)} shed, {socket.get('disconnects', 0)} disconnects, "
                f"shards lost {cluster['shards_lost']}"
            )
            lines.append(
                "  shards: "
                + ", ".join(
                    f"#{row['shard']}{'*' if row['hosts_source'] else ''}"
                    f" {row['hosted_peers']} peers"
                    for row in cluster["per_shard"]
                )
                + "  (* hosts the source)"
            )
        lines.extend(_fidelity_lines(result))
        lines.extend(_obs_lines(result, args))
        lines.extend(_telemetry_lines(args, result.health))
        out = "\n".join(lines)
    if args.assert_continuity is not None and continuity < args.assert_continuity:
        print(out)
        postmortems = _obs_postmortems(result)
        if postmortems:
            print(postmortems, file=sys.stderr)
        raise SystemExit(
            f"{command} stable continuity {continuity:.4f} is below the "
            f"required {args.assert_continuity}"
        )
    return out


def cmd_runtime(args: argparse.Namespace) -> str:
    """Run a scenario as a live swarm in this process (docs/runtime.md)."""
    return _cmd_swarm(args, "runtime", nodes=50, rounds=20, shards=1)


def cmd_cluster(args: argparse.Namespace) -> str:
    """Run a scenario as a sharded multi-process swarm (docs/cluster.md)."""
    return _cmd_swarm(args, "cluster", nodes=1000, rounds=30, shards=4)


def cmd_obs(args: argparse.Namespace) -> str:
    """Render an obs JSONL report, the live cockpit, or a run diff."""
    if args.mode == "diff":
        return _cmd_obs_diff(args)
    if args.mode is not None:
        raise SystemExit(
            f"unknown obs mode {args.mode!r} (supported: diff)"
        )
    if args.live:
        from repro.obs import run_live

        if not args.obs_in:
            raise SystemExit(
                "obs --live needs --in PATH (a telemetry JSONL from --telemetry-out)"
            )
        try:
            cockpit = run_live(args.obs_in, refresh_s=args.refresh, once=args.once)
        except OSError as exc:
            raise SystemExit(
                f"obs error: could not read {args.obs_in}: {exc}"
            ) from exc
        return (
            f"(cockpit closed: {cockpit.frames} frame(s), "
            f"{cockpit.alert_count} alert(s), {len(cockpit.shards)} shard(s))"
        )
    from repro.obs import load_obs_jsonl, render_report

    if not args.obs_in:
        raise SystemExit(
            "obs needs --in PATH (a JSONL written by --metrics-out)"
        )
    try:
        obs = load_obs_jsonl(args.obs_in)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"obs error: could not read {args.obs_in}: {exc}") from exc
    return render_report(obs)


def _cmd_obs_diff(args: argparse.Namespace) -> str:
    """``obs diff``: compare a baseline and a candidate obs JSONL export.

    Warn-only by default — regressions are reported (and written to the
    ``--verdict-out`` JSON for CI) but the exit code stays 0 unless
    ``--strict`` asks for a hard gate.
    """
    import json as _json

    from repro.obs import diff_obs, load_obs_jsonl, render_diff

    if not args.baseline or not args.obs_in:
        raise SystemExit(
            "obs diff needs --baseline PATH and --in PATH "
            "(two JSONL exports written by --metrics-out)"
        )
    try:
        baseline = load_obs_jsonl(args.baseline)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"obs error: could not read {args.baseline}: {exc}") from exc
    try:
        candidate = load_obs_jsonl(args.obs_in)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"obs error: could not read {args.obs_in}: {exc}") from exc
    verdict = diff_obs(
        baseline,
        candidate,
        p95_tolerance=args.p95_tolerance,
        counter_tolerance=args.counter_tolerance,
    )
    verdict["baseline"] = str(args.baseline)
    verdict["candidate"] = str(args.obs_in)
    if args.verdict_out:
        with open(args.verdict_out, "w", encoding="utf-8") as fh:
            _json.dump(verdict, fh, indent=2, sort_keys=True)
            fh.write("\n")
    report = render_diff(verdict)
    if args.strict and not verdict["ok"]:
        raise SystemExit(report)
    return report


def _parity_matrix(
    args: argparse.Namespace, names: List[str], nodes: int, rounds: int, options
) -> str:
    """Run the sim-vs-live parity matrix over several scenarios."""
    from repro.runtime.parity import PARITY_TOLERANCE, run_parity_matrix

    scenarios = None if args.scenario is None else names
    tolerance = (
        PARITY_TOLERANCE if args.tolerance is None else args.tolerance
    )
    matrix = run_parity_matrix(
        scenarios=scenarios, num_nodes=nodes, rounds=rounds, seed=args.seed, options=options
    )
    out = matrix.formatted(tolerance)
    failures = matrix.failures(tolerance)
    if failures:
        print(out)
        raise SystemExit(
            f"parity matrix failed: {len(failures)} scenario(s) beyond "
            f"|Δ| ≤ {tolerance}: "
            + ", ".join(f"{r.scenario} ({r.continuity_delta:.4f})" for r in failures)
        )
    if args.assert_continuity is not None:
        below = [
            r for r in matrix.reports
            if r.runtime_stable_continuity < args.assert_continuity
        ]
        if below:
            print(out)
            raise SystemExit(
                "parity matrix runtime continuity below "
                f"{args.assert_continuity}: "
                + ", ".join(
                    f"{r.scenario} ({r.runtime_stable_continuity:.4f})"
                    for r in below
                )
            )
    return out


COMMANDS = {
    "fig3": cmd_fig3,
    "table": cmd_table,
    "fig5": cmd_fig5,
    "fig6": cmd_fig6,
    "fig7": cmd_fig7,
    "fig8": cmd_fig8,
    "fig9": cmd_fig9,
    "fig10": cmd_fig10,
    "fig11": cmd_fig11,
    "ablations": cmd_ablations,
    "campaign": cmd_campaign,
    "runtime": cmd_runtime,
    "cluster": cmd_cluster,
    "obs": cmd_obs,
}

#: Commands that sweep grids or run live swarms; excluded from ``all``.
_EXCLUDED_FROM_ALL = ("campaign", "runtime", "cluster", "obs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="continustreaming-experiments",
        description="Regenerate the tables and figures of the ContinuStreaming paper.",
    )
    parser.add_argument(
        "experiment",
        choices=[*COMMANDS.keys(), "all"],
        help="which experiment to run ('all' runs every figure/table experiment; "
        "campaigns run only when asked for explicitly)",
    )
    parser.add_argument(
        "mode", nargs="?", default=None,
        help="sub-mode of a command; today only 'obs diff' takes one "
        "(compare two obs JSONL exports)",
    )
    parser.add_argument("--scale", choices=("small", "paper"), default="small",
                        help="node-count scale (default: small)")
    parser.add_argument("--nodes", type=int, default=None,
                        help="override the overlay size for single-size experiments")
    parser.add_argument("--sizes", type=int, nargs="*", default=None,
                        help="override the size sweep for sweep experiments")
    parser.add_argument("--rounds", type=int, default=None,
                        help=f"scheduling periods to simulate (default: {DEFAULT_ROUNDS}; "
                        "campaigns default to each scenario's own round count)")
    parser.add_argument("--lookups", type=int, default=2000,
                        help="random lookups per size for fig3 (default: 2000)")
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    campaign_group = parser.add_argument_group("campaign options")
    campaign_group.add_argument(
        "--scenario", nargs="*", default=None, metavar="NAME_OR_FILE",
        help="scenarios to sweep: built-in names (see docs/scenarios.md) or "
        "YAML/JSON spec files (default: static paper-dynamic)")
    campaign_group.add_argument(
        "--seeds", type=int, default=2,
        help="number of sweep seeds per scenario, starting at --seed "
        "(default: 2, i.e. seeds 0 and 1)")
    campaign_group.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the campaign grid (default: 1 = serial)")
    campaign_group.add_argument(
        "--out", default=None, metavar="DIR",
        help="directory for campaign_results.jsonl + campaign_summary.json")
    campaign_group.add_argument(
        "--backend", choices=("sim", "runtime", "cluster"), default="sim",
        help="engine for campaign cells: the lock-step simulator (default), "
        "live virtual-clock swarms (identical seeding and JSONL schema) or "
        "sharded multi-process cluster swarms over TCP; for runtime "
        "--parity-matrix, 'cluster' puts the cluster on the live side")
    runtime_group = parser.add_argument_group("runtime options")
    runtime_group.add_argument(
        "--time-scale", type=float, default=None, metavar="S",
        help="wall seconds per simulated second for the live runtime "
        "(default: 0.1 in-process, sized on the peers per core when "
        "sharded; an overloaded wall-clock swarm stretches its "
        "schedule coherently instead of collapsing)")
    runtime_group.add_argument(
        "--clock", choices=("wall", "virtual"), default="wall",
        help="runtime clock: real time (default) or deterministic virtual "
        "time with zero wall waiting")
    runtime_group.add_argument(
        "--fidelity", choices=("full", "hybrid"), default="full",
        help="runtime fidelity tier: 'full' (default) runs every peer as a "
        "live task; 'hybrid' runs a live core of --core-peers plus an "
        "array-backed slim statistical tier for the rest, scaling to "
        "six-figure swarms (runtime/campaign/cluster backends; see "
        "docs/runtime.md)")
    runtime_group.add_argument(
        "--core-peers", type=int, default=None, metavar="N",
        help="full-fidelity live peers in a --fidelity hybrid run "
        "(default: 50, capped by the swarm size)")
    runtime_group.add_argument(
        "--parity", action="store_true",
        help="run the sim-vs-runtime parity harness instead of a single swarm")
    runtime_group.add_argument(
        "--parity-matrix", action="store_true",
        help="run the parity harness over every --scenario (default: all "
        "built-ins) and exit non-zero beyond the tolerance")
    runtime_group.add_argument(
        "--tolerance", type=float, default=None, metavar="D",
        help="|Δ stable continuity| bar for --parity-matrix (default: 0.03)")
    runtime_group.add_argument(
        "--assert-continuity", type=float, default=None, metavar="X",
        help="exit non-zero unless the runtime's stable continuity reaches X "
        "(used by the CI runtime smoke step)")
    runtime_group.add_argument(
        "--no-batch", action="store_true",
        help="disable the wire fast path's frame batching (one frame per "
        "delivery/envelope, the pre-batching wire behaviour)")
    runtime_group.add_argument(
        "--no-delta", action="store_true",
        help="disable buffer-map delta gossip (every gossip ships the "
        "full map, the pre-delta wire behaviour)")
    obs_group = parser.add_argument_group("observability options")
    obs_group.add_argument(
        "--obs", action="store_true",
        help="enable the observability plane for runtime/cluster runs: "
        "per-period metrics, sampled segment-journey traces and the "
        "flight recorder (see docs/observability.md)")
    obs_group.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metrics/trace/flight JSONL to PATH "
        "(implies --obs; render it later with the obs command)")
    obs_group.add_argument(
        "--trace-sample", type=int, default=16, metavar="N",
        help="trace every Nth segment request per peer (default: 16; "
        "1 traces everything)")
    obs_group.add_argument(
        "--in", dest="obs_in", default=None, metavar="PATH",
        help="JSONL artifact to render with the obs command")
    obs_group.add_argument(
        "--slo", default=None, metavar="SPEC",
        help="abort the run once this SLO's error budget burns too fast, "
        "e.g. 'continuity>=0.95:burn=3x:grace=5' (implies --obs; see "
        "docs/observability.md on burn-rate semantics)")
    obs_group.add_argument(
        "--telemetry-out", default=None, metavar="PATH",
        help="stream live telemetry frames + alerts to PATH as JSONL, with "
        "a Prometheus text exposition at PATH.prom (implies --obs; watch "
        "it with 'obs --live --in PATH')")
    obs_group.add_argument(
        "--telemetry-every", type=int, default=1, metavar="N",
        help="emit one telemetry frame every N scheduling periods "
        "(default: 1)")
    obs_group.add_argument(
        "--live", action="store_true",
        help="with the obs command: tail a telemetry JSONL and render the "
        "refreshing terminal cockpit instead of a static report")
    obs_group.add_argument(
        "--refresh", type=float, default=1.0, metavar="S",
        help="cockpit redraw interval for obs --live (default: 1.0s)")
    obs_group.add_argument(
        "--once", action="store_true",
        help="with obs --live: read the stream once, render once and exit "
        "(used by tests/CI instead of following the file)")
    obs_group.add_argument(
        "--no-flows", action="store_true",
        help="disable the per-link/per-shard-pair flow matrix in an "
        "obs-enabled run")
    obs_group.add_argument(
        "--no-topo", action="store_true",
        help="disable the per-period overlay topology snapshots in an "
        "obs-enabled run")
    obs_group.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="with obs diff: the baseline obs JSONL export (--in is the "
        "candidate)")
    obs_group.add_argument(
        "--verdict-out", default=None, metavar="PATH",
        help="with obs diff: write the machine-readable verdict JSON to "
        "PATH (for CI artifacts/gates)")
    obs_group.add_argument(
        "--p95-tolerance", type=float, default=0.10, metavar="F",
        help="with obs diff: relative worsening of the trace p50/p95 "
        "request→deliver latency that counts as a regression "
        "(default: 0.10)")
    obs_group.add_argument(
        "--counter-tolerance", type=float, default=0.05, metavar="F",
        help="with obs diff: relative counter movement reported as a "
        "change/warning (default: 0.05)")
    obs_group.add_argument(
        "--strict", action="store_true",
        help="with obs diff: exit non-zero when the verdict has "
        "regressions (default is warn-only)")
    cluster_group = parser.add_argument_group("cluster options")
    cluster_group.add_argument(
        "--shards", type=int, default=None,
        help="worker processes hosting the swarm: 1 runs in-process, more "
        "run sharded over TCP (default: 1 for runtime, 4 for cluster — which "
        "also defaults to 1000 peers, see docs/cluster.md — and for "
        "--backend cluster parity matrices, 2 for cluster-backend campaigns)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``continustreaming-experiments`` console script."""
    args = build_parser().parse_args(argv)
    if args.mode is not None and args.experiment != "obs":
        raise SystemExit(
            f"the {args.experiment!r} command takes no sub-mode "
            f"(got {args.mode!r})"
        )
    if args.experiment == "all":
        # Campaigns and live swarms are opt-in, not part of "all".
        names = [name for name in COMMANDS if name not in _EXCLUDED_FROM_ALL]
    else:
        names = [args.experiment]
    for name in names:
        print(f"==== {name} ====")
        print(COMMANDS[name](args))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
