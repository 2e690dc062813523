"""The benchmark's contract, checked at toy size (n≈20, 3–4 periods, 2 k frames).

What is pinned here is what later changes rely on and may not edit: the
metric names and units in ``BENCHMARK.json`` are exactly what the command
prints, same-seed virtual-clock runs repeat exactly, the layer fold
accounts for all the time it is given, and a function or counter that a
later change removes turns into ``null`` instead of a crash.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import compare, harness, metrics, run, trace, workloads  # noqa: E402

TOY = harness.SCALES["toy"]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def program():
    return workloads.load_program()[0]


@pytest.fixture(scope="module")
def toy_results(program):
    """Every workload once, untraced then traced, in this process."""
    return {
        name: harness.measure(
            function, program, 0.3, seed=0, seconds=0.0, traced=True, scale=TOY,
            profiled=name not in workloads.UNPROFILED,
        )
        for name, function in workloads.WORKLOADS.items()
    }


# ------------------------------------------------------------- BENCHMARK.json
def test_benchmark_json_is_the_metric_table():
    assert CONTRACT == metrics.benchmark_json()
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def test_benchmark_json_is_within_the_contract_limits():
    assert CONTRACT["paths"] == ["bench"] and (ROOT / "bench").is_dir()
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16 and 1 <= len(CONTRACT["per_layer"]) <= 128
    names = (
        [w["name"] for w in CONTRACT["workloads"]]
        + [m["name"] for m in CONTRACT["end_to_end"]]
        + [m["name"] for m in CONTRACT["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": setup[0]["bound"]}]
    assert setup[0]["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


# ------------------------------------------------------- what the command prints
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_contract_metric_is_printed_with_its_unit_and_no_other(toy_results, name):
    result = toy_results[name]
    for traced, declared in ((False, CONTRACT["end_to_end"]), (True, CONTRACT["per_layer"])):
        line = json.loads(run.contract_line(dict(result, traced=traced)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
        assert {n: m["unit"] for n, m in line["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
        assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    # The suite-only end-to-end metrics are reported where they exist.
    extra = set(result["end_to_end"]) - {m["name"] for m in CONTRACT["end_to_end"]}
    assert extra <= {"frames_per_cpu_s", "continuity_gain", "startup_periods", "prefetch_overhead", "wall_s"}
    assert set(result["per_layer"]) == {m["name"] for m in CONTRACT["per_layer"]}


def test_suite_only_metrics_land_on_their_workloads(toy_results):
    assert "frames_per_cpu_s" in toy_results["wire_replay"]["end_to_end"]
    assert "continuity_gain" in toy_results["sim_static"]["end_to_end"]
    for name in ("rt_static", "rt_churn", "sim_static", "cluster_2shard"):
        assert "startup_periods" in toy_results[name]["end_to_end"]


def test_command_line_ends_with_the_result_object():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "wire_replay", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--scale", "toy"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    lines = done.stdout.strip().splitlines()
    assert any(line.split()[:1] == ["peer_periods_per_cpu_s"] and line.endswith("1/s") for line in lines)
    last = json.loads(lines[-1])
    assert list(last) == ["correct", "attempted", "failed", "metrics"] and last["correct"] is True
    assert list(last["metrics"]) == [m["name"] for m in CONTRACT["end_to_end"]]


# ------------------------------------------------------------------ determinism
@pytest.mark.parametrize("name", ["rt_static", "rt_churn", "sim_static", "wire_replay"])
def test_same_seed_runs_are_identical_and_seeds_differ(toy_results, program, name):
    # measure() ran the workload twice (untraced, traced) and compared them.
    assert toy_results[name]["checks"]["iterations_identical"] is True
    function = workloads.WORKLOADS[name]
    again = function(harness.Run(program, 0, TOY)).fingerprint
    other = function(harness.Run(program, 1, TOY)).fingerprint
    assert again == toy_results[name]["fingerprint"] != other


def test_wall_clock_workload_has_no_fingerprint_but_checks_its_shards(toy_results):
    cluster = toy_results["cluster_2shard"]
    assert cluster["fingerprint"] is None and cluster["checks"] == {"no_shard_lost": True}
    assert cluster["per_layer"]["wire.self_s"] is None  # shard processes are not profiled


# -------------------------------------------------------------------- layer fold
@pytest.mark.parametrize("name", ["rt_static", "sim_static", "wire_replay"])
def test_layer_shares_account_for_all_the_time(toy_results, name):
    layers = toy_results[name]["per_layer"]
    shares = sum(layers[f"{layer}.self_share"] for layer in trace.LAYER_NAMES)
    # Nothing here may depend on *where* the program spends its time: later
    # changes move that, and they cannot edit this file.
    assert shares + layers["trace.unattributed_share"] == pytest.approx(1.0, abs=0.02)
    assert layers["trace.overhead_ratio"] is not None
    assert layers["trace.py_calls_per_peer_period"] > 0


def test_unknown_module_is_unattributed_and_builtins_are_charged_to_callers():
    assert trace.layer_of("/x/src/repro/brand_new/module.py") == trace.UNATTRIBUTED
    assert trace.layer_of("/x/src/repro/runtime/cluster/links.py") == "links"
    assert trace.layer_of("/x/src/repro/runtime/cluster/shard.py") == "cluster"
    assert trace.layer_of("/usr/lib/python3.11/asyncio/events.py") == "loop"
    assert trace.layer_of("~") is None and trace.layer_of("/usr/lib/python3.11/struct.py") is None
    encode = ("/x/src/repro/runtime/wire.py", 10, "encode")
    new = ("/x/src/repro/brand_new/module.py", 5, "work")
    pack = ("~", 0, "<built-in method _struct.pack>")
    stats = {
        encode: (4, 4, 1.0, 1.5, {}),
        new: (1, 1, 2.0, 2.5, {}),
        # pack(): 3 calls / 0.5 s from encode, 1 call / 0.5 s from the new module
        pack: (4, 4, 1.0, 1.0, {encode: (3, 3, 0.5, 0.5), new: (1, 1, 0.5, 0.5)}),
    }
    folded = trace.fold(stats)
    assert folded["wire"] == {"self_s": 1.5, "calls": 7.0}
    assert folded[trace.UNATTRIBUTED] == {"self_s": 2.5, "calls": 2.0}
    assert sum(bucket["self_s"] for bucket in folded.values()) == pytest.approx(4.0)


def test_a_function_or_counter_that_no_longer_exists_reads_null():
    stats = {("/x/src/repro/runtime/wire.py", 10, "serialise"): (1, 1, 0.1, 0.1, {})}
    assert trace.entry_point(stats, "repro/runtime/wire.py", ["encode"]) is None
    assert trace.entry_point(stats, "repro/runtime/wire.py", ["serialise"]) == (1, 0.1)
    assert harness.maybe(object(), "transport", "send_stalls") is None
    assert harness.maybe({"cluster": {"socket": None}}, "cluster", "socket", "frames_out") is None
    assert harness.ratio(3, None) is None and harness.ratio(3, 0) is None
    counters = workloads._runtime_counters(object(), peer_periods=10)
    assert counters and all(value is None for value in counters.values())


# ----------------------------------------------------------------------- compare
def _side(values, lost=0):
    row = {"median": sorted(values)[len(values) // 2], "min": min(values), "max": max(values)}
    return {"environment": {"seed": 0}, "workloads": {"rt_static": {
        "end_to_end": {"peer_periods_per_cpu_s": row, "stable_continuity": {"median": 0.99, "min": 0.99, "max": 0.99}},
        "ops_attempted": 1000, "ops_lost": lost}}}


def test_compare_tells_ok_worse_and_unresolved_apart():
    def verdicts(a, b):
        return {row["metric"]: row["verdict"] for row in compare.compare(a, b)}

    base = _side([350.0, 353.0, 356.0])
    assert verdicts(base, _side([340.0, 345.0, 350.0]))["peer_periods_per_cpu_s"] == compare.OK
    assert verdicts(base, _side([500.0, 510.0, 520.0]))["peer_periods_per_cpu_s"] == compare.OK
    assert verdicts(base, _side([290.0, 300.0, 310.0]))["peer_periods_per_cpu_s"] == compare.WORSE
    assert verdicts(base, _side([280.0, 300.0, 352.0]))["peer_periods_per_cpu_s"] == compare.UNRESOLVED
    assert verdicts(base, _side([350.0, 353.0, 356.0], lost=5))["ops_lost/ops_attempted"] == compare.WORSE
    worse_quality = _side([350.0, 353.0, 356.0])
    worse_quality["workloads"]["rt_static"]["end_to_end"]["stable_continuity"] = {
        "median": 0.97, "min": 0.97, "max": 0.97}
    assert verdicts(base, worse_quality)["stable_continuity"] == compare.WORSE


# -------------------------------------------------------------------- robustness
def test_timed_out_workload_is_marked_failed_and_the_result_is_still_written(tmp_path):
    out = tmp_path / "partial.json"
    code = run.main(["--out", str(out), "--scale", "toy", "--seconds", "0", "--repeats", "1",
                     "--workloads", "wire_replay", "--timeout", "0.05"])
    record = json.loads(out.read_text(encoding="utf-8"))
    summary = record["workloads"]["wire_replay"]
    assert code == 1 and summary["correct"] is False
    assert summary["checks"]["every_repeat_finished"] is False
    assert summary["ops_lost"] >= max(1, summary["ops_attempted"])
    assert {"commit", "seed", "nproc", "affinity", "python", "numpy"} <= set(record["environment"])
    assert not list(tmp_path.glob(".bench-*"))


def _processes_carrying(mark: str) -> int:
    """Live processes that inherited ``BENCH_TEST_MARK=mark`` (a zombie has no environ)."""
    count = 0
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                count += f"BENCH_TEST_MARK={mark}".encode() in Path("/proc", entry, "environ").read_bytes()
            except OSError:
                pass
    return count


@pytest.mark.skipif(not Path("/proc/self/environ").exists(), reason="needs /proc")
def test_command_stopped_mid_cluster_leaves_no_process_behind():
    mark = uuid.uuid4().hex
    command = subprocess.Popen(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "cluster_2shard", "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        env=dict(os.environ, BENCH_TEST_MARK=mark), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        # Supervisor, worker, resource tracker and at least one shard.
        while _processes_carrying(mark) < 4 and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _processes_carrying(mark) >= 4
        command.send_signal(signal.SIGTERM)
        assert command.wait(timeout=30) == 128 + signal.SIGTERM
        assert _processes_carrying(mark) == 0
    finally:
        command.kill()
        command.wait()


def test_command_fails_without_the_program_source(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rt_static", "--seed", "0", "--seconds", "5",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0 and done.stdout.strip() == ""
