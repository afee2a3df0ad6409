"""The benchmark's own tests: its checks catch what they must.

Small programs keep each test to a few seconds.
"""

import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from ledger import check_closure
from repro.mssp import create_engine
from repro.mssp.faults import corrupt_distilled, random_garbage_master
from run import check_identity, declared_units
from workloads import (
    CONFIG,
    NOMINAL_REFERENCE_S,
    EpisodeLoop,
    Paired,
    PipelineCold,
    ServeOpen,
    reference_seconds,
)

HERE = Path(__file__).resolve().parent


class TinyEpisodes(EpisodeLoop):
    name = "tiny-episodes"
    PROGRAMS = (("compress", 0.05), ("mispredict", 0.05))


def test_tampered_reference_counts_as_failure():
    workload = TinyEpisodes(1, 0.0, False)
    workload.setup(0)
    workload.cases[0].reference = "0" * 20
    workload.measure()
    assert workload.attempted == 2
    assert len(workload.failures) == 1
    assert "differs from SEQ" in workload.failures[0]


def test_faulty_masters_count_no_failures():
    workload = TinyEpisodes(2, 0.0, False)
    workload.setup(0)
    garbage = workload.cases[0]
    corrupted = workload.cases[1]
    workload.engines = [
        create_engine(garbage.program,
                      random_garbage_master(garbage.program, seed=3), CONFIG),
        create_engine(corrupted.program, (
            corrupt_distilled(corrupted.distillation.distilled,
                              len(corrupted.program.code), seed=4),
            corrupted.distillation.pc_map,
        ), CONFIG),
    ]
    for case in workload.cases:
        case.identity = None  # a different master simulates differently
    workload.seconds = 1.0
    workload.measure()
    assert workload.attempted >= 2
    assert workload.failures == []
    assert workload.identity_errors == []


def test_traced_episodes_close_the_ledger():
    workload = TinyEpisodes(3, 0.0, True)
    workload.setup(0)
    workload.measure()
    assert check_closure(workload.ledger) < 1e-6
    layers = workload.layer_metrics()
    assert layers["mssp.slave_s"] > 0
    assert layers["mssp.master_s"] > 0
    assert layers["mssp.verify_s"] > 0
    assert layers["mssp.recovery_s"] > 0  # mispredict squashes
    parts = sum(layers[f"mssp.{name}_s"] for name in (
        "master", "slave", "verify", "recovery", "unattributed"))
    assert abs(parts - layers["mssp.run_s"]) < 1e-6
    assert layers["trace.overhead"] > 0
    assert workload.failures == [] and workload.identity_errors == []


def test_printed_metrics_match_the_benchmark_definition():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workload = TinyEpisodes(6, 0.0, False)
    workload.setup(0)
    end_to_end = set(workload.measure()) | {"setup_s", "peak_rss_mb"}
    assert {m["name"] for m in spec["end_to_end"]} == end_to_end
    assert {m["name"] for m in spec["per_layer"]} == set(
        workload.layer_metrics()
    )
    assert set(declared_units(HERE.parent)) == end_to_end | set(
        workload.layer_metrics()
    )


class TinyPipelines(PipelineCold):
    PAIRS = (("compress", 0.05), ("crc", 0.05))
    WARMUP = ("compress", 0.02)


def test_traced_pipelines_check_identity_and_close():
    workload = TinyPipelines(4, 0.0, True)
    workload.setup(0)
    workload.cache_root = os.environ["REPRO_BENCH_CACHE"]
    metrics = workload.measure()
    assert workload.attempted == 2
    assert workload.failures == [] and workload.identity_errors == []
    assert len(workload.fingerprint()) == 2
    assert metrics["sim_speedup"] > 0
    check_closure(workload.ledger)
    assert workload.layer_metrics()["formal.refine_s"] > 0


class TinyServe(ServeOpen):
    PROGRAMS = (("compress", 0.05), ("crc", 0.05))
    RATE = 40.0
    OPEN_REQUESTS = 8
    BURST_PER_PROGRAM = 2


def test_traced_serving_attributes_episodes_to_requests():
    workload = TinyServe(5, 0.0, True)
    try:
        workload.setup(0)
        metrics = workload.measure()
    finally:
        workload.close()
    assert workload.failures == [] and workload.identity_errors == []
    # Open loop, and a burst with its untraced twin.
    assert workload.attempted == 8 + 2 * 2 * 2
    assert workload.counts["rounds"] == 1
    assert metrics["op_s"] > 0
    check_closure(workload.ledger)
    layers = workload.layer_metrics()
    assert layers["mssp.slave_s"] > 0
    assert layers["serve.service_s"] > 0


def test_untraced_serving_times_bursts_only():
    workload = TinyServe(6, 0.0, False)
    try:
        workload.setup(0)
        metrics = workload.measure()
    finally:
        workload.close()
    assert workload.failures == [] and workload.identity_errors == []
    # One burst, no open loop.
    assert workload.attempted == 2 * 2
    assert metrics["throughput_ips"] > 0 and metrics["op_s"] > 0
    check_closure(workload.ledger)


def test_paired_times_are_ratios_to_the_references_around_them(monkeypatch):
    references = iter([0.3, 0.5, 0.1, 0.3])
    monkeypatch.setattr(workloads, "reference_seconds",
                        lambda: next(references))
    times = Paired()
    times.sample()
    for seconds in (1.2, 0.6, 0.2):
        times.add("slot", seconds)
        times.sample()
    # Ratios 1.2/0.4, 0.6/0.3 and 0.2/0.2: the median is 2 references.
    assert times.nominal("slot") == pytest.approx(2 * NOMINAL_REFERENCE_S)
    assert times.host("slot") == 0.6


def test_reference_leaves_the_collector_as_it_found_it():
    assert gc.isenabled()
    assert reference_seconds() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        reference_seconds()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_identity_differs_across_runs(tmp_path):
    first = {"compress@1#2": {"tasks": 5, "sim_cycles": 10.0}}
    assert check_identity(tmp_path, "code", "w", 1, first) == []
    assert check_identity(tmp_path, "code", "w", 1, first) == []
    changed = {"compress@1#2": {"tasks": 6, "sim_cycles": 10.0}}
    assert check_identity(tmp_path, "code", "w", 1, changed)
    assert check_identity(tmp_path, "code", "w", 2, changed) == []
    # Changed program source: its runs are compared only with each other.
    assert check_identity(tmp_path, "other", "w", 1, changed) == []


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "episode-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
