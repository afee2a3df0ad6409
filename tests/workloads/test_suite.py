"""Tests for the workload suite: every workload, smaller sizes.

Checks the framework contracts (code identity across seeds, data layout,
termination, nonzero results) and — the expensive but crucial part —
full-pipeline MSSP equivalence per workload.
"""

import pytest

from repro.errors import WorkloadError
from repro.experiments.harness import RUN_LIMIT
from repro.machine import run_to_halt
from repro.workloads import (
    RESULT_BASE,
    WORKLOADS,
    get_workload,
    workload_names,
)

#: Reduced sizes for fast test runs.
SMALL_SIZES = {
    "compress": 600,
    "pointer_chase": 300,
    "branchy": 500,
    "parse": 500,
    "hashlookup": 300,
    "matmul": 6,
    "crc": 300,
    "sort": 50,
    "treewalk": 255,
    "stringops": 60,
    "fib_memo": 600,
    "interp": 12,
    "mispredict": 1100,
}

ALL_NAMES = sorted(WORKLOADS)


def small_instance(name):
    return get_workload(name).instance(SMALL_SIZES[name])


class TestRegistry:
    def test_thirteen_workloads(self):
        assert len(WORKLOADS) == 13
        assert set(workload_names()) == set(SMALL_SIZES)

    def test_unknown_workload(self):
        with pytest.raises(WorkloadError):
            get_workload("nope")

    def test_bad_size_rejected(self):
        with pytest.raises(WorkloadError):
            get_workload("compress").instance(0)

    @pytest.mark.parametrize("multiple", [1, 2, 4])
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_size_is_rejected_or_halts(self, name, multiple):
        """A size either overruns the layout (and says so) or halts."""
        spec = get_workload(name)
        try:
            instance = spec.instance(spec.default_size * multiple)
        except WorkloadError as error:
            assert "largest legal size" in str(error)
            return
        assert run_to_halt(instance.program, max_steps=RUN_LIMIT).halted

    def test_stringops_largest_legal_size(self):
        spec = get_workload("stringops")
        assert run_to_halt(
            spec.instance(426).program, max_steps=RUN_LIMIT
        ).halted
        with pytest.raises(WorkloadError, match="largest legal size is 426"):
            spec.instance(427)


class TestFrameworkContracts:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_code_identical_across_seeds(self, name):
        """Profiles must line up pc-for-pc across inputs."""
        instance = small_instance(name)
        for train in instance.train_programs:
            assert train.code == instance.program.code
            assert train.entry == instance.program.entry

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_train_and_eval_data_differ(self, name):
        instance = small_instance(name)
        assert dict(instance.train_programs[0].memory) != dict(
            instance.program.memory
        )

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_halts_and_produces_result(self, name):
        instance = small_instance(name)
        result = run_to_halt(instance.program, max_steps=5_000_000)
        assert result.halted
        assert result.state.load(RESULT_BASE) != 0

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_no_guard_ever_fires(self, name):
        """The integrity guards are never-taken by construction."""
        instance = small_instance(name)
        result = run_to_halt(instance.program, max_steps=5_000_000)
        assert result.state.load(RESULT_BASE + 7) == 0

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_results_input_dependent(self, name):
        """Different seeds produce different observable results
        (guards the suite against degenerate data generators)."""
        if name == "interp":
            pytest.skip("guest output depends on masked sums; may collide")
        instance = small_instance(name)
        eval_result = run_to_halt(instance.program, max_steps=5_000_000)
        train_result = run_to_halt(
            instance.train_programs[0], max_steps=5_000_000
        )
        assert eval_result.state.load(RESULT_BASE) != train_result.state.load(
            RESULT_BASE
        )


class TestMsspEquivalencePerWorkload:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_full_pipeline_equivalence(self, name):
        """Profile -> distill -> MSSP == SEQ, for every workload."""
        from repro.experiments import evaluate, prepare

        prepared = prepare(get_workload(name), size=SMALL_SIZES[name])
        row = evaluate(prepared)  # evaluate() checks equivalence itself
        assert row.counters.total_instrs == prepared.seq_instrs
        assert row.counters.tasks_committed > 0

    @pytest.mark.parametrize("name", sorted(set(ALL_NAMES) - {"sort", "matmul"}))
    def test_distillation_shortens_dynamic_path(self, name):
        """Distilled dynamic length < original for the distillable
        workloads (sort/matmul are the deliberate exceptions: regular
        kernels with nothing to remove, as in the paper)."""
        from repro.experiments import prepare

        prepared = prepare(get_workload(name), size=SMALL_SIZES[name])
        assert prepared.distillation_ratio < 1.0
