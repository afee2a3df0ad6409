"""Differential tests: block-stepped sequential passes vs per-step oracles.

The profiler, the load count and ``seq``/``advance`` run on the decoded
engine's basic-block chains.  Each is held here against the per-step
definition it replaces:

* :func:`~repro.profiling.profiler.profile_program` against the
  :class:`~repro.profiling.profiler.Profiler` observer — ``to_dict()``
  and the insertion order of every dict the distiller iterates;
* :func:`~repro.machine.interpreter.count_instructions_and_loads`
  against an observer counting load effects;
* :meth:`~repro.machine.decoded.DecodedProgram.advance` and ``seq``
  against one-instruction-at-a-time stepping, ``n`` past the halt
  included;

over random terminating programs, every workload's training inputs, and
pinned edges: a branch whose target is its own fall-through, ``lw r0``,
a halt mid-text, step budgets one below/at/above the program's length,
and a jump to an invalid pc.  Under ``REPRO_EXEC=oracle`` the profiler
stays the per-step observer.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from strategies import terminating_programs  # noqa: E402

from repro.errors import InvalidPcError, StepLimitExceeded
from repro.isa.asm import assemble
from repro.machine.decoded import decode
from repro.machine.interpreter import count_instructions_and_loads, seq
from repro.machine.state import ArchState
from repro.profiling import Profiler, profile_program
from repro.workloads import WORKLOADS, get_workload


def oracle_profile(program, state=None, max_steps=1_000_000):
    """The profile as defined: one observer call per executed step."""
    if state is None:
        state = ArchState.initial(program)
    profiler = Profiler(program)
    decode(program).run(state, max_steps, observer=profiler.observe)
    return profiler.profile


def oracle_count(program, state, max_steps=1_000_000):
    loads = 0

    def observer(pc, instr, effect, state):
        nonlocal loads
        if effect.mem_addr is not None and not effect.is_store:
            loads += 1

    steps, _halted = decode(program).run(state, max_steps, observer=observer)
    return steps, loads


def oracle_seq(program, state, n):
    """``seq(S, n)`` one instruction at a time, in place."""
    decoded = decode(program)
    for _ in range(n):
        if decoded.step(state).halted:
            break


def signature(profile):
    """Everything observable about a profile, dict and set order included."""
    return (
        profile.to_dict(),
        list(profile.branches),
        list(profile.loads),
        list(profile.stores),
        [list(load.values) for load in profile.loads.values()],
        [list(load.addresses) for load in profile.loads.values()],
        [list(store.addresses) for store in profile.stores.values()],
        list(profile.loaded_addresses),
        list(profile.stored_addresses),
    )


def outcome(fn, state):
    """``fn(state)``'s result or exception type, and the state it left."""
    try:
        result = fn(state)
    except (StepLimitExceeded, InvalidPcError) as error:
        result = type(error)
    return result, state


def assert_passes_match(program, max_steps=1_000_000):
    """Block profile, load count and advance equal their oracles."""
    boot = ArchState.initial(program)
    fast, fast_state = outcome(
        lambda s: profile_program(program, s, max_steps), boot.copy()
    )
    slow, slow_state = outcome(
        lambda s: oracle_profile(program, s, max_steps), boot.copy()
    )
    assert fast_state == slow_state
    if isinstance(slow, type):
        assert fast is slow
    else:
        assert signature(fast) == signature(slow)

    decoded = decode(program)
    counted, counted_state = outcome(
        lambda s: decoded.count_loads(s, max_steps)[::2], boot.copy()
    )
    observed, observed_state = outcome(
        lambda s: oracle_count(program, s, max_steps), boot.copy()
    )
    assert counted == observed
    assert counted_state == observed_state
    return slow


class TestRandomPrograms:
    @settings(max_examples=80, deadline=None)
    @given(terminating_programs())
    def test_profile_and_load_count_match_oracles(self, program):
        profile = assert_passes_match(program)
        assert count_instructions_and_loads(program) == (
            profile.total_instructions - 1,
            sum(load.count for load in profile.loads.values()),
        )

    @settings(max_examples=80, deadline=None)
    @given(terminating_programs(), st.data())
    def test_advance_and_seq_match_stepping(self, program, data):
        length = count_instructions_and_loads(program)[0]
        n = data.draw(st.integers(min_value=0, max_value=length + 5))
        boot = ArchState.initial(program)
        expected = boot.copy()
        oracle_seq(program, expected, n)
        assert seq(program, boot, n) == expected
        assert boot == ArchState.initial(program)  # seq copies
        decode(program).advance(boot, n)
        assert boot == expected

    @settings(max_examples=40, deadline=None)
    @given(terminating_programs(), st.data())
    def test_budgets_around_the_length(self, program, data):
        length = count_instructions_and_loads(program)[0]
        budget = data.draw(
            st.integers(min_value=0, max_value=length + 2)
        )
        assert_passes_match(program, max_steps=budget)


class TestWorkloads:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_training_inputs_match_oracles(self, name):
        instance = get_workload(name).instance()
        for program in instance.train_programs:
            assert_passes_match(program, max_steps=5_000_000)


SELF_FALL_THROUGH = """
        .text
main:   li r1, 3
loop:   addi r1, r1, -1
        beq r1, r2, next    # target == fall-through: direction invisible
next:   slt r3, r2, r1
        bne r3, r0, loop
        halt
"""

LOAD_TO_ZERO = """
        .data
cell:   .word 41
        .text
main:   li r1, 2
loop:   lw r0, cell(r0)
        lw r2, cell(r0)
        sw r2, cell(r1)
        addi r1, r1, -1
        bne r1, r0, loop
        halt
"""

HALT_MID_TEXT = """
        .text
main:   li r1, 1
        beq r1, r0, skip
        addi r2, r1, 5
        halt
skip:   addi r2, r1, 7
        halt
"""

INVALID_JUMP = """
        .data
cell:   .word 5
        .text
main:   lw r1, cell(r0)
        li r2, 99
        beq r1, r0, main
        jr r2
        halt
"""


class TestPinnedEdges:
    def test_branch_to_own_fall_through(self):
        program = assemble(SELF_FALL_THROUGH)
        profile = assert_passes_match(program)
        branch = profile.branches[2]
        assert (branch.taken, branch.not_taken) == (1, 2)

    def test_load_into_zero_register(self):
        program = assemble(LOAD_TO_ZERO)
        profile = assert_passes_match(program)
        assert profile.loads[1].count == 2
        assert count_instructions_and_loads(program)[1] == 4

    def test_halt_mid_text(self):
        profile = assert_passes_match(assemble(HALT_MID_TEXT))
        assert profile.exec_counts == [1, 1, 1, 1, 0, 0]
        assert profile.total_instructions == 4

    @pytest.mark.parametrize("source", [
        SELF_FALL_THROUGH, LOAD_TO_ZERO, HALT_MID_TEXT,
    ])
    def test_budget_one_below_at_and_above_the_length(self, source):
        program = assemble(source)
        length = count_instructions_and_loads(program)[0]
        for budget in (0, 1, length - 1, length, length + 1):
            assert_passes_match(program, max_steps=budget)
        with pytest.raises(StepLimitExceeded):
            profile_program(program, max_steps=length)
        profile_program(program, max_steps=length + 1)

    def test_jump_to_invalid_pc(self):
        program = assemble(INVALID_JUMP)
        assert_passes_match(program)
        with pytest.raises(InvalidPcError):
            profile_program(program)
        with pytest.raises(InvalidPcError):
            count_instructions_and_loads(program)
        for n in range(6):
            fast, slow = ArchState.initial(program), ArchState.initial(program)
            assert outcome(lambda s: decode(program).advance(s, n), fast) == (
                outcome(lambda s: oracle_seq(program, s, n), slow)
            )


class TestOracleTier:
    def test_profile_stays_per_step(self, monkeypatch):
        program = assemble(LOAD_TO_ZERO)
        expected = signature(oracle_profile(program))
        observed = []
        observe = Profiler.observe

        def counting(self, pc, *rest):
            observed.append(pc)
            observe(self, pc, *rest)

        monkeypatch.setattr(Profiler, "observe", counting)
        monkeypatch.setenv("REPRO_EXEC", "oracle")
        profile = profile_program(program)
        assert signature(profile) == expected
        assert len(observed) == profile.total_instructions
        assert count_instructions_and_loads(program) == (
            profile.total_instructions - 1, 4
        )
