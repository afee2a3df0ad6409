"""Execution profiler.

Runs a program to halt and returns its
:class:`~repro.profiling.profile_data.Profile`.  This plays the role of
the paper's offline training run: the distiller consumes the resulting
profile to decide which branches to assert, which code is cold, which
loads are specializable, and where to place fork points.

:func:`profile_program` runs the decoded engine's basic-block chains
(:mod:`repro.machine.decoded`), instrumented only where a chain cannot
be accounted for from outside:

* every ``lw``/``sw`` closure records its access as it executes;
* execution counts come from per-chain entry counts, expanded over each
  chain's pc span once the run ends;
* the conditional branch that ends a chain is classified from the pc
  after the chain (taken iff it is the branch target) — except a branch
  whose target is its own fall-through, whose closure counts itself.

:class:`Profiler` is the per-step observer the profile is defined by;
tests and ``repro lint`` (``DEC004``) hold :func:`profile_program`
bit-identical to it, the insertion order of ``branches``/``loads``/
``stores`` included (the distiller iterates them).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Optional

from repro.errors import InvalidPcError
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.machine.decoded import (
    counting_branch_stepper,
    decode,
    last_chain,
    recording_stepper,
)
from repro.machine.interpreter import DEFAULT_STEP_LIMIT
from repro.machine.jit import resolve_exec_tier
from repro.machine.semantics import StepEffect
from repro.machine.state import ArchState
from repro.profiling.profile_data import (
    BranchProfile,
    LoadProfile,
    Profile,
    StoreProfile,
)


class Profiler:
    """Per-step observer that accumulates a :class:`Profile` during a run.

    The reference definition of a profile, kept for checking
    :func:`profile_program` against.
    """

    def __init__(self, program: Program):
        self.profile = Profile(
            program_name=program.name, code_length=len(program.code)
        )

    def observe(
        self, pc: int, instr: Instruction, effect: StepEffect, state: ArchState
    ) -> None:
        profile = self.profile
        profile.total_instructions += 1
        profile.exec_counts[pc] += 1
        if instr.is_branch:
            branch = profile.branches.get(pc)
            if branch is None:
                branch = profile.branches.setdefault(pc, BranchProfile())
            if effect.taken:
                branch.taken += 1
            else:
                branch.not_taken += 1
        elif effect.mem_addr is not None:
            if effect.is_store:
                profile.stored_addresses.add(effect.mem_addr)
                store = profile.stores.get(pc)
                if store is None:
                    store = profile.stores.setdefault(pc, StoreProfile())
                store.observe(effect.mem_addr)
            else:
                profile.loaded_addresses.add(effect.mem_addr)
                load = profile.loads.get(pc)
                if load is None:
                    load = profile.loads.setdefault(pc, LoadProfile())
                load.observe(effect.mem_addr, effect.mem_value)


def profile_program(
    program: Program,
    state: Optional[ArchState] = None,
    max_steps: int = DEFAULT_STEP_LIMIT,
) -> Profile:
    """Run ``program`` to halt and return its execution profile.

    ``state`` defaults to the boot state and is advanced in place.  Raises
    exactly where :func:`~repro.machine.interpreter.run` would
    (:class:`~repro.errors.StepLimitExceeded`,
    :class:`~repro.errors.InvalidPcError`).  The ``oracle`` execution
    tier (``REPRO_EXEC=oracle``) stays per-step: :class:`Profiler` over
    :func:`~repro.machine.semantics.execute`.
    """
    if state is None:
        state = ArchState.initial(program)
    if resolve_exec_tier() == "oracle":
        profiler = Profiler(program)
        decode(program, oracle=True).run(state, max_steps, profiler.observe)
        return profiler.profile
    decoded = decode(program)
    code = decoded.code
    quicks = decoded.quicks
    size = decoded.size
    ends = decoded.chain_ends
    chain_halts = decoded.chain_halts
    profile = Profile(program_name=program.name, code_length=size)
    # One record per static site, created up front and published in
    # first-execution order once the run ends.
    loads: Dict[int, LoadProfile] = {}
    stores: Dict[int, StoreProfile] = {}
    branches: Dict[int, BranchProfile] = {}
    hooks = {}
    for pc, instr in enumerate(code):
        if instr.op is Opcode.LW:
            load = loads[pc] = LoadProfile()
            hooks[pc] = recording_stepper(
                instr, quicks[pc], profile.loaded_addresses.add,
                load.observe,
            )
        elif instr.op is Opcode.SW:
            store = stores[pc] = StoreProfile()
            hooks[pc] = recording_stepper(
                instr, quicks[pc], profile.stored_addresses.add,
                store.observe,
            )
        elif instr.is_branch:
            branch = branches[pc] = BranchProfile()
            if instr.target == pc + 1:
                hooks[pc] = counting_branch_stepper(pc, instr, branch)
    chains = decoded.chains_with(hooks)
    targets = decoded.chain_targets

    entries: Dict[int, int] = defaultdict(int)  # insertion = first entry
    taken = [0] * size
    steps = 0
    while True:
        pc = state.pc
        if not 0 <= pc < size:
            raise InvalidPcError(pc, size)
        chain = chains[pc]
        if steps + len(chain) >= max_steps:
            last_chain(chain, chain_halts[pc], state, steps, max_steps)
        for fn in chain:
            fn(state)
        entries[pc] += 1
        if state.pc == targets[pc]:
            taken[pc] += 1
        if chain_halts[pc]:
            break
        steps += len(chain)

    # Each chain entry executed its whole span [entry, end) once.
    delta = [0] * (size + 1)
    for entry, count in entries.items():
        delta[entry] += count
        delta[ends[entry]] -= count
    exec_counts = profile.exec_counts
    running = 0
    for pc in range(size):
        running += delta[pc]
        exec_counts[pc] = running
    profile.total_instructions = sum(exec_counts)  # the halt included
    # Chains run whole, so walking first entries in order visits each
    # site first where it first executed.
    for entry, count in entries.items():
        end = ends[entry]
        for pc in range(entry, end):
            if pc in loads:
                profile.loads.setdefault(pc, loads[pc])
            elif pc in stores:
                profile.stores.setdefault(pc, stores[pc])
        branch = branches.get(end - 1)
        if branch is not None:
            profile.branches.setdefault(end - 1, branch)
            if targets[entry] is not None:
                branch.taken += taken[entry]
                branch.not_taken += count - taken[entry]
    return profile


def profile_many(
    program: Program, states: Iterable[ArchState],
    max_steps: int = DEFAULT_STEP_LIMIT,
) -> Profile:
    """Profile the same program over several inputs and merge the results."""
    merged: Optional[Profile] = None
    for state in states:
        current = profile_program(program, state=state, max_steps=max_steps)
        merged = current if merged is None else merged.merge(current)
    if merged is None:
        raise ValueError("profile_many needs at least one input state")
    return merged
