"""Pre-decoded execution engine: closure-specialized Z-ISA dispatch.

:func:`repro.machine.semantics.execute` pays, on *every* step, two
opcode-table probes, a ladder of identity tests, five attribute loads on
:class:`~repro.isa.instructions.Instruction`, and a fresh
:class:`~repro.machine.semantics.StepEffect` allocation.  Those costs are
per *instruction executed*, but all of their inputs are per *instruction
decoded* — a program of a few hundred static instructions is stepped
tens of millions of times.

This module moves the whole decode cost to program-construction time.
:func:`decode` compiles each instruction once into a specialized
zero-argument-lookup closure: operands, immediates, branch targets, the
operator lambda, and the fall-through pc are captured as cell variables,
writes to the architectural ``ZERO`` register are folded out at decode
time, and the no-memory/no-branch common case returns interned singleton
effects so steady-state stepping allocates nothing.  Closures call the
``read_reg``/``write_reg``/``load``/``store`` methods of the state they
are handed, so the one decoded program serves every
:class:`~repro.machine.state.MachineStateLike` implementation — the
sequential machine, the MSSP master's write-cache view, and the slaves'
recording views — exactly as ``execute`` did.

Interned-effect contract
------------------------

``StepEffect`` objects returned by decoded steppers may be **shared
singletons**: callers must treat them as immutable and must not retain
them across steps (snapshot the fields instead).  Effects describing
memory accesses are freshly allocated (they carry per-step data), but
code must not rely on that.

On top of per-instruction closures, :class:`DecodedProgram` precomputes
**basic-block supersteps**: for every pc, the straight-line run of
closures from that pc to its block terminator.  The observer-free run
loop executes whole chains without per-step pc bounds checks; near the
step-limit boundary it runs only the exact prefix of the last chain, so
``StepLimitExceeded`` fires at precisely the same instruction count as
the reference loop.

Every sequential pass runs on these chains: :meth:`DecodedProgram.run`,
the load count (:meth:`DecodedProgram.count_loads`, the same loop
adding each chain's static load count), the in-place ``seq`` of the refinement
replay (:meth:`DecodedProgram.advance`), and the profiler, which runs
:meth:`DecodedProgram.chains_with` chains whose ``lw``/``sw`` (and
rare self-fall-through branch) closures record as they execute
(:func:`recording_stepper`, :func:`counting_branch_stepper`).  The
per-step loop remains for runs with an observer attached, which is how
tests and ``repro lint`` hold these passes against per-step oracles.

Decoded programs are cached per :class:`~repro.isa.program.Program`
*instance* (identity, not value): the decoding is attached to the
program object and dies with it.  ``Program.__getstate__`` excludes the
attachment so pickling and deep-copying never see the closures.

``semantics.execute`` remains the semantic oracle; differential tests
(``tests/machine/test_decoded.py``) hold the two bit-identical, and
``repro lint`` re-checks every closure's decode metadata against its
source instruction (the ``DEC`` checks).
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional, Tuple

from repro.errors import InvalidPcError, StepLimitExceeded
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.isa.registers import RA, ZERO
from repro.machine.semantics import (
    _BRANCH_OPS,
    _I2_OPS,
    _R3_OPS,
    StepEffect,
    execute,
)
from repro.machine.state import MachineStateLike, wrap64

#: A decoded instruction: mutates ``state`` and returns its effect.
Stepper = Callable[[MachineStateLike], StepEffect]

#: Interned singleton effects (see the interned-effect contract above).
EFFECT_FALL = StepEffect()
EFFECT_TAKEN = StepEffect(taken=True)
EFFECT_HALT = StepEffect(halted=True)

#: Attribute under which the decoding is cached on the Program instance.
_CACHE_ATTR = "_decoded_cache"


def _decode_instruction(
    pc: int, instr: Instruction
) -> Tuple[Stepper, Optional[Stepper]]:
    """Compile ``instr`` at ``pc`` into (stepper, quick) closures.

    The stepper returns the instruction's :class:`StepEffect`; ``quick``
    is an effect-free variant for the memory opcodes (whose stepper must
    allocate) used inside superstep chains, or ``None`` when the stepper
    itself is already allocation-free.
    """
    op = instr.op
    nxt = pc + 1
    fn = _R3_OPS.get(op)
    if fn is not None:
        rd, rs, rt = instr.rd, instr.rs, instr.rt
        if rd == ZERO:
            # The write is architecturally void; the reads still happen
            # (recording views observe them as live-ins).
            def step(state, rs=rs, rt=rt, nxt=nxt):
                state.read_reg(rs)
                state.read_reg(rt)
                state.pc = nxt
                return EFFECT_FALL
        else:
            def step(state, fn=fn, rd=rd, rs=rs, rt=rt, nxt=nxt):
                state.write_reg(
                    rd, fn(state.read_reg(rs), state.read_reg(rt))
                )
                state.pc = nxt
                return EFFECT_FALL
        return step, None
    fn = _I2_OPS.get(op)
    if fn is not None:
        rd, rs, imm = instr.rd, instr.rs, instr.imm
        if rd == ZERO:
            def step(state, rs=rs, nxt=nxt):
                state.read_reg(rs)
                state.pc = nxt
                return EFFECT_FALL
        else:
            def step(state, fn=fn, rd=rd, rs=rs, imm=imm, nxt=nxt):
                state.write_reg(rd, fn(state.read_reg(rs), imm))
                state.pc = nxt
                return EFFECT_FALL
        return step, None
    fn = _BRANCH_OPS.get(op)
    if fn is not None:
        rs, rt, target = instr.rs, instr.rt, instr.target

        def step(state, fn=fn, rs=rs, rt=rt, target=target, nxt=nxt):
            if fn(state.read_reg(rs), state.read_reg(rt)):
                state.pc = target
                return EFFECT_TAKEN
            state.pc = nxt
            return EFFECT_FALL
        return step, None
    if op is Opcode.LW:
        rd, rs, imm = instr.rd, instr.rs, instr.imm
        if rd == ZERO:
            def step(state, rs=rs, imm=imm, nxt=nxt):
                address = wrap64(state.read_reg(rs) + imm)
                value = state.load(address)
                state.pc = nxt
                return StepEffect(mem_addr=address, mem_value=value)

            def quick(state, rs=rs, imm=imm, nxt=nxt):
                state.load(wrap64(state.read_reg(rs) + imm))
                state.pc = nxt
        else:
            def step(state, rd=rd, rs=rs, imm=imm, nxt=nxt):
                address = wrap64(state.read_reg(rs) + imm)
                value = state.load(address)
                state.write_reg(rd, value)
                state.pc = nxt
                return StepEffect(mem_addr=address, mem_value=value)

            def quick(state, rd=rd, rs=rs, imm=imm, nxt=nxt):
                state.write_reg(
                    rd, state.load(wrap64(state.read_reg(rs) + imm))
                )
                state.pc = nxt
        return step, quick
    if op is Opcode.SW:
        rs, rt, imm = instr.rs, instr.rt, instr.imm

        def step(state, rs=rs, rt=rt, imm=imm, nxt=nxt):
            address = wrap64(state.read_reg(rs) + imm)
            value = state.read_reg(rt)
            state.store(address, value)
            state.pc = nxt
            return StepEffect(
                mem_addr=address, mem_value=value, is_store=True
            )

        def quick(state, rs=rs, rt=rt, imm=imm, nxt=nxt):
            state.store(
                wrap64(state.read_reg(rs) + imm), state.read_reg(rt)
            )
            state.pc = nxt
        return step, quick
    if op is Opcode.LI:
        rd, imm = instr.rd, instr.imm
        if rd == ZERO:
            def step(state, nxt=nxt):
                state.pc = nxt
                return EFFECT_FALL
        else:
            def step(state, rd=rd, imm=imm, nxt=nxt):
                state.write_reg(rd, imm)
                state.pc = nxt
                return EFFECT_FALL
        return step, None
    if op is Opcode.MOV:
        rd, rs = instr.rd, instr.rs
        if rd == ZERO:
            def step(state, rs=rs, nxt=nxt):
                state.read_reg(rs)
                state.pc = nxt
                return EFFECT_FALL
        else:
            def step(state, rd=rd, rs=rs, nxt=nxt):
                state.write_reg(rd, state.read_reg(rs))
                state.pc = nxt
                return EFFECT_FALL
        return step, None
    if op is Opcode.J:
        target = instr.target

        def step(state, target=target):
            state.pc = target
            return EFFECT_TAKEN
        return step, None
    if op is Opcode.JAL:
        target = instr.target

        def step(state, target=target, nxt=nxt):
            state.write_reg(RA, nxt)
            state.pc = target
            return EFFECT_TAKEN
        return step, None
    if op is Opcode.JR:
        rs = instr.rs

        def step(state, rs=rs):
            state.pc = state.read_reg(rs)
            return EFFECT_TAKEN
        return step, None
    if op is Opcode.HALT:
        def step(state):
            return EFFECT_HALT
        return step, None

    # NOP and FORK (a task marker, not a computation) fall through.
    def step(state, nxt=nxt):
        state.pc = nxt
        return EFFECT_FALL
    return step, None


def recording_stepper(
    instr: Instruction, quick: Stepper, seen: Callable, observe: Callable
) -> Stepper:
    """The ``lw``/``sw`` chain closure ``quick``, also reporting its access.

    Runs ``quick`` (so the semantics stay in the one decoded closure),
    then a load calls ``seen(address)`` and ``observe(address, value)``,
    a store ``seen(address)`` and ``observe(address)``.  The address is
    taken before ``quick`` runs, as a load may overwrite its base
    register.
    """
    rs, imm = instr.rs, instr.imm
    if instr.op is Opcode.LW:
        def step(state, quick=quick, rs=rs, imm=imm, seen=seen,
                 observe=observe):
            address = wrap64(state.read_reg(rs) + imm)
            quick(state)
            seen(address)
            observe(address, state.load(address))
        return step
    if instr.op is Opcode.SW:
        def step(state, quick=quick, rs=rs, imm=imm, seen=seen,
                 observe=observe):
            address = wrap64(state.read_reg(rs) + imm)
            quick(state)
            seen(address)
            observe(address)
        return step
    raise ValueError(f"{instr.op.name} is not a memory access")


def counting_branch_stepper(pc: int, instr: Instruction, counter) -> Stepper:
    """The chain closure of the conditional branch at ``pc``, counting it.

    Bumps ``counter.taken`` or ``counter.not_taken``.  Needed only where
    the pc after a chain cannot tell the direction: a branch whose
    target is its own fall-through.
    """
    fn = _BRANCH_OPS.get(instr.op)
    if fn is None:
        raise ValueError(f"pc {pc}: {instr.op.name} is not a branch")
    rs, rt, target = instr.rs, instr.rt, instr.target

    def step(state, fn=fn, rs=rs, rt=rt, target=target, nxt=pc + 1,
             counter=counter):
        if fn(state.read_reg(rs), state.read_reg(rt)):
            state.pc = target
            counter.taken += 1
        else:
            state.pc = nxt
            counter.not_taken += 1
    return step


def _decode_meta(pc: int, instr: Instruction) -> Tuple:
    """The decode-time facts baked into ``instr``'s closure.

    ``repro lint``'s ``DEC002`` check recomputes this tuple from the
    source instruction and compares; any drift between decoder and ISA
    is a lint error before it is a silent misexecution.
    """
    return (
        instr.op.name,
        instr.rd,
        instr.rs,
        instr.rt,
        instr.imm,
        instr.target,
        pc + 1,
        ZERO if instr.rd == ZERO else None,
    )


class DecodedProgram:
    """A :class:`Program` compiled to per-pc closures and superstep chains.

    Obtain instances through :func:`decode` (which caches one per
    program object); direct construction is for tests and the lint
    checks.  With ``oracle=True`` every closure defers to
    :func:`~repro.machine.semantics.execute` — bitwise the reference
    semantics, used by differential tests to hold the fast path and the
    oracle against each other through identical plumbing.
    """

    __slots__ = (
        "program", "code", "size", "steppers", "quicks", "chains",
        "chain_halts", "chain_ends", "chain_loads", "chain_targets", "meta",
        "oracle",
    )

    def __init__(self, program: Program, oracle: bool = False):
        self.program = program
        self.code = program.code
        self.size = len(program.code)
        self.oracle = oracle
        steppers: List[Stepper] = []
        quicks: List[Stepper] = []
        meta: List[Tuple] = []
        for pc, instr in enumerate(self.code):
            if oracle:
                def step(state, instr=instr):
                    return execute(instr, state)
                stepper, quick = step, None
            else:
                stepper, quick = _decode_instruction(pc, instr)
            steppers.append(stepper)
            quicks.append(quick if quick is not None else stepper)
            meta.append(_decode_meta(pc, instr))
        self.steppers: Tuple[Stepper, ...] = tuple(steppers)
        self.quicks: Tuple[Stepper, ...] = tuple(quicks)
        self.meta: Tuple[Tuple, ...] = tuple(meta)
        self._build_chains()

    def _build_chains(self) -> None:
        """Per-pc straight-line closure runs ending at block terminators.

        ``chains[pc]`` executes pc through the first terminator at or
        after it (or the end of the text), which is ``chain_ends[pc] - 1``;
        ``chain_halts[pc]`` marks chains whose terminator is ``halt`` and
        ``chain_loads[pc]`` counts the chain's ``lw`` instructions.
        ``chain_targets[pc]`` is the target of the conditional branch
        ending the chain — the chain took it iff the pc after the chain
        equals it — or ``None`` where there is no such branch or the pc
        cannot tell (a target equal to the fall-through).  Entry at any
        pc is legal — chains are suffixes, so branch targets into block
        middles get their own (shorter) run.
        """
        code = self.code
        size = self.size
        ends: List[int] = [0] * size  # pc -> index one past the terminator
        halts: List[bool] = [False] * size
        loads: List[int] = [0] * size
        targets: List[Optional[int]] = [None] * size
        end = size
        halt = False
        target = None
        for pc in range(size - 1, -1, -1):
            instr = code[pc]
            if instr.is_terminator:
                end = pc + 1
                halt = instr.op is Opcode.HALT
                target = instr.target if (
                    instr.is_branch and instr.target != end
                ) else None
            ends[pc] = end
            halts[pc] = halt
            targets[pc] = target
            loads[pc] = (instr.op is Opcode.LW) + (
                loads[pc + 1] if pc + 1 < end else 0
            )
        self.chain_ends: Tuple[int, ...] = tuple(ends)
        self.chain_halts: Tuple[bool, ...] = tuple(halts)
        self.chain_loads: Tuple[int, ...] = tuple(loads)
        self.chain_targets: Tuple[Optional[int], ...] = tuple(targets)
        self.chains = self.chains_with({})

    def chains_with(
        self, hooks: Mapping[int, Stepper]
    ) -> Tuple[Tuple[Stepper, ...], ...]:
        """Superstep chains with the closure at each pc of ``hooks`` replaced.

        The replacements must keep the instruction's semantics (the
        profiler's recording closures do); chain spans stay those of
        :attr:`chain_ends`.
        """
        quicks = self.quicks
        if hooks:
            quicks = list(quicks)
            for pc, fn in hooks.items():
                quicks[pc] = fn
        ends = self.chain_ends
        return tuple(tuple(quicks[pc:ends[pc]]) for pc in range(self.size))

    # -- stepping -----------------------------------------------------------

    def step(self, state: MachineStateLike) -> StepEffect:
        """Execute one instruction at ``state.pc`` (bounds-checked)."""
        pc = state.pc
        if not 0 <= pc < self.size:
            raise InvalidPcError(pc, self.size)
        return self.steppers[pc](state)

    def run(
        self,
        state: MachineStateLike,
        max_steps: int,
        observer=None,
    ) -> Tuple[int, bool]:
        """Advance ``state`` until halt; returns ``(steps, halted)``.

        Matches the reference loop instruction-for-instruction: the halt
        is executed (and observed) but not counted, and
        :class:`~repro.errors.StepLimitExceeded` raises exactly when the
        ``max_steps``-th non-halt instruction retires.  With no observer
        attached, whole basic blocks execute as supersteps without
        per-step pc checks or effect allocation (:func:`last_chain` keeps
        the budget exact); that loop is :meth:`count_loads`'s.
        """
        if observer is not None:
            return self._step_loop(state, max_steps, observer)
        steps, halted, _loads = self.count_loads(state, max_steps)
        return steps, halted

    def count_loads(
        self, state: MachineStateLike, max_steps: int
    ) -> Tuple[int, bool, int]:
        """Observer-free :meth:`run`, returning ``(steps, halted, loads)``.

        Adds each executed chain's static ``lw`` count: one add per
        chain, no measurable cost beside the chain's closure calls.
        """
        chains = self.chains
        chain_halts = self.chain_halts
        chain_loads = self.chain_loads
        size = self.size
        steps = loads = 0
        while True:
            pc = state.pc
            if not 0 <= pc < size:
                raise InvalidPcError(pc, size)
            chain = chains[pc]
            if steps + len(chain) >= max_steps:
                last_chain(chain, chain_halts[pc], state, steps, max_steps)
            for fn in chain:
                fn(state)
            loads += chain_loads[pc]
            if chain_halts[pc]:
                return steps + len(chain) - 1, True, loads
            steps += len(chain)

    def advance(self, state: MachineStateLike, n: int) -> None:
        """The paper's ``seq(S, n)`` in place: execute ``n`` instructions.

        A halted state is a fixed point, so ``n`` may run past a
        ``halt``.  Whole chains run while they fit in ``n``; the last,
        partial one runs only its first instructions, which are never
        terminators.
        """
        chains = self.chains
        chain_halts = self.chain_halts
        size = self.size
        while n > 0:
            pc = state.pc
            if not 0 <= pc < size:
                raise InvalidPcError(pc, size)
            chain = chains[pc]
            if len(chain) > n:
                for fn in chain[:n]:
                    fn(state)
                return
            for fn in chain:
                fn(state)
            if chain_halts[pc]:
                return
            n -= len(chain)

    def _step_loop(
        self,
        state: MachineStateLike,
        max_steps: int,
        observer,
    ) -> Tuple[int, bool]:
        """Per-step :meth:`run`, reporting every instruction to ``observer``."""
        code = self.code
        steppers = self.steppers
        size = self.size
        steps = 0
        while True:
            pc = state.pc
            if not 0 <= pc < size:
                raise InvalidPcError(pc, size)
            effect = steppers[pc](state)
            if effect.halted:
                # Observed (profilers must see halt blocks execute) but
                # not counted: a halted state is a fixed point.
                observer(pc, code[pc], effect, state)
                return steps, True
            steps += 1
            observer(pc, code[pc], effect, state)
            if steps >= max_steps:
                raise StepLimitExceeded(max_steps)


def last_chain(
    chain: Tuple[Stepper, ...],
    halts: bool,
    state: MachineStateLike,
    steps: int,
    max_steps: int,
) -> None:
    """The step budget's boundary for a chain loop about to run ``chain``.

    Called when ``steps + len(chain) >= max_steps``.  Returns (the caller
    then runs the chain) only when the chain ends in a ``halt`` that
    retires within the budget — a halt is executed but not counted.
    Otherwise runs the chain's prefix up to the budget and raises
    :class:`~repro.errors.StepLimitExceeded` after the ``max_steps``-th
    instruction, as the reference loop does (which always executes at
    least one instruction).
    """
    if halts and steps + len(chain) == max(max_steps, 1):
        return
    for fn in chain[:max(max_steps - steps, 1)]:
        fn(state)
    raise StepLimitExceeded(max_steps)


def decode(program: Program, oracle: bool = False) -> DecodedProgram:
    """The (cached) decoding of ``program``.

    One decoding is kept per program *object*; a different Program with
    equal contents decodes separately, and re-decoding after mutation is
    impossible because programs are frozen.  The cache entry lives in the
    program's ``__dict__`` (excluded from pickling by
    ``Program.__getstate__``), so invalidation is garbage collection.
    """
    cache = program.__dict__.get(_CACHE_ATTR)
    if cache is None:
        cache = {}
        object.__setattr__(program, _CACHE_ATTR, cache)
    decoded = cache.get(oracle)
    if decoded is None:
        decoded = DecodedProgram(program, oracle=oracle)
        cache[oracle] = decoded
    return decoded
