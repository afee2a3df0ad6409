"""``stringops`` — string compare/copy kernels (models perlbmk).

The input is pairs of zero-terminated strings in fixed-width slots.  For
each pair the kernel calls ``strcmp`` (early-out compare loop); unequal
pairs are then copied into a destination buffer with ``strcpy``.  The
generator gives pairs long common prefixes so the compare loop's
continue branch is strongly biased, and makes ~30% of pairs equal so
the copy path is moderately biased.  Two leaf subroutines share ``ra``
handling with the main loop.

Results: ``RESULT_BASE`` = equal pairs, ``RESULT_BASE+1`` = copied
words, ``RESULT_BASE+2`` = compare iterations.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.errors import WorkloadError
from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.workloads.base import (
    INPUT_BASE,
    RESULT_BASE,
    WorkloadSpec,
    emit_guard_fixups,
    never_taken_guard,
)

#: Words per string slot (strings are shorter; zero-terminated).
SLOT = 24
DEST_BASE = 0x6000

#: Pairs that fit below the copy buffer.  One more and the input runs
#: into ``DEST_BASE``: ``strcpy`` then overwrites later pairs'
#: terminators, and the compare loop never ends.
MAX_SIZE = (DEST_BASE - INPUT_BASE) // (2 * SLOT)


def _pair_base(pair: int) -> int:
    return INPUT_BASE + pair * 2 * SLOT


def build_code(size: int) -> Program:
    if size > MAX_SIZE:
        raise WorkloadError(
            f"stringops: size {size} overruns its input region; the "
            f"largest legal size is {MAX_SIZE}"
        )
    b = ProgramBuilder(name="stringops")

    b.label("main")
    b.li("sp", 0x8000)
    b.li("r1", 0)               # pair index
    b.li("r2", size)            # pair count
    b.li("r3", 0)               # equal pairs
    b.li("r4", 0)               # copied words
    b.li("r5", 0)               # compare iterations
    b.li("r6", DEST_BASE)       # copy cursor

    guards = []
    b.label("pair_loop")
    b.muli("r7", "r1", 2 * SLOT)
    b.addi("r7", "r7", INPUT_BASE)   # s1
    b.addi("r8", "r7", SLOT)         # s2
    b.call("strcmp")                 # r10 = 1 if equal
    b.beq("r10", "zero", "unequal")
    b.addi("r3", "r3", 1)
    b.j("pair_next")
    b.label("unequal")
    b.call("strcpy")                 # copies s1 -> dest, advances r6/r4
    b.label("pair_next")
    b.addi("r1", "r1", 1)
    b.blt("r1", "r2", "pair_loop")

    b.sw("r3", "zero", RESULT_BASE)
    b.sw("r4", "zero", RESULT_BASE + 1)
    b.sw("r5", "zero", RESULT_BASE + 2)
    b.halt()

    b.comment("strcmp(r7, r8) -> r10 (1 equal / 0 not); clobbers r11-r13")
    b.label("strcmp")
    b.li("r11", 0)              # offset
    b.label("cmp_loop")
    b.addi("r5", "r5", 1)
    b.add("r12", "r7", "r11")
    b.lw("r12", "r12", 0)
    b.add("r13", "r8", "r11")
    b.lw("r13", "r13", 0)
    guards.append(never_taken_guard(b, "so_chars", "r12", "r11"))
    b.bne("r12", "r13", "cmp_diff")
    b.beq("r12", "zero", "cmp_equal")  # both ended
    b.addi("r11", "r11", 1)
    b.j("cmp_loop")
    b.label("cmp_equal")
    b.li("r10", 1)
    b.ret()
    b.label("cmp_diff")
    b.li("r10", 0)
    b.ret()

    b.comment("strcpy(r7 -> r6 cursor); advances r6 and r4; clobbers r11-r12")
    b.label("strcpy")
    b.li("r11", 0)
    b.label("cpy_loop")
    b.add("r12", "r7", "r11")
    b.lw("r12", "r12", 0)
    b.beq("r12", "zero", "cpy_done")
    b.sw("r12", "r6", 0)
    b.addi("r6", "r6", 1)
    b.addi("r4", "r4", 1)
    b.addi("r11", "r11", 1)
    b.j("cpy_loop")
    b.label("cpy_done")
    b.ret()
    emit_guard_fixups(b, guards)
    return b.build()


def gen_data(size: int, rng: random.Random) -> Dict[int, int]:
    data: Dict[int, int] = {}
    for pair in range(size):
        length = rng.randint(6, SLOT - 2)
        s1 = [rng.randint(1, 200) for _ in range(length)]
        equal = rng.random() < 0.3
        if equal:
            s2 = list(s1)
        else:
            s2 = list(s1)
            # Diverge near the end: long common prefixes.
            diverge = rng.randint(max(0, length - 4), length - 1)
            s2[diverge] = (s2[diverge] % 200) + 1
        base = _pair_base(pair)
        for offset, value in enumerate(s1):
            data[base + offset] = value
        for offset, value in enumerate(s2):
            data[base + SLOT + offset] = value
    return data


SPEC = WorkloadSpec(
    name="stringops",
    description="strcmp/strcpy over string pairs: early-out compare "
                "loops with long common prefixes, two leaf subroutines",
    build_code=build_code,
    gen_data=gen_data,
    default_size=260,
)
