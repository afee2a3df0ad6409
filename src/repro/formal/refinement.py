"""Jumping-refinement checking against the sequential model.

The companion paper's Definition 1: MSSP is a *jumping ψ-refinement* of
SEQ when every MSSP transition either leaves the projected architected
state unchanged ("accumulates energy" — slave execution, master work) or
advances it by exactly the transitions SEQ would take ("jumps" — task
commit).

:func:`replay_trace` checks this on a concrete engine run: it walks the
engine's trace records, advancing a sequential reference machine by each
committed task's (and each recovery's) instruction count, and verifies
that every committed jump lands exactly where SEQ lands — same pc after
the jump — and that the run's endpoint equals SEQ's final state.
Squashed-task records must not advance the reference at all.  The
reference is private to the replay, so each jump advances it in place
on the decoded engine's basic-block chains, with no state copy per task.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.errors import MsspError
from repro.isa.program import Program
from repro.machine.decoded import decode
from repro.machine.state import ArchState
from repro.mssp.engine import MsspResult
from repro.mssp.trace import RecoveryRecord, TaskAttemptRecord


@dataclass
class RefinementReport:
    """Outcome of one refinement replay."""

    ok: bool
    jumps: int = 0
    jumped_instrs: int = 0
    issues: List[str] = field(default_factory=list)


def replay_trace(program: Program, result: MsspResult) -> RefinementReport:
    """Verify that ``result``'s trace is a jumping refinement of SEQ."""
    report = RefinementReport(ok=True)
    reference = ArchState.initial(program)
    advance = decode(program).advance
    for record in result.records:
        if isinstance(record, TaskAttemptRecord):
            if not record.committed:
                continue  # squashed: architected state must not move
            if record.start_pc != reference.pc:
                report.issues.append(
                    f"task {record.tid} committed at pc {record.start_pc}, "
                    f"but SEQ is at pc {reference.pc}"
                )
                report.ok = False
                break
            advance(reference, record.n_instrs)
            report.jumps += 1
            report.jumped_instrs += record.n_instrs
            if (
                record.end_pc is not None
                and not record.halted
                and reference.pc != record.end_pc
            ):
                report.issues.append(
                    f"task {record.tid} jumped to pc {record.end_pc}, "
                    f"but SEQ reached pc {reference.pc}"
                )
                report.ok = False
                break
        elif isinstance(record, RecoveryRecord):
            advance(reference, record.n_instrs)
    if report.ok:
        differences = result.final_state.diff(reference)
        if differences:
            report.ok = False
            report.issues.extend(differences)
    return report


def assert_jumping_refinement(program: Program, result: MsspResult) -> None:
    """Raise :class:`~repro.errors.MsspError` when the replay fails."""
    report = replay_trace(program, result)
    if not report.ok:
        raise MsspError(
            "jumping refinement violated: " + "; ".join(report.issues[:5])
        )
