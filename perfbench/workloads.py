"""The benchmark's four workloads: set-up, measured loop and checks.

Every workload runs the engine as ``MsspConfig(exec_tier="jit",
runtime="eager")`` with every other field at its default, so a change of
default is measured rather than hidden.  Inputs come from the run seed:
each program's evaluation data is drawn from a seed derived from it (the
training inputs stay the workload's own), and so is the op order of the
closed loops.  See ``WORKLOADS.md`` beside this file for why each
workload exists.

A workload is driven as ``setup()`` (several times; only the last set-up
is kept), then ``measure()``.  ``measure()`` repeats rounds over the
workload's op slots and times each op against a reference loop run just
before it (:class:`Paired`): the host's speed drifts, and the ratio
drifts far less than either time.  Every measured op is checked outside
its timed region: its final state must digest like the sequential (SEQ)
run of the same program, and its simulated statistics (task count,
squashes, simulated cycles) must equal those of every other run of the
same program -- the traced and untraced runs included.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import random
import sys
import time
import traceback
from collections import defaultdict
from statistics import median
from typing import Dict, Iterable, List, Optional

from repro.config import SEQUENTIAL_BASELINE, MsspConfig, ServeConfig
from repro.distill import Distiller
from repro.experiments import cache as artifact_cache
from repro.experiments.harness import (
    RUN_LIMIT,
    distilled_dynamic_length,
    training_profile,
)
from repro.formal.refinement import assert_jumping_refinement
from repro.machine.interpreter import count_instructions_and_loads, run_to_halt
from repro.mssp import create_engine
from repro.errors import MsspError
from repro.serve.bench import percentile, poisson_arrivals
from repro.serve.cache import EnginePool, ServedProgram
from repro.serve.server import EpisodeRequest, EpisodeServer, state_digest
from repro.stats.tables import geomean
from repro.timing import baseline_cycles, simulate_mssp
from repro.workloads import get_workload
from repro.workloads.mispredict import drift_for

from ledger import EventTap, Ledger, layer_totals, now

#: The one engine configuration every workload measures.
CONFIG = MsspConfig(exec_tier="jit", runtime="eager")

#: Engine runs per program during set-up: the first compiles the JIT
#: regions, the second lets superblock linking settle.
WARMUP_RUNS = 2

#: How long to wait for one served episode before counting it failed.
SERVE_TIMEOUT_S = 120.0


def eval_seed(seed: int, name: str, index: int) -> int:
    """The evaluation-data seed of op ``index`` of ``name`` in run ``seed``."""
    rng = random.Random(f"{seed}/{name}/{index}")
    drift = drift_for(random.Random(get_workload("mispredict").eval_seed))
    while True:
        candidate = rng.randrange(1, 2 ** 31)
        # mispredict's own evaluation seed was searched for a drifting
        # mode table; keep that drift so every seed stays squash-heavy.
        if name != "mispredict" or drift_for(random.Random(candidate)) == drift:
            return candidate


def size_of(name: str, multiple: float) -> int:
    return max(4, int(get_workload(name).default_size * multiple))


@dataclasses.dataclass
class Case:
    """One program the workload runs, with its SEQ reference."""

    label: str
    name: str
    size: int
    program: object
    distillation: object
    profile: object
    seq_instrs: int
    reference: str
    dyn_ratio: float
    #: Program content digest (serve requests address programs by it).
    digest: str = ""
    #: Simulated statistics of the first checked run (the identity
    #: every later run of this program must reproduce).
    identity: Optional[dict] = None


def prepare_case(op, name: str, size: int, seed: int) -> Case:
    """Build, profile and distill one program; compute its SEQ digest."""
    spec = dataclasses.replace(get_workload(name), eval_seed=seed)
    instance = op.call("workloads.build", spec.instance, size)
    profile = op.call("profiling.profile", training_profile, instance)
    distillation = op.call(
        "distill.distill", Distiller().distill, instance.program, profile
    )
    reference = op.call(
        "machine.seq_check", run_to_halt, instance.program, RUN_LIMIT
    )
    digest = op.call("machine.seq_check", state_digest, reference.state)
    distilled = op.call(
        "distill.dynamic_length", distilled_dynamic_length,
        distillation, instance.program, RUN_LIMIT,
    )
    return Case(
        label=f"{name}@{size}#{seed}", name=name, size=size,
        program=instance.program, distillation=distillation,
        profile=profile, seq_instrs=reference.steps, reference=digest,
        dyn_ratio=distilled / reference.steps,
    )


def sim_identity(result, seq_instrs: int) -> dict:
    """The statistics a host-speed-only change must leave bit-identical."""
    counters = result.counters
    cycles = simulate_mssp(result).total_cycles
    return {
        "tasks": counters.task_attempts,
        "squashed": counters.tasks_squashed,
        "sim_cycles": cycles,
        "sim_speedup": baseline_cycles(seq_instrs, SEQUENTIAL_BASELINE)
        / cycles,
    }


#: Time of :func:`reference_work` on the nominal host whose seconds the
#: time metrics are given in (about its best on a 2-core x86 host at the
#: time of writing).
NOMINAL_REFERENCE_S = 0.2


def reference_work() -> None:
    """A fixed pure-Python loop that shares no code with the program.

    A register machine steps through a small table: the same kind of
    work (dispatch, list and dict access, integer arithmetic) the
    program's interpreters do.
    """
    code = [(i % 4, i % 7) for i in range(64)]
    for _ in range(80):
        regs, mem, pc = [0] * 8, {}, 0
        for step in range(20000):
            op, arg = code[pc]
            if op == 0:
                regs[arg] = regs[arg - 1] + step
            elif op == 1:
                mem[arg] = regs[arg]
            elif op == 2:
                regs[arg] ^= mem.get(arg, 0)
            else:
                regs[arg] = (regs[arg] * 3) & 0xFFFF
            pc = (pc + 1) & 63


def reference_seconds() -> float:
    """Time one :func:`reference_work`, with the cyclic collector off so
    the program's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = now()
        reference_work()
        return now() - start
    finally:
        if enabled:
            gc.enable()


class Paired:
    """Op times, each divided by the reference times taken around it.

    The host's speed drifts by up to 2x, in stretches from milliseconds
    to minutes (see WORKLOADS.md); the reference loop run right before
    and right after an op sees the same host as the op.  Call
    :meth:`sample` before the first op, between ops, and after the last;
    each op is divided by the mean of the two samples around it.
    :meth:`nominal` gives a slot's median ratio in seconds of the nominal
    host.
    """

    def __init__(self) -> None:
        self.ratios: Dict[object, List[float]] = defaultdict(list)
        self.raw: Dict[object, List[float]] = defaultdict(list)
        self.references: List[float] = []
        self._pending: List[tuple] = []

    def sample(self) -> None:
        reference = reference_seconds()
        for slot, seconds in self._pending:
            self.ratios[slot].append(
                2 * seconds / (self.references[-1] + reference)
            )
        self._pending = []
        self.references.append(reference)

    def add(self, slot, seconds: float) -> None:
        self._pending.append((slot, seconds))
        self.raw[slot].append(seconds)

    def nominal(self, slot) -> float:
        return median(self.ratios[slot]) * NOMINAL_REFERENCE_S

    def host(self, slot) -> float:
        """The slot's median time on this host, unscaled."""
        return median(self.raw[slot])


def throughput(instrs: Iterable[int], seconds: Iterable[float]) -> float:
    total = sum(seconds)
    return sum(instrs) / total if total else 0.0


def median_or_zero(values: Iterable[float]) -> float:
    values = list(values)
    return median(values) if values else 0.0


def mean_or_zero(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def loop_figures(times: Paired, instrs: Dict[object, int]):
    """(nominal, host) figures of a closed loop: Σ SEQ instrs ÷ Σ slot
    seconds, and the mean slot seconds."""
    figures = []
    for seconds_of in (times.nominal, times.host):
        seconds = [seconds_of(slot) for slot in instrs]
        figures.append({
            "throughput_ips": throughput(instrs.values(), seconds),
            "op_s": mean_or_zero(seconds),
        })
    return figures


class Rounds:
    """Whole rounds while the next one still fits in ``seconds``.

    A round is one pass over every op slot of the workload, so every run
    measures the same mix; the first round always runs.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.count = 0
        self.start = now()

    def next(self) -> bool:
        elapsed = now() - self.start
        if self.count and elapsed * (self.count + 1) / self.count > self.seconds:
            return False
        self.count += 1
        return True


def tail_percentile(count: int) -> float:
    """p90, or the highest percentile with ten samples beyond it."""
    if count <= 10:
        return 90.0
    # Nudged below the exact share so the nearest rank lands on
    # count - 10 despite rounding.
    return min(90.0, 100.0 * (count - 10) / count - 1e-6)


class Workload:
    """Shared bookkeeping: the ledger, checks, failures and layer stats."""

    name = ""
    #: One *pass* is one run over every distinct program of the
    #: workload; per-layer times are reported per pass.
    ops_per_pass = 1

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.ledger = Ledger()
        self.tap = EventTap() if trace else None
        self.attempted = 0
        self.failures: List[str] = []
        self.identity_errors: List[str] = []
        self.cases: List[Case] = []
        self.setup_phase = ""
        #: Private artifact-cache root of the measured phase.
        self.cache_root = ""
        #: Figures printed beside the metrics (not part of the result).
        self.extra: Dict[str, float] = {}
        #: The end-to-end figures again, in this host's own seconds, and
        #: the median reference time of the measured phase.
        self.host_metrics: Dict[str, float] = {}
        self.reference_s = 0.0
        #: Per-layer counters the ledger cannot give (instruction and
        #: task counts, traced vs untraced seconds).
        self.counts: Dict[str, float] = defaultdict(float)

    # -- checks -----------------------------------------------------------------

    def check(self, case: Case, result, counted: bool = True) -> None:
        """Compare one result with SEQ and with the case's identity."""
        if counted:
            self.attempted += 1
        if state_digest(result.final_state) != case.reference:
            self.failures.append(f"{case.label}: final state differs from SEQ")
            return
        identity = sim_identity(result, case.seq_instrs)
        if case.identity is None:
            case.identity = identity
        elif identity != case.identity:
            self.identity_errors.append(
                f"{case.label}: {identity} != {case.identity}"
            )

    def fail(self, label: str, error: BaseException) -> None:
        """Count one op that raised instead of producing a result."""
        self.attempted += 1
        self.failures.append(f"{label}: {type(error).__name__}: {error}")
        traceback.print_exception(error, file=sys.stderr)

    def fingerprint(self) -> Dict[str, dict]:
        """Identity of every program of one pass, for cross-run checks."""
        out = {}
        for case in self.cases:
            if case.identity is not None:
                out[case.label] = dict(case.identity, dyn_ratio=case.dyn_ratio)
        return out

    def sim_speedup(self) -> float:
        return geomean([
            case.identity["sim_speedup"] for case in self.cases
            if case.identity is not None
        ])

    # -- per-layer metrics ------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer figures, per pass over the workload's programs.

        A layer timed in the measured ops is reported from them;
        layers that only run in set-up (profiling, distillation, ... for
        the warm workloads) are reported from the kept set-up.
        """
        measured = self.ledger.ops("measure")
        passes = max(1, len(measured)) / self.ops_per_pass
        m_self, m_dur = layer_totals(self.ledger, measured)
        s_self, s_dur = layer_totals(self.ledger, self.ledger.ops(
            self.setup_phase
        ))

        def seconds(layer: str, self_time: bool = False) -> float:
            source = (m_self if self_time else m_dur)
            if layer in m_dur:
                return source[layer] / passes
            return (s_self if self_time else s_dur).get(layer, 0.0)

        ids = [case.identity for case in self.cases if case.identity]
        tasks = sum(i["tasks"] for i in ids)
        squashed = sum(i["squashed"] for i in ids)
        committed_instrs = self.counts["committed_instrs"]
        wasted_instrs = self.counts["squashed_instrs"]
        profile_s = seconds("profiling.profile")
        profiled = self.counts["profiled_instrs"] / (
            passes if "profiling.profile" in m_dur else 1
        )
        seq_total = sum(case.seq_instrs for case in self.cases)
        untraced = self.counts["untraced_s"]
        return {
            "mssp.run_s": seconds("mssp.run"),
            "mssp.master_s": seconds("mssp.master"),
            "mssp.slave_s": seconds("mssp.slave"),
            "mssp.verify_s": seconds("mssp.verify"),
            "mssp.recovery_s": seconds("mssp.recovery"),
            "mssp.unattributed_s": seconds("mssp.run", self_time=True),
            "mssp.engine_build_s": seconds("mssp.engine_build"),
            "mssp.tasks": float(tasks),
            "mssp.squash_rate": squashed / tasks if tasks else 0.0,
            "mssp.useful_ratio": (
                committed_instrs / (committed_instrs + wasted_instrs)
                if committed_instrs + wasted_instrs else 0.0
            ),
            "mssp.recovery_instrs": self.counts["recovery_instrs"] / passes,
            "mssp.master_instrs": self.counts["master_instrs"] / passes,
            "mssp.jit_deopts": (
                self.tap.counts["jit_deopt"] / passes if self.tap else 0.0
            ),
            "mssp.verify_skips": self.counts["verify_skips"] / passes,
            "workloads.build_s": seconds("workloads.build"),
            "profiling.profile_s": profile_s,
            "profiling.ips": (
                profiled / profile_s if profile_s else 0.0
            ),
            "distill.distill_s": seconds("distill.distill"),
            "distill.dyn_ratio": (
                sum(case.dyn_ratio * case.seq_instrs for case in self.cases)
                / seq_total if seq_total else 0.0
            ),
            "machine.count_s": seconds("machine.count"),
            "machine.seq_check_s": seconds("machine.seq_check"),
            "formal.refine_s": seconds("formal.refine"),
            "timing.simulate_s": seconds("timing.simulate"),
            "timing.sim_cycles": sum(i["sim_cycles"] for i in ids),
            "ledger.glue_s": seconds("op", self_time=True),
            "trace.overhead": (
                self.counts["traced_s"] / untraced if untraced else 0.0
            ),
            # Serving layers: zero unless the workload serves.
            "serve.open_s": 0.0,
            "serve.queue_s": 0.0,
            "serve.service_s": 0.0,
            "serve.batched_share": 0.0,
            "serve.queue_high_water": 0.0,
            "serve.shed": 0.0,
            "serve.errors": 0.0,
            "serve.gen_late_s": 0.0,
            "serve.tail_s": 0.0,
        }

    def note_counters(self, result) -> None:
        counters = result.counters
        self.counts["committed_instrs"] += counters.committed_instrs
        self.counts["squashed_instrs"] += counters.squashed_instrs
        self.counts["recovery_instrs"] += counters.recovery_instrs
        self.counts["master_instrs"] += counters.master_instrs
        self.counts["verify_skips"] += counters.static_verify_skips

    def discard_setup(self) -> None:
        """Release a set-up that a later set-up replaces."""

    def close(self) -> None:
        """Release the kept set-up."""
        self.discard_setup()


class EpisodeLoop(Workload):
    """Closed loop, one caller: ``engine.run()`` over warm engines."""

    #: (workload, multiple of its default size).
    PROGRAMS = ()

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.ops_per_pass = len(self.PROGRAMS)
        self.engines: List[object] = []

    def setup(self, rep: int) -> None:
        self.setup_phase = f"setup-{rep}"
        self.cases, self.engines = [], []
        for name, multiple in self.PROGRAMS:
            op = self.ledger.op("setup", self.setup_phase)
            case = prepare_case(
                op, name, size_of(name, multiple),
                eval_seed(self.seed, name, 0),
            )
            engine = op.call(
                "mssp.engine_build", create_engine,
                case.program, case.distillation, CONFIG,
            )
            for _ in range(WARMUP_RUNS):
                result, _ = op.run_engine(engine)
            op.call("timing.simulate", simulate_mssp, result)
            op.close()
            self.check(case, result, counted=False)
            self.cases.append(case)
            self.engines.append(engine)
        self.counts["profiled_instrs"] = sum(
            case.profile.total_instructions for case in self.cases
        )

    def measure(self) -> Dict[str, float]:
        rng = random.Random(f"{self.seed}/order")
        times = Paired()
        rounds = Rounds(self.seconds)
        while rounds.next():
            for index in rng.sample(range(len(self.cases)), len(self.cases)):
                case, engine = self.cases[index], self.engines[index]
                if self.trace:
                    # Untraced twin of the traced op, for trace.overhead.
                    op = self.ledger.op("episode", "untraced")
                    result, seconds = op.run_engine(engine)
                    op.close()
                    self.counts["untraced_s"] += seconds
                    self.check(case, result, counted=False)
                    self.tap.attach(engine)
                times.sample()
                op = self.ledger.op("episode", "measure")
                try:
                    result, seconds = op.run_engine(engine, self.tap)
                except Exception as error:  # noqa: BLE001 - counted
                    self.fail(case.label, error)
                    continue
                finally:
                    op.close()
                    if self.tap is not None:
                        self.tap.detach_all()
                self.counts["traced_s"] += seconds
                self.check(case, result)
                self.note_counters(result)
                times.add(index, seconds)
        times.sample()
        self.counts["rounds"] = rounds.count
        self.reference_s = median(times.references)
        metrics, self.host_metrics = loop_figures(times, {
            index: self.cases[index].seq_instrs for index in times.ratios
        })
        metrics["sim_speedup"] = self.sim_speedup()
        return metrics


class EpisodeWarm(EpisodeLoop):
    name = "episode-warm"
    PROGRAMS = (
        ("compress", 3), ("pointer_chase", 3), ("branchy", 3), ("interp", 3),
    )


class EpisodeSquash(EpisodeLoop):
    name = "episode-squash"
    PROGRAMS = (("mispredict", 4), ("hashlookup", 4))


def seq_check(program, result):
    """The SEQ check ``repro run`` pays: reference run plus state diff."""
    reference = run_to_halt(program, RUN_LIMIT)
    differences = result.final_state.diff(reference.state)
    if differences:
        raise MsspError("MSSP final state diverged from SEQ: "
                        + "; ".join(differences[:5]))
    return reference


class PipelineCold(Workload):
    """Closed loop, one caller: one fresh checked pipeline per op."""

    name = "pipeline-cold"
    #: One round: every pair once, from default size up to 4x default.
    #: The round is short (~4 s on a 2-core x86 host) so that a run
    #: repeats each pair several times; an 8x pair alone takes 3-5 s and
    #: would leave one or two repeats.
    PAIRS = (
        ("compress", 1), ("crc", 1), ("branchy", 1), ("pointer_chase", 2),
        ("fib_memo", 4),
    )
    #: The set-up's warm-up pipeline, untimed by the ops: it pays the
    #: first-call costs (lazy imports, decoder tables, JIT templates)
    #: that would otherwise land on the first timed op.
    WARMUP = ("compress", 1)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.ops_per_pass = len(self.PAIRS)

    def setup(self, rep: int) -> None:
        self.setup_phase = f"setup-{rep}"
        name, multiple = self.WARMUP
        op = self.ledger.op("setup", self.setup_phase)
        try:
            self.pipeline(op, name, size_of(name, multiple),
                          eval_seed(self.seed, f"warmup{rep}", 0))
        finally:
            op.close()

    def pipeline(self, op, name: str, size: int, seed: int,
                 tap: Optional[EventTap] = None):
        """One checked pipeline from source, each stage a layer span."""
        spec = dataclasses.replace(get_workload(name), eval_seed=seed)
        instance = op.call("workloads.build", spec.instance, size)
        program = instance.program
        profile = op.call("profiling.profile", training_profile, instance)
        distillation = op.call(
            "distill.distill", Distiller().distill, program, profile
        )
        seq_instrs, _loads = op.call(
            "machine.count", count_instructions_and_loads, program, RUN_LIMIT
        )
        engine = op.call(
            "mssp.engine_build", create_engine, program, distillation, CONFIG
        )
        try:
            if tap is not None:
                tap.attach(engine)
            result, _ = op.run_engine(engine, tap)
        finally:
            engine.close()
            if tap is not None:
                tap.detach_all()
        reference = op.call("machine.seq_check", seq_check, program, result)
        op.call("formal.refine", assert_jumping_refinement, program, result)
        op.call("timing.simulate", simulate_mssp, result)
        return instance, profile, distillation, seq_instrs, result, reference

    def measure(self) -> Dict[str, float]:
        rng = random.Random(f"{self.seed}/order")
        times = Paired()
        instrs: Dict[int, int] = {}
        twin_cache = os.path.join(self.cache_root, "twins")
        rounds = Rounds(self.seconds)
        while rounds.next():
            index0 = (rounds.count - 1) * len(self.PAIRS)
            for offset in rng.sample(range(len(self.PAIRS)), len(self.PAIRS)):
                name, multiple = self.PAIRS[offset]
                size = size_of(name, multiple)
                # A fresh input per op: no program digest repeats.
                seed = eval_seed(self.seed, name, index0 + offset)
                label = f"{name}@{size}#{seed}"
                twin = None
                if self.trace:
                    # Untraced twin (own cache dir, so its JIT code
                    # does not warm the traced op).
                    own_cache = os.environ["REPRO_BENCH_CACHE"]
                    os.environ["REPRO_BENCH_CACHE"] = twin_cache
                    op = self.ledger.op("pipeline", "untraced")
                    try:
                        twin = self.pipeline(op, name, size, seed)
                    except Exception as error:  # noqa: BLE001 - counted
                        self.fail(label + " (untraced twin)", error)
                    finally:
                        self.counts["untraced_s"] += op.close()
                        os.environ["REPRO_BENCH_CACHE"] = own_cache
                times.sample()
                op = self.ledger.op("pipeline", "measure")
                try:
                    (instance, profile, distillation, seq_instrs, result,
                     reference) = self.pipeline(
                        op, name, size, seed, self.tap
                    )
                except Exception as error:  # noqa: BLE001 - counted
                    op.close()
                    self.fail(label, error)
                    continue
                seconds = op.close()
                self.counts["traced_s"] += seconds
                self.note_counters(result)
                self.counts["profiled_instrs"] += profile.total_instructions
                case = Case(
                    label=label, name=name, size=size,
                    program=instance.program, distillation=distillation,
                    profile=None, seq_instrs=seq_instrs,
                    reference=state_digest(reference.state),
                    dyn_ratio=0.0,
                )
                self.check(case, result)
                if twin is not None:
                    self.check(case, twin[4], counted=False)
                times.add(offset, seconds)
                instrs[offset] = seq_instrs
                if rounds.count == 1:
                    # The first round is the pass every run completes:
                    # its programs carry the simulated statistics.
                    case.dyn_ratio = distilled_dynamic_length(
                        distillation, instance.program, RUN_LIMIT
                    ) / seq_instrs
                    case.program = case.distillation = None
                    self.cases.append(case)
        times.sample()
        self.counts["rounds"] = rounds.count
        self.reference_s = median(times.references)
        metrics, self.host_metrics = loop_figures(times, instrs)
        metrics["sim_speedup"] = self.sim_speedup()
        return metrics


class TappedEnginePool(EnginePool):
    """The server's engine pool, subscribing a tap to engines it hands out."""

    def __init__(self, tap: EventTap) -> None:
        super().__init__()
        self.tap = tap
        self.active = False

    def acquire(self, key, build):
        engine, hit = super().acquire(key, build)
        if self.active:
            self.tap.attach(engine)
        return engine, hit


class ServeOpen(Workload):
    """A warm ``EpisodeServer``: closed bursts, traced runs add open loops."""

    name = "serve-open"
    #: (workload, multiple of its default size).  ``crc`` runs at about
    #: half its default size so that all three serve in about the same
    #: time (~0.1 s on a 2-core x86 host): with ``crc`` at default size
    #: the service times split into two clusters and the median latency
    #: jumped between them from run to run.
    PROGRAMS = (("compress", 1), ("crc", 0.55), ("branchy", 1))
    #: Offered load, episodes/s: a third of the saturation throughput
    #: measured on a 2-core x86 host at the time of writing (~12 eps/s).
    #: At half saturation the median latency spread by ~50% between runs:
    #: queueing amplifies every drift in the host's speed.
    RATE = 4.0
    #: Requests per open-loop stage; the traced run runs one stage, with
    #: the same traffic, in every round.
    OPEN_REQUESTS = 12
    #: The traffic -- arrival times and program order -- is one fixed
    #: draw, the same in every run; the run seed varies the programs'
    #: inputs.  Sixty Poisson arrivals drawn per seed moved the median
    #: latency by +-20% between seeds, more than a change under test.
    TRAFFIC_SEED = 2002
    #: Requests per program in each closed burst.
    BURST_PER_PROGRAM = 2

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.ops_per_pass = len(self.PROGRAMS)
        self.server: Optional[EpisodeServer] = None
        self.pool: Optional[TappedEnginePool] = None
        #: Open-loop latency, queue and service seconds per ok request.
        self.samples: Dict[str, List[float]] = defaultdict(list)

    def setup(self, rep: int) -> None:
        self.setup_phase = f"setup-{rep}"
        server = EpisodeServer(ServeConfig(), mssp_config=CONFIG)
        if self.tap is not None:
            self.pool = server.engines = TappedEnginePool(self.tap)
        self.server = server
        op = self.ledger.op("setup", self.setup_phase)
        warmed = []
        try:
            op.call("serve.start", server.start)
            for name, multiple in self.PROGRAMS:
                case = prepare_case(op, name, size_of(name, multiple),
                                    eval_seed(self.seed, name, 0))
                served = ServedProgram(
                    name=name, size=case.size,
                    key=artifact_cache.digest(
                        name, case.size,
                        artifact_cache.program_digest(case.program), None,
                    ),
                    digest=artifact_cache.program_digest(case.program),
                    program=case.program, distillation=case.distillation,
                    profile=case.profile,
                )
                server.preload(served)
                case.digest = served.digest
                for _ in range(WARMUP_RUNS):
                    response = op.call(
                        "serve.warm", server.serve,
                        self.request(case, "warmup"), SERVE_TIMEOUT_S,
                    )
                if response.ok:
                    op.call("timing.simulate", simulate_mssp, response.result)
                warmed.append((case, response))
        finally:
            op.close()
        for case, response in warmed:
            if response.ok:
                self.check(case, response.result, counted=False)
            else:
                self.failures.append(f"{case.label}: warm-up {response.error}")
        self.cases = [case for case, _ in warmed]
        self.counts["profiled_instrs"] = sum(
            case.profile.total_instructions for case in self.cases
        )

    def discard_setup(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def request(self, case: Case, tenant: str) -> EpisodeRequest:
        return EpisodeRequest(digest=case.digest, config=CONFIG, tenant=tenant)

    def stream(self, count: int, tag: str) -> List[Case]:
        """``count`` requests, programs balanced, in the fixed order."""
        cases = [self.cases[i % len(self.cases)] for i in range(count)]
        random.Random(f"traffic/{tag}").shuffle(cases)
        return cases

    def settle(self, submitted, phase: str, traced: bool):
        """Check and ledger each response; returns each one's latency.

        A request fails when it is shed, answers with an error, times
        out, or returns a state that differs from SEQ.
        """
        latencies = []
        deadline = now() + SERVE_TIMEOUT_S
        for handle, scheduled, case in submitted:
            try:
                response = handle.result(max(0.01, deadline - now()))
            except TimeoutError as error:
                self.fail(case.label, error)
                latencies.append(None)
                continue
            start = min(scheduled, response.submitted_at)
            op = self.ledger.op("request", phase, start=start)
            op.add("serve.queue", start, response.started_at)
            service = op.add(
                "serve.service", response.started_at, response.completed_at
            )
            if response.ok:
                # The server's start/completion stamps bracket its
                # engine.run() call.
                run = op.add("mssp.run", response.started_at,
                             response.completed_at, service)
                if traced:
                    self.tap.attribute(
                        op, run, response.started_at, response.completed_at,
                        thread=f"mssp-serve-{response.worker}",
                    )
            op.close(response.completed_at)
            if not response.ok:
                self.attempted += 1
                self.counts[response.status] += 1
                self.failures.append(
                    f"{case.label}: {response.status} {response.error}"
                )
                latencies.append(None)
                continue
            self.check(case, response.result)
            latencies.append(response.completed_at - scheduled)
            if phase == "measure":
                self.note_counters(response.result)
                self.counts["batched"] += int(response.batched)
                self.samples["queue"].append(response.started_at - scheduled)
                self.samples["service"].append(
                    response.completed_at - response.started_at
                )
        return latencies

    def open_loop(self, traced: bool, pace: float) -> List[Optional[float]]:
        """One stage of Poisson arrivals at :attr:`RATE` ÷ ``pace``.

        Returns each request's latency from its scheduled arrival (None
        for a failed request), in arrival order.
        """
        server = self.server
        count = self.OPEN_REQUESTS
        cases = self.stream(count, "open")
        offsets = poisson_arrivals(self.RATE, count, seed=self.TRAFFIC_SEED)
        # Stretch the draw to span exactly count / RATE seconds (the
        # realized rate of a few Poisson arrivals is far off RATE).
        # Given their number, Poisson arrival times are uniform over the
        # span, so the shape stays.
        stretch = pace * count / self.RATE / offsets[-1]
        offsets = [offset * stretch for offset in offsets]
        server.reset_queue_high_water()
        self.set_traced(traced)
        submitted, late = [], 0.0
        base = now()
        for case, offset in zip(cases, offsets):
            scheduled = base + offset
            delay = scheduled - now()
            if delay > 0:
                time.sleep(delay)
            late = max(late, now() - scheduled)
            submitted.append((
                server.submit(self.request(case, f"tenant-{case.name}")),
                scheduled, case,
            ))
        latencies = self.settle(submitted, "measure", traced)
        self.set_traced(False)
        self.counts["queue_high_water"] = max(
            self.counts["queue_high_water"], server.stats.max_queue_depth
        )
        self.counts["gen_late_s"] = max(self.counts["gen_late_s"], late)
        return latencies

    def burst(self, phase: str, traced: bool):
        """Closed burst through the warm server.

        Returns (SEQ instrs served, seconds, each served request's
        latency from submission).
        """
        cases = self.stream(
            self.BURST_PER_PROGRAM * len(self.cases), phase
        )
        self.set_traced(traced)
        start = now()
        handles = [
            self.server.submit(self.request(case, f"tenant-{case.name}"))
            for case in cases
        ]
        deadline = start + SERVE_TIMEOUT_S
        for handle in handles:
            try:
                handle.result(max(0.01, deadline - now()))
            except TimeoutError:
                break  # settle() counts it
        wall = now() - start
        self.set_traced(False)
        latencies = self.settle(
            [(handle, start, case) for handle, case in zip(handles, cases)],
            phase, traced,
        )
        served = [(case, latency) for case, latency in zip(cases, latencies)
                  if latency is not None]
        return (sum(case.seq_instrs for case, _ in served), wall,
                [latency for _, latency in served])

    def set_traced(self, on: bool) -> None:
        if self.pool is None:
            return
        self.pool.active = on
        if not on:
            self.tap.detach_all()

    def measure(self) -> Dict[str, float]:
        # A round is one closed burst: its paired wall time gives the
        # saturation throughput, and the mean latency of its requests
        # from submission (queue wait behind the rest of the burst,
        # then service) gives op_s.  The traced run adds an open-loop stage
        # to every round for the serve.* layers.  Open-loop latency is
        # not an end-to-end metric: a stage takes seconds, the host's
        # speed changes within it, and the stage means of one process
        # ranged 0.05-0.13 nominal seconds (see WORKLOADS.md).
        times = Paired()
        instrs = []
        rounds = Rounds(self.seconds)
        times.sample()
        while rounds.next():
            index = len(instrs)
            if self.trace:
                _, untraced, _ = self.burst(f"untraced-{index}", False)
                self.counts["untraced_s"] += untraced
                times.sample()
            served, wall, latencies = self.burst(f"burst-{index}",
                                                 self.trace)
            times.add("burst", wall)
            times.add("latency", mean_or_zero(latencies))
            instrs.append(served)
            self.counts["traced_s"] += wall
            times.sample()
            if self.trace:
                # Offer the same share of the host's capacity however
                # fast the host runs just now: a slow host gets arrivals
                # spread out by its slowness.
                pace = times.references[-1] / NOMINAL_REFERENCE_S
                self.samples["open"] += [
                    latency for latency in self.open_loop(True, pace)
                    if latency is not None
                ]
        self.counts["rounds"] = rounds.count
        self.reference_s = median(times.references)
        if self.trace:
            samples = self.samples["open"]
            tail = tail_percentile(len(samples))
            self.extra.update({
                "open_samples": len(samples),
                "tail_pct": tail,
                "tail_s": percentile(samples, tail) if samples else 0.0,
            })
        # Each burst's throughput, and the median over the bursts, like
        # every other slot.
        metrics = {
            "throughput_ips": median_or_zero(
                served / (ratio * NOMINAL_REFERENCE_S)
                for served, ratio in zip(instrs, times.ratios["burst"])
            ),
            "op_s": times.nominal("latency"),
        }
        self.host_metrics = {
            "throughput_ips": median_or_zero(
                served / seconds
                for served, seconds in zip(instrs, times.raw["burst"])
            ),
            "op_s": times.host("latency"),
        }
        metrics["sim_speedup"] = self.sim_speedup()
        return metrics

    def layer_metrics(self) -> Dict[str, float]:
        metrics = super().layer_metrics()
        served = len(self.samples["service"])
        metrics.update({
            "serve.open_s": median_or_zero(self.samples["open"]),
            "serve.queue_s": median_or_zero(self.samples["queue"]),
            "serve.service_s": median_or_zero(self.samples["service"]),
            "serve.batched_share": (
                self.counts["batched"] / served if served else 0.0
            ),
            "serve.queue_high_water": self.counts["queue_high_water"],
            "serve.shed": self.counts["shed"],
            "serve.errors": self.counts["error"],
            "serve.gen_late_s": self.counts["gen_late_s"],
            "serve.tail_s": self.extra["tail_s"],
        })
        return metrics


WORKLOADS = {
    cls.name: cls
    for cls in (EpisodeWarm, EpisodeSquash, PipelineCold, ServeOpen)
}
