"""The benchmark's span ledger, kept entirely outside the program.

Every timed operation ("op") is a root span.  Its children are the
calls the benchmark makes into the program's public functions, one span
per call, named after the module that owns the function
(``profiling.profile``, ``distill.distill``, ``mssp.run``, ...).  Under
each ``mssp.run`` span, a traced run adds the engine's own phases,
derived from the clock-stamped events the engine already publishes on
``engine.events``:

* ``mssp.master`` -- from the previous judgement (or the run start) to
  the next ``task_forked`` / ``master_failure`` event;
* ``mssp.slave`` -- the measured ``cost`` carried by ``task_executed``;
* ``mssp.verify`` -- from ``task_executed`` to ``task_committed`` /
  ``task_squashed``;
* ``mssp.recovery`` -- from the squash to the ``recovery`` event.

A span's *self time* is its duration minus the time its children cover.
Because children nest inside their parent and never overlap, the self
times of all spans of an op add up to the op's wall time exactly; the
self time of ``mssp.run`` is what the engine spent outside the four
phases above (``mssp.unattributed_s``), and the root's self time is the
benchmark's own glue between calls.  :func:`check_closure` verifies the
nesting, which is what makes the parts add up.

Spans live in memory and are written as JSONL when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

#: Clock of every span: the same ``time.perf_counter`` the engine's
#: ``WallClock`` stamps events with, so derived and measured spans share
#: one time base.
now = time.perf_counter

#: Slack for nesting checks: two perf_counter readings taken on either
#: side of an event stamp can disagree only by rounding.
EPSILON = 1e-6


class Span(NamedTuple):
    id: int
    op: int
    name: str
    parent: Optional[int]
    start: float
    end: float


class Ledger:
    """All spans of one benchmark run, in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Op id -> the run phase it belongs to (setup, measure, ...).
        self.phases: Dict[int, str] = {}
        self._span_ids = itertools.count()
        self._op_ids = itertools.count()

    def op(self, name: str, phase: str, start: Optional[float] = None):
        """Open a root span for one timed operation."""
        return Op(self, name, phase, start)

    def ops(self, phase: str) -> List[int]:
        return [op for op, name in self.phases.items() if name == phase]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                record = span._asdict()
                record["phase"] = self.phases[span.op]
                out.write(json.dumps(record) + "\n")


class Op:
    """One timed operation: a root span plus one child per layer call."""

    def __init__(self, ledger: Ledger, name: str, phase: str,
                 start: Optional[float]) -> None:
        self.ledger = ledger
        self.name = name
        self.id = next(ledger._op_ids)
        ledger.phases[self.id] = phase
        self.root = next(ledger._span_ids)
        self.start = now() if start is None else start
        self.end: Optional[float] = None

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None) -> int:
        span_id = next(self.ledger._span_ids)
        self.ledger.spans.append(Span(
            span_id, self.id, name,
            self.root if parent is None else parent, start, end,
        ))
        return span_id

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` and record its wall time as a ``layer`` span."""
        start = now()
        try:
            return fn(*args, **kwargs)
        finally:
            self.add(layer, start, now())

    def run_engine(self, engine, tap: Optional["EventTap"] = None,
                   parent: Optional[int] = None):
        """``engine.run()`` as an ``mssp.run`` span; returns (result, s).

        With a tap subscribed to the engine, the engine's phases are
        added as children of the run span.
        """
        start = now()
        result = engine.run()
        end = now()
        run_id = self.add("mssp.run", start, end, parent)
        if tap is not None:
            tap.attribute(self, run_id, start, end)
        return result, end - start

    def close(self, end: Optional[float] = None) -> float:
        """Close the root span; returns the op's wall time."""
        self.end = now() if end is None else end
        self.ledger.spans.append(Span(
            self.root, self.id, self.name, None, self.start, self.end
        ))
        return self.end - self.start


class EventTap:
    """An ``engine.events`` subscriber for traced runs.

    Keeps one small tuple per event -- never the event itself, which
    holds live task objects -- tagged with the emitting thread's name,
    so episodes that ran on different server worker threads can be told
    apart afterwards.
    """

    def __init__(self) -> None:
        self.events: List[tuple] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._unsubscribe: Dict[int, Callable[[], None]] = {}

    def __call__(self, event) -> None:
        self.events.append((
            threading.current_thread().name, event.kind, event.at,
            getattr(event, "cost", 0.0),
        ))

    def attach(self, engine) -> None:
        if id(engine) not in self._unsubscribe:
            self._unsubscribe[id(engine)] = engine.events.subscribe(self)

    def detach_all(self) -> None:
        for unsubscribe in self._unsubscribe.values():
            unsubscribe()
        self._unsubscribe.clear()

    def take(self, start: float, end: float,
             thread: Optional[str] = None) -> List[tuple]:
        """Remove and return the events stamped within [start, end]."""
        thread = thread or threading.current_thread().name
        taken, kept = [], []
        for item in self.events:
            if item[0] == thread and start <= item[2] <= end:
                taken.append(item)
            else:
                kept.append(item)
        self.events = kept
        return taken

    def attribute(self, op: Op, parent: int, start: float, end: float,
                  thread: Optional[str] = None) -> None:
        """Add the engine-phase spans of one run window under ``parent``."""
        events = self.take(start, end, thread)
        for item in events:
            self.counts[item[1]] += 1
        for name, s, e in derive_phases(events, start):
            op.add(name, s, e, parent)


def derive_phases(events: Iterable[tuple], start: float):
    """Engine-phase spans from one run's stamped events (see module doc).

    ``jit_deopt`` and ``live_in_predicted`` are instants inside a gap
    and move nothing; the tap counts them.
    """
    spans = []
    prev = start
    for _thread, kind, at, cost in events:
        if kind in ("task_forked", "master_failure"):
            spans.append(("mssp.master", prev, at))
            prev = at
        elif kind == "task_executed":
            spans.append(("mssp.slave", at - cost, at))
            prev = at
        elif kind in ("task_committed", "task_squashed"):
            spans.append(("mssp.verify", prev, at))
            prev = at
        elif kind == "recovery":
            spans.append(("mssp.recovery", prev, at))
            prev = at
        elif kind == "redistilled":
            prev = at
    return spans


class LedgerError(Exception):
    """The spans of an op do not nest, so its parts cannot add up."""


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time per span id; raises :class:`LedgerError` on bad nesting."""
    by_id = {span.id: span for span in spans}
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        if span.end < span.start - EPSILON:
            raise LedgerError(f"span {span.name} ends before it starts")
        covered = 0.0
        last_end = span.start
        for child in sorted(children[span.id], key=lambda c: c.start):
            if (
                child.start < span.start - EPSILON
                or child.end > span.end + EPSILON
            ):
                raise LedgerError(
                    f"{child.name} [{child.start:.6f}, {child.end:.6f}] "
                    f"leaves its parent {span.name} "
                    f"[{span.start:.6f}, {span.end:.6f}]"
                )
            if child.start < last_end - EPSILON:
                raise LedgerError(
                    f"{child.name} overlaps a sibling inside {span.name}"
                )
            covered += child.end - child.start
            last_end = child.end
        result[span.id] = (span.end - span.start) - covered
        if span.parent is not None and span.parent not in by_id:
            raise LedgerError(f"{span.name} has no parent span")
    return result


def check_closure(ledger: Ledger) -> float:
    """Check every op's parts sum to its wall time; returns the worst gap.

    For each op, the self times of all its spans -- the layer spans,
    ``mssp.run``'s unattributed remainder and the root's glue -- must
    add up to the root's duration.  Raises :class:`LedgerError` when an
    op's spans do not nest or the sum misses by more than rounding.
    """
    by_op: Dict[int, List[Span]] = defaultdict(list)
    for span in ledger.spans:
        by_op[span.op].append(span)
    worst = 0.0
    for spans in by_op.values():
        roots = [span for span in spans if span.parent is None]
        if len(roots) != 1:
            raise LedgerError(f"op has {len(roots)} root spans")
        total = sum(self_times(spans).values())
        wall = roots[0].end - roots[0].start
        gap = abs(total - wall)
        if gap > EPSILON * len(spans):
            raise LedgerError(
                f"op {roots[0].name}: parts sum to {total:.6f}s, "
                f"wall is {wall:.6f}s"
            )
        worst = max(worst, gap)
    return worst


def layer_totals(ledger: Ledger, ops: Iterable[int]):
    """(Σ self time, Σ duration) per span name over ``ops``.

    Root spans are reported under the name ``op``.
    """
    wanted = set(ops)
    spans = [span for span in ledger.spans if span.op in wanted]
    by_op: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_op[span.op].append(span)
    totals: Dict[str, float] = defaultdict(float)
    durations: Dict[str, float] = defaultdict(float)
    for op_spans in by_op.values():
        selfs = self_times(op_spans)
        for span in op_spans:
            name = "op" if span.parent is None else span.name
            totals[name] += selfs[span.id]
            durations[name] += span.end - span.start
    return dict(totals), dict(durations)
