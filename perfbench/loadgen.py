"""Open-loop load generation: seeded Poisson schedules on one asyncio loop.

The generator sends each operation when it is due, whether or not earlier
ones have finished, and every latency is timed from the due time, so a
stall in the system (or in the generator itself) shows as latency of the
operations queued behind it.  How late the generator issued each
operation is recorded separately as its lag.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from collections.abc import Awaitable, Callable, Sequence
from dataclasses import dataclass

from stats import tail

__all__ = [
    "MIXED_CYCLE",
    "Op",
    "OpenLoopResult",
    "Probe",
    "Record",
    "drive",
    "find_max_rate",
    "schedule",
]

# One cycle of the mixed workload: 1 in 8 operations appends a fresh
# offer, 1 in 16 retires an earlier append, the rest are matches.
MIXED_CYCLE = (
    ("match",) * 3 + ("append",) + ("match",) * 7 + ("append",)
    + ("match",) * 3 + ("retire",)
)


@dataclass(frozen=True, slots=True)
class Op:
    due: float  # seconds after the start of the schedule
    kind: str  # "match", "append" or "retire"
    item: int  # index into the workload's query or offer pool


def schedule(
    seed: int,
    rate: float,
    n_ops: int,
    pool_size: int,
    cycle: Sequence[str] = ("match",),
) -> list[Op]:
    """``n_ops`` Poisson arrivals at ``rate`` per second, drawn from ``seed``.

    Operation kinds follow ``cycle`` by position; match items are drawn
    uniformly from the query pool, append items walk the offer pool in
    order, and retire items name the append they undo (its ordinal).
    """
    rng = random.Random(seed)
    ops: list[Op] = []
    due = 0.0
    appends = 0
    retires = 0
    for position in range(n_ops):
        due += rng.expovariate(rate)
        kind = cycle[position % len(cycle)]
        if kind == "append":
            item = appends % pool_size
            appends += 1
        elif kind == "retire":
            if retires >= appends:
                kind, item = "match", rng.randrange(pool_size)
            else:
                item = retires
                retires += 1
        else:
            item = rng.randrange(pool_size)
        ops.append(Op(due, kind, item))
    return ops


@dataclass(slots=True)
class Record:
    op: Op
    due: float  # perf_counter time the operation was due
    done: float = math.nan  # perf_counter time it completed
    ok: bool = False
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class OpenLoopResult:
    records: list[Record]
    lags: list[float]  # seconds each op was issued after it was due
    backlog_end: int  # ops outstanding when the last one was issued
    window: tuple[float, float]  # first due .. last done (perf_counter)

    def latencies(self, *kinds: str) -> list[float]:
        return [r.latency for r in self.records if r.ok and r.op.kind in kinds]

    @property
    def failed(self) -> int:
        return sum(not record.ok for record in self.records)


async def drive(
    ops: Sequence[Op],
    issue: Callable[[Op, Record], Awaitable[None]],
    *,
    lead: float = 0.01,
) -> OpenLoopResult:
    """Issue every op at its due time; ``issue`` fills in its record.

    Times are ``time.perf_counter`` readings, the clock the span recorder
    uses, so latencies and spans can be compared directly.
    """
    loop = asyncio.get_running_loop()
    clock = time.perf_counter
    start = clock() + lead
    records: list[Record] = []
    lags: list[float] = []
    tasks: list[asyncio.Task] = []

    async def run(record: Record) -> None:
        try:
            await issue(record.op, record)
        except Exception as error:  # noqa: BLE001 — counted as a failed op
            record.ok = False
            record.error = f"{type(error).__name__}: {error}"
        record.done = clock()

    for op in ops:
        due = start + op.due
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(max(0.0, clock() - due))
        record = Record(op, due)
        records.append(record)
        tasks.append(loop.create_task(run(record)))
    backlog = sum(not task.done() for task in tasks)
    await asyncio.gather(*tasks)
    window = (start, max(record.done for record in records))
    return OpenLoopResult(records, lags, backlog, window)


@dataclass(frozen=True)
class Probe:
    rate: float
    passed: bool
    tail_ms: float
    percentile: float
    failed: int
    backlog_end: int


def find_max_rate(
    probe: Callable[[float, int], OpenLoopResult],
    *,
    start: float,
    limit_ms: float,
    cap: float,
    precision: float = 1.05,
    max_probes: int = 16,
) -> tuple[float, list[Probe]]:
    """Highest rate whose match tail meets ``limit_ms`` without a backlog.

    ``probe(rate, index)`` runs one open-loop phase at ``rate``.  The
    search doubles from ``start`` until a probe fails (or halves until one
    passes), then bisects geometrically until the passing and failing
    rates are within ``precision`` of each other.  A probe passes when no
    operation failed, the match tail (up to percentile ``cap``) is within
    the limit, and the ops still outstanding at the last send fit in one
    limit's worth of arrivals.  A rate is judged failed only when two
    probes at it fail, so a single stall of the host does not end the
    search early.
    """
    probes: list[Probe] = []

    def passes(rate: float) -> bool:
        result = probe(rate, len(probes))
        latencies = result.latencies("match")
        measured = tail(latencies, cap) if latencies else None
        tail_ms = measured.value * 1e3 if measured else math.inf
        ok = (
            result.failed == 0
            and tail_ms <= limit_ms
            and result.backlog_end <= max(1.0, rate * limit_ms / 1e3)
        )
        probes.append(
            Probe(
                rate,
                ok,
                tail_ms,
                measured.percentile if measured else math.nan,
                result.failed,
                result.backlog_end,
            )
        )
        return ok

    def meets(rate: float) -> bool:
        return passes(rate) or passes(rate)

    lo = hi = None
    rate = start
    while (lo is None or hi is None) and len(probes) < max_probes:
        if meets(rate):
            lo = rate
            rate *= 2.0
        else:
            hi = rate
            rate /= 2.0
    if lo is None:
        return 0.0, probes
    while hi is not None and hi / lo > precision and len(probes) < max_probes:
        mid = math.sqrt(lo * hi)
        if meets(mid):
            lo = mid
        else:
            hi = mid
    return lo, probes
