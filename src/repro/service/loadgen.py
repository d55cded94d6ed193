"""Closed-loop load generator — N client threads driving the service.

Takes any generated :class:`~repro.workloads.base.Workload` (YCSB-C, the
GDPRBench mixes, the erasure study) and replays it *concurrently*: the
operation list is split round-robin across ``clients`` threads, each of
which runs closed-loop — issue a request, wait for the response, record
wall-clock latency, issue the next.  Admission rejections (429) back off
and retry, so backpressure shows up as latency and retry counts rather
than lost operations; this is the canonical closed-loop response to a
bounded queue.

Latency is **wall-clock** (``time.perf_counter``), not simulated — the
simulated :class:`~repro.sim.clock.SimClock` is charged from many racing
threads and measures engine work, while the service's latency claim is
about the real request path (queueing + locking + execution).

Cross-thread hazards are part of the point: a READ may race the DELETE of
its key on another client (counted as a miss — the grounded-erase outcome
§3.1 requires), and every DELETE's ``verified_clean`` bit is recorded
while rebalance steps and read repairs run on the maintenance thread.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

from repro.service.api import (
    CollectRequest,
    EraseRequest,
    ReadRequest,
    Request,
    Status,
    UpdateRequest,
)
from repro.service.server import ComplianceService
from repro.workloads.base import OpKind, Operation, Workload
from repro.workloads.driver import unit_key

#: Most passes over its slice's reads a client replays while a background
#: rebalance is unfinished.  A healthy rebalance in the service smoke needs
#: at most about seven; the bound turns a stuck one into a reported failure
#: rather than a load that never ends.
MAX_READ_REPLAYS = 1000


@dataclass(frozen=True)
class LoadgenReport:
    """What N concurrent clients did, and how fast."""

    workload: str
    clients: int
    ops: int
    reads: int
    writes: int
    erases: int
    metadata_ops: int
    read_misses: int
    rejected: int
    retries: int
    errors: int
    erases_verified_clean: bool
    wall_seconds: float
    p50_ms: float
    p99_ms: float
    mean_ms: float
    ops_per_s: float


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1)))
    )
    return sorted_values[index]


def _build_request(
    op: Operation,
    key_fn: Callable[[int], str],
    consistency: str,
    subject_fn: Callable[[int], str],
) -> Optional[Request]:
    if op.kind is OpKind.CREATE:
        return CollectRequest(
            key=key_fn(op.key),
            value=op.payload or (op.key, "payload"),
            subject=subject_fn(op.key),
        )
    if op.kind is OpKind.READ:
        return ReadRequest(key=key_fn(op.key), consistency=consistency)
    if op.kind is OpKind.UPDATE:
        return UpdateRequest(key=key_fn(op.key), value=op.payload or (op.key, "rw"))
    if op.kind is OpKind.DELETE:
        return EraseRequest(key=key_fn(op.key))
    return None  # metadata traffic has no service counterpart


def run_loadgen(
    service: ComplianceService,
    workload: Workload,
    clients: int = 8,
    consistency: str = "one",
    key_fn: Callable[[int], str] = unit_key,
    subject_fn: Callable[[int], str] = lambda k: f"subject-{k % 97}",
    max_retries: int = 50,
    backoff_seconds: float = 0.001,
) -> LoadgenReport:
    """Replay ``workload`` against ``service`` from ``clients`` threads.

    Returns once every client has driven its slice to completion.  While
    the service still has an unfinished background rebalance, a client
    that has finished its slice keeps replaying the slice's reads, in
    order — so the rebalance is judged by whether it completes *under
    load*, not by whether it beats a fixed amount of traffic — for at most
    :data:`MAX_READ_REPLAYS` passes, after which the client stops and a
    stuck rebalance shows as ``service.rebalance_done`` being false.  A
    client whose slice holds no reads stops at the end of its slice.  A 429
    sleeps ``backoff_seconds`` (doubling, capped at 50 ms) and retries up
    to ``max_retries`` times; a request still rejected after that counts
    in ``rejected`` and is dropped — the loadgen never blocks forever on
    a saturated service.
    """
    if clients < 1:
        raise ValueError("clients must be >= 1")
    slices = [list(workload.operations[i::clients]) for i in range(clients)]

    class _ClientTally:
        __slots__ = (
            "reads", "writes", "erases", "metadata", "misses",
            "rejected", "retries", "errors", "clean", "latencies",
        )

        def __init__(self) -> None:
            self.reads = self.writes = self.erases = 0
            self.metadata = self.misses = 0
            self.rejected = self.retries = self.errors = 0
            self.clean = True
            self.latencies: List[float] = []

    tallies = [_ClientTally() for _ in range(clients)]

    def _ops(ops: List[Operation]) -> Iterator[Operation]:
        yield from ops
        reads = [op for op in ops if op.kind is OpKind.READ]
        for _ in range(MAX_READ_REPLAYS):
            for op in reads:
                if service.rebalance_done:
                    return
                yield op

    def _client(ops: List[Operation], tally: _ClientTally) -> None:
        for op in _ops(ops):
            request = _build_request(op, key_fn, consistency, subject_fn)
            if request is None:
                tally.metadata += 1
                continue
            start = time.perf_counter()
            response = service.call(request)
            delay = backoff_seconds
            attempts = 0
            while response.rejected and attempts < max_retries:
                time.sleep(delay)
                delay = min(delay * 2, 0.05)
                attempts += 1
                tally.retries += 1
                response = service.call(request)
            tally.latencies.append((time.perf_counter() - start) * 1_000)
            if response.rejected:
                tally.rejected += 1
                continue
            if op.kind is OpKind.READ:
                tally.reads += 1
                if response.status is Status.NOT_FOUND:
                    tally.misses += 1
                elif not response.ok:
                    tally.errors += 1
            elif op.kind is OpKind.DELETE:
                tally.erases += 1
                if not response.ok:
                    tally.errors += 1
                elif response.verified_clean is False:
                    tally.clean = False
            else:
                tally.writes += 1
                if response.status is Status.NOT_FOUND:
                    # UPDATE of a key another client just erased — legal
                    # interleaving, not an error.
                    tally.misses += 1
                elif not response.ok:
                    tally.errors += 1

    threads = [
        threading.Thread(
            target=_client,
            args=(slices[i], tallies[i]),
            name=f"loadgen-client-{i}",
        )
        for i in range(clients)
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start

    latencies = sorted(
        latency for tally in tallies for latency in tally.latencies
    )
    total_ops = len(latencies)
    return LoadgenReport(
        workload=workload.name,
        clients=clients,
        ops=total_ops,
        reads=sum(t.reads for t in tallies),
        writes=sum(t.writes for t in tallies),
        erases=sum(t.erases for t in tallies),
        metadata_ops=sum(t.metadata for t in tallies),
        read_misses=sum(t.misses for t in tallies),
        rejected=sum(t.rejected for t in tallies),
        retries=sum(t.retries for t in tallies),
        errors=sum(t.errors for t in tallies),
        erases_verified_clean=all(t.clean for t in tallies),
        wall_seconds=wall,
        p50_ms=_percentile(latencies, 0.50),
        p99_ms=_percentile(latencies, 0.99),
        mean_ms=(sum(latencies) / total_ops) if total_ops else 0.0,
        ops_per_s=(total_ops / wall) if wall > 0 else 0.0,
    )
