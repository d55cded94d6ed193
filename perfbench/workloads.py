"""The four benchmark workloads.

Each workload runs in *rounds*.  A round builds the system from nothing
(the timed set-up), runs a closed loop over operations generated from the
seed, then — outside every timed region — reads the counters, closes the
system and checks its outputs.  Only the generated inputs reach the
program; every expected output is derived by the harness on its own.

Every round runs a fixed operation list, so a faster program finishes a
round sooner but never runs different inputs or reaches a different
store state; a run repeats rounds until ``--seconds`` have passed.

* ``erase-mix`` and ``zipf-read`` go through :class:`ComplianceService`
  from client threads, after an untimed warm-up that lets caches fill and
  lazy replica catch-up finish.
* ``paper-wcus`` and ``resize-churn`` are single-threaded, so their
  simulated time (``sim_s``) is a pure function of the seed and must read
  the same in every round.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import random
import threading
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro import codec
from repro.analysis.invariants import World, check_invariants, store_invariants
from repro.config import BackendConfig, ServiceConfig, StoreConfig
from repro.distributed.store import ReplicatedStore
from repro.service import ComplianceService
from repro.service.api import EraseRequest, ReadRequest, Status
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.systems import make_profile
from repro.systems.profiles import ProfileConfig
from repro.workloads import customer_workload, ycsb_c_workload
from repro.workloads.base import KeyPool, Operation, OpKind, Workload, build_mixed_workload
from repro.workloads.driver import load_store, unit_key

from spans import MAINTENANCE_THREAD, SpanRecorder, instrument

#: Ledger categories of :meth:`CostModel.breakdown_seconds`.
SIM_CATEGORIES = ("storage", "vacuum", "policy", "logging", "crypto", "sanitize")
PROFILES = ("P_Base", "P_GBench", "P_SYS")


@dataclass
class Round:
    """What one round measured, and what its checks found."""

    setup_s: float = 0.0
    window_s: float = 0.0
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    #: Milliseconds per operation kind, in arrays: a run keeps every
    #: round's samples, and float objects would make ``peak_rss_mb`` grow
    #: with the number of rounds, that is, with the program's speed.
    latencies: Dict[str, array] = field(default_factory=dict)
    space_amp: float = 0.0
    sim_s: Optional[float] = None
    resize_s: Optional[float] = None
    errors: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    recorder: Optional[SpanRecorder] = None

    def record(self, kind: str, seconds: float) -> None:
        self.latencies.setdefault(kind, array("d")).append(seconds * 1e3)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def loaded_value(seed: int, i: int) -> Any:
    """The record the harness loads as key ``i``; its length varies with
    the seed so stored bytes differ from seed to seed."""
    width = 16 + (i * 2654435761 + seed * 40503) % 33
    return (i, f"s{seed}-r{i}-".ljust(width, "x"))


def lsm_store(shards: int, compaction: Optional[str] = None) -> ReplicatedStore:
    """The LSM topology the service bench uses: 2 replicas per shard and a
    32-entry memtable, so flushes and compaction run during the loop."""
    backend = BackendConfig(backend="lsm", memtable_capacity=32, compaction=compaction)
    return ReplicatedStore.from_config(
        CostModel(SimClock(), CostBook()),
        StoreConfig(backend=backend, shards=shards, n_replicas=2),
    )


# --------------------------------------------------------------------- probes
def lsm_counters(store: ReplicatedStore) -> Counter:
    """Engine and block-cache counters summed over every node (no scans)."""
    out: Counter = Counter()
    caches = {}
    for node in store.nodes():
        engine = node.engine
        out["bloom_negatives"] += engine.bloom_negatives
        out["bytes_flushed"] += engine.bytes_flushed
        out["bytes_compacted"] += engine.bytes_compacted
        out["runs"] += engine.run_count
        caches[id(engine.block_cache)] = engine.block_cache
    for cache in caches.values():
        out["cache_hits"] += cache.hits
        out["cache_misses"] += cache.misses
        out["cache_evictions"] += cache.evictions
    return out


def replication_backlog(store: ReplicatedStore) -> int:
    return sum(
        store.replication_backlog(replica, shard=shard.index)
        for shard in store.shards()
        for replica in range(len(shard.replicas))
    )


def store_space_amp(store: ReplicatedStore, live: Dict[Any, Any]) -> float:
    """Bytes held by every node (runs, memtable, Bloom filters, WAL) and by
    the replication logs' unscrubbed values, per byte of live user data."""
    held = 0
    for node in store.nodes():
        backend = node.backend
        held += backend.data_bytes() + backend.index_bytes() + backend.log_bytes()
    for shard in store.shards():
        # The replication log has no public size accessor; it is a copy
        # site all the same, so its retained values count.
        held += sum(
            codec.encoded_size(entry.value)
            for entry in shard._log
            if entry.value is not None
        )
    user = sum(codec.encoded_size(value) for value in live.values())
    return held / user


def lsm_layers(before: Counter, after: Counter, rec: SpanRecorder) -> Dict[str, float]:
    delta = after - before
    gets = rec.calls().get("lsm.get", 0)
    lookups = delta["cache_hits"] + delta["cache_misses"]
    flushed = delta["bytes_flushed"]
    return {
        "lsm.block_cache.hit_ratio": delta["cache_hits"] / lookups if lookups else 0.0,
        "lsm.block_cache.evictions": delta["cache_evictions"],
        "lsm.bloom_negatives_per_get": delta["bloom_negatives"] / gets if gets else 0.0,
        "lsm.runs": after["runs"],
        "lsm.bytes_compacted": delta["bytes_compacted"],
        "lsm.write_amp": (flushed + delta["bytes_compacted"]) / flushed if flushed else 0.0,
    }


# ------------------------------------------------------- service workloads
@dataclass(frozen=True)
class ServiceSpec:
    records: int
    #: Untimed warm-up operations, then timed ones, per round (all clients).
    warmup: int
    ops: int
    clients: int
    consistency: str
    make_ops: Callable[["ServiceSpec", int], Workload]


def erasure_mix(spec: ServiceSpec, seed: int) -> Workload:
    """The Figure-4(a) mix with exactly 20% erases in each client's share
    of the warm-up and of the timed operations.

    An erase costs about a hundred reads, so drawing each operation's kind
    independently, as :func:`erasure_study_workload` does, lets the erase
    count of 500 operations differ by a third from seed to seed, and the
    round's time with it.  Keys come from a :class:`KeyPool`, so no
    operation touches an erased key.  Client ``c`` runs
    ``operations[c::clients]``.
    """
    rng = random.Random(seed)
    pool = KeyPool(spec.records, rng)
    operations: List[Operation] = []
    for phase in (spec.warmup, spec.ops):
        share = phase // spec.clients
        erases = share // 5
        kinds = []
        for _ in range(spec.clients):
            mine = [OpKind.DELETE] * erases + [OpKind.READ] * (share - erases)
            rng.shuffle(mine)
            kinds.append(mine)
        for step in zip(*kinds):
            for kind in step:
                key = pool.remove_random() if kind is OpKind.DELETE else pool.sample()
                operations.append(Operation(kind, key))
    return Workload("erase-mix", spec.records, operations,
                    "Figure-4(a) erasure study: 20% erases, 80% reads")


def zipf_reads(spec: ServiceSpec, seed: int) -> Workload:
    return ycsb_c_workload(spec.records, spec.warmup + spec.ops, seed)


SERVICE_SPECS = {
    # Figure-4(a) erasure study: 20% grounded erases, 80% reads.  500
    # timed ops take about 2.5 s on a 2-vCPU Xeon VM.
    "erase-mix": ServiceSpec(2_000, 100, 500, 2, "one", erasure_mix),
    # YCSB-C: zipfian (theta 0.99) reads, nothing else.  Its warm-up pays
    # the lazy replica catch-up; 20,000 timed ops take about 3 s.
    "zipf-read": ServiceSpec(6_000, 1_000, 20_000, 1, "quorum", zipf_reads),
}

SERVICE_CONFIG = ServiceConfig(
    workers_per_shard=2, queue_depth=16, erase_batch=8, invariant_check_every=0
)


class _Client:
    """One closed-loop client: next request only after the last reply."""

    def __init__(self) -> None:
        self.latencies: Dict[str, List[float]] = {"read": [], "erase": []}
        self.attempted = 0
        self.failed = 0
        self.retries = 0
        self.rejected = 0
        self.wrong: List[str] = []
        self.erased: List[str] = []
        self.ended = 0.0


@functools.lru_cache(maxsize=None)
def inputs(name: str, seed: int) -> Any:
    """The generated operation list of a workload; made once per run, so
    rounds replay the same inputs and generating them is never timed."""
    if name in SERVICE_SPECS:
        spec = SERVICE_SPECS[name]
        return spec.make_ops(spec, seed)
    if name == "paper-wcus":
        return customer_workload(PAPER_RECORDS, PAPER_TXNS, seed=seed)
    return build_mixed_workload(
        name, CHURN_RECORDS, CHURN_OPS,
        [(OpKind.CREATE, 0.4), (OpKind.UPDATE, 0.3), (OpKind.READ, 0.3)], seed,
    )


def service_round(name: str, seed: int, trace: bool) -> Round:
    spec = SERVICE_SPECS[name]
    workload = inputs(name, seed)
    values = {unit_key(i): loaded_value(seed, i) for i in range(spec.records)}
    rnd = Round()

    gc.collect()
    start = time.perf_counter()
    store = lsm_store(shards=2)
    keys = load_store(store, workload, value_fn=lambda i: loaded_value(seed, i))
    service = ComplianceService(
        store, config=SERVICE_CONFIG, invariants=store_invariants(), initial_live=keys
    )
    rnd.setup_s = time.perf_counter() - start

    slices = [workload.operations[i::spec.clients] for i in range(spec.clients)]
    warm = spec.warmup // spec.clients
    clients = [_Client() for _ in range(spec.clients)]
    erase_started: set = set()
    recorder = SpanRecorder() if trace else None
    window: Dict[str, Any] = {}
    tracing = contextlib.ExitStack()

    def open_window() -> None:
        # Runs once, while every client waits at the barrier.
        window["counters"] = lsm_counters(store)
        window["stats"] = service.stats()
        if recorder is not None:
            tracing.enter_context(instrument(recorder))
        window["start"] = time.perf_counter()

    barrier = threading.Barrier(spec.clients, action=open_window)

    def one(op: Any, client: _Client, timed: bool) -> None:
        key = unit_key(op.key)
        if op.kind is OpKind.DELETE:
            kind, request = "erase", EraseRequest(key)
            erase_started.add(key)
        else:
            kind, request = "read", ReadRequest(key, consistency=spec.consistency)
        client.attempted += 1
        began = time.perf_counter()
        response = service.call(request)
        delay = 0.001
        retries = 0
        while response.rejected and retries < 1_000:
            retries += 1
            time.sleep(delay)
            delay = min(delay * 2, 0.05)
            response = service.call(request)
        if timed:
            client.latencies[kind].append((time.perf_counter() - began) * 1e3)
            client.retries += retries
            client.rejected += response.rejected
        if kind == "erase":
            if not response.ok:
                client.failed += 1
            elif response.verified_clean is not True:
                client.wrong.append(f"erase of {key} not verified clean")
            else:
                client.erased.append(key)
        elif response.ok:
            if response.value != values[key]:
                client.wrong.append(f"read of {key} returned {response.value!r}")
        elif response.status is Status.NOT_FOUND:
            if key not in erase_started:
                client.wrong.append(f"read of never-erased {key} found nothing")
        else:
            client.failed += 1

    def run_client(ops: List[Any], client: _Client) -> None:
        try:
            for op in ops[:warm]:
                one(op, client, timed=False)
            barrier.wait()
            for op in ops[warm:]:
                one(op, client, timed=True)
        except Exception as exc:  # report it; never leave the others at the barrier
            barrier.abort()
            client.wrong.append(f"client stopped: {type(exc).__name__}: {exc}")
        client.ended = time.perf_counter()

    threads = [
        threading.Thread(target=run_client, args=(ops, c), name=f"bench-client-{i}")
        for i, (ops, c) in enumerate(zip(slices, clients))
    ]
    with tracing:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    rnd.window_s = max(c.ended for c in clients) - window.get("start", start)

    # ---- outside the timed window: counters, close, checks
    after = lsm_counters(store)
    stats = service.stats()
    backlog = replication_backlog(store)
    service.close()
    final = service.stats()
    for c in clients:
        rnd.attempted += c.attempted
        rnd.failed += c.failed
        for kind, samples in c.latencies.items():
            rnd.latencies.setdefault(kind, array("d")).extend(samples)
        rnd.errors.extend(c.wrong[:5])
    rnd.ops = sum(len(v) for v in rnd.latencies.values())
    rnd.check(not service.violations and final.invariant_violations == 0,
              f"invariant violations at close: {service.violations[:3]}")
    rnd.check(final.invariant_checks > 0, "invariant registry never ran")
    erased = [key for c in clients for key in c.erased]
    lingering = [key for key in erased if store.copies_of(key)]
    rnd.check(not lingering, f"{len(lingering)} erased keys still have copies")
    live = {k: v for k, v in values.items() if k not in erase_started}
    sample = random.Random(seed).sample(sorted(live), min(500, len(live)))
    bad = [k for k in sample if store.read(k, use_cache=False) != live[k]]
    rnd.check(not bad, f"post-run reads of never-erased keys wrong: {bad[:3]}")
    rnd.space_amp = store_space_amp(store, live)

    if recorder is not None:
        rnd.recorder = recorder
        overhead = sorted(recorder.call_overhead_ns)
        before = window["stats"]
        batches = stats.erase_batches - before.erase_batches
        rnd.layers.update(lsm_layers(window["counters"], after, recorder))
        rnd.layers.update({
            "service.call_overhead_p50_ms": percentile(overhead, 0.50) / 1e6,
            "service.call_overhead_p99_ms": percentile(overhead, 0.99) / 1e6,
            "service.maint_busy_frac": recorder.root_s(MAINTENANCE_THREAD) / rnd.window_s,
            "service.erase_batch_mean": (
                (stats.erased_keys - before.erased_keys) / batches if batches else 0.0
            ),
            "service.rejected": sum(c.rejected for c in clients),
            "service.retries": sum(c.retries for c in clients),
            "distributed.repairs": stats.repairs - before.repairs,
            "distributed.replication_backlog": backlog,
        })
    return rnd


# --------------------------------------------------------------- paper-wcus
PAPER_RECORDS = 20_000
#: WCus deletes a fifth of its transactions: 12,000 give 2,270-2,510
#: deletes for every seed, so each seed runs the same maintenance (P_SYS
#: one VACUUM FULL at 2,000 deletes, P_Base two VACUUMs).  At 10,000 about
#: half the seeds crossed 2,000 and half did not.
PAPER_TXNS = 12_000
PAPER_CHECK_RECORDS = 2_000
PAPER_CHECK_TXNS = 1_000

_PAPER_KIND = {
    OpKind.READ: "read", OpKind.READ_META: "meta",
    OpKind.UPDATE: "write", OpKind.UPDATE_META: "meta",
    OpKind.DELETE: "erase",
}


def paper_profile(name: str, seed: int) -> Any:
    return make_profile(name, backend="psql", config=ProfileConfig(dataset_seed=seed))


def paper_equivalence(seed: int) -> List[str]:
    """The harness's ``load()`` + ``execute()`` loop must cost exactly what
    ``profile.run()`` costs on the same inputs (checked at a small size)."""
    errors = []
    workload = customer_workload(PAPER_CHECK_RECORDS, PAPER_CHECK_TXNS, seed=seed)
    for name in PROFILES:
        looped = paper_profile(name, seed)
        looped.load(workload.record_count)
        for op in workload.operations:
            looped.execute(op)
        result = paper_profile(name, seed).run(workload)
        ran = round((result.load_seconds + result.txn_seconds) * 1e6)
        if ran != looped.clock.now:
            errors.append(f"{name}: looped {looped.clock.now} us != run() {ran} us")
    return errors


def paper_round(seed: int, trace: bool) -> Round:
    workload = inputs("paper-wcus", seed)
    rnd = Round()
    recorder = SpanRecorder() if trace else None
    sim: Dict[str, float] = {}
    breakdown: Counter = Counter()
    held = personal = wal = 0
    for name in PROFILES:
        gc.collect()
        start = time.perf_counter()
        profile = paper_profile(name, seed)
        profile.load(workload.record_count)
        rnd.setup_s += time.perf_counter() - start
        with instrument(recorder) if recorder else contextlib.nullcontext():
            began = time.perf_counter()
            for op in workload.operations:
                t = time.perf_counter()
                profile.execute(op)
                rnd.record(_PAPER_KIND[op.kind], time.perf_counter() - t)
            rnd.window_s += time.perf_counter() - began
        sim[name] = profile.clock.now / 1e6
        breakdown.update(profile.cost.breakdown_seconds())
        space = profile.space.report()
        held += space.total_bytes
        personal += space.personal_bytes
        wal += profile.storage.log_bytes()
    rnd.ops = rnd.attempted = len(workload.operations) * len(PROFILES)
    rnd.sim_s = sum(sim.values())
    rnd.space_amp = held / personal
    rnd.check(sim["P_SYS"] > sim["P_GBench"] > sim["P_Base"],
              f"Figure-4(b) order P_SYS > P_GBench > P_Base broken: {sim}")
    if recorder is not None:
        rnd.recorder = recorder
        rnd.layers["storage.wal_bytes"] = wal
        for category in SIM_CATEGORIES:
            rnd.layers[f"sim.{category}_s"] = breakdown.get(category, 0.0)
    return rnd


# -------------------------------------------------------------- resize-churn
CHURN_RECORDS = 3_000
#: The resize is done after about a fifth of the operations, so a round's
#: time is not dominated by migration scans, whose speed swings most with
#: the neighbours' memory traffic on a shared machine.
CHURN_OPS = 12_000
CHURN_TICK = 40          # ops between maintenance ticks
CHURN_BUDGET = 32        # keys a rebalance step may move per tick
_CHURN_KIND = {OpKind.CREATE: "write", OpKind.UPDATE: "write", OpKind.READ: "read"}


def churn_round(seed: int, trace: bool) -> Round:
    workload = inputs("resize-churn", seed)
    rnd = Round()
    gc.collect()
    start = time.perf_counter()
    store = lsm_store(shards=3, compaction="leveled")
    keys = load_store(store, workload, value_fn=lambda i: loaded_value(seed, i))
    rnd.setup_s = time.perf_counter() - start

    expected = {key: loaded_value(seed, i) for i, key in enumerate(keys)}
    old_owner = {key: store.shard_of(key) for key in keys}
    recorder = SpanRecorder() if trace else None
    before = lsm_counters(store)
    with instrument(recorder) if recorder else contextlib.nullcontext():
        began = time.perf_counter()
        driver = store.begin_background_resize(4, batch_size=CHURN_BUDGET)
        planned = driver.rebalance.keys_pending
        world = World.observe(store, driver)
        world.live.update(keys)
        wrong: List[str] = []
        for index, op in enumerate(workload.operations):
            if index % CHURN_TICK == 0:
                if not driver.done:
                    driver.step(CHURN_BUDGET)
                    if driver.done:
                        rnd.resize_s = time.perf_counter() - began
                store.flush_repairs()
            key = unit_key(op.key)
            t = time.perf_counter()
            if op.kind is OpKind.READ:
                got = store.read(key, use_cache=False, consistency="quorum")
                rnd.record("read", time.perf_counter() - t)
                if got != expected[key]:
                    wrong.append(key)
                continue
            value = (op.key, f"s{seed}-op{index}")
            if op.kind is OpKind.CREATE:
                store.put(key, value)
            else:
                store.update(key, value)
            rnd.record("write", time.perf_counter() - t)
            expected[key] = value
            world.record_write(key)
        rnd.window_s = time.perf_counter() - began

    # ---- outside the timed window
    after = lsm_counters(store)
    backlog = replication_backlog(store)
    rnd.ops = rnd.attempted = len(workload.operations)
    rnd.sim_s = store._cost.clock.now / 1e6
    rnd.check(not wrong, f"{len(wrong)} quorum reads returned a stale value: {wrong[:3]}")
    rnd.check(driver.done, "resize 3->4 did not finish within the operation list")
    if driver.done:
        moved = sum(1 for key in keys if old_owner[key] != store.shard_of(key))
        rnd.check(planned == moved == driver.rebalance.keys_moved,
                  f"moved keys: planned {planned}, ring {moved}, "
                  f"moved {driver.rebalance.keys_moved}")
        rnd.check(0.15 <= moved / len(keys) <= 0.35,
                  f"3->4 resize moved {moved / len(keys):.3f} of keys, ring share is 1/4")
    violations = check_invariants(world, store_invariants())
    rnd.check(not violations, f"invariant violations: {[str(v) for v in violations[:3]]}")
    sample = random.Random(seed).sample(sorted(expected), 500)
    bad = [k for k in sample if store.read(k, use_cache=False) != expected[k]]
    rnd.check(not bad, f"post-run reads wrong: {bad[:3]}")
    rnd.space_amp = store_space_amp(store, expected)

    if recorder is not None:
        rnd.recorder = recorder
        moved_keys = driver.rebalance.keys_moved
        rnd.layers.update(lsm_layers(before, after, recorder))
        rnd.layers.update({
            "distributed.repairs": len(driver.repairs),
            "distributed.keys_moved": moved_keys,
            "distributed.keys_moved_per_s": moved_keys / rnd.resize_s if rnd.resize_s else 0.0,
            "distributed.replication_backlog": backlog,
        })
        for category, seconds in store._cost.breakdown_seconds().items():
            if category in SIM_CATEGORIES:
                rnd.layers[f"sim.{category}_s"] = seconds
    return rnd


# ------------------------------------------------------------------ helpers
def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, round(fraction * len(sorted_values)) - 1))
    return sorted_values[index]
