"""Repo benchmark: one command, four workloads, plain or traced.

Run from the repository root::

    python3 perfbench/run.py --workload erase-mix --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics listed in ``BENCHMARK.json``,
its timings scaled to a reference machine speed (see
:class:`ReferenceLoops`) and also printed as measured;
``--trace 1`` runs one untraced and one traced round and prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Any failed correctness
check prints ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "_traces"

WORKLOADS = ("erase-mix", "zipf-read", "paper-wcus", "resize-churn")

#: A plain run repeats rounds until ``--seconds`` have passed, at least
#: this many times.
MIN_ROUNDS = 4

#: Passes of the reference loops timed before each round and after the last.
REFERENCE_PASSES = 5
#: Seconds a typical pass of :meth:`ReferenceLoops.one_pass` took on the
#: 2-vCPU 2.1 GHz Xeon VM the benchmark was sized on.  Timed end-to-end
#: metrics are reported at the machine speed this stands for.
REFERENCE_S = 0.006


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


class _Tally:
    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def add(self, by: int) -> None:
        self.n += by


class ReferenceLoops:
    """Two fixed pure-Python loops, timed between rounds, that never call
    the program, so no change to the program can move them.

    On a shared host the machine's speed drifts with the neighbours'
    load, by up to 1.8x within minutes.  One loop keeps its data in the
    CPU caches (tuple keys, dict reads and writes, str formatting, a
    method call); the other looks up a 100,000-entry table of ints in
    random order, so it waits on memory the way the program's scans do.
    Neither allocates an object the garbage collector tracks, so no
    collection runs inside them and the program's heap cannot slow them;
    and ints are never tracked, so the table does not slow the program's
    collections either.  How much slower than ``REFERENCE_S`` the
    geometric mean of the two ran is the run's ``slowdown``.
    """

    def __init__(self) -> None:
        self._keys = [("k", i) for i in range(1_024)]
        keys = list(range(1_000, 101_000))
        self._table = {key: key for key in keys}
        random.Random(0).shuffle(keys)
        self._order = keys[:60_000]
        self.samples: List[float] = []

    def _cached(self) -> float:
        start = time.perf_counter()
        table: Dict[Any, int] = {}
        keys, tally = self._keys, _Tally()
        for i in range(20_000):
            key = keys[i & 1023]
            table[key] = table.get(key, 0) + i
            tally.add(len(f"r{i}"))
        return time.perf_counter() - start

    def _scattered(self) -> float:
        start = time.perf_counter()
        table, total = self._table, 0
        for key in self._order:
            total += table[key]
        return time.perf_counter() - start

    def one_pass(self) -> float:
        return math.sqrt(self._cached() * self._scattered())

    def sample(self) -> None:
        self.samples.extend(self.one_pass() for _ in range(REFERENCE_PASSES))

    def slowdown(self) -> float:
        return statistics.median(self.samples) / REFERENCE_S


def run_rounds(
    workload: str, seed: int, seconds: float, traced: Optional[Sequence[bool]],
    reference: Optional[ReferenceLoops] = None,
) -> List[Any]:
    """Run one round per entry of ``traced``; with ``None``, the untraced
    rounds of a plain run: at least ``MIN_ROUNDS``, more until ``seconds``
    have passed.  Every round runs the same fixed operation list.  The
    ``reference`` loops, if given, are timed before each round and after
    the last, outside every timed region."""
    import workloads as w

    if workload in w.SERVICE_SPECS:
        one = functools.partial(w.service_round, workload)
    else:
        one = w.paper_round if workload == "paper-wcus" else w.churn_round
    if traced is not None:
        return [one(seed, trace) for trace in traced]
    rounds: List[Any] = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        if reference is not None:
            reference.sample()
        rounds.append(one(seed, False))
    if reference is not None:
        reference.sample()
    return rounds


def ops_per_s(rounds: List[Any]) -> float:
    """Median over rounds, so one round hit by a slow spell of a shared
    machine does not move the figure."""
    return statistics.median(r.ops / r.window_s for r in rounds)


def latencies(rounds: List[Any], kind: str) -> List[float]:
    """Latencies (ms) of one operation kind over every round, sorted."""
    return sorted(x for r in rounds for x in r.latencies.get(kind, []))


def end_to_end(rounds: List[Any], slowdown: float = 1.0) -> Dict[str, float]:
    """The gated metrics; timings are divided by ``slowdown``, how much
    slower than at ``REFERENCE_S`` the machine ran (1.0: as measured)."""
    from workloads import percentile

    # Read before the pooled latency lists below are built.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": statistics.median(r.setup_s for r in rounds) / slowdown,
        "ops_per_s": ops_per_s(rounds) * slowdown,
        "read_p50_ms": percentile(latencies(rounds, "read"), 0.50) / slowdown,
        "space_amp": statistics.median(r.space_amp for r in rounds),
        "peak_rss_mb": peak_rss_mb,
    }


def also_measured(rounds: List[Any]) -> Dict[str, Any]:
    """Figures printed for the reader but not gated: tail latencies and
    the ones that not every workload has."""
    from workloads import percentile

    out: Dict[str, Any] = {}
    for kind in ("read", "write", "erase", "meta"):
        samples = latencies(rounds, kind)
        if samples:
            if kind != "read":  # read_p50_ms is gated
                out[f"{kind}_p50_ms"] = (percentile(samples, 0.50), "ms")
            out[f"{kind}_p99_ms"] = (percentile(samples, 0.99), "ms")
            out[f"{kind}_samples"] = (len(samples), "count")
    resize = [r.resize_s for r in rounds if r.resize_s is not None]
    if resize:
        out["resize_s"] = (statistics.median(resize), "s")
    if rounds[0].sim_s is not None:
        out["sim_s"] = (rounds[0].sim_s, "s")
    attempted = sum(r.attempted for r in rounds)
    out["failed_frac"] = (sum(r.failed for r in rounds) / attempted, "ratio")
    out["rounds"] = (len(rounds), "count")
    return out


def per_layer(untraced: Any, traced: Any) -> Dict[str, float]:
    import spans

    rec = traced.recorder
    calls = rec.calls()
    busy = rec.busy_s()
    own = rec.self_s()
    names = list(spans.LAYERS) + [f"backends.{verb}" for verb in spans.BACKEND_VERBS]
    out: Dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.busy_s"] = busy.get(name, 0.0)
    for layer in sorted({name.split(".")[0] for name in names}):
        out[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer)
    erase_busy = busy.get("distributed.erase", 0.0)
    out["backends.stats.share_of_erase"] = (
        rec.stats_in_erase_s() / erase_busy if erase_busy else 0.0
    )
    defaults = (
        "service.call_overhead_p50_ms", "service.call_overhead_p99_ms",
        "service.maint_busy_frac", "service.erase_batch_mean", "service.rejected",
        "service.retries", "distributed.repairs", "distributed.keys_moved",
        "distributed.keys_moved_per_s", "distributed.replication_backlog",
        "lsm.block_cache.hit_ratio", "lsm.block_cache.evictions",
        "lsm.bloom_negatives_per_get", "lsm.runs", "lsm.bytes_compacted",
        "lsm.write_amp", "storage.wal_bytes",
        "sim.storage_s", "sim.vacuum_s", "sim.policy_s", "sim.logging_s",
        "sim.crypto_s", "sim.sanitize_s",
    )
    out.update(dict.fromkeys(defaults, 0.0))
    out.update(traced.layers)
    out["sim.total_s"] = traced.sim_s or 0.0
    out["trace.overhead"] = ops_per_s([traced]) / ops_per_s([untraced])
    out["trace.spans"] = rec.span_count()
    return out


def trace_errors(traced: Any) -> List[str]:
    rec = traced.recorder
    errors = []
    if rec.negative_self():
        errors.append(f"{rec.negative_self()} spans with negative self time")
    if rec.open_spans():
        errors.append(f"{rec.open_spans()} spans never closed")
    errors.extend(rec.nesting_errors()[:5])
    return errors


def print_table(title: str, rows: Dict[str, Any]) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<42} {shown:>14} {unit}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()

    if args.trace:
        untraced, traced = run_rounds(args.workload, args.seed, args.seconds, [False, True])
        rounds = [untraced, traced]
        values = per_layer(untraced, traced)
        declared = spec["per_layer"]
        errors = trace_errors(traced)
        TRACE_DIR.mkdir(exist_ok=True)
        traced.recorder.dump(str(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"))
    else:
        reference = ReferenceLoops()
        rounds = run_rounds(args.workload, args.seed, args.seconds, None, reference)
        slowdown = reference.slowdown()
        values = end_to_end(rounds, slowdown)
        declared = spec["end_to_end"]
        errors = []
        extra = also_measured(rounds)
        as_measured = end_to_end(rounds)
        units = {m["name"]: m["unit"] for m in declared}
        for name in ("setup_s", "ops_per_s", "read_p50_ms"):
            extra[f"{name}.as_measured"] = (as_measured[name], units[name])
        extra["reference_pass_s"] = (statistics.median(reference.samples), "s")
        extra["slowdown"] = (slowdown, "ratio")
        print_table(f"{args.workload} seed={args.seed}: also measured (not gated)", extra)
        for i, r in enumerate(rounds):
            figures = {k: v for k, v in end_to_end([r]).items() if k != "peak_rss_mb"}
            print(f"round {i} (as measured): " + json.dumps(figures))
    if args.workload == "paper-wcus":
        import workloads

        errors.extend(workloads.paper_equivalence(args.seed))
    for r in rounds:
        errors.extend(r.errors)
    sims = {r.sim_s for r in rounds}
    if len(sims) > 1:
        errors.append(f"sim_s differs between rounds of one seed: {sorted(sims)}")

    missing = [m["name"] for m in declared if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in declared})
    if missing or extra:
        errors.append(f"metric set differs from BENCHMARK.json: missing {missing}, "
                      f"undeclared {extra}")
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared
    }
    print_table(f"{args.workload} seed={args.seed} trace={args.trace}",
                {k: (v["value"], v["unit"]) for k, v in metrics.items()})
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
