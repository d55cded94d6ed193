"""Tiny-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks, in a few seconds, that the span recorder nests and closes spans
and computes self time, and that every workload — plain and traced, at a
tiny size — passes its own correctness checks and emits exactly the
metrics ``BENCHMARK.json`` declares, each with its declared unit.  Exits
non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import threading
import time
from dataclasses import replace

import run


def check_spans() -> None:
    from spans import SpanRecorder

    rec = SpanRecorder()

    def leaf() -> None:
        frame = rec.enter("codec.decode")
        time.sleep(0.002)
        rec.exit(frame)

    def request() -> None:
        outer = rec.enter("distributed.read", "k1")
        time.sleep(0.001)
        for _ in range(2):
            mid = rec.enter("backends.read")
            leaf()
            rec.exit(mid)
        rec.exit(outer, "k1")

    threads = [threading.Thread(target=request, name=f"t{i}") for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive(), "span test thread hung"

    assert rec.open_spans() == 0, "spans left open"
    assert rec.negative_self() == 0, "negative self time"
    assert rec.nesting_errors() == [], rec.nesting_errors()
    assert rec.calls() == {"distributed.read": 2, "backends.read": 4, "codec.decode": 4}
    spans = rec.spans()
    assert len(spans) == 10
    for rid, sid, parent, name, thread, start, end, own in spans:
        children = [s for s in spans if s[2] == sid]
        assert own == (end - start) - sum(c[6] - c[5] for c in children), name
        assert all(c[0] == rid for c in children), "request id not shared"
    busy, own = rec.busy_s(), rec.self_s()
    assert busy["codec.decode"] >= 4 * 0.002
    assert abs(sum(own.values()) - busy["distributed.read"]) < 1e-6


def shrink() -> None:
    """Tiny sizes: every path runs, nothing is measured seriously."""
    import workloads as w

    w.SERVICE_SPECS["erase-mix"] = replace(
        w.SERVICE_SPECS["erase-mix"], records=200, ops=400, warmup=20)
    w.SERVICE_SPECS["zipf-read"] = replace(
        w.SERVICE_SPECS["zipf-read"], records=300, ops=3_000, warmup=100)
    w.PAPER_RECORDS, w.PAPER_TXNS = 1_000, 400
    w.PAPER_CHECK_RECORDS, w.PAPER_CHECK_TXNS = 300, 100
    w.CHURN_RECORDS, w.CHURN_OPS = 400, 800


def check_workload(name: str, trace: int, spec: dict) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(["--workload", name, "--seed", "7", "--seconds", "0.5",
                           "--trace", str(trace)])
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert status == 0 and result["correct"], "\n".join(lines[-8:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]
        if not trace:
            assert got["value"] > 0, f"{name}: {metric['name']} is {got['value']}"


def main() -> int:
    check_spans()
    print("spans: nest, close, self time and request ids ok")
    sys.path.insert(0, str(run.SRC))
    shrink()
    spec = run.load_spec()
    for name in run.WORKLOADS:
        for trace in (0, 1):
            check_workload(name, trace, spec)
            print(f"{name} trace={trace}: checks pass, every metric emitted with its unit")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
