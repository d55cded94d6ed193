"""Span recorder for the traced benchmark run.

The recorder wraps the public entry points of each layer (see ``LAYERS``)
from outside the program: :func:`instrument` swaps each method or module
function for a wrapper that opens a span, calls the original and closes
the span.  Nothing under ``src/`` knows it is being traced, and the
untraced run never installs a wrapper.

A span is ``(request id, span id, parent span id, name, thread, start,
end, self)``.  Each thread keeps its own parent stack, so spans on one
thread nest strictly and a span's self time is its duration minus the sum
of its direct children's durations.  Spans of one request share the
request id of the root span that opened it.  A service request crosses
threads (the client waits in ``ComplianceService.call`` while a worker
runs the store call), so the client wrapper publishes its request id under
the request's key and the worker's root store span picks it up; the store
time linked that way is what ``service.call_overhead_*`` subtracts.

Per-name totals are exact; raw spans are kept in memory up to
``MAX_SPANS_PER_THREAD`` per thread and written out as JSON lines by
:meth:`SpanRecorder.dump`.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Traced entry points: span name -> ``(module, owner, attribute)`` triples.
#: ``owner`` is a class name inside the module, or ``None`` for a module
#: function (traced where callers resolve it through the module, e.g.
#: ``codec.encode(...)``).
LAYERS: Dict[str, List[Tuple[str, Optional[str], str]]] = {
    "service.call": [("repro.service.server", "ComplianceService", "call")],
    "profiles.execute": [
        ("repro.systems.profiles", "ComplianceProfile", "execute"),
    ],
    "distributed.read": [("repro.distributed.store", "ReplicatedStore", "read")],
    "distributed.write": [
        ("repro.distributed.store", "ReplicatedStore", "put"),
        ("repro.distributed.store", "ReplicatedStore", "update"),
    ],
    "distributed.erase": [
        ("repro.distributed.store", "ReplicatedStore", "erase_all_copies"),
        ("repro.distributed.store", "ReplicatedStore", "erase_many"),
    ],
    "distributed.copies_of": [
        ("repro.distributed.store", "ReplicatedStore", "copies_of"),
    ],
    "distributed.flush_repairs": [
        ("repro.distributed.store", "ReplicatedStore", "flush_repairs"),
    ],
    "distributed.maintain": [
        ("repro.distributed.store", "ReplicatedStore", "maintain"),
    ],
    "distributed.rebalance_step": [
        ("repro.distributed.store", "RebalanceDriver", "step"),
    ],
    "lsm.get": [("repro.lsm.engine", "LSMEngine", "get")],
    "lsm.flush": [("repro.lsm.engine", "LSMEngine", "flush")],
    "lsm.compaction": [("repro.lsm.compaction", "CompactionScheduler", "drain")],
    "storage.vacuum": [("repro.storage.engine", "RelationalEngine", "vacuum")],
    "storage.vacuum_full": [
        ("repro.storage.engine", "RelationalEngine", "vacuum_full"),
    ],
    "storage.index_cleanup": [("repro.storage.index", "BTreeIndex", "cleanup")],
    "access.check": [
        ("repro.access.rbac", "RbacController", "is_allowed"),
        ("repro.access.rbac", "RbacController", "check"),
        ("repro.access.fgac", "FgacController", "evaluate"),
        ("repro.access.fgac", "FgacController", "check"),
        ("repro.access.sieve", "SieveMiddleware", "evaluate"),
        ("repro.access.sieve", "SieveMiddleware", "check"),
        ("repro.systems.policycat", "ScalablePolicyCatalog", "evaluate"),
    ],
    "audit.log": [
        ("repro.audit.csvlog", "CsvLogger", "log"),
        ("repro.audit.querylog", "QueryResponseLogger", "log"),
        ("repro.audit.querylog", "PolicyDecisionLogger", "log"),
        ("repro.audit.log", "ActionLog", "record"),
    ],
    "audit.purge": [
        ("repro.audit.csvlog", "CsvLogger", "purge_key"),
        ("repro.audit.querylog", "QueryResponseLogger", "purge_key"),
        ("repro.audit.querylog", "PolicyDecisionLogger", "purge_unit"),
        ("repro.audit.log", "ActionLog", "purge_unit"),
    ],
    "codec.encode": [("repro.codec", None, "encode")],
    "codec.decode": [("repro.codec", None, "decode")],
}

#: Storage-backend verbs traced as ``backends.<verb>`` on every backend
#: class that defines them (overrides calling ``super()`` count once).
BACKEND_VERBS = (
    "read", "insert", "update", "delete", "erase_many", "reclaim",
    "reclaim_full", "stats", "copy_locations", "physically_present",
    "forensic_scan", "export_encoded_range", "import_encoded_batch",
)
BACKEND_CLASSES = ("StorageBackend", "PsqlBackend", "LsmBackend", "CryptoShredBackend")

#: Root spans on this thread-name prefix are the service's maintenance work.
MAINTENANCE_THREAD = "svc-maintenance"

#: Spans whose first argument is the request key (or a batch of keys), so a
#: worker-side root span can be linked to the client request that caused it.
_KEYED = {"distributed.read", "distributed.write", "distributed.erase"}

_AMBIGUOUS = -1

#: Raw spans kept per thread for the dump.  A traced round closes a few
#: hundred thousand spans; keeping them all would grow the process by
#: hundreds of MB, so later spans are counted (``trace.spans``) and folded
#: into the totals but left out of the dump.
MAX_SPANS_PER_THREAD = 100_000


class _Frame:
    __slots__ = ("sid", "name", "start", "child", "rid", "outer")

    def __init__(self, sid: int, name: str, start: int, rid: int, outer: bool) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.child = 0
        self.rid = rid
        self.outer = outer


class _ThreadState:
    """One thread's stack and totals (merged only after the run)."""

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.stack: List[_Frame] = []
        self.depth: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.busy: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.root_ns = 0
        self.negative_self = 0
        self.stats_in_erase = 0
        self.dropped = 0
        self.spans: List[Tuple[int, int, int, str, str, int, int, int]] = []


class SpanRecorder:
    """In-memory spans plus exact per-name ``calls``/``busy``/``self`` totals.

    ``busy`` is inclusive time counted on the outermost span of a name on
    its thread, so recursion through an override is not counted twice.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._guard = threading.Lock()
        self._ids = itertools.count(1)
        self._inflight: Dict[Any, List[int]] = {}
        self._linked_ns: Dict[int, int] = {}
        #: Client ``call`` latency minus linked worker store time, in ns.
        self.call_overhead_ns: List[int] = []

    # ------------------------------------------------------------- recording
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._guard:
                self._threads.append(state)
        return state

    def enter(self, name: str, key: Any = None) -> _Frame:
        state = self._state()
        stack = state.stack
        if stack:
            rid = stack[-1].rid
        else:
            rid = self._link(name, key)
        depth = state.depth.get(name, 0)
        state.depth[name] = depth + 1
        frame = _Frame(next(self._ids), name, 0, rid, depth == 0)
        stack.append(frame)
        frame.start = time.perf_counter_ns()
        return frame

    def exit(self, frame: _Frame, key: Any = None, linked: int = 0) -> int:
        """Close the frame; ``linked`` is time other threads spent on this
        span's behalf (it is not self time).  Returns the duration."""
        end = time.perf_counter_ns()
        state = self._state()
        stack = state.stack
        stack.pop()
        name = frame.name
        duration = end - frame.start
        self_ns = duration - frame.child - linked
        if self_ns < 0:
            state.negative_self += 1
        state.depth[name] -= 1
        state.calls[name] = state.calls.get(name, 0) + 1
        state.self_ns[name] = state.self_ns.get(name, 0) + self_ns
        if frame.outer:
            state.busy[name] = state.busy.get(name, 0) + duration
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += duration
            if (
                name == "backends.stats"
                and frame.outer
                and state.depth.get("distributed.erase")
            ):
                state.stats_in_erase += duration
        else:
            state.root_ns += duration
            if name in _KEYED:
                self._credit(key, duration)
        if len(state.spans) < MAX_SPANS_PER_THREAD:
            state.spans.append((
                frame.rid, frame.sid, parent.sid if parent else 0, name,
                state.thread, frame.start, end, self_ns,
            ))
        else:
            state.dropped += 1
        return duration

    # ------------------------------------------- cross-thread request links
    def _link(self, name: str, key: Any) -> int:
        """Request id for a new root span: a worker's keyed store call
        inherits the id a client published for that key."""
        if name in _KEYED and key is not None:
            first = key[0] if isinstance(key, list) and key else key
            slot = self._inflight.get(first)
            if slot is not None and slot[0] != _AMBIGUOUS:
                return slot[0]
        return next(self._ids)

    def _credit(self, key: Any, duration: int) -> None:
        keys = key if isinstance(key, list) else [key]
        with self._guard:
            for k in keys:
                slot = self._inflight.get(k)
                if slot is not None and slot[0] != _AMBIGUOUS:
                    self._linked_ns[slot[0]] = self._linked_ns.get(slot[0], 0) + duration

    def call_span(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrapper for ``ComplianceService.call``: a root span whose request
        id is published under the request key until the call returns."""
        recorder = self

        @functools.wraps(fn)
        def traced_call(service: Any, request: Any, *args: Any, **kwargs: Any) -> Any:
            key = getattr(request, "key", None)
            frame = recorder.enter("service.call")
            if key is not None:
                with recorder._guard:
                    slot = recorder._inflight.get(key)
                    if slot is None:
                        recorder._inflight[key] = [frame.rid, 1]
                    else:  # two requests on one key in flight: unlinkable
                        slot[0] = _AMBIGUOUS
                        slot[1] += 1
            try:
                return fn(service, request, *args, **kwargs)
            finally:
                linked = None
                if key is not None:
                    with recorder._guard:
                        slot = recorder._inflight[key]
                        ambiguous = slot[0] != frame.rid
                        slot[1] -= 1
                        if slot[1] == 0:
                            del recorder._inflight[key]
                        linked = recorder._linked_ns.pop(frame.rid, None)
                    if ambiguous:
                        linked = None
                duration = recorder.exit(frame, linked=linked or 0)
                if linked is not None:
                    recorder.call_overhead_ns.append(duration - linked)

        return traced_call

    # ------------------------------------------------------------- summaries
    def _sum(self, attr: str) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for state in self._threads:
            for name, value in getattr(state, attr).items():
                out[name] = out.get(name, 0) + value
        return out

    def calls(self) -> Dict[str, int]:
        return self._sum("calls")

    def busy_s(self) -> Dict[str, float]:
        return {k: v / 1e9 for k, v in self._sum("busy").items()}

    def self_s(self) -> Dict[str, float]:
        return {k: v / 1e9 for k, v in self._sum("self_ns").items()}

    def root_s(self, thread_prefix: str) -> float:
        """Time in root spans on threads whose name starts with the prefix."""
        return sum(
            s.root_ns for s in self._threads if s.thread.startswith(thread_prefix)
        ) / 1e9

    def stats_in_erase_s(self) -> float:
        return sum(s.stats_in_erase for s in self._threads) / 1e9

    def negative_self(self) -> int:
        return sum(s.negative_self for s in self._threads)

    def span_count(self) -> int:
        """Spans closed, kept or not."""
        return sum(len(s.spans) + s.dropped for s in self._threads)

    def open_spans(self) -> int:
        return sum(len(s.stack) for s in self._threads)

    def spans(self) -> List[Tuple[int, int, int, str, str, int, int, int]]:
        return [span for s in self._threads for span in s.spans]

    def nesting_errors(self) -> List[str]:
        """Every kept child must lie inside its parent on the same thread."""
        by_id = {span[1]: span for span in self.spans()}
        errors = []
        for rid, sid, parent, name, thread, start, end, _self in by_id.values():
            if end < start:
                errors.append(f"span {sid} {name} ends before it starts")
            if not parent or parent not in by_id:
                continue
            p = by_id[parent]
            if p[4] != thread or p[0] != rid or start < p[5] or end > p[6]:
                errors.append(f"span {sid} {name} escapes parent {parent} {p[3]}")
        return errors

    def dump(self, path: str) -> None:
        keys = ("rid", "sid", "parent", "name", "thread", "start_ns", "end_ns", "self_ns")
        with open(path, "w") as fh:
            for span in self.spans():
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# ------------------------------------------------------------ instrumentation
def _wrap(recorder: SpanRecorder, name: str, fn: Callable[..., Any], method: bool) -> Any:
    keyed = name in _KEYED

    if method:
        @functools.wraps(fn)
        def traced(self: Any, *args: Any, **kwargs: Any) -> Any:
            key = None
            if keyed and args:
                key = list(args[0]) if name == "distributed.erase" and not isinstance(
                    args[0], str) else args[0]
            frame = recorder.enter(name, key)
            try:
                return fn(self, *args, **kwargs)
            finally:
                recorder.exit(frame, key)
    else:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = recorder.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.exit(frame)

    return traced


def _targets() -> Iterable[Tuple[str, Any, str]]:
    import importlib

    for name, sites in LAYERS.items():
        for module_name, owner, attr in sites:
            module = importlib.import_module(module_name)
            yield name, (getattr(module, owner) if owner else module), attr
    backends = importlib.import_module("repro.systems.backends")
    for cls_name in BACKEND_CLASSES:
        cls = getattr(backends, cls_name)
        for verb in BACKEND_VERBS:
            if verb in vars(cls):
                yield f"backends.{verb}", cls, verb


class instrument:
    """Context manager: install span wrappers, remove them on exit."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> SpanRecorder:
        for name, owner, attr in _targets():
            original = vars(owner)[attr]
            if name == "service.call":
                wrapper = self.recorder.call_span(original)
            else:
                wrapper = _wrap(self.recorder, name, original, isinstance(owner, type))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return self.recorder

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
