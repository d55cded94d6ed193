"""Property tests: a reclamation pass reports exactly the dead entries it
made unrecoverable.

``StorageBackend.reclaim()`` / ``reclaim_full()`` return a count the pass
computes itself — VACUUM's pruned tuples, the full compaction's physical
entries before minus after, the newly shredded keys — instead of scanning
for statistics.  For random insert / update / delete / flag / maintain
sequences the returned count must equal ``stats().dead_entries`` read just
before the pass, on every engine and every LSM shape, and the pass must
leave no dead entry behind.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.systems.backends import make_backend

BACKEND_SHAPES = [
    ("psql", {}),
    ("crypto-shred", {}),
    ("crypto-shred", {"group_capacity": 2}),
    ("lsm", {"memtable_capacity": 4}),
    ("lsm", {"memtable_capacity": 8, "tier_threshold": 2}),
    ("lsm", {"memtable_capacity": 32}),
    ("lsm", {"memtable_capacity": 4, "compaction": "leveled"}),
    ("lsm", {"memtable_capacity": 4, "compaction_mode": "deferred"}),
    (
        "lsm",
        {
            "memtable_capacity": 16,
            "compaction": "leveled",
            "compaction_mode": "deferred",
        },
    ),
]

KEYS = st.integers(min_value=0, max_value=15)
VALUES = st.integers(min_value=0, max_value=10**6)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), KEYS, VALUES),
        st.tuples(st.just("delete"), KEYS),
        st.tuples(st.just("flag"), KEYS),
        st.tuples(st.just("maintain")),
        st.tuples(st.just("reclaim")),
        st.tuples(st.just("reclaim_full")),
    ),
    max_size=60,
)


def _check_pass(backend, verb):
    expected = backend.stats().dead_entries
    got = getattr(backend, verb)()
    assert got == expected, (verb, got, expected)
    assert backend.stats().dead_entries == 0


@pytest.mark.parametrize(
    "name,opts",
    BACKEND_SHAPES,
    ids=[f"{name}-{i}" for i, (name, _opts) in enumerate(BACKEND_SHAPES)],
)
@settings(max_examples=60, deadline=None)
@given(ops=OPS)
# The final pass's flush triggers a merge that drops the tombstone and the
# value it shadows on its own; the full compaction still reports both.
@example(ops=[("put", 0, 0), ("reclaim",), ("delete", 0)])
def test_reclaim_returns_dead_entries_read_before(name, opts, ops):
    backend = make_backend(name, CostModel(SimClock(), CostBook()), **opts)
    live = set()
    for op in ops:
        kind = op[0]
        if kind == "put":
            _, key, value = op
            if key in live:
                backend.update(key, (key, value))
            else:
                backend.insert(key, (key, value))
                live.add(key)
        elif kind == "delete":
            if op[1] in live:
                backend.delete(op[1])
                live.discard(op[1])
        elif kind == "flag":
            if op[1] in live and not backend.is_inaccessible(op[1]):
                backend.make_inaccessible(op[1])
        elif kind == "maintain":
            backend.maintain()
        else:
            _check_pass(backend, kind)
        backend.commit()
    _check_pass(backend, "reclaim")
    assert {k for k, is_live in backend.forensic_scan() if is_live} == live
