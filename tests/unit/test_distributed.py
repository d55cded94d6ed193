"""Unit tests for the replicated store — the §1 distributed-erasure hazard.

Parametrized over every storage backend (the way the profile/figure tests
are): the sharding and erasure invariants must hold whether retention lives
in MVCC dead tuples, LSM shadowed values, or unshredded key volumes.
Engine-specific forensics (psql WAL row images, LSM SSTable copy sites)
keep their own dedicated classes.
"""

import pytest

from repro.config import BackendConfig
from repro.distributed.store import (
    CopyLocation,
    ReplicatedStore,
)
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.storage.errors import TupleNotFoundError
from repro.systems.backends import StorageBackend

BACKENDS = ("psql", "lsm", "crypto-shred")


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def make_store(**kwargs):
    clock = SimClock()
    cost = CostModel(clock, CostBook())
    kwargs.setdefault("n_replicas", 2)
    kwargs.setdefault("replication_lag", 50_000)
    kwargs.setdefault("cache_ttl", 500_000)
    return ReplicatedStore(cost, **kwargs), clock


def advance(clock, micros):
    clock.charge(micros, "idle-work")


class TestReplication:
    def test_put_visible_on_primary_immediately(self, backend):
        store, _ = make_store(backend=backend)
        store.put("k", "v")
        assert store.read("k") == "v"

    def test_replica_read_before_lag_misses(self, backend):
        store, _ = make_store(backend=backend)
        store.put("k", "v")
        with pytest.raises(TupleNotFoundError):
            store.read("k", replica=0)

    def test_replica_read_after_lag_hits(self, backend):
        store, clock = make_store(backend=backend)
        store.put("k", "v")
        advance(clock, 60_000)
        assert store.read("k", replica=0) == "v"
        assert store.replication_backlog(0) == 0

    def test_backlog_counts_unapplied(self, backend):
        store, clock = make_store(backend=backend)
        for i in range(5):
            store.put(i, i)
        assert store.replication_backlog(0) == 5
        advance(clock, 60_000)
        store.read(0, replica=0)  # lazily applies
        assert store.replication_backlog(0) == 0

    def test_update_propagates(self, backend):
        store, clock = make_store(backend=backend)
        store.put("k", "v1")
        store.update("k", "v2")
        advance(clock, 60_000)
        assert store.read("k", replica=1) == "v2"

    def test_invalid_params(self):
        clock = SimClock()
        cost = CostModel(clock)
        with pytest.raises(ValueError):
            ReplicatedStore(cost, n_replicas=-1)
        with pytest.raises(ValueError):
            ReplicatedStore(cost, replication_lag=-1)


class TestCaching:
    def test_cache_serves_within_ttl(self, backend):
        store, clock = make_store(backend=backend)
        store.put("k", "v")
        advance(clock, 60_000)
        store.read("k", replica=0)  # populate cache
        before = clock.now
        store.read("k", replica=0)  # cache hit: cheap
        assert clock.now - before < CostBook().page_read

    def test_cache_expires_after_ttl(self, backend):
        store, clock = make_store(backend=backend, cache_ttl=10_000)
        store.put("k", "v")
        store.read("k")  # primary cache populated
        advance(clock, 20_000)
        assert ("cache", "primary") not in [
            (str(loc), name) for loc, name in store.copies_of("k")
        ] or store.read("k") == "v"  # expired entries purge on access
        store.read("k")
        assert store.read("k") == "v"

    def test_uncached_read(self, backend):
        store, _ = make_store(backend=backend)
        store.put("k", "v")
        assert store.read("k", use_cache=False) == "v"
        assert (CopyLocation.CACHE, "primary") not in store.copies_of("k")

    def test_read_after_grounded_erase_does_not_replant_cache(self, backend):
        """Regression: a negative read must never cache — a miss after a
        grounded erase would otherwise replant a CACHE entry that
        copies_of/lingering_copies report as a copy of the erased key."""
        store, clock = make_store(backend=backend)
        store.put("pii", "sensitive")
        advance(clock, 60_000)
        store.read("pii", replica=0)
        report = store.erase_all_copies("pii")
        assert report.verified_clean
        for kwargs in ({}, {"replica": 0}, {"consistency": "quorum"}):
            with pytest.raises(TupleNotFoundError):
                store.read("pii", **kwargs)
            assert store.copies_of("pii") == [], kwargs


class TestNaiveDeleteHazard:
    def _seed(self, backend):
        store, clock = make_store(backend=backend)
        store.put("pii", "sensitive")
        advance(clock, 60_000)
        store.read("pii", replica=0)  # replica applied + cached
        store.read("pii", replica=1)
        return store, clock

    def test_replicas_and_caches_linger_after_primary_delete(self, backend):
        store, _clock = self._seed(backend)
        store.naive_delete("pii")
        lingering = store.lingering_copies("pii")
        locations = {loc for loc, _name in lingering}
        # replica live copies + cache entries survive on every backend;
        # psql additionally retains the primary's dead tuple.
        assert CopyLocation.REPLICA in locations
        assert CopyLocation.CACHE in locations
        if backend == "psql":
            assert CopyLocation.PRIMARY in locations  # dead tuple retained

    def test_stale_replica_still_serves_after_primary_delete(self, backend):
        store, clock = self._seed(backend)
        store.naive_delete("pii")
        # before the lag elapses, replicas happily serve the value
        assert store.read("pii", replica=0) == "sensitive"

    def test_lag_and_vacuum_do_not_clear_caches(self, backend):
        store, clock = self._seed(backend)
        store.naive_delete("pii")
        advance(clock, 60_000)
        # replication applied on read path; cache invalidated by the delete
        # op — but only on replicas that applied it.
        with pytest.raises(TupleNotFoundError):
            store.read("pii", replica=0, use_cache=False)


class TestGroundedDistributedErase:
    def test_erase_all_copies_is_clean(self, backend):
        store, clock = make_store(backend=backend)
        store.put("pii", "sensitive")
        advance(clock, 60_000)
        store.read("pii", replica=0)
        store.read("pii", replica=1)
        report = store.erase_all_copies("pii")
        assert report.verified_clean
        assert store.copies_of("pii") == []
        assert report.caches_invalidated >= 2

    def test_erase_vacuums_dead_data(self):
        store, clock = make_store()  # psql: dead MVCC tuples are countable
        store.put("pii", "sensitive")
        advance(clock, 60_000)
        store.read("pii", replica=0)
        report = store.erase_all_copies("pii")
        assert report.dead_tuples_vacuumed >= 1

    def test_erase_after_naive_delete_cleans_leftovers(self, backend):
        store, clock = make_store(backend=backend)
        store.put("pii", "v")
        advance(clock, 60_000)
        store.read("pii", replica=0)
        store.naive_delete("pii")
        assert store.lingering_copies("pii")
        report = store.erase_all_copies("pii")
        assert report.verified_clean
        assert store.lingering_copies("pii") == []

    def test_erase_unknown_key_is_clean_noop(self, backend):
        store, _ = make_store(backend=backend)
        report = store.erase_all_copies("ghost")
        assert report.verified_clean
        assert report.nodes_deleted == 0


class TestReplicationLogRetention:
    """Regression: the replication log kept ``entry.value`` forever, so
    ``erase_all_copies`` reported ``verified_clean=True`` while the erased
    value still sat in the log — and ``copies_of`` never counted the log."""

    def test_log_is_a_copy_location(self, backend):
        store, _ = make_store(backend=backend)
        store.put("pii", "sensitive")
        locations = {loc for loc, _name in store.copies_of("pii")}
        assert CopyLocation.LOG in locations

    def test_naive_delete_leaves_value_in_log(self, backend):
        store, _ = make_store(backend=backend)
        store.put("pii", "sensitive")
        store.naive_delete("pii")
        locations = {loc for loc, _name in store.lingering_copies("pii")}
        assert CopyLocation.LOG in locations

    def test_erase_all_copies_scrubs_log(self, backend):
        store, clock = make_store(backend=backend)
        store.put("pii", "sensitive")
        store.update("pii", "still sensitive")
        advance(clock, 60_000)
        store.read("pii", replica=0)
        report = store.erase_all_copies("pii")
        # Exactly the put and the update — delete entries carry no value.
        assert report.log_values_scrubbed == 2
        assert report.verified_clean
        locations = {loc for loc, _name in store.copies_of("pii")}
        assert CopyLocation.LOG not in locations

    def test_verified_clean_would_be_false_without_scrub(self):
        """The log alone keeps verified_clean honest: a value that only
        survives in the log must still count as a lingering copy."""
        store, _ = make_store(n_replicas=0, cache_ttl=0)
        store.put("pii", "sensitive")
        store.primary.engine.delete("replicated_data", "pii")
        store.primary.engine.vacuum("replicated_data")
        # no node, cache, or dead tuple holds the value — only the log does
        assert store.copies_of("pii") == [(CopyLocation.LOG, "primary")]

    def test_scrubbed_entries_do_not_break_later_replication(self, backend):
        store, clock = make_store(backend=backend)
        store.put("pii", "sensitive")
        store.erase_all_copies("pii")
        store.put("other", "fine")
        advance(clock, 60_000)
        assert store.read("other", replica=0) == "fine"
        assert store.replication_backlog(0) == 0

    def test_other_keys_survive_targeted_erase(self, backend):
        store, clock = make_store(backend=backend)
        store.put("a", 1)
        store.put("b", 2)
        advance(clock, 60_000)
        store.read("a", replica=0)
        store.erase_all_copies("a")
        assert store.read("b") == 2
        advance(clock, 60_000)
        assert store.read("b", replica=0) == 2


class TestWalCopyLocation:
    """The node-level WAL is one storage layer below the replication log —
    the same retention hazard, tracked the same way (psql keeps a WAL)."""

    def test_wal_is_a_copy_location(self):
        store, _ = make_store()
        store.put("pii", "sensitive")
        locations = {loc for loc, _name in store.copies_of("pii")}
        assert CopyLocation.WAL in locations

    def test_naive_delete_leaves_wal_copy(self):
        store, _ = make_store()
        store.put("pii", "sensitive")
        store.naive_delete("pii")
        locations = {loc for loc, _name in store.lingering_copies("pii")}
        assert CopyLocation.WAL in locations

    def test_erase_all_copies_scrubs_node_wals(self):
        store, clock = make_store()
        store.put("pii", "sensitive")
        advance(clock, 60_000)
        store.read("pii", replica=0)  # the replica's WAL now holds it too
        report = store.erase_all_copies("pii")
        assert report.verified_clean
        locations = {loc for loc, _name in store.copies_of("pii")}
        assert CopyLocation.WAL not in locations


class TestSharding:
    def test_routing_is_deterministic_and_total(self, backend):
        store, _ = make_store(backend=backend, shards=4, n_replicas=1)
        owners = {f"k{i}": store.shard_of(f"k{i}") for i in range(64)}
        assert set(owners.values()) <= set(range(4))
        assert len(set(owners.values())) > 1  # keys actually spread out
        for key, owner in owners.items():
            assert store.shard_of(key) == owner  # stable

    def test_invalid_shard_count(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            ReplicatedStore(CostModel(clock), shards=0)

    def test_put_read_roundtrip_across_shards(self, backend):
        store, clock = make_store(backend=backend, shards=4, n_replicas=1)
        for i in range(32):
            store.put(f"k{i}", i)
        for i in range(32):
            assert store.read(f"k{i}") == i
        advance(clock, 60_000)
        for i in range(32):
            assert store.read(f"k{i}", replica=0) == i

    def test_erase_all_copies_routes_to_owner_shard(self, backend):
        store, clock = make_store(backend=backend, shards=4, n_replicas=1)
        for i in range(16):
            store.put(f"k{i}", i)
        advance(clock, 60_000)
        for i in range(16):
            store.read(f"k{i}", replica=0)
        report = store.erase_all_copies("k3")
        assert report.verified_clean
        assert report.shard == store.shard_of("k3")
        assert store.copies_of("k3") == []
        assert store.read("k5") == 5  # other shards untouched

    def test_node_names_carry_shard_prefix(self):
        store, _ = make_store(shards=2, n_replicas=1)
        names = {node.name for node in store.nodes()}
        assert names == {
            "shard-0/primary",
            "shard-0/replica-0",
            "shard-1/primary",
            "shard-1/replica-0",
        }

    def test_single_shard_keeps_legacy_names(self):
        store, _ = make_store(shards=1, n_replicas=1)
        assert {node.name for node in store.nodes()} == {"primary", "replica-0"}


class TestBatchErase:
    def _loaded(self, shards=4, n=32, backend="psql"):
        store, clock = make_store(
            shards=shards, n_replicas=1, backend=backend
        )
        for i in range(n):
            store.put(f"k{i}", i)
        advance(clock, 60_000)
        for i in range(n):
            store.read(f"k{i}", replica=0)
        return store, clock

    def test_erase_many_is_clean_across_shards(self, backend):
        store, _ = self._loaded(backend=backend)
        victims = [f"k{i}" for i in range(16)]
        report = store.erase_many(victims)
        assert report.verified_clean
        assert report.n_keys == 16
        for key in victims:
            assert store.copies_of(key) == []
        for i in range(16, 32):
            assert store.read(f"k{i}") == i

    def test_erase_many_amortizes_reclamation(self, backend):
        """One reclamation pass per node per batch — not per key."""
        store, _ = self._loaded(shards=4, n=32, backend=backend)
        victims = [f"k{i}" for i in range(16)]
        report = store.erase_many(victims)
        assert report.shards_touched <= 4
        assert report.reclamations == report.shards_touched * 2  # R+1 nodes
        assert report.reclamations < len(victims)

    def test_erase_many_scrubs_logs_and_wals(self, backend):
        store, _ = self._loaded(backend=backend)
        victims = [f"k{i}" for i in range(8)]
        report = store.erase_many(victims)
        assert report.log_values_scrubbed >= len(victims)
        for key in victims:
            assert not store.lingering_copies(key)


class TestEraseWithoutScans:
    """The grounded erase reads its ``dead_tuples_vacuumed`` from the
    reclamation pass itself: no node runs a statistics scan, and the count
    matches what a ``stats()`` read before each pass reported."""

    @staticmethod
    def _twins(backend):
        config = (
            BackendConfig(backend="lsm", memtable_capacity=4)
            if backend == "lsm"
            else BackendConfig(backend=backend)
        )
        stores = []
        for _ in range(2):
            store, clock = make_store(shards=2, backend=config)
            for i in range(24):
                store.put(f"k{i}", i)
            for i in range(0, 24, 3):
                store.update(f"k{i}", -i)  # dead versions beside the victims
            advance(clock, 60_000)
            for i in range(24):
                store.read(f"k{i}", replica=0)
            stores.append(store)
        return stores

    @staticmethod
    def _forbid_stats(monkeypatch):
        def no_scan(self):
            raise AssertionError(f"{self.name}: stats() on the erase path")

        for cls in (StorageBackend, *StorageBackend.__subclasses__()):
            monkeypatch.setattr(cls, "stats", no_scan)

    @staticmethod
    def _stats_before_reclaim(monkeypatch, store):
        """The reference count: each node's dead entries read just before
        its pass (monkeypatched onto this store's shards only)."""

        def reclaim_node(node):
            dead = node.backend.stats().dead_entries
            node.backend.reclaim()
            return dead

        for shard in store.shards():
            monkeypatch.setattr(shard, "_reclaim_node", reclaim_node)

    def test_erase_all_copies_never_scans(self, backend, monkeypatch):
        store, reference = self._twins(backend)
        with monkeypatch.context() as m:
            self._stats_before_reclaim(m, reference)
            expected = [reference.erase_all_copies(f"k{i}") for i in (0, 1, 5)]
        self._forbid_stats(monkeypatch)
        got = [store.erase_all_copies(f"k{i}") for i in (0, 1, 5)]
        assert [r.dead_tuples_vacuumed for r in got] == [
            r.dead_tuples_vacuumed for r in expected
        ]
        assert sum(r.dead_tuples_vacuumed for r in got) > 0
        assert all(r.verified_clean for r in got)

    def test_erase_many_never_scans(self, backend, monkeypatch):
        store, reference = self._twins(backend)
        victims = [f"k{i}" for i in range(0, 24, 2)]
        with monkeypatch.context() as m:
            self._stats_before_reclaim(m, reference)
            expected = reference.erase_many(victims)
        self._forbid_stats(monkeypatch)
        got = store.erase_many(victims)
        assert got.shards_touched == 2
        assert got.dead_tuples_vacuumed == expected.dead_tuples_vacuumed > 0
        assert got.verified_clean


class TestBackendParametrization:
    """The distributed erase story is engine-pluggable (§1: all copies,
    whatever the engine's retention mechanism)."""

    def test_naive_delete_lingers_then_grounded_erase_cleans(self, backend):
        store, clock = make_store(backend=backend, n_replicas=1)
        store.put("pii", "sensitive")
        advance(clock, 60_000)
        store.read("pii", replica=0)
        store.naive_delete("pii")
        assert store.lingering_copies("pii")  # every engine retains copies
        report = store.erase_all_copies("pii")
        assert report.verified_clean, backend
        assert store.copies_of("pii") == []


class TestLsmCopySites:
    """Per-SSTable copy tracking on LSM nodes — copies_of must reflect every
    pre-compaction physical copy until compaction rewrites it away."""

    def _lsm_store(self, compaction="leveled"):
        return make_store(
            n_replicas=1,
            backend=BackendConfig(
                backend="lsm", compaction=compaction, memtable_capacity=4
            ),
        )

    def test_shadowed_sstable_copies_each_get_an_entry(self):
        # A lazy tier threshold keeps both version-holding runs on disk —
        # exactly the pre-compaction state whose copies must stay visible.
        store, _ = make_store(
            n_replicas=1,
            backend=BackendConfig(
                backend="lsm",
                compaction="size",
                tier_threshold=10,
                memtable_capacity=4,
            ),
        )
        store.put("pii", "v1")
        for i in range(8):
            store.put(f"pad{i}", i)  # flush v1 into a run
        store.update("pii", "v2")
        for i in range(8, 16):
            store.put(f"pad{i}", i)  # flush v2 into a newer run
        primary_sites = [
            name
            for loc, name in store.copies_of("pii")
            if loc is CopyLocation.PRIMARY
        ]
        # Both physical versions are tracked, each with its own named site.
        assert len(primary_sites) >= 2
        assert all("[" in name for name in primary_sites)

    def test_erase_all_copies_clears_every_site(self):
        for compaction in ("size", "leveled"):
            store, clock = self._lsm_store(compaction)
            store.put("pii", "sensitive")
            for i in range(12):
                store.put(f"pad{i}", i)
            advance(clock, 60_000)
            store.read("pii", replica=0)  # replica applies + caches
            assert store.copies_of("pii")
            report = store.erase_all_copies("pii")
            assert report.verified_clean
            assert store.copies_of("pii") == []

    def test_psql_copies_keep_legacy_node_names(self):
        store, _ = make_store(n_replicas=0)
        store.put("k", "v")
        assert (CopyLocation.PRIMARY, "primary") in store.copies_of("k")


class TestDegradedQuorum:
    """Quorum reads over degraded topologies, on every backend.

    Quorum is counted over *membership* (a crashed replica still counts
    toward n), so one down replica of two leaves the majority
    assemblable; a partitioned shard fails fast instead of answering; and
    the PR-4 backlogged-DELETE acceptance case must hold even when the
    only replica left to consult is the one holding the unapplied DELETE.
    """

    @staticmethod
    def _injected(store):
        from repro.distributed.faults import FaultInjector

        return FaultInjector(store)

    @pytest.mark.parametrize("mode", ["replica-down", "partitioned"])
    def test_quorum_read_on_degraded_topology(self, backend, mode):
        store, _ = make_store(backend=backend, n_replicas=2)
        injector = self._injected(store)
        store.put("k", "v1")
        store.update("k", "v2")
        if mode == "replica-down":
            injector.kill_replica(0, 0)
            # n=3 over membership, needed=2: primary + the live replica.
            assert store.read("k", use_cache=False, consistency="quorum") == "v2"
        else:
            from repro.distributed.faults import ShardUnavailableError

            injector.partition_shard(0)
            with pytest.raises(ShardUnavailableError):
                store.read("k", use_cache=False, consistency="quorum")
            injector.heal(0)
            assert store.read("k", use_cache=False, consistency="quorum") == "v2"

    @pytest.mark.parametrize("mode", ["replica-down", "partitioned"])
    def test_backlogged_delete_applies_on_degraded_quorum(self, backend, mode):
        """The PR-4 acceptance case under faults: the primary naive-deleted
        the key, every replica backlog still holds the value and its
        DELETE.  Whatever the degradation, no consistency level may serve
        the corpse once it can answer at all."""
        from repro.distributed.faults import ShardUnavailableError

        store, clock = make_store(backend=backend, n_replicas=2)
        injector = self._injected(store)
        store.put("pii", "sensitive")
        advance(clock, 60_000)
        store.read("pii", replica=0, use_cache=False)
        store.naive_delete("pii")
        assert store.replication_backlog(1) > 0
        if mode == "replica-down":
            injector.kill_replica(0, 0)
            # The surviving replica must apply its backlogged DELETE en
            # route to the quorum answer.
            with pytest.raises(TupleNotFoundError):
                store.read("pii", use_cache=False, consistency="quorum")
            survivor = next(store.shards()).replicas[1]
            assert not survivor.backend.exists("pii")
        else:
            injector.partition_shard(0)
            with pytest.raises(ShardUnavailableError):
                store.read("pii", use_cache=False, consistency="quorum")
            injector.heal(0)
            with pytest.raises(TupleNotFoundError):
                store.read("pii", use_cache=False, consistency="quorum")

    def test_quorum_unassemblable_when_majority_is_down(self, backend):
        from repro.distributed.faults import QuorumUnavailableError

        store, _ = make_store(backend=backend, n_replicas=2)
        injector = self._injected(store)
        store.put("k", "v")
        injector.kill_replica(0, 0)
        injector.kill_replica(0, 1)
        # n=3 over membership, needed=2, but only the primary is live.
        with pytest.raises(QuorumUnavailableError):
            store.read("k", use_cache=False, consistency="quorum")
        injector.revive_replica(0, 0)
        assert store.read("k", use_cache=False, consistency="quorum") == "v"

    def test_pinned_read_to_down_replica_fails_fast(self, backend):
        from repro.distributed.faults import ReplicaDownError

        store, clock = make_store(backend=backend, n_replicas=1)
        injector = self._injected(store)
        store.put("k", "v")
        advance(clock, 60_000)
        injector.kill_replica(0, 0)
        with pytest.raises(ReplicaDownError):
            store.read("k", replica=0, use_cache=False)


class TestReplicaElasticity:
    """set_replicas: joiners catch up from the scrubbed log, leavers are
    grounded before they drop — on every backend."""

    def test_grow_joins_by_scrubbed_log_replay(self, backend):
        store, _ = make_store(backend=backend, n_replicas=1, shards=2)
        for i in range(20):
            store.put(f"u{i:06d}", (i, "payload"))
        assert store.erase_all_copies("u000003").verified_clean
        change = store.set_replicas(2)
        assert change.replicas_before == 1 and change.replicas_after == 2
        assert change.added == 2 and change.removed == 0  # one per shard
        assert change.catchup_entries > 0
        # The joiners replayed the *scrubbed* log: the erased value was
        # never resurrected anywhere, and live keys reached every node.
        assert store.copies_of("u000003") == []
        with pytest.raises(TupleNotFoundError):
            store.read("u000003", use_cache=False, consistency="all")
        assert store.read("u000001", use_cache=False, consistency="all") == (
            1,
            "payload",
        )
        for shard in store.shards():
            assert len(shard.replicas) == 2

    def test_shrink_grounds_leaving_replicas(self, backend):
        store, clock = make_store(backend=backend, n_replicas=2, shards=2)
        for i in range(20):
            store.put(f"u{i:06d}", (i, "payload"))
        advance(clock, 60_000)
        for i in range(20):  # replicas apply their backlog
            store.read(f"u{i:06d}", use_cache=False, consistency="all")
        change = store.set_replicas(1)
        assert change.removed == 2 and change.added == 0
        assert change.grounded_values > 0
        for shard in store.shards():
            assert len(shard.replicas) == 1
        # Nothing about the survivors broke: reads and grounded erases
        # still work, and copies_of never names a dropped node.
        assert store.read("u000002", use_cache=False) == (2, "payload")
        assert store.erase_all_copies("u000002").verified_clean
        assert store.copies_of("u000002") == []

    def test_set_replicas_to_zero_and_back(self, backend):
        store, _ = make_store(backend=backend, n_replicas=1)
        store.put("k", "v")
        store.set_replicas(0)
        assert store.read("k", use_cache=False, consistency="quorum") == "v"
        change = store.set_replicas(2)
        assert change.added == 2
        assert store.read("k", use_cache=False, consistency="all") == "v"

    def test_set_replicas_refuses_mid_rebalance(self):
        store, _ = make_store(shards=2)
        for i in range(30):
            store.put(f"u{i:06d}", (i, "payload"))
        store.begin_resize(3, batch_size=8).step()
        with pytest.raises(RuntimeError):
            store.set_replicas(3)

    def test_set_replicas_refuses_under_active_faults(self):
        from repro.distributed.faults import FaultInjector

        store, _ = make_store(n_replicas=2)
        injector = FaultInjector(store)
        store.put("k", "v")
        injector.kill_replica(0, 0)
        with pytest.raises(RuntimeError, match="active fault"):
            store.set_replicas(3)
        injector.heal_all()
        assert store.set_replicas(3).replicas_after == 3
