"""SSTables — immutable sorted runs on "disk".

Each SSTable stores sorted ``(key, seqno, value)`` entries with the values
packed into one length-prefixed binary block (:func:`repro.codec.pack_block`
layout): a ``u32`` count, then per entry a ``u32`` length plus the encoded
blob.  The in-memory index (keys, seqnos, blob offsets) gives point reads
``bisect`` + one slice-decode; compaction merges move the raw blobs between
runs without ever decoding them, and tombstones — one-byte blobs — are
recognized by blob equality.

Alongside the block the table keeps a Bloom filter for negative lookups and
retention bookkeeping: how many tombstones it carries and how many
*shadowed* values — older versions of keys whose latest version is a delete
— remain physically present.  Those shadowed values are the illegal-
retention hazard of §1.  ``size_bytes`` is the *real* packed-block size
plus index overhead — not a nominal per-value estimate.
"""

from __future__ import annotations

from bisect import bisect_left
from struct import Struct
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro import codec
from repro.lsm.bloom import BloomFilter, BloomHashCache, HashPair
from repro.lsm.memtable import TOMBSTONE_BLOB

#: Approximate bytes per entry beyond the packed value block: the key and
#: seqno in the index plus the offset slot.
ENTRY_OVERHEAD = 20

_U32 = Struct("<I")


class SSTable:
    """One immutable sorted run over a packed value block."""

    _next_id = 0

    def __init__(
        self,
        entries: List[Tuple[Any, int, Any]],
        payload_bytes: int = 0,
        created_at: int = 0,
    ) -> None:
        """``entries`` must be sorted by key, one entry per key, with
        *decoded* values — the compatibility constructor; the engine's
        flush/compaction paths use :meth:`from_encoded` to avoid the
        re-encode.  ``payload_bytes`` is accepted for signature
        compatibility; sizes are measured from the packed block now.
        """
        blobs = codec.encode_many([e[2] for e in entries])
        self._init_from_blobs(
            [e[0] for e in entries],
            [e[1] for e in entries],
            blobs,
            created_at,
        )

    @classmethod
    def from_encoded(
        cls,
        entries: Sequence[Tuple[Any, int, bytes]],
        created_at: int,
        hash_cache: Optional[BloomHashCache] = None,
    ) -> "SSTable":
        """Build a run from already-encoded ``(key, seqno, blob)`` entries
        (sorted by key) — the zero-copy flush/compaction path.  With a warm
        ``hash_cache`` (the engine's) the Bloom build skips digesting keys
        that any earlier flush or rewrite already hashed."""
        table = cls.__new__(cls)
        table._init_from_blobs(
            [e[0] for e in entries],
            [e[1] for e in entries],
            [e[2] for e in entries],
            created_at,
            hash_cache=hash_cache,
        )
        return table

    def _init_from_blobs(
        self,
        keys: List[Any],
        seqnos: List[int],
        blobs: Sequence[bytes],
        created_at: int,
        hash_cache: Optional[BloomHashCache] = None,
    ) -> None:
        self.table_id = SSTable._next_id
        SSTable._next_id += 1
        self.created_at = created_at
        self._keys = keys
        self._seqnos = seqnos
        # Length-prefixed packed block (codec.pack_block layout) plus the
        # in-memory blob offsets derived while packing.
        parts: List[bytes] = [_U32.pack(len(blobs))]
        offsets: List[Tuple[int, int]] = []
        pos = 4
        for blob in blobs:
            parts.append(_U32.pack(len(blob)))
            pos += 4
            offsets.append((pos, pos + len(blob)))
            pos += len(blob)
            parts.append(blob)
        self._block = b"".join(parts)
        self._view = memoryview(self._block)
        self._offsets = offsets
        # Immutable table: count the delete markers once, here.
        self._tombstones = blobs.count(TOMBSTONE_BLOB)
        self._bloom = BloomFilter.from_keys(keys, cache=hash_cache)

    # ------------------------------------------------------------------ blobs
    def blob_at(self, i: int) -> bytes:
        start, end = self._offsets[i]
        return bytes(self._view[start:end])

    def _is_tombstone(self, i: int) -> bool:
        start, end = self._offsets[i]
        return self._view[start:end] == TOMBSTONE_BLOB

    def _value_at(self, i: int) -> Any:
        start, end = self._offsets[i]
        return codec.decode(self._view[start:end])

    @property
    def packed_block(self) -> bytes:
        """The raw length-prefixed value block (codec.pack_block layout)."""
        return self._block

    # ---------------------------------------------------------------- lookups
    def might_contain(self, key: Any) -> bool:
        return key in self._bloom

    def might_contain_pair(self, pair: HashPair) -> bool:
        """Bloom probe with a precomputed base-hash pair — the engine read
        path hashes a key once and probes every run with the same pair."""
        return self._bloom.contains_pair(pair)

    def get(self, key: Any) -> Optional[Tuple[int, Any]]:
        i = bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            return (self._seqnos[i], self._value_at(i))
        return None

    def get_encoded(self, key: Any) -> Optional[Tuple[int, bytes]]:
        """``(seqno, blob)`` without decoding; None if absent."""
        i = bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            return (self._seqnos[i], self.blob_at(i))
        return None

    def entries(self) -> Iterator[Tuple[Any, int, Any]]:
        for i, key in enumerate(self._keys):
            yield (key, self._seqnos[i], self._value_at(i))

    def entries_encoded(self) -> Iterator[Tuple[Any, int, bytes]]:
        """``(key, seqno, blob)`` per entry — the merge/export path."""
        for i, key in enumerate(self._keys):
            yield (key, self._seqnos[i], self.blob_at(i))

    def range(self, lo: Any, hi: Any) -> Iterator[Tuple[Any, int, Any]]:
        i = bisect_left(self._keys, lo)
        while i < len(self._keys) and self._keys[i] <= hi:
            yield (self._keys[i], self._seqnos[i], self._value_at(i))
            i += 1

    # ------------------------------------------------------------- statistics
    def __len__(self) -> int:
        return len(self._keys)

    @property
    def tombstone_count(self) -> int:
        return self._tombstones

    @property
    def value_count(self) -> int:
        return len(self._keys) - self.tombstone_count

    @property
    def size_bytes(self) -> int:
        """Real bytes: the packed value block plus index overhead per
        entry (key + seqno + offset slot) plus the Bloom filter."""
        return (
            len(self._block)
            + len(self._keys) * ENTRY_OVERHEAD
            + self._bloom.size_bytes
        )

    @property
    def block_bytes(self) -> int:
        """Bytes of the packed value block alone."""
        return len(self._block)

    @property
    def bloom_bytes(self) -> int:
        """Bytes held by the run's Bloom filter (the run's "index")."""
        return self._bloom.size_bytes

    @property
    def min_key(self) -> Optional[Any]:
        return self._keys[0] if self._keys else None

    @property
    def max_key(self) -> Optional[Any]:
        return self._keys[-1] if self._keys else None

    def physically_contains_value(self, key: Any) -> bool:
        """Whether a real (non-tombstone) value for ``key`` sits in this
        run — a blob-equality check, no decode."""
        i = bisect_left(self._keys, key)
        return (
            i < len(self._keys)
            and self._keys[i] == key
            and not self._is_tombstone(i)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SSTable(#{self.table_id}, n={len(self)}, "
            f"tombstones={self.tombstone_count})"
        )
