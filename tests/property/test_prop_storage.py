"""Property tests: the heap against a reference model.

A random sequence of insert / delete / vacuum / rewrite operations is run
against both the heap and a plain dict model; live contents must always
agree, and the physical accounting invariants must hold at every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.storage.heap import HeapFile
from repro.storage.page import PAGE_SIZE, TUPLE_OVERHEAD


class HeapMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.heap = HeapFile("prop")
        self.model = {}       # key -> payload (live truth)
        self.tids = {}        # key -> tid
        self.counter = 0

    @rule(size=st.integers(min_value=1, max_value=400))
    def insert(self, size):
        key = f"k{self.counter}"
        self.counter += 1
        tid = self.heap.insert(key, f"v-{key}", size)
        self.model[key] = f"v-{key}"
        self.tids[key] = tid

    @rule(pick=st.randoms(use_true_random=False))
    def delete_one(self, pick):
        if not self.model:
            return
        key = pick.choice(sorted(self.model))
        self.heap.mark_dead(self.tids[key])
        del self.model[key]
        del self.tids[key]

    @rule()
    def vacuum(self):
        self.heap.vacuum()

    @rule()
    def rewrite(self):
        mapping = self.heap.rewrite()
        assert set(mapping) == set(self.model)
        self.tids = {key: tid for key, (tid, _slot) in mapping.items()}

    @invariant()
    def live_contents_agree(self):
        scanned = {slot.key: slot.payload for _tid, slot in self.heap.scan()}
        assert scanned == self.model

    @invariant()
    def counters_agree(self):
        assert self.heap.live_tuples == len(self.model)
        assert self.heap.dead_tuples >= 0

    @invariant()
    def counters_equal_page_sums(self):
        """The O(1) file totals never drift from what the pages hold."""
        pages = [self.heap.page(n) for n in range(self.heap.page_count)]
        live = sum(p.live_count for p in pages)
        dead = sum(p.dead_count for p in pages)
        assert (self.heap.live_tuples, self.heap.dead_tuples) == (live, dead)
        assert self.heap.dead_fraction == (dead / (live + dead) if live + dead else 0.0)

    @invariant()
    def tids_resolve(self):
        for key, tid in self.tids.items():
            slot = self.heap.fetch(tid)
            assert slot.key == key and slot.live

    @invariant()
    def page_accounting(self):
        for page_no in range(self.heap.page_count):
            page = self.heap.page(page_no)
            occupied = page.live_bytes + page.dead_bytes
            assert occupied + page.free_bytes == PAGE_SIZE
            assert page.live_bytes >= page.live_count * TUPLE_OVERHEAD or page.live_count == 0


TestHeapMachine = HeapMachine.TestCase
TestHeapMachine.settings = settings(max_examples=30, stateful_step_count=30,
                                    deadline=None)


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=80)
)
@settings(max_examples=40, deadline=None)
def test_file_never_shrinks_without_rewrite(sizes):
    heap = HeapFile("t")
    pages_seen = 0
    for i, size in enumerate(sizes):
        heap.insert(i, "v", size)
        assert heap.page_count >= pages_seen
        pages_seen = heap.page_count


@given(
    n=st.integers(min_value=1, max_value=120),
    delete_fraction=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_dead_fraction_bounds(n, delete_fraction):
    heap = HeapFile("t")
    tids = [heap.insert(i, "v", 50) for i in range(n)]
    to_delete = int(n * delete_fraction)
    for tid in tids[:to_delete]:
        heap.mark_dead(tid)
    assert 0.0 <= heap.dead_fraction <= 1.0
    assert heap.dead_tuples == to_delete
    heap.vacuum()
    assert heap.dead_fraction == 0.0
