"""Tests for the allocator's ordered free list.

(The file and test names date from the AVL tree the free list replaced;
they are kept so the suite's test IDs stay stable.  What they pin is the
ordered-set contract both structures share.)
"""

import numpy as np
import pytest

from repro.clampi.allocator import FreeList


class TestBasicOps:
    def test_empty(self):
        t = FreeList()
        assert len(t) == 0
        assert not t
        assert t == []
        assert t.ceiling(0) is None
        assert list(t) == []
        t.check_invariants()

    def test_insert_and_contains(self):
        t = FreeList()
        for k in [5, 3, 8, 1, 4]:
            t.add(k)
        assert len(t) == 5
        assert 3 in t and 8 in t
        assert 7 not in t

    def test_duplicate_insert_rejected(self):
        t = FreeList()
        t.add(5)
        with pytest.raises(KeyError):
            t.add(5)
        assert list(t) == [5]

    def test_remove(self):
        t = FreeList()
        for k in range(10):
            t.add(k)
        t.remove(5)
        assert 5 not in t
        assert len(t) == 9
        t.check_invariants()

    def test_remove_missing_rejected(self):
        t = FreeList()
        t.add(1)
        with pytest.raises(KeyError):
            t.remove(2)
        with pytest.raises(KeyError):
            t.remove(0)
        assert list(t) == [1]

    def test_inorder_iteration_sorted(self):
        t = FreeList()
        keys = [9, 2, 7, 4, 1, 8, 3]
        for k in keys:
            t.add(k)
        assert list(t) == sorted(keys)


class TestQueries:
    def setup_method(self):
        self.t = FreeList()
        for k in [10, 20, 30, 40]:
            self.t.add(k)

    def test_ceiling(self):
        assert self.t.ceiling(15) == 20
        assert self.t.ceiling(20) == 20
        assert self.t.ceiling(41) is None
        assert self.t.ceiling(-5) == 10

    def test_floor(self):
        # No floor query here; what it told is where ceiling splits the
        # sorted iteration: everything before ceiling(k) is < k.
        for k, below in [(15, [10]), (20, [10]), (5, []),
                         (100, [10, 20, 30, 40])]:
            assert list(self.t)[:len(below)] == below
            assert self.t.ceiling(k) == (list(self.t) + [None])[len(below)]

    def test_min_max(self):
        assert next(iter(self.t)) == 10
        assert self.t[-1] == 40

    def test_tuple_keys(self):
        # (size, start) extents: ceiling((size, -1)) is the best fit.
        t = FreeList()
        t.add((10, 3))
        t.add((10, 1))
        t.add((5, 9))
        assert t.ceiling((10, -1)) == (10, 1)
        assert t.ceiling((6, -1)) == (10, 1)
        assert t.ceiling((11, -1)) is None
        assert next(iter(t)) == (5, 9)


class TestBalance:
    def test_sequential_insert_stays_balanced(self):
        # The tree's worst case (sorted input) is the list's best: appends.
        t = FreeList()
        for k in range(1000):
            t.add(k)
        t.check_invariants()
        assert list(t) == list(range(1000))
        assert t.ceiling(999) == 999 and t.ceiling(1000) is None

    def test_random_churn_keeps_invariants(self):
        rng = np.random.default_rng(5)
        t = FreeList()
        present = set()
        for _ in range(2000):
            k = int(rng.integers(0, 300))
            if k in present:
                t.remove(k)
                present.discard(k)
            else:
                t.add(k)
                present.add(k)
        t.check_invariants()
        assert list(t) == sorted(present)

    def test_remove_all(self):
        t = FreeList()
        keys = list(range(100))
        for k in keys:
            t.add(k)
        for k in keys[::-1]:
            t.remove(k)
        assert len(t) == 0
        t.check_invariants()

    def test_invariant_check_catches_disorder(self):
        t = FreeList()
        t.extend([3, 1])
        with pytest.raises(AssertionError):
            t.check_invariants()
