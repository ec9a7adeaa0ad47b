"""Property-based tests: the allocator's free list as an ordered set.

(Named for the AVL tree the free list replaced; test IDs are kept stable.)
The oracle is a plain Python ``set`` sorted on demand.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clampi.allocator import FreeList

ops = st.lists(
    st.tuples(st.sampled_from(["insert", "remove", "ceiling", "floor"]),
              st.integers(min_value=0, max_value=60)),
    max_size=200,
)


@given(ops)
@settings(max_examples=150)
def test_avl_matches_sorted_list_oracle(operations):
    tree = FreeList()
    oracle: set[int] = set()
    for op, key in operations:
        if op == "insert":
            if key in oracle:
                with pytest.raises(KeyError):
                    tree.add(key)
            else:
                tree.add(key)
                oracle.add(key)
        elif op == "remove":
            if key in oracle:
                tree.remove(key)
                oracle.discard(key)
            else:
                with pytest.raises(KeyError):
                    tree.remove(key)
        elif op == "ceiling":
            assert tree.ceiling(key) == min((k for k in oracle if k >= key),
                                            default=None)
        elif op == "floor":  # no floor query: membership covers the rest
            assert (key in tree) == (key in oracle)
        assert (tree[-1] if tree else None) == max(oracle, default=None)
    assert list(tree) == sorted(oracle)
    assert len(tree) == len(oracle)
    tree.check_invariants()


@given(st.lists(st.integers(), unique=True, max_size=300))
def test_avl_iteration_sorted(keys):
    tree = FreeList()
    for k in keys:
        tree.add(k)
    assert list(tree) == sorted(keys)
    tree.check_invariants()
