"""The oriented triangle pass at size: oracles, peak memory, key width."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.core import local
from repro.core.intersect import KeySet
from repro.core.local import (
    WEDGE_BUDGET,
    check_packable,
    oriented_triangle_scores,
    triangles_min_vertex,
    triangles_per_vertex_matrix,
)
from repro.graph.generators import rmat
from repro.utils.errors import ConfigError

# tracemalloc peak of one pass on rmat(13, 8, seed=1) when its wedges were
# closed by binary search over all 2m packed keys: 14,935,726 B (NumPy
# 2.4).  The key set may add its table to that, and nothing else.
SEARCH_PASS_PEAK = 14_935_726


@pytest.mark.parametrize("budget", [4096, WEDGE_BUDGET])
def test_mid_size_rmat_equals_the_matrix_oracles(budget):
    # Hub rows hundreds of entries long: many strips at 4096, long probe
    # runs in the key set.
    graph = rmat(10, 16, seed=1)
    tpv, tmin = oriented_triangle_scores(graph, budget=budget)
    np.testing.assert_array_equal(tpv, triangles_per_vertex_matrix(graph))
    np.testing.assert_array_equal(tmin, triangles_min_vertex(graph))


def test_peak_is_the_search_pass_plus_the_table(monkeypatch):
    graph = rmat(13, 8, seed=1)
    built = []

    class Recorded(KeySet):
        def __init__(self, keys):
            super().__init__(keys)
            built.append(self)

    monkeypatch.setattr(local, "KeySet", Recorded)
    tracemalloc.start()
    try:
        oriented_triangle_scores(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(built) == 1
    assert peak <= SEARCH_PASS_PEAK + built[0].table.nbytes


class TestKeyWidth:
    def test_largest_packable_vertex_count(self):
        # 3,037,000,499 ** 2 < 2**63 - 1 < 3,037,000,500 ** 2.
        check_packable(0)
        check_packable(3_037_000_499)
        for n in (3_037_000_500, 2**32):
            with pytest.raises(ConfigError, match="overflow int64"):
                check_packable(n)

    def test_the_pass_checks_before_counting(self):
        graph = rmat(6, 4, seed=1)
        with mock.patch.object(local, "check_packable",
                               side_effect=ConfigError("overflow int64")
                               ) as check, \
                mock.patch.object(local, "KeySet") as key_set:
            with pytest.raises(ConfigError):
                oriented_triangle_scores(graph)
        check.assert_called_once_with(graph.n)
        key_set.assert_not_called()
