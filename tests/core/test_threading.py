"""Tests for the OpenMP cost model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.threading import OpenMPModel, exact_log2
from repro.runtime.compute import ComputeModel


class TestScaling:
    def test_more_threads_never_slower_above_cutoff(self):
        m1 = OpenMPModel(threads=1)
        m16 = OpenMPModel(threads=16)
        # Big lists parallelize well.
        assert m16.ssi_time(5000, 5000) < m1.ssi_time(5000, 5000)
        assert (m16.binary_search_time(3000, 50_000)
                < m1.binary_search_time(3000, 50_000))

    def test_speedup_saturates(self):
        # The Figure 6 shape: 16 threads nowhere near 16x on typical edges.
        m1 = OpenMPModel(threads=1)
        m16 = OpenMPModel(threads=16)
        speedup = m1.ssi_time(400, 400) / m16.ssi_time(400, 400)
        assert 1.0 < speedup < 8.0

    def test_small_lists_stay_sequential(self):
        cm = ComputeModel()
        m = OpenMPModel(threads=16, cutoff=128, compute=cm)
        # Total length below the cut-off: identical to the sequential model.
        assert m.ssi_time(20, 20) == cm.ssi_time(20, 20)

    def test_region_overhead_hurts_small_parallel_work(self):
        m = OpenMPModel(threads=16, cutoff=0)
        cm = ComputeModel()
        # Just above cutoff 0, parallel pays the region entry and can lose.
        assert m.ssi_time(30, 30) > cm.ssi_time(30, 30) * 0.5


class TestWaitPolicy:
    def test_active_cheaper_than_passive(self):
        a = OpenMPModel(threads=8, wait_policy="active")
        p = OpenMPModel(threads=8, wait_policy="passive")
        assert a.ssi_time(5000, 5000) < p.ssi_time(5000, 5000)

    def test_improvement_is_percent_level(self):
        # The paper measured 2-4% with OMP_WAIT_POLICY=active.
        a = OpenMPModel(threads=16, wait_policy="active")
        p = OpenMPModel(threads=16, wait_policy="passive")
        ta, tp = a.ssi_time(800, 800), p.ssi_time(800, 800)
        assert 0.0 < (tp - ta) / tp < 0.25

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            OpenMPModel(wait_policy="lazy")


class TestDispatch:
    def test_kernel_time_dispatch(self):
        m = OpenMPModel(threads=4)
        assert m.kernel_time("ssi", 10, 10) == m.ssi_time(10, 10)
        assert m.kernel_time("binary", 10, 10) == m.binary_search_time(10, 10)
        assert m.kernel_time("hybrid", 10, 10) == m.hybrid_time(10, 10)
        with pytest.raises(ValueError):
            m.kernel_time("nope", 1, 1)

    def test_hybrid_picks_per_rule(self):
        m = OpenMPModel(threads=4)
        assert m.hybrid_time(500, 500) == m.ssi_time(500, 500)
        assert m.hybrid_time(10, 100_000) == m.binary_search_time(10, 100_000)

    def test_with_threads(self):
        m = OpenMPModel(threads=1, cutoff=99)
        m2 = m.with_threads(8)
        assert m2.threads == 8
        assert m2.cutoff == 99

    def test_validation(self):
        with pytest.raises(Exception):
            OpenMPModel(threads=0)


#: Lengths where a vectorized log2 is most likely to be off by an ulp:
#: 1621 (a known case), every power of two and its neighbours, hubs.  The
#: values are list lengths (the table has ``max + 1`` rows), so they stop
#: at hub degrees of a few million.
SPECIAL_LENGTHS = sorted({1621, 1, 2, 3, *(
    2 ** k + d for k in range(1, 22) for d in (-1, 0, 1))})


class TestExactLog2:
    @given(st.lists(st.one_of(st.sampled_from(SPECIAL_LENGTHS),
                              st.integers(min_value=1, max_value=4096),
                              st.integers(min_value=1, max_value=2_000_000)),
                    min_size=1, max_size=200),
           st.sampled_from([np.float64, np.int64]))
    @settings(max_examples=200, deadline=None)
    def test_equals_math_log2_per_element(self, lengths, dtype):
        x = np.array(lengths, dtype=dtype)
        got = exact_log2(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert [v.hex() for v in got.tolist()] == \
            [math.log2(float(v)).hex() for v in lengths]

    def test_known_one_ulp_case(self):
        assert exact_log2(np.array([1621.0]))[0] == math.log2(1621.0)
        assert np.log2(1621.0) != math.log2(1621.0)  # why the table exists

    def test_keeps_the_shape(self):
        x = np.array([[2.0, 1621.0], [4.0, 2.0]])
        assert exact_log2(x).tolist() == [[1.0, math.log2(1621.0)],
                                          [2.0, 1.0]]
        assert exact_log2(np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("bad", [[2.5], [3.0, 0.1], [float("nan")],
                                     [float("inf")], [0.0], [-4.0]])
    def test_rejects_non_positive_integers(self, bad):
        with pytest.raises(ValueError):
            exact_log2(np.array(bad))
