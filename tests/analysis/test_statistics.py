"""Tests for the measurement-methodology helpers."""

import numpy as np
import pytest

from repro.analysis.statistics import (
    MedianCI,
    median_ci,
    repeat_over_seeds,
)


class TestMedianCI:
    def test_single_sample(self):
        ci = median_ci([3.0])
        assert (ci.median, ci.lo, ci.hi, ci.n) == (3.0, 3.0, 3.0, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_ci([])

    def test_median_inside_interval(self):
        rng = np.random.default_rng(0)
        samples = rng.lognormal(0, 0.3, 31)
        ci = median_ci(samples)
        assert ci.lo <= ci.median <= ci.hi

    def test_interval_narrows_with_samples(self):
        rng = np.random.default_rng(0)
        pop = rng.normal(10, 1, 1000)
        narrow = median_ci(pop[:400])
        wide = median_ci(pop[:10])
        assert (narrow.hi - narrow.lo) < (wide.hi - wide.lo)

    def test_coverage_on_known_distribution(self):
        # The 95% CI should contain the true median ~95% of the time.
        rng = np.random.default_rng(1)
        hits = 0
        trials = 200
        for _ in range(trials):
            samples = rng.normal(0, 1, 25)
            ci = median_ci(samples)
            hits += ci.lo <= 0.0 <= ci.hi
        assert hits / trials > 0.85

    def test_half_width_fraction(self):
        ci = MedianCI(median=10.0, lo=9.0, hi=10.5, n=20)
        assert ci.half_width_fraction == pytest.approx(0.1)

    def test_zero_median(self):
        assert MedianCI(0.0, 0.0, 0.0, 3).half_width_fraction == 0.0


class TestRepeatOverSeeds:
    def test_summarizes_simulated_runs(self):
        from repro.core.config import LCCConfig
        from repro.core.lcc import run_distributed_lcc
        from repro.graph.generators import rmat

        def run(seed: int) -> float:
            g = rmat(6, 4, seed=seed)
            return run_distributed_lcc(g, LCCConfig(nranks=4)).time

        ci = repeat_over_seeds(run, seeds=range(5))
        assert ci.n == 5
        assert ci.lo <= ci.median <= ci.hi
        assert ci.median > 0

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            repeat_over_seeds(lambda s: 1.0, seeds=[])

    def test_deterministic_per_seed(self):
        from repro.core.config import LCCConfig
        from repro.core.lcc import run_distributed_lcc
        from repro.graph.generators import rmat

        def run(seed: int) -> float:
            g = rmat(6, 4, seed=seed)
            return run_distributed_lcc(g, LCCConfig(nranks=4)).time

        a = repeat_over_seeds(run, seeds=[1, 2, 3])
        b = repeat_over_seeds(run, seeds=[1, 2, 3])
        assert a == b
