"""Measurement methodology: medians and confidence intervals.

The paper follows scientific-benchmarking practice (LibLSB, Hoefler &
Belli): shared-memory runs repeat "until the 5% of the median was within
the 95% CI"; distributed runs report "the median of the longest-running
node ... with the corresponding 95% CI" (Section IV-A).

Our simulator is deterministic for a fixed seed, so repeating a run
never changes its time and the paper's adaptive stopping rule has nothing
to stop; the analogue of a repetition is a different *seed* (new graph
sample / relabeling).  This module provides the estimators:

* :func:`median_ci` — nonparametric order-statistic 95% CI of the median;
* :func:`repeat_over_seeds` — run an experiment across seeds and summarize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.stats as stats


@dataclass(frozen=True)
class MedianCI:
    """A median with a (lo, hi) confidence interval."""

    median: float
    lo: float
    hi: float
    n: int
    confidence: float = 0.95

    @property
    def half_width_fraction(self) -> float:
        """CI half-width as a fraction of the median (the paper's 5% rule)."""
        if self.median == 0:
            return 0.0
        return max(self.hi - self.median, self.median - self.lo) / abs(self.median)


def median_ci(samples: Sequence[float], confidence: float = 0.95) -> MedianCI:
    """Nonparametric CI of the median via binomial order statistics.

    For n samples the rank interval [l, u] such that
    ``P(x_(l) <= median <= x_(u)) >= confidence`` comes from the
    Binomial(n, 1/2) distribution; this is the standard distribution-free
    median CI (and what LibLSB reports).
    """
    xs = np.sort(np.asarray(list(samples), dtype=np.float64))
    n = xs.shape[0]
    if n == 0:
        raise ValueError("need at least one sample")
    med = float(np.median(xs))
    if n == 1:
        return MedianCI(med, med, med, 1, confidence)
    # Smallest symmetric rank band with >= confidence coverage.
    lo_idx, hi_idx = 0, n - 1
    dist = stats.binom(n, 0.5)
    for k in range(n // 2 + 1):
        cover = dist.cdf(n - 1 - k) - dist.cdf(k - 1)
        if cover >= confidence:
            lo_idx, hi_idx = k, n - 1 - k
        else:
            break
    return MedianCI(med, float(xs[lo_idx]), float(xs[hi_idx]), n, confidence)


def repeat_over_seeds(
    run_fn: Callable[[int], float],
    seeds: Sequence[int],
    confidence: float = 0.95,
) -> MedianCI:
    """Evaluate ``run_fn(seed)`` for every seed and summarize."""
    if not seeds:
        raise ValueError("need at least one seed")
    return median_ci([run_fn(int(s)) for s in seeds], confidence)
