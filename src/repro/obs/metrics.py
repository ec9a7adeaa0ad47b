"""Typed metrics: counters, gauges and histograms behind one registry.

The :class:`MetricsRegistry` keeps a counter cheap (one attribute add on
a slotted object — no locks, no labels, no string formatting on the hot
path) while giving every metric a name, a type and a single
:meth:`~MetricsRegistry.snapshot` that downstream reports delegate to.

Existing report dictionaries are frozen API surface (committed
``BENCH_*.json`` files diff against them), so ``AsyncServeOutcome``
*builds* its dict through a registry but emits byte-identical keys and
values.  :meth:`~repro.clampi.stats.CacheStats.snapshot` reads its
plain-int counters directly, with no registry.
"""

from __future__ import annotations

from typing import Dict, List, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

Number = Union[int, float]


class Counter:
    """A monotonically increasing integer-or-float count."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc by {amount})")
        self.value += amount

    def snapshot(self) -> Number:
        return self.value


class Gauge:
    """A value that can go up and down (queue depth, window width)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount

    def snapshot(self) -> Number:
        return self.value


class Histogram:
    """Streaming distribution: count/sum/min/max plus exact quantiles.

    Observations are retained (these are simulation-scale cardinalities,
    thousands not billions), so quantiles are exact, not bucketed.
    """

    __slots__ = ("name", "help", "_values")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: List[float] = []

    def observe(self, value: Number) -> None:
        self._values.append(float(value))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        return float(sum(self._values))

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[idx]

    def snapshot(self) -> Dict[str, float]:
        if not self._values:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": min(self._values),
            "max": max(self._values),
            "mean": self.sum / self.count,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A flat, ordered namespace of typed metrics.

    Metrics are created on first request and returned on every later
    one; asking for an existing name with a different type is a bug and
    raises.  :meth:`snapshot` walks metrics in registration order, so a
    registry populated in a report's historical key order reproduces
    that report dict exactly.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, cls, help: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}")
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(name, Histogram, help)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        return list(self._metrics)

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def snapshot(self) -> Dict[str, object]:
        """Every metric's current value, in registration order.

        Counters and gauges flatten to their scalar; histograms to their
        stats dict.  The result is plain JSON-serializable data.
        """
        return {name: metric.snapshot()
                for name, metric in self._metrics.items()}
