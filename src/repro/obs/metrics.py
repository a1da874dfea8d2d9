"""Named counters, gauges, and histograms with a Prometheus-style dump.

A :class:`MetricsRegistry` is a flat namespace of metric instruments.
Hot paths increment :class:`Counter` / observe into :class:`Histogram`
directly (one attribute bump, no locking -- the simulator is
single-threaded); *derived* values are contributed lazily by registered
**collectors**, callables invoked right before every :meth:`snapshot` /
:meth:`to_prometheus` so sampling costs nothing between dumps.

Two registry scopes exist in practice:

* the process-wide default :data:`REGISTRY` (Dijkstra run totals, global
  SPF cache counters -- registered by :mod:`repro.lsr.spf` and
  :mod:`repro.lsr.spfcache` at import), and
* one registry per protocol network (``DgmcNetwork.metrics`` and the
  baselines' equivalents), wired by :mod:`repro.obs.attach`, which the
  harness snapshots and diffs around the measured phase of every trial.

Everything here is stdlib-only; the module must stay a leaf so the sim
kernel and the SPF layer can import it without cycles.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
]

#: Default histogram bucket upper bounds (generic small-count scale).
DEFAULT_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class Counter:
    """A monotonically increasing value.

    ``labels`` is the rendered Prometheus label set (``{reason="..."}``,
    or empty): counters of one family share ``name`` and differ in it.
    """

    __slots__ = ("name", "help", "value", "labels")
    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: str = "") -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def set_total(self, value: float) -> None:
        """Set the absolute total (collector use: mirroring an external
        monotone counter into the registry)."""
        self.value = float(value)

    def samples(self) -> Iterable[Tuple[str, float]]:
        yield self.name + self.labels, self.value


class Gauge:
    """A value that can go up and down (sampled state, not a total)."""

    __slots__ = ("name", "help", "value")
    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def samples(self) -> Iterable[Tuple[str, float]]:
        yield self.name, self.value


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket is always
    present.  :meth:`observe` is O(#buckets) -- keep bucket lists short
    on hot paths.
    """

    __slots__ = ("name", "help", "buckets", "counts", "inf_count", "sum", "count")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(float(b) for b in buckets))
        self.counts = [0] * len(self.buckets)
        self.inf_count = 0
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value``."""
        self.sum += value * count
        self.count += count
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += count
                return
        self.inf_count += count

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at ``+Inf``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the buckets (0 <= q <= 1).

        Linear interpolation inside the winning bucket, the standard
        Prometheus ``histogram_quantile`` estimate.  Observations above
        the last finite bound clamp to that bound (there is no upper
        edge to interpolate toward); an empty histogram reports 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        running = 0
        for i, (bound, n) in enumerate(zip(self.buckets, self.counts)):
            if running + n >= rank and n > 0:
                lower = self.buckets[i - 1] if i > 0 else 0.0
                fraction = min(max((rank - running) / n, 0.0), 1.0)
                return lower + (bound - lower) * fraction
            running += n
        return self.buckets[-1] if self.buckets else 0.0

    def samples(self) -> Iterable[Tuple[str, float]]:
        # Flat (diffable) sample names; the Prometheus dump re-derives
        # the proper bucket label syntax from the instrument itself.
        yield f"{self.name}_count", float(self.count)
        yield f"{self.name}_sum", self.sum


def _format_bound(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


def _escape_help(text: str) -> str:
    """Escape HELP text per the Prometheus exposition format.

    Backslashes and newlines are the only characters the format escapes
    in HELP lines; an unescaped newline would otherwise break the dump
    into a bogus sample line.
    """
    return text.replace("\\", "\\\\").replace("\n", "\\n")


class MetricsRegistry:
    """Flat namespace of named instruments with lazy collectors."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # -- instrument access (get-or-create) ---------------------------------

    def _get(self, name: str, cls, **kw):
        key = name + kw.get("labels", "")
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, **kw)
            self._metrics[key] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        """Get or create a counter; ``labels`` (e.g. ``reason="..."``) pick
        one member of the family ``name``."""
        rendered = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
        if rendered:
            rendered = "{" + rendered + "}"
        return self._get(name, Counter, help=help, labels=rendered)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help=help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, help=help, buckets=buckets)
            self._metrics[name] = metric
        elif type(metric) is not Histogram:
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def get(self, name: str):
        """The instrument registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def register_collector(
        self, fn: Callable[["MetricsRegistry"], None]
    ) -> Callable[["MetricsRegistry"], None]:
        """Register ``fn(registry)`` to run before every snapshot/dump."""
        self._collectors.append(fn)
        return fn

    def collect(self) -> None:
        for fn in self._collectors:
            fn(self)

    # -- output ------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{sample_name: value}`` after running the collectors.

        Histograms contribute ``<name>_count`` and ``<name>_sum``
        samples, so the snapshot is closed under :meth:`delta`.
        """
        self.collect()
        out: Dict[str, float] = {}
        for metric in self._metrics.values():
            for sample, value in metric.samples():
                out[sample] = value
        return out

    def delta(self, before: Dict[str, float]) -> Dict[str, float]:
        """Snapshot diffed against ``before``.

        Monotone samples (counters, histogram count/sum) are subtracted;
        gauges report their *current* value (a level, not a total).
        Samples absent from ``before`` diff against zero.
        """
        self.collect()
        out: Dict[str, float] = {}
        for metric in self._metrics.values():
            monotone = metric.kind != "gauge"
            for sample, value in metric.samples():
                out[sample] = value - before.get(sample, 0.0) if monotone else value
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition of every instrument."""
        self.collect()
        lines: List[str] = []
        described = set()
        for metric in self._metrics.values():
            if metric.name not in described:  # once per labelled family
                described.add(metric.name)
                if metric.help:
                    lines.append(
                        f"# HELP {metric.name} {_escape_help(metric.help)}"
                    )
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                for bound, cum in metric.cumulative():
                    lines.append(
                        f'{metric.name}_bucket{{le="{_format_bound(bound)}"}} {cum}'
                    )
                lines.append(f"{metric.name}_sum {_format_value(metric.sum)}")
                lines.append(f"{metric.name}_count {metric.count}")
            else:
                labels = getattr(metric, "labels", "")
                lines.append(f"{metric.name}{labels} {_format_value(metric.value)}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop all instruments and collectors (test isolation)."""
        self._metrics.clear()
        self._collectors.clear()

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MetricsRegistry({len(self._metrics)} metrics)"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


#: Process-wide default registry (global instrumentation totals).
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY


def merge_sum(parts: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Key-wise sum of snapshot/delta dicts (sweep-level aggregation)."""
    total: Dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0.0) + value
    return total
