"""A thread-safe metrics core with Prometheus text-format exposition.

The service tier needs numbers an operator can scrape — slot
utilisation, queue latency, cache effectiveness — without pulling in a
metrics client library.  This module is the stdlib-only core behind
``GET /v1/metrics``: three instrument kinds (:class:`Counter`,
:class:`Gauge`, :class:`Histogram`), each optionally **labelled**,
registered in a :class:`MetricsRegistry` that renders the whole set in
the Prometheus text format (version 0.0.4).

Design points, in the spirit of the official client libraries:

* **Instruments are cheap and thread-safe.**  Every mutation takes one
  lock per metric family; scheduler slots, HTTP handler threads and
  batch runs hammer the same counters concurrently (the race test in
  ``tests/obs`` asserts exact totals under contention).
* **Labels are curried.**  ``counter.labels(route="/v1/jobs")`` returns
  a child bound to those label values; children are created on first
  use and enumerate deterministically (sorted by label values) in the
  exposition output.
* **Timers are monotonic.**  ``histogram.time()`` is a context manager
  measuring :func:`time.perf_counter` intervals, immune to wall-clock
  steps.
* **Scrape-time values are callbacks.**  A :class:`Gauge` may be
  registered with ``callback=``, so state that already lives elsewhere
  (queue depth, journal file size, uptime) is read at exposition time
  instead of being pushed on every change.

:func:`parse_exposition` is the inverse of :meth:`MetricsRegistry.render`
— a small parser the CLI pretty-printer and the reconciliation tests use
to consume the text format without regex soup.  :func:`merge_expositions`
sums several expositions (a fleet's workers) sample by sample and renders
the result with the same code as :meth:`MetricsRegistry.render`.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.exceptions import ReproError

#: Content type of the exposition output (the value Prometheus scrapers
#: send in ``Accept`` and expect back in ``Content-Type``).
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default histogram buckets, in seconds — tuned for request/queue
#: latencies between a cache hit (~ms) and a long compilation (minutes).
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

#: Service HTTP-latency buckets, in seconds.  Retuned against the
#: measured loadgen distributions in
#: ``benchmarks/results/BENCH_service_throughput.json``: every profile
#: lands between ~3 ms (results-stream p50) and ~66 ms (burst max), a
#: band the default buckets cross with only three edges (10/25/50 ms).
#: The sub-100 ms region gets edges bracketing the observed p50s
#: (3–19 ms) and p95s (4–62 ms); the tail keeps sparse coverage out to
#: the longest plausible synchronous request.
SERVICE_LATENCY_BUCKETS = (
    0.001, 0.002, 0.003, 0.005, 0.0075, 0.01, 0.015, 0.02, 0.03,
    0.045, 0.065, 0.1, 0.25, 1.0, 5.0, 30.0, 120.0,
)

#: Scheduler queue-wait buckets, in seconds.  Queue latency is bimodal:
#: near-zero when a slot is free (the common case in the benchmark
#: profiles, where waits track the sub-100 ms request band) and
#: compilation-scale when every slot is busy — so the low end mirrors
#: :data:`SERVICE_LATENCY_BUCKETS` while the tail stretches to the
#: multi-minute drain ceiling.
QUEUE_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.02, 0.045, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 15.0, 60.0, 300.0,
)

_METRIC_TYPES = ("counter", "gauge", "histogram")


def format_value(value: float) -> str:
    """Render one sample value the way Prometheus expects.

    Integral values print without a fractional part (``3``, not
    ``3.0``); everything else uses ``repr`` (shortest round-trip form);
    infinities print as ``+Inf``/``-Inf``.
    """
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):  # pragma: no cover - nothing here produces NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


_NAME_OK = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str, what: str) -> None:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ReproError(f"invalid {what} name {name!r}")


@dataclass(frozen=True)
class Sample:
    """One exposition line: ``name{labels} value``."""

    name: str
    labels: "tuple[tuple[str, str], ...]"
    value: float

    def labels_dict(self) -> dict[str, str]:
        return dict(self.labels)


def _render_sample(sample: Sample) -> str:
    if sample.labels:
        rendered = ",".join(
            f'{label}="{_escape_label_value(value)}"' for label, value in sample.labels
        )
        return f"{sample.name}{{{rendered}}} {format_value(sample.value)}"
    return f"{sample.name} {format_value(sample.value)}"


def _render_families(
    families: "Iterable[tuple[str, str, str, Iterable[Sample]]]",
) -> "list[str]":
    """Exposition lines of ``(name, kind, help, samples)`` families."""
    lines: list[str] = []
    for name, kind, help_text, samples in families:
        lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(_render_sample(sample) for sample in samples)
    return lines


class _Child:
    """One (label values → state) cell of a metric family."""

    __slots__ = ("_family",)

    def __init__(self, family: "_Metric") -> None:
        self._family = family


class _CounterChild(_Child):
    __slots__ = ("_value",)

    def __init__(self, family: "_Metric") -> None:
        super().__init__(family)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative: counters only go up)."""
        if amount < 0:
            raise ReproError("counters can only increase")
        with self._family._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._family._lock:
            return self._value


class _GaugeChild(_Child):
    __slots__ = ("_value",)

    def __init__(self, family: "_Metric") -> None:
        super().__init__(family)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._family._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._family._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._family._lock:
            return self._value


class _HistogramChild(_Child):
    __slots__ = ("_bucket_counts", "_sum", "_count")

    def __init__(self, family: "Histogram") -> None:
        super().__init__(family)
        self._bucket_counts = [0] * len(family.buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        family: "Histogram" = self._family  # type: ignore[assignment]
        with family._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(family.buckets):
                if value <= bound:
                    self._bucket_counts[index] += 1
                    break

    def time(self) -> "_Timer":
        """A context manager observing the block's monotonic duration."""
        return _Timer(self)

    @property
    def count(self) -> int:
        with self._family._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._family._lock:
            return self._sum


class _Timer:
    """Context manager feeding ``perf_counter`` intervals to a histogram."""

    __slots__ = ("_child", "_start")

    def __init__(self, child: _HistogramChild) -> None:
        self._child = child
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._child.observe(time.perf_counter() - self._start)


class _Metric:
    """A metric family: shared name/help/type plus per-label children."""

    kind = "untyped"
    _child_class: type = _Child

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        _check_name(name, "metric")
        for label in labelnames:
            _check_name(label, "label")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: "dict[tuple[str, ...], Any]" = {}
        if not self.labelnames:
            # An unlabelled metric is its own single child, so callers
            # use ``counter.inc()`` directly without ``.labels()``.
            self._children[()] = self._child_class(self)

    def labels(self, **labelvalues: str) -> Any:
        """The child bound to these label values (created on first use)."""
        if set(labelvalues) != set(self.labelnames):
            raise ReproError(
                f"metric {self.name!r} takes labels {self.labelnames!r}, "
                f"got {tuple(sorted(labelvalues))!r}"
            )
        key = tuple(str(labelvalues[label]) for label in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._child_class(self)
            return child

    def _sole_child(self) -> Any:
        if self.labelnames:
            raise ReproError(
                f"metric {self.name!r} is labelled ({self.labelnames!r}); "
                "bind values with .labels() first"
            )
        return self._children[()]

    def _items(self) -> "list[tuple[tuple[str, ...], Any]]":
        with self._lock:
            return sorted(self._children.items())

    def samples(self) -> Iterator[Sample]:
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing count (requests served, jobs run)."""

    kind = "counter"
    _child_class = _CounterChild

    def inc(self, amount: float = 1.0) -> None:
        self._sole_child().inc(amount)

    @property
    def value(self) -> float:
        return self._sole_child().value

    def samples(self) -> Iterator[Sample]:
        for key, child in self._items():
            yield Sample(self.name, tuple(zip(self.labelnames, key)), child.value)


class Gauge(_Metric):
    """A value that goes both ways (queue depth, bytes on disk).

    With ``callback=`` the gauge is read-only and its value is the
    callback's return at exposition time — the natural fit for state
    that already lives in another data structure.
    """

    kind = "gauge"
    _child_class = _GaugeChild

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        callback: "Callable[[], float] | None" = None,
    ) -> None:
        if callback is not None and labelnames:
            raise ReproError("callback gauges cannot be labelled")
        super().__init__(name, help, labelnames)
        self.callback = callback

    def set(self, value: float) -> None:
        self._sole_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._sole_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._sole_child().dec(amount)

    @property
    def value(self) -> float:
        if self.callback is not None:
            return float(self.callback())
        return self._sole_child().value

    def samples(self) -> Iterator[Sample]:
        if self.callback is not None:
            yield Sample(self.name, (), float(self.callback()))
            return
        for key, child in self._items():
            yield Sample(self.name, tuple(zip(self.labelnames, key)), child.value)


class Histogram(_Metric):
    """A distribution of observations in cumulative buckets.

    Exposes ``<name>_bucket{le="..."}`` (cumulative counts including the
    implicit ``+Inf`` bucket), ``<name>_sum`` and ``<name>_count`` — the
    shape every Prometheus quantile query expects.
    """

    kind = "histogram"
    _child_class = _HistogramChild

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = [float(b) for b in buckets]
        if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ReproError("histogram buckets must be sorted and distinct")
        if not bounds or not math.isinf(bounds[-1]):
            bounds.append(math.inf)
        if "le" in labelnames:
            raise ReproError("'le' is reserved for the bucket label")
        self.buckets = tuple(bounds)
        super().__init__(name, help, labelnames)

    def observe(self, value: float) -> None:
        self._sole_child().observe(value)

    def time(self) -> _Timer:
        return self._sole_child().time()

    @property
    def count(self) -> int:
        return self._sole_child().count

    @property
    def sum(self) -> float:
        return self._sole_child().sum

    def samples(self) -> Iterator[Sample]:
        for key, child in self._items():
            base = tuple(zip(self.labelnames, key))
            with self._lock:
                counts = list(child._bucket_counts)
                total = child._count
                acc_sum = child._sum
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                yield Sample(
                    f"{self.name}_bucket",
                    base + (("le", format_value(bound)),),
                    cumulative,
                )
            yield Sample(f"{self.name}_sum", base, acc_sum)
            yield Sample(f"{self.name}_count", base, total)


class MetricsRegistry:
    """A named set of instruments rendered together as one exposition.

    Re-requesting a name with the same kind and labels returns the
    existing instrument (so independent components can share a family);
    a mismatched re-registration raises — silent double registration is
    how metrics get corrupted.  ``register_collector`` adds a callable
    producing extra metric families at scrape time, for values mirrored
    from existing data structures (cache statistics, job censuses)
    without event-time hooks.
    """

    def __init__(self, namespace: str = "") -> None:
        if namespace:
            _check_name(namespace, "namespace")
        self.namespace = namespace
        self._lock = threading.Lock()
        self._metrics: "dict[str, _Metric]" = {}
        self._collectors: "list[Callable[[], Iterator[_Metric] | list[_Metric]]]" = []

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def _full_name(self, name: str) -> str:
        return f"{self.namespace}_{name}" if self.namespace else name

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if (
                    type(existing) is not type(metric)
                    or existing.labelnames != metric.labelnames
                ):
                    raise ReproError(
                        f"metric {metric.name!r} is already registered with a "
                        "different kind or label set"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        """Get or create a :class:`Counter` under this registry."""
        return self._register(Counter(self._full_name(name), help, labelnames))  # type: ignore[return-value]

    def gauge(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        callback: "Callable[[], float] | None" = None,
    ) -> Gauge:
        """Get or create a :class:`Gauge` (optionally callback-backed)."""
        return self._register(  # type: ignore[return-value]
            Gauge(self._full_name(name), help, labelnames, callback=callback)
        )

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create a :class:`Histogram` with the given buckets."""
        return self._register(  # type: ignore[return-value]
            Histogram(self._full_name(name), help, labelnames, buckets=buckets)
        )

    def register_collector(
        self, collector: "Callable[[], Iterator[_Metric] | list[_Metric]]"
    ) -> None:
        """Add a callable yielding extra metric families at scrape time.

        Collectors run on every :meth:`render`/:meth:`collect`; they
        build short-lived :class:`Counter`/:class:`Gauge` instances
        (never registered, so names must not clash with registered
        instruments) from state they snapshot at call time.
        """
        with self._lock:
            self._collectors.append(collector)

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    def collect(self) -> "list[_Metric]":
        """Every metric family, registered first, then collector output."""
        with self._lock:
            families = list(self._metrics.values())
            collectors = list(self._collectors)
        for collector in collectors:
            families.extend(collector())
        return families

    def render(self) -> str:
        """The full Prometheus text-format exposition (version 0.0.4)."""
        lines = _render_families(
            (family.name, family.kind, family.help, family.samples())
            for family in self.collect()
        )
        return "\n".join(lines) + "\n"


@dataclass
class ParsedMetric:
    """One metric family recovered from exposition text."""

    name: str
    kind: str = "untyped"
    help: str = ""
    samples: list[Sample] = field(default_factory=list)

    def value(self, **labels: str) -> float:
        """The single sample value matching ``labels`` exactly."""
        wanted = {key: str(value) for key, value in labels.items()}
        matches = [s for s in self.samples if s.labels_dict() == wanted]
        if len(matches) != 1:
            raise KeyError(f"{self.name}: {len(matches)} samples match {wanted!r}")
        return matches[0].value


def parse_exposition(text: str) -> "dict[str, ParsedMetric]":
    """Parse Prometheus text format back into metric families.

    The inverse of :meth:`MetricsRegistry.render`, covering the subset
    this module emits (which is the subset the service produces).
    Histogram ``_bucket``/``_sum``/``_count`` series fold into their
    base family.  Raises :class:`~repro.exceptions.ReproError` on
    malformed lines, which is what makes it usable as a format validator
    in tests.
    """
    families: "dict[str, ParsedMetric]" = {}

    def family(name: str) -> ParsedMetric:
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                candidate = families[name[: -len(suffix)]]
                if candidate.kind == "histogram":
                    base = name[: -len(suffix)]
                break
        if base not in families:
            families[base] = ParsedMetric(base)
        return families[base]

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            _check_name(name, "metric")
            family(name).help = help_text.replace("\\n", "\n").replace("\\\\", "\\")
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            _check_name(name, "metric")
            if kind not in _METRIC_TYPES:
                raise ReproError(f"unknown metric type {kind!r} for {name!r}")
            family(name).kind = kind
            continue
        if line.startswith("#"):
            continue
        sample = _parse_sample_line(line)
        family(sample.name).samples.append(sample)
    return families


def merge_expositions(texts: Iterable[str]) -> str:
    """Sum several expositions into one, sample by sample.

    Samples with the same name and label set are added, so counters
    become totals and gauges sums; histogram ``_bucket``/``_sum``/
    ``_count`` series add like any other sample.  A family keeps the
    kind and help of its first appearance, and families and samples keep
    first-seen order, so merging one :meth:`MetricsRegistry.render`
    output returns it unchanged.  No input samples render as ``""``.
    """
    families: "dict[str, ParsedMetric]" = {}
    totals: "dict[str, dict[tuple, float]]" = {}
    for text in texts:
        for name, family in parse_exposition(text).items():
            if name not in families:
                families[name] = family
                totals[name] = {}
            sums = totals[name]
            for sample in family.samples:
                key = (sample.name, sample.labels)
                sums[key] = sums.get(key, 0) + sample.value
    lines = _render_families(
        (
            name,
            family.kind,
            family.help,
            (Sample(*key, value) for key, value in totals[name].items()),
        )
        for name, family in families.items()
    )
    return "\n".join(lines) + "\n" if lines else ""


def _parse_sample_line(line: str) -> Sample:
    if "{" in line:
        name, _, rest = line.partition("{")
        labels_text, closed, value_text = rest.rpartition("} ")
        if not closed:
            raise ReproError(f"malformed sample line {line!r}")
        labels = _parse_labels(labels_text, line)
    else:
        name, _, value_text = line.rpartition(" ")
        labels = ()
    _check_name(name, "metric")
    value_text = value_text.strip()
    try:
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        else:
            value = float(value_text)
    except ValueError as exc:
        raise ReproError(f"malformed sample value in {line!r}") from exc
    return Sample(name, labels, value)


def _parse_labels(text: str, line: str) -> "tuple[tuple[str, str], ...]":
    labels: list[tuple[str, str]] = []
    index = 0
    while index < len(text):
        eq = text.index("=", index)
        label = text[index:eq]
        _check_name(label, "label")
        if text[eq + 1] != '"':
            raise ReproError(f"malformed label value in {line!r}")
        value_chars: list[str] = []
        cursor = eq + 2
        while cursor < len(text):
            char = text[cursor]
            if char == "\\":
                escaped = text[cursor + 1]
                value_chars.append({"n": "\n", '"': '"', "\\": "\\"}.get(escaped, escaped))
                cursor += 2
                continue
            if char == '"':
                break
            value_chars.append(char)
            cursor += 1
        else:
            raise ReproError(f"unterminated label value in {line!r}")
        labels.append((label, "".join(value_chars)))
        index = cursor + 1
        if index < len(text) and text[index] == ",":
            index += 1
    return tuple(labels)
