"""``repro.obs`` — the stdlib observability layer.

Two halves:

* :mod:`repro.obs.metrics` — the metrics core: thread-safe
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments
  with labels, monotonic timers, scrape-time collector callbacks, and
  Prometheus text-format exposition (plus :func:`parse_exposition`, the
  parser the CLI pretty-printer and the reconciliation tests use);
* :mod:`repro.obs.service` — :class:`ServiceMetrics`, the binding that
  wires one :class:`MetricsRegistry` through the whole service stack
  (schedule cache, batch engine, scheduler slots, job journal, HTTP
  front-end) and backs ``GET /v1/metrics``.

Every metric name the service emits is listed in
``docs/observability.md``.
"""

from repro.obs.metrics import (
    CONTENT_TYPE,
    DEFAULT_BUCKETS,
    QUEUE_LATENCY_BUCKETS,
    SERVICE_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ParsedMetric,
    Sample,
    format_value,
    merge_expositions,
    parse_exposition,
)
from repro.obs.service import ServiceMetrics

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ParsedMetric",
    "QUEUE_LATENCY_BUCKETS",
    "SERVICE_LATENCY_BUCKETS",
    "Sample",
    "ServiceMetrics",
    "format_value",
    "merge_expositions",
    "parse_exposition",
]
