"""Unit tests for the metrics core: instruments, exposition, parsing.

The exposition format is covered two ways: a golden-file comparison
(``data/exposition_golden.txt``) pinning the exact rendered bytes of a
representative registry, and :func:`parse_exposition` round-trips acting
as a structural validator.  Thread-safety is covered by hammering one
counter and one histogram from many threads and asserting *exact*
totals — a lost update would show up as a short count.
"""

from __future__ import annotations

import math
import threading
from pathlib import Path

import pytest

from repro.exceptions import ReproError
from repro.obs import (
    CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_value,
    merge_expositions,
    parse_exposition,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "exposition_golden.txt"


def build_golden_registry() -> MetricsRegistry:
    """A registry with deterministic values covering every render shape.

    Exercised shapes: unlabelled counter, labelled counter with two
    children, callback gauge, labelled gauge, label-value escaping, and
    a small labelled histogram (cumulative buckets, +Inf, _sum/_count).
    Regenerate the golden file after an intentional format change with::

        PYTHONPATH=src python -c "
        import tests.obs.test_obs_metrics as t
        t.GOLDEN_PATH.write_text(t.build_golden_registry().render())"
    """
    registry = MetricsRegistry()
    requests = registry.counter(
        "repro_requests_total", "Requests served.", ("route", "status")
    )
    requests.labels(route="/v1/jobs", status="202").inc(3)
    requests.labels(route="/v1/healthz", status="200").inc(12)
    registry.counter("repro_events_total", "Plain unlabelled counter.").inc(7)
    registry.gauge("repro_temperature", "Callback gauge.", callback=lambda: 21.5)
    depth = registry.gauge("repro_queue_depth", "Labelled gauge.", ("queue",))
    depth.labels(queue="high").set(2)
    depth.labels(queue='with"quote\\and\nnewline').set(1)
    latency = registry.histogram(
        "repro_latency_seconds",
        "Small labelled histogram.",
        ("route",),
        buckets=(0.1, 1.0),
    )
    child = latency.labels(route="/v1/jobs")
    for value in (0.05, 0.5, 0.5, 5.0):
        child.observe(value)
    return registry


class TestInstruments:
    def test_counter_counts_and_rejects_decrease(self):
        counter = Counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ReproError):
            counter.inc(-1)

    def test_labelled_children_are_cached_and_independent(self):
        counter = Counter("c_total", "help", ("route",))
        a = counter.labels(route="a")
        assert counter.labels(route="a") is a
        a.inc()
        counter.labels(route="b").inc(5)
        samples = {s.labels_dict()["route"]: s.value for s in counter.samples()}
        assert samples == {"a": 1, "b": 5}

    def test_wrong_label_set_raises(self):
        counter = Counter("c_total", "help", ("route",))
        with pytest.raises(ReproError):
            counter.labels(method="GET")
        with pytest.raises(ReproError):
            counter.inc()  # labelled family has no sole child

    def test_gauge_moves_both_ways_and_callback_wins(self):
        gauge = Gauge("g", "help")
        gauge.set(10)
        gauge.dec(4)
        assert gauge.value == 6
        ticking = Gauge("g2", "help", callback=lambda: 42.0)
        assert ticking.value == 42.0
        with pytest.raises(ReproError):
            Gauge("g3", "help", ("label",), callback=lambda: 0.0)

    def test_histogram_buckets_are_cumulative_with_inf(self):
        histogram = Histogram("h", "help", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 99.0):
            histogram.observe(value)
        samples = list(histogram.samples())
        buckets = {
            s.labels_dict()["le"]: s.value for s in samples if s.name == "h_bucket"
        }
        assert buckets == {"1": 1, "2": 2, "+Inf": 3}
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(101.0)

    def test_histogram_timer_observes_positive_duration(self):
        histogram = Histogram("h", "help")
        with histogram.time():
            pass
        assert histogram.count == 1
        assert histogram.sum >= 0.0

    def test_histogram_rejects_bad_buckets_and_le_label(self):
        with pytest.raises(ReproError):
            Histogram("h", "help", buckets=(2.0, 1.0))
        with pytest.raises(ReproError):
            Histogram("h", "help", buckets=(1.0, 1.0))
        with pytest.raises(ReproError):
            Histogram("h", "help", ("le",))

    def test_invalid_metric_names_rejected(self):
        for bad in ("", "9starts_with_digit", "has space", "has-dash"):
            with pytest.raises(ReproError):
                Counter(bad, "help")


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help", ("route",))
        again = registry.counter("c_total", "help", ("route",))
        assert first is again

    def test_mismatched_reregistration_raises(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help")
        with pytest.raises(ReproError):
            registry.gauge("c_total", "help")
        with pytest.raises(ReproError):
            registry.counter("c_total", "help", ("route",))

    def test_namespace_prefixes_names(self):
        registry = MetricsRegistry(namespace="app")
        counter = registry.counter("requests_total", "help")
        assert counter.name == "app_requests_total"

    def test_collectors_append_families_at_scrape_time(self):
        registry = MetricsRegistry()
        calls = []

        def collector():
            calls.append(True)
            gauge = Gauge("ephemeral", "built per scrape")
            gauge.set(len(calls))
            return [gauge]

        registry.register_collector(collector)
        assert "ephemeral 1\n" in registry.render()
        assert "ephemeral 2\n" in registry.render()


class TestExpositionFormat:
    def test_render_matches_golden_file(self):
        rendered = build_golden_registry().render()
        assert rendered == GOLDEN_PATH.read_text()

    def test_rendered_output_parses_back(self):
        registry = build_golden_registry()
        parsed = parse_exposition(registry.render())
        assert parsed["repro_requests_total"].kind == "counter"
        assert parsed["repro_requests_total"].value(route="/v1/jobs", status="202") == 3
        assert parsed["repro_temperature"].value() == 21.5
        escaped = parsed["repro_queue_depth"].value(queue='with"quote\\and\nnewline')
        assert escaped == 1
        latency = parsed["repro_latency_seconds"]
        assert latency.kind == "histogram"
        assert latency.value(route="/v1/jobs", le="+Inf") == 4

    def test_format_value_shapes(self):
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"
        assert format_value(math.inf) == "+Inf"
        assert format_value(-math.inf) == "-Inf"

    def test_content_type_is_prometheus_004(self):
        assert "version=0.0.4" in CONTENT_TYPE

    def test_parse_rejects_malformed_lines(self):
        for text in (
            "repro_x not_a_number\n",
            'repro_x{route="open 1\n',
            "# TYPE repro_x summary\n",
            "9bad_name 1\n",
        ):
            with pytest.raises(ReproError):
                parse_exposition(text)


class TestMergeExpositions:
    """Summing expositions (a fleet's workers) into one, in process."""

    def test_single_render_merges_to_itself(self):
        rendered = build_golden_registry().render()
        assert merge_expositions([rendered]) == rendered

    def test_identical_samples_are_summed(self):
        merged = parse_exposition(
            merge_expositions(
                [build_golden_registry().render(), build_golden_registry().render()]
            )
        )
        requests = merged["repro_requests_total"]
        assert requests.kind == "counter"
        assert requests.value(route="/v1/jobs", status="202") == 6
        assert requests.value(route="/v1/healthz", status="200") == 24
        assert merged["repro_events_total"].value() == 14
        assert merged["repro_temperature"].value() == 43.0

    def test_disjoint_samples_are_kept_side_by_side(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("repro_jobs_total", "Jobs.", ("worker",)).labels(worker="0").inc(2)
        second.counter("repro_jobs_total", "Jobs.", ("worker",)).labels(worker="1").inc(5)
        second.gauge("repro_only_here", "Second text only.").set(1)
        merged = parse_exposition(merge_expositions([first.render(), second.render()]))
        assert merged["repro_jobs_total"].value(worker="0") == 2
        assert merged["repro_jobs_total"].value(worker="1") == 5
        assert merged["repro_only_here"].value() == 1

    def test_histogram_series_survive_the_merge(self):
        text = build_golden_registry().render()
        latency = parse_exposition(merge_expositions([text, text]))["repro_latency_seconds"]
        assert latency.kind == "histogram"
        names = {sample.name for sample in latency.samples}
        assert names == {
            "repro_latency_seconds_bucket",
            "repro_latency_seconds_sum",
            "repro_latency_seconds_count",
        }
        assert latency.value(route="/v1/jobs", le="0.1") == 2
        assert latency.value(route="/v1/jobs", le="1") == 6
        assert latency.value(route="/v1/jobs", le="+Inf") == 8
        sums = [s for s in latency.samples if s.name == "repro_latency_seconds_sum"]
        counts = [s for s in latency.samples if s.name == "repro_latency_seconds_count"]
        assert [s.value for s in sums] == [12.1]
        assert [s.value for s in counts] == [8]

    def test_escaped_label_values_round_trip(self):
        value = 'a "quoted" \\ back\\slash\nand newline'
        registry = MetricsRegistry()
        registry.gauge("repro_labelled", "Escapes.", ("name",)).labels(name=value).set(3)
        text = registry.render()
        merged = merge_expositions([text, text])
        assert parse_exposition(merged)["repro_labelled"].value(name=value) == 6
        assert merge_expositions([text]) == text

    def test_no_samples_render_empty(self):
        assert merge_expositions([]) == ""


class TestConcurrency:
    THREADS = 8
    ITERATIONS = 2_000

    def test_counter_total_is_exact_under_contention(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help", ("worker",))
        barrier = threading.Barrier(self.THREADS)

        def hammer(worker: int) -> None:
            child = counter.labels(worker=str(worker % 2))
            barrier.wait()
            for _ in range(self.ITERATIONS):
                child.inc()

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = sum(s.value for s in counter.samples())
        assert total == self.THREADS * self.ITERATIONS

    def test_histogram_count_and_sum_exact_under_contention(self):
        histogram = Histogram("h", "help", buckets=(0.5,))
        barrier = threading.Barrier(self.THREADS)

        def hammer() -> None:
            barrier.wait()
            for _ in range(self.ITERATIONS):
                histogram.observe(1.0)

        threads = [threading.Thread(target=hammer) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = self.THREADS * self.ITERATIONS
        assert histogram.count == expected
        assert histogram.sum == pytest.approx(float(expected))
        buckets = {
            s.labels_dict()["le"]: s.value
            for s in histogram.samples()
            if s.name == "h_bucket"
        }
        assert buckets == {"0.5": 0, "+Inf": expected}
