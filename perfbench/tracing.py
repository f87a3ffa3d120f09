"""In-memory span recorder and the patches that feed it.

The benchmark records spans from its own files: :func:`install` wraps
the public entry point of each layer *where its caller looks the name
up* (``repro.runtime.pool`` imports ``evaluate_schedule`` by name, so
that is the binding patched) and :meth:`Tracer.restore` puts every
original back.  A span is (name, start, end, parent, trace id); the
parent is the innermost open span of the same thread, and the trace id
names the job or request the work belongs to.

Compilations in forked pool workers inherit the patches.  The wrapped
pool worker function writes the spans its process recorded to a
``child-<pid>.jsonl`` file after each task, and :meth:`Tracer.collect`
merges those files when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable


class Tracer:
    """Spans and work counters of one traced round, kept in memory."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.counters: "defaultdict[str, float]" = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_trace(self, trace_id: str) -> None:
        """Name the job or request the calling thread works on."""
        self._local.trace = trace_id

    def _adopt_child(self) -> None:
        """In a freshly forked worker, drop the parent's spans and stack."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self.counters = defaultdict(float)
            self._local = threading.local()
            # A lock held by another parent thread at fork time would
            # stay held forever in this process.
            self._lock = threading.Lock()

    def begin(self, name: str) -> "tuple":
        stack = self._stack()
        span_id = (os.getpid(), next(self._ids))
        parent = stack[-1][0] if stack else None
        frame = (span_id, parent, name, time.perf_counter())
        stack.append(frame)
        return frame

    def end(self, frame: tuple, name: "str | None" = None) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        span_id, parent, begun_as, start = frame
        trace = getattr(self._local, "trace", "")
        with self._lock:
            self.spans.append((name or begun_as, start, end, span_id, parent, trace))

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def flush_child(self) -> None:
        """Write this worker's spans and counters out (worker side)."""
        with self._lock:
            spans, self.spans = self.spans, []
            counters, self.counters = dict(self.counters), defaultdict(float)
        path = self.directory / f"child-{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            handle.write(json.dumps({"spans": spans, "counters": counters}) + "\n")

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. during warm-up)."""
        with self._lock:
            self.spans = []
            self.counters = defaultdict(float)
        for path in self.directory.glob("child-*.jsonl"):
            path.unlink()

    def collect(self) -> None:
        """Merge the span files written by pool workers (parent side)."""
        for path in sorted(self.directory.glob("child-*.jsonl")):
            for line in path.read_text().splitlines():
                data = json.loads(line)
                for name, start, end, span_id, parent, trace in data["spans"]:
                    self.spans.append(
                        (name, start, end, tuple(span_id), tuple(parent) if parent else None, trace)
                    )
                for name, value in data["counters"].items():
                    self.counters[name] += value
            path.unlink()

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: "str | Callable[..., str]",
        after: "Callable[..., str | None] | None" = None,
        trace: "Callable[..., str] | None" = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is the span name, or a function of the call arguments
        returning it.  ``after(result, *args)`` may record counters and
        return a new span name.  ``trace(*args)`` starts a new trace id.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if trace is not None:
                tracer.set_trace(trace(*args))
            frame = tracer.begin(name(*args) if callable(name) else name)
            renamed = None
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    renamed = after(result, *args)
                return result
            finally:
                tracer.end(frame, renamed)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_iterator(self, owner: Any, attr: str, name: str) -> None:
        """Wrap a function returning an iterator: one span per ``next``."""
        original = owner.__dict__[attr]
        tracer = self

        def pull(iterator: Any) -> Any:
            while True:
                frame = tracer.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    tracer.end(frame)
                    return
                tracer.end(frame)
                yield item

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return pull(iter(original(*args, **kwargs)))

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_pool_worker(self, module: Any, attr: str, name: str) -> None:
        """Wrap the pool's worker function so workers ship their spans.

        The wrapper keeps the original's module and qualified name and
        takes its place in the module, so the pool still pickles it by
        reference and forked workers find the wrapper.
        """
        original = getattr(module, attr)
        tracer = self
        parent = os.getpid()

        @functools.wraps(original)
        def wrapper(item: Any) -> Any:
            in_child = os.getpid() != parent
            if in_child:
                tracer._adopt_child()
                tracer.set_trace(str(item[0])[:16])
            frame = tracer.begin(name)
            try:
                return original(item)
            finally:
                tracer.end(frame)
                if in_child:
                    tracer.flush_child()

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def by_name(self) -> "dict[str, dict[str, float]]":
        """Per span name: count, total duration and self time.

        Self time is a span's duration minus the time its child spans
        cover (children of one span run nested on its thread, so their
        durations add up without overlap).
        """
        child_time: "defaultdict[tuple, float]" = defaultdict(float)
        for _name, start, end, _span_id, parent, _trace in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: "dict[str, dict[str, float]]" = {}
        for name, start, end, span_id, _parent, _trace in self.spans:
            row = table.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time.get(span_id, 0.0)
        return table


def install(tracer: Tracer, fleet: bool = False) -> None:
    """Patch every layer boundary the benchmark reports on."""
    import repro.baselines  # noqa: F401 - registers baseline pass classes
    import repro.noise.evaluator as evaluator
    import repro.pipeline as pipeline
    import repro.runtime.cache as cache
    import repro.runtime.jobs as jobs
    import repro.runtime.pool as pool
    import repro.service.app as app
    import repro.service.fleet as fleet_module
    import repro.service.scheduler as scheduler
    import repro.service.server as server

    # Pipeline passes: every Pass subclass that defines run().
    def subclasses(cls: type) -> "list[type]":
        found = []
        for sub in cls.__subclasses__():
            found.append(sub)
            found.extend(subclasses(sub))
        return found

    for cls in subclasses(pipeline.Pass):
        if "run" in cls.__dict__:
            tracer.wrap(cls, "run", lambda stage, _context: f"pass.{stage.name}")

    def compiled(result: Any, *_args: Any) -> None:
        stats = result.statistics
        tracer.count("core.generic_swap_iterations", stats.generic_swap_iterations)
        tracer.count("core.candidate_evaluations", stats.candidate_evaluations)

    tracer.wrap(pipeline.CompilerPipeline, "compile", "pipeline.compile", after=compiled)

    def verified(report: Any, *_args: Any) -> None:
        tracer.count("schedule.verify_ops", report.operations_checked)

    tracer.wrap(pipeline, "verify_schedule", "schedule.verify", after=verified)
    tracer.wrap(jobs, "build_benchmark", "circuit.build")

    def encoded(blob: bytes, *_args: Any) -> None:
        tracer.count("schedule.bytes", len(blob))

    tracer.wrap(cache, "schedule_to_bytes", "schedule.encode", after=encoded)
    tracer.wrap(cache, "schedule_from_bytes", "schedule.decode")

    def evaluated(_result: Any, *_args: Any) -> None:
        tracer.count("noise.evaluations")

    tracer.wrap(pool, "evaluate_schedule", "noise.evaluate", after=evaluated)
    tracer.wrap(evaluator, "evaluate_schedule", "noise.evaluate", after=evaluated)

    def looked_up(result: Any, *_args: Any) -> str:
        tier = result[1]
        tracer.count("runtime.cache.hits" if tier else "runtime.cache.misses")
        return f"runtime.cache.lookup.{tier or 'miss'}"

    tracer.wrap(cache.ScheduleCache, "lookup", "runtime.cache.lookup", after=looked_up)
    tracer.wrap(cache.ScheduleCache, "put", "runtime.cache.put")

    def batch_done(result: Any, *_args: Any) -> None:
        tracer.count("runtime.pool.compilations", result.compilations)

    tracer.wrap(pool.BatchCompiler, "run", "runtime.pool.run", after=batch_done)
    tracer.wrap_pool_worker(pool, "_compile_entry", "runtime.pool.compile")
    tracer.wrap(jobs.CompileJob, "compile_fingerprint", "runtime.fingerprint")
    tracer.wrap(jobs.CompileJob, "fingerprint", "runtime.fingerprint")

    for module in (app, fleet_module):
        tracer.wrap(module, "manifest_document_from_text", "runtime.manifest_parse")
        tracer.wrap(module, "jobs_from_manifest", "runtime.manifest_parse")

    request_ids = itertools.count(1)

    def new_request(*_args: Any) -> str:
        return f"request-{next(request_ids)}"

    handler = server.ServiceRequestHandler
    tracer.wrap(handler, "_handle_submit", "service.http.submit", trace=new_request)
    tracer.wrap(handler, "_handle_results", "service.http.results", trace=new_request)
    tracer.wrap_iterator(app.CompilationService, "stream_encoded", "service.results.stream")
    tracer.wrap(
        scheduler.ServiceScheduler, "_execute", "service.scheduler.execute",
        trace=lambda _scheduler, job: job.job_id,
    )
    if fleet:
        router_handler = fleet_module.FleetRequestHandler
        # The router's handlers are the HTTP layer a fleet client talks to.
        tracer.wrap(router_handler, "_handle_submit", "service.http.submit", trace=new_request)
        tracer.wrap(router_handler, "_handle_results", "service.http.results", trace=new_request)

        def tier_loaded(payload: Any, *_args: Any) -> None:
            if payload is not None:
                tracer.count("runtime.cache_tier.hits")

        tracer.wrap(
            fleet_module.FleetRouter, "cache_entry_bytes", "runtime.cache_tier.load",
            after=tier_loaded,
        )
        tracer.wrap(fleet_module.FleetRouter, "cache_store_bytes", "runtime.cache_tier.store")
