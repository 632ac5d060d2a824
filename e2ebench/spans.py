"""In-memory span recorder and the timing wrappers the traced runs install.

A span is one timed call into a layer: name, start, end, parent span and
job id. Spans are kept in memory and written out once, at the end of the
process, as JSON lines. Calls that happen thousands of times per job (a
gradient evaluation, a batched tape replay, a result-store read) are
aggregated instead of recorded one by one: the innermost open span keeps,
per aggregate name, a call count, the total time and one extra number
(lanes used, checkpoints evaluated, hits), and the time is charged to that
span's children so self times stay exact. Calls made with no span open are
aggregated on the tracer itself.

All times come from ``time.monotonic()``, which on Linux is the
system-wide ``CLOCK_MONOTONIC``: spans written by the server process and
timestamps taken by the benchmark's client threads share one time axis.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    """Thread-safe span and aggregate recorder."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        #: name -> [calls, seconds, extra]
        self.aggregates: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    # -- spans ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, job: Optional[str] = None) -> dict:
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        stack = self._stack()
        span = {
            "id": span_id,
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "job": job,
            "start": time.monotonic(),
            "end": None,
            "child_s": 0.0,
            "agg": {},
        }
        stack.append(span)
        return span

    def close(self, span: dict, keep: bool = True) -> None:
        span["end"] = time.monotonic()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1]["child_s"] += span["end"] - span["start"]
        if keep:
            with self._lock:
                self.spans.append(span)

    # -- aggregates -------------------------------------------------------------

    def add(self, name: str, seconds: float, extra: float = 0.0) -> None:
        """Record one aggregated call in the innermost open span."""
        stack = self._stack()
        if stack:
            span = stack[-1]
            span["child_s"] += seconds
            entry = span["agg"].get(name)
            if entry is None:
                entry = span["agg"][name] = [0, 0.0, 0.0]
        else:
            with self._lock:
                entry = self.aggregates[name]
        entry[0] += 1
        entry[1] += seconds
        entry[2] += extra

    # -- output -----------------------------------------------------------------

    def dump(self, path: str) -> None:
        with self._lock:
            spans = list(self.spans)
            aggregates = {k: list(v) for k, v in self.aggregates.items()}
        with open(path, "w") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
            handle.write(json.dumps({"aggregates": aggregates}) + "\n")


def load(path: str):
    """Read a dumped trace back: ``(spans, aggregates)``."""
    spans, aggregates = [], {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if "aggregates" in record:
                aggregates = record["aggregates"]
            else:
                spans.append(record)
    return spans, aggregates


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the time its children (spans and
    aggregated calls) covered."""
    return {
        span["id"]: (span["end"] - span["start"]) - span["child_s"]
        for span in spans
    }


# -- wrappers ---------------------------------------------------------------------


def span_wrapper(tracer: Tracer, name: str, fn: Callable,
                 job_of: Optional[Callable] = None,
                 keep: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` so every call is one span.

    ``job_of(args, kwargs, result)`` names the job the call served (None
    when unknown); ``keep(result)`` may drop uninteresting calls, such as
    an idle queue poll that returned nothing.
    """

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        span = tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            if job_of is not None:
                span["job"] = job_of(args, kwargs, result)
            tracer.close(span, keep=keep(result) if keep is not None else True)

    wrapped.__e2ebench_wrapped__ = fn
    return wrapped


def aggregate_wrapper(tracer: Tracer, name: Callable, fn: Callable,
                      extra: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` so calls are counted and timed in aggregate.

    ``name(args)`` picks the aggregate (e.g. per model); ``extra(args,
    result)`` adds a number to the aggregate's third field (e.g. lanes
    used by a batched evaluation).
    """

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        start = time.monotonic()
        result = fn(*args, **kwargs)
        seconds = time.monotonic() - start
        tracer.add(
            name(args), seconds,
            extra(args, result) if extra is not None else 0.0,
        )
        return result

    wrapped.__e2ebench_wrapped__ = fn
    return wrapped


def patch(owner, attribute: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attribute`` with ``make(original)`` (once)."""
    original = getattr(owner, attribute)
    if hasattr(original, "__e2ebench_wrapped__"):
        return
    setattr(owner, attribute, make(original))


def timed_gradient(tracer: Tracer, model_name: str, fn: Callable) -> Callable:
    """The traced form of a model's ``logp_and_grad_fn()`` callable."""
    key = f"autodiff.grad.{model_name}"

    def wrapped(x):
        start = time.monotonic()
        result = fn(x)
        tracer.add(key, time.monotonic() - start)
        return result

    return wrapped


def install_gradient_wrapper(tracer: Tracer) -> None:
    """Time every call of the callable ``BayesianModel.logp_and_grad_fn``
    hands to a sampler, per model."""
    from repro.models.model import BayesianModel

    def make(original):
        def logp_and_grad_fn(self):
            return timed_gradient(tracer, self.name, original(self))

        logp_and_grad_fn.__e2ebench_wrapped__ = original
        return logp_and_grad_fn

    patch(BayesianModel, "logp_and_grad_fn", make)


def install_server_wrappers(tracer: Tracer) -> None:
    """Wrap the serving stack's layer entry points (call before the CLI
    builds the server)."""
    from repro.amortize.guides import GuideStore
    from repro.batch.engine import BatchedEvaluator
    from repro.gateway.app import Gateway
    from repro.serve import server as server_module
    from repro.serve.filequeue import FileJobQueue
    from repro.serve.monitor import ConvergenceMonitor
    from repro.serve.store import ResultStore
    from repro.serve.workers import ChainWorkerPool

    install_gradient_wrapper(tracer)
    InferenceServer = server_module.InferenceServer

    def job_of_result(args, kwargs, result):
        return getattr(result, "job_id", None)

    patch(Gateway, "submit", lambda fn: span_wrapper(
        tracer, "gateway.submit", fn, job_of=job_of_result))
    patch(InferenceServer, "run_next", lambda fn: span_wrapper(
        tracer, "serve.job", fn, job_of=job_of_result,
        keep=lambda result: result is not None))
    # The server has no public placement entry point; its private
    # ``_place`` is the predictor/scheduler decision.
    patch(InferenceServer, "_place", lambda fn: span_wrapper(
        tracer, "serve.place", fn))
    patch(server_module, "profile_workload", lambda fn: span_wrapper(
        tracer, "arch.profile", fn))

    def run_job(fn):
        def wrapped(self, tasks, *args, **kwargs):
            batched = ChainWorkerPool._batchable(tasks)
            name = "serve.execute.batched" if batched else "serve.execute.pool"
            span = tracer.open(name, job=tasks[0].job_id if tasks else None)
            try:
                return fn(self, tasks, *args, **kwargs)
            finally:
                tracer.close(span)

        wrapped.__e2ebench_wrapped__ = fn
        return wrapped

    patch(ChainWorkerPool, "run_job", run_job)
    patch(BatchedEvaluator, "evaluate", lambda fn: aggregate_wrapper(
        tracer, lambda args: "batch.eval", fn,
        extra=lambda args, result: len(args[1]) / args[0].width))

    def observe(fn):
        def wrapped(self, chain_index, kept_block):
            before = len(self.checkpoints)
            start = time.monotonic()
            result = fn(self, chain_index, kept_block)
            tracer.add("diagnostics.rhat", time.monotonic() - start,
                       len(self.checkpoints) - before)
            return result

        wrapped.__e2ebench_wrapped__ = fn
        return wrapped

    patch(ConvergenceMonitor, "observe", observe)
    patch(ResultStore, "get", lambda fn: aggregate_wrapper(
        tracer, lambda args: "serve.store_get", fn,
        extra=lambda args, result: 1.0 if result is not None else 0.0))
    patch(ResultStore, "put", lambda fn: aggregate_wrapper(
        tracer, lambda args: "serve.store_put", fn))
    for method in ("submit", "mark_running", "mark_finished"):
        patch(FileJobQueue, method, lambda fn: aggregate_wrapper(
            tracer, lambda args: "serve.durable_log", fn))

    def get_or_train(fn):
        def wrapped(self, model):
            start = time.monotonic()
            record, trained = fn(self, model)
            tracer.add("amortize.guide_train" if trained
                       else "amortize.guide_hit",
                       time.monotonic() - start)
            return record, trained

        wrapped.__e2ebench_wrapped__ = fn
        return wrapped

    patch(GuideStore, "get_or_train", get_or_train)
    patch(server_module, "surrogate_result", lambda fn: aggregate_wrapper(
        tracer, lambda args: "amortize.surrogate", fn))
