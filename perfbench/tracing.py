"""Spans around the program's layer boundaries, recorded from outside.

:func:`install` replaces each public function named in :data:`LAYERS`
with a wrapper that records calls, wall time, self time (time not
covered by a nested wrapped call on the same thread) and the work the
call did (tuples, bytes).  A function that no longer exists is reported
as an absent layer rather than failing the run, so the traced run keeps
working while the program's internals are cut down.

Module-level functions imported by name elsewhere (``from ..x import f``)
are swapped in every ``repro.*`` module that holds them.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import common


def _tuples(args, kwargs, result) -> dict:
    return {"tuples": len(args[1])}


def _payload_bytes(args, kwargs, result) -> dict:
    return {"bytes": sum(len(payload) for _, payload in result)}


def _result_bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result)}


def _checkpoint_bytes(args, kwargs, result) -> dict:
    written = result["payload"]["bytes"]
    written += sum(entry["bytes"] for entry in result["attachments"])
    return {"bytes": written}


def _push(args, kwargs, result) -> dict:
    source = args[0]
    return {"tuples": result, "backlog": source.pending_tuples}


#: (layer, span name, "module:Qualified.name", work counter or None).
LAYERS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("core.estimator", "core.update_batch",
     "repro.core.estimator:ImplicationCountEstimator.update_batch", _tuples),
    ("engine", "engine.ingest_payloads",
     "repro.engine.sharded:ShardedIngestor.ingest_payloads", _payload_bytes),
    ("core", "core.merge", "repro.core.estimator:ImplicationCountEstimator.merge", None),
    ("core.serialize", "core.to_bytes",
     "repro.core.estimator:ImplicationCountEstimator.to_bytes", _result_bytes),
    ("core.serialize", "core.from_bytes",
     "repro.core.estimator:ImplicationCountEstimator.from_bytes", None),
    ("core.serialize", "core.state_digest",
     "repro.core.serialize:estimator_state_digest", None),
    ("serving.service", "service.ingest_step",
     "repro.serving.service:ImplicationService.ingest_step", None),
    ("serving.service", "service.commit",
     "repro.serving.service:ImplicationService.commit", None),
    ("recovery", "recovery.save",
     "repro.recovery.checkpoint:CheckpointManager.save", _checkpoint_bytes),
    ("recovery", "recovery.load_latest",
     "repro.recovery.checkpoint:CheckpointManager.load_latest", None),
    ("windowed", "windowed.update_batch",
     "repro.windowed.estimator:WindowedImplicationEstimator.update_batch", None),
    ("windowed", "windowed.merged",
     "repro.windowed.estimator:WindowedImplicationEstimator.merged", None),
    ("serving.sources", "sources.push", "repro.serving.sources:PushSource.push", _push),
    ("serving.http", "http.dispatch", "repro.serving.http:Router.dispatch", None),
)


@dataclass
class Span:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    durations: list[float] = field(default_factory=list)
    work: dict[str, float] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)


class Tracer:
    """In-memory span statistics, keyed by span name."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.absent: list[str] = []
        #: Router.dispatch durations per request path.
        self.routes: dict[str, list[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: list[tuple[object, str, object]] = []

    def span(self, name: str) -> Span:
        with self._lock:
            return self.spans.setdefault(name, Span())

    def _enter(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(0.0)  # child time accumulated under this frame
        return stack

    def wrap(self, name: str, function: Callable, counter: Callable | None) -> Callable:
        tracer = self
        record = self.span(name)

        def traced(*args, **kwargs):
            stack = tracer._enter()
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException as error:
                with tracer._lock:
                    kind = type(error).__name__
                    record.errors[kind] = record.errors.get(kind, 0) + 1
                raise
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    record.calls += 1
                    record.busy += elapsed
                    record.self_time += elapsed - children
                    record.durations.append(elapsed)
            if counter is not None:
                work = counter(args, kwargs, result)
                with tracer._lock:
                    for key, value in work.items():
                        if key == "backlog":
                            record.work[key] = max(record.work.get(key, 0), value)
                        else:
                            record.work[key] = record.work.get(key, 0) + value
            if name == "http.dispatch":
                path = args[2] if len(args) > 2 else kwargs.get("path", "?")
                with tracer._lock:
                    tracer.routes.setdefault(path, []).append(elapsed)
                    if path == "/ingest":
                        body = args[4] if len(args) > 4 else kwargs.get("body", b"")
                        record.work["ingest_bytes"] = (
                            record.work.get("ingest_bytes", 0) + len(body)
                        )
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every function in :data:`LAYERS` that still exists."""
        for layer, name, target, counter in LAYERS:
            module_name, _, qualified = target.partition(":")
            try:
                module = importlib.import_module(module_name)
                owner = module
                *path, attribute = qualified.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{layer}:{name}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, counter))
                self._swap(owner, attribute, wrapped)
            elif isinstance(owner, type):
                self._swap(owner, attribute, self.wrap(name, raw, counter))
            else:
                traced = self.wrap(name, raw, counter)
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro") and (
                        getattr(loaded, attribute, None) is raw
                    ):
                        self._swap(loaded, attribute, traced)

    def _swap(self, owner, attribute: str, replacement) -> None:
        self._originals.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def dump(self) -> dict:
        with self._lock:
            return {
                "absent": list(self.absent),
                "spans": {
                    name: {
                        "calls": span.calls,
                        "busy": span.busy,
                        "self": span.self_time,
                        "durations": list(span.durations),
                        "work": dict(span.work),
                        "errors": dict(span.errors),
                    }
                    for name, span in self.spans.items()
                },
                "routes": {path: list(values) for path, values in self.routes.items()},
            }


def merge_dumps(dumps: list[dict]) -> dict:
    """Sum several :meth:`Tracer.dump` results (one per process or round)."""
    merged = {"absent": [], "spans": {}, "routes": {}}
    for dump in dumps:
        for entry in dump["absent"]:
            if entry not in merged["absent"]:
                merged["absent"].append(entry)
        for name, span in dump["spans"].items():
            into = merged["spans"].setdefault(
                name,
                {"calls": 0, "busy": 0.0, "self": 0.0, "durations": [], "work": {}, "errors": {}},
            )
            into["calls"] += span["calls"]
            into["busy"] += span["busy"]
            into["self"] += span["self"]
            into["durations"] += span["durations"]
            for key, value in span["work"].items():
                if key == "backlog":
                    into["work"][key] = max(into["work"].get(key, 0), value)
                else:
                    into["work"][key] = into["work"].get(key, 0) + value
            for key, value in span["errors"].items():
                into["errors"][key] = into["errors"].get(key, 0) + value
        for path, values in dump["routes"].items():
            merged["routes"].setdefault(path, []).extend(values)
    return merged


def layer_metrics(dump: dict, frontend_wait_ms: list[float]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json from a merged dump.

    Spans that never ran (or whose function no longer exists) read 0.
    """
    spans = dump["spans"]

    def get(name: str) -> dict:
        return spans.get(
            name, {"calls": 0, "busy": 0.0, "self": 0.0, "durations": [], "work": {}, "errors": {}}
        )

    def ms_quantile(values: list[float], q: float, scale: float = 1e3) -> float:
        return common.quantile(values, q) * scale if values else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    update = get("core.update_batch")
    tuples = update["work"].get("tuples", 0)
    metrics["core.update_batch.calls"] = (update["calls"], "count")
    metrics["core.update_batch.tuples"] = (tuples, "count")
    metrics["core.update_batch.busy_s"] = (update["busy"], "s")
    metrics["core.update_batch.tuples_per_s"] = (
        tuples / update["busy"] if update["busy"] else 0.0,
        "1/s",
    )
    payloads = get("engine.ingest_payloads")
    metrics["engine.ingest_payloads.calls"] = (payloads["calls"], "count")
    metrics["engine.ingest_payloads.busy_s"] = (payloads["busy"], "s")
    metrics["engine.ingest_payloads.bytes"] = (payloads["work"].get("bytes", 0), "bytes")
    for name in ("core.merge", "core.to_bytes", "core.from_bytes", "core.state_digest"):
        span = get(name)
        metrics[f"{name}.calls"] = (span["calls"], "count")
        metrics[f"{name}.busy_s"] = (span["busy"], "s")
        metrics[f"{name}.self_s"] = (span["self"], "s")
    metrics["core.to_bytes.bytes"] = (get("core.to_bytes")["work"].get("bytes", 0), "bytes")
    step = get("service.ingest_step")
    metrics["service.ingest_step.busy_s"] = (step["busy"], "s")
    metrics["service.ingest_step.self_s"] = (step["self"], "s")
    commit = get("service.commit")
    metrics["service.commit.calls"] = (commit["calls"], "count")
    metrics["service.commit.busy_s"] = (commit["busy"], "s")
    metrics["service.commit.self_s"] = (commit["self"], "s")
    metrics["service.commit.p99_ms"] = (ms_quantile(commit["durations"], 0.99), "ms")
    save = get("recovery.save")
    metrics["recovery.save.calls"] = (save["calls"], "count")
    metrics["recovery.save.busy_s"] = (save["busy"], "s")
    metrics["recovery.save.self_s"] = (save["self"], "s")
    metrics["recovery.save.bytes"] = (save["work"].get("bytes", 0), "bytes")
    metrics["recovery.load_latest.busy_s"] = (get("recovery.load_latest")["busy"], "s")
    windowed_update = get("windowed.update_batch")
    metrics["windowed.update_batch.busy_s"] = (windowed_update["busy"], "s")
    merged = get("windowed.merged")
    metrics["windowed.merged.calls"] = (merged["calls"], "count")
    metrics["windowed.merged.busy_s"] = (merged["busy"], "s")
    metrics["windowed.merged.self_s"] = (merged["self"], "s")
    push = get("sources.push")
    metrics["sources.push.calls"] = (push["calls"], "count")
    metrics["sources.push.tuples"] = (push["work"].get("tuples", 0), "count")
    metrics["sources.push.busy_s"] = (push["busy"], "s")
    metrics["sources.backlog_full"] = (push["errors"].get("PushBacklogFull", 0), "count")
    metrics["sources.backlog_max_tuples"] = (push["work"].get("backlog", 0), "count")
    dispatch = get("http.dispatch")
    routes = dump["routes"]
    metrics["http.requests"] = (dispatch["calls"], "count")
    metrics["http.ingest.bytes"] = (dispatch["work"].get("ingest_bytes", 0), "bytes")
    metrics["http.dispatch.ingest.busy_s"] = (sum(routes.get("/ingest", [])), "s")
    metrics["http.dispatch.query.p50_ms"] = (ms_quantile(routes.get("/query", []), 0.5), "ms")
    metrics["http.dispatch.metrics.p50_ms"] = (ms_quantile(routes.get("/metrics", []), 0.5), "ms")
    metrics["http.frontend_wait.p50_ms"] = (
        common.quantile(frontend_wait_ms, 0.5) if frontend_wait_ms else 0.0,
        "ms",
    )
    metrics["trace.absent_layers"] = (len(dump["absent"]), "count")
    return metrics
