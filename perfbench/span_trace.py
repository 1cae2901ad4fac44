"""Span tracer for the traced run, installed from benchmark code only.

:meth:`Tracer.install` wraps public entry points of each layer (see
``SPAN_POINTS``) so every call records one span: name, start, end,
parent span and request id. Parents follow a ``ContextVar``, which
asyncio tasks and ``asyncio.to_thread`` carry along. Spans stay in
memory; a forked executor worker starts with an empty buffer and writes
its spans (plus a summary of each server replica it hosted) to
``out_dir`` when its command loop returns, and :func:`load_dir` merges
the files after the workers have exited.

Wrapping replaces class attributes, so install before the executor
forks its workers and only in processes that are meant to be traced.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    pid: int
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    rid: int | None = None
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[tuple[int, int], float]:
    """Span duration minus the part of its interval its children cover.

    Children may overlap each other (concurrent tasks); the covered part
    is the union of their intervals, clipped to the parent.
    """
    by_key = {(s.pid, s.sid): s for s in spans}
    children: dict[tuple[int, int], list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault((s.pid, s.parent), []).append(s)
    out: dict[tuple[int, int], float] = {}
    for key, span in by_key.items():
        covered, cursor = 0.0, span.start
        for child in sorted(children.get(key, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[key] = span.duration - covered
    return out


# ---- attribute extractors (args, kwargs, result) -> dict | None --------------


def _gather_attrs(args, kwargs, result):
    k, v = result
    return {"bytes": int(k.nbytes + v.nbytes)}


def _gather_into_attrs(args, kwargs, result):
    k_out, v_out = args[2], args[3]
    return {"bytes": int(k_out.nbytes + v_out.nbytes)}


def _prefill_attrs(args, kwargs, result):
    tokens, cache = args[1], args[2]
    n = int(len(tokens))
    return {"tokens": n, "start": int(cache.seq_len) - n}


def _decode_attrs(args, kwargs, result):
    return {"rows": len(args[2])}


def _spec_attrs(args, kwargs, result):
    return {"rows": sum(len(seq) for seq in args[1])}


def _select_attrs(args, kwargs, result):
    position = int(args[3])
    selected = position + 1 if result is None else int(result.shape[-1])
    return {"selected": selected, "cached": position + 1}


# name -> (module path, attribute path, kind, attrs extractor, rid source)
# kind: "call" wraps a function, "async" a coroutine function.
SPAN_POINTS = {
    "http.parse": ("repro.serving.http", "parse_completion_body", "call", None, None),
    "http.submit": ("repro.serving.http", "AsyncEngine.submit", "async", None, "result0"),
    "engine.step": ("repro.serving.engine.executor", "ExecutorBase.step", "call", None, None),
    "engine.add_request": ("repro.serving.engine.executor", "ExecutorBase.add_request", "call", None, "result"),
    "server.step": ("repro.serving.server", "SpeContextServer.step", "call", None, None),
    "server.add_request": ("repro.serving.server", "SpeContextServer.add_request", "call", None, "result"),
    "pool.init": ("repro.kvcache.pool", "PagedKVPool.__init__", "call", None, None),
    "pool.allocate": ("repro.kvcache.pool", "PagedKVPool.allocate", "call", None, None),
    "pool.free_table": ("repro.kvcache.pool", "PagedKVPool.free_table", "call", None, None),
    "pool.write_block": ("repro.kvcache.pool", "PagedKVPool.write_block", "call", None, None),
    "pool.publish_prefix": ("repro.kvcache.pool", "PagedKVPool.publish_prefix", "call", None, None),
    "pool.match_prefix": ("repro.kvcache.pool", "PagedKVPool.match_prefix", "call", None, None),
    "pool.gather_chain": ("repro.kvcache.pool", "PagedKVPool.gather_chain", "call", None, None),
    "cache.gather": ("repro.kvcache.cache", "LayerKVCache.gather", "call", _gather_attrs, None),
    "cache.gather_into": ("repro.kvcache.cache", "LayerKVCache.gather_into", "call", _gather_into_attrs, None),
    "model.prefill": ("repro.models.llm", "TransformerLM.prefill", "call", _prefill_attrs, None),
    "model.prefill_chunked": ("repro.models.llm", "TransformerLM.prefill_chunked", "call", None, None),
    "model.decode": ("repro.models.llm", "TransformerLM.decode_step_batch", "call", _decode_attrs, None),
    "model.decode_spec": ("repro.models.llm", "TransformerLM.decode_spec_batch", "call", _spec_attrs, None),
    "retrieval.pre_step": ("repro.core.retrieval_head", "SpeContextPolicy.pre_step", "call", None, None),
    "retrieval.select": ("repro.core.retrieval_head", "SpeContextPolicy.select", "call", _select_attrs, None),
    "retrieval.head_observe": ("repro.core.retrieval_head", "LightweightRetrievalHead.observe", "call", None, None),
    "core.elastic_observe": ("repro.core.elastic", "ElasticTransferTracker.observe", "call", None, None),
}


def _resolve(module_path: str, attr_path: str):
    import importlib

    owner = importlib.import_module(module_path)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def server_summary(server) -> dict:
    """Replica-side counters a traced run reports per server."""
    outputs = server.outputs
    return {
        "pool": {"prefix_evictions": server.pool.stats.prefix_evictions},
        "preemptions": len(server.preemption_log),
        "queue_wait_steps": [r.queueing_delay_s for r in server.meter.finished],
        "prefix_reused_tokens": sum(o.stats.prefix_reused_tokens for o in outputs),
        "prompt_tokens": sum(o.stats.result.prompt_len for o in outputs),
        "bytes_transferred": sum(o.stats.bytes_transferred for o in outputs),
        "selection_overlap": [o.stats.mean_selection_overlap for o in outputs],
        "n_outputs": len(outputs),
    }


class Tracer:
    """In-memory span recorder with class-attribute wrappers."""

    def __init__(self, out_dir: str | os.PathLike):
        self.out_dir = Path(out_dir)
        self.spans: list[tuple] = []
        self.peak_used: dict[int, float] = {}  # id(server) -> peak pool use
        self._servers: dict[int, object] = {}
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._patches: list[tuple[object, str, object]] = []

    # ---- recording -------------------------------------------------------------

    def _wrap(self, fn, name: str, kind: str, attrs_fn, rid_from):
        spans, current, ids = self.spans, self._current, self._ids
        clock = time.perf_counter

        def finish(sid, parent, t0, args, kwargs, result):
            rid = None
            if rid_from == "result":
                rid = result
            elif rid_from == "result0":
                rid = result[0]
            attrs = attrs_fn(args, kwargs, result) if attrs_fn else None
            spans.append((sid, parent, name, t0, clock(), rid, attrs))

        if kind == "async":
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                sid, parent = next(ids), current.get()
                token = current.set(sid)
                t0 = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    current.reset(token)
                finish(sid, parent, t0, args, kwargs, result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid, parent = next(ids), current.get()
                token = current.set(sid)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    current.reset(token)
                finish(sid, parent, t0, args, kwargs, result)
                return result
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every span point, the replica step probe and worker flush."""
        for name, (module, path, kind, attrs_fn, rid_from) in SPAN_POINTS.items():
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, self._wrap(
                owner.__dict__[attr], name, kind, attrs_fn, rid_from
            ))

        # Pool occupancy is sampled after every replica step; the
        # replica itself is remembered for the end-of-run summary.
        server_cls, _ = _resolve("repro.serving.server", "SpeContextServer.step")
        traced_step = server_cls.__dict__["step"]
        peak_used, servers = self.peak_used, self._servers

        def step(server, *args, **kwargs):
            result = traced_step(server, *args, **kwargs)
            pool = server.pool
            used = pool.n_used / pool.capacity
            key = id(server)
            servers[key] = server
            if used > peak_used.get(key, 0.0):
                peak_used[key] = used
            return result

        self._patch(server_cls, "step", step)

        worker, attr = _resolve("repro.serving.engine.worker", "serve_connection")
        serve = worker.__dict__[attr]
        tracer = self

        def serve_connection(core, conn):
            try:
                serve(core, conn)
            finally:
                tracer.flush(f"worker-{os.getpid()}")

        self._patch(worker, attr, serve_connection)
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        """A forked child keeps none of its parent's spans."""
        self.spans.clear()
        self.peak_used.clear()
        self._servers.clear()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- output ----------------------------------------------------------------

    def servers(self) -> list[dict]:
        summaries = []
        for key, server in self._servers.items():
            summary = server_summary(server)
            summary["pool"]["peak_used_frac"] = self.peak_used.get(key, 0.0)
            summaries.append(summary)
        return summaries

    def flush(self, tag: str) -> Path:
        """Write this process's spans and replica summaries to ``out_dir``."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{tag}.json"
        payload = {"pid": os.getpid(), "spans": self.spans, "servers": self.servers()}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)
        return path


def load_dir(out_dir: str | os.PathLike) -> tuple[list[Span], list[dict]]:
    """Merge every flushed span file; returns (spans, replica summaries)."""
    spans: list[Span] = []
    servers: list[dict] = []
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        payload = json.loads(path.read_text())
        pid = payload["pid"]
        spans.extend(
            Span(pid, sid, parent, name, t0, t1, rid, attrs)
            for sid, parent, name, t0, t1, rid, attrs in payload["spans"]
        )
        servers.extend(payload["servers"])
    return spans, servers


def write_chrome_trace(spans: list[Span], path: str | os.PathLike) -> None:
    """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
    origin = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": s.name,
            "ph": "X",
            "pid": s.pid,
            "tid": 0,
            "ts": (s.start - origin) * 1e6,
            "dur": s.duration * 1e6,
            "args": {"span": s.sid, "parent": s.parent, "request": s.rid,
                     **(s.attrs or {})},
        }
        for s in spans
    ]
    Path(path).write_text(json.dumps({"traceEvents": events}))
