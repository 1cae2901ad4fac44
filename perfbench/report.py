"""Metric derivation: end-to-end metrics from client records, per-layer
metrics from a traced pass's spans.

Every metric is a dict ``{"name", "value", "unit", "n"}``; ``n`` is the
number of samples behind the value (requests, gaps, spans or replicas).
"""

from __future__ import annotations

import statistics

import numpy as np

from span_trace import Span, self_times

# Latency limits for slo_attain, per workload: (TTFT ms, mean ITL ms or None).
SLO_LIMITS = {"longbench": (1000.0, None), "chat": (150.0, 25.0)}

# Which end-to-end metrics each workload reports (all report setup_s,
# error_rate, quality and rss_peak_mb).
WORKLOAD_METRICS = {
    "longwriter": ("throughput_tok_s", "ttft_p50_ms", "itl_p50_ms", "itl_p99_ms",
                   "e2e_p50_ms"),
    "longbench": ("throughput_tok_s", "ttft_p50_ms", "ttft_p90_ms", "itl_p50_ms",
                  "e2e_p50_ms", "e2e_p90_ms", "slo_attain"),
    "chat": ("throughput_tok_s", "ttft_p50_ms", "ttft_p90_ms", "itl_p50_ms",
             "itl_p99_ms", "e2e_p50_ms", "e2e_p90_ms", "slo_attain"),
}
COMMON_METRICS = ("setup_s", "error_rate", "quality", "rss_peak_mb")


def metric(name: str, value: float, unit: str, n: int) -> dict:
    return {"name": name, "value": float(value), "unit": unit, "n": int(n)}


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def gaps_ms(rec) -> list[float]:
    t = rec.token_times
    return [(b - a) * 1e3 for a, b in zip(t, t[1:])]


def end_to_end(workload: str, result) -> list[dict]:
    """The workload's end-to-end metrics from one untraced pass."""
    recs = result.records
    ok = [r for r in recs if r.ok and r.token_times]
    ttft = [(r.token_times[0] - r.due) * 1e3 for r in ok]
    itl = [g for r in ok for g in gaps_ms(r)]
    e2e = [(r.done - r.due) * 1e3 for r in ok]
    generated = sum(len(r.tokens) for r in ok)
    span_s = max(r.done for r in ok) - min(r.sent for r in ok) if ok else 0.0
    failed = sum(1 for r in recs if not r.ok)
    every = {
        "setup_s": metric("setup_s", statistics.median(result.setup_s), "s",
                          len(result.setup_s)),
        "throughput_tok_s": metric("throughput_tok_s",
                                   generated / span_s if span_s else 0.0,
                                   "tok/s", generated),
        "ttft_p50_ms": metric("ttft_p50_ms", pct(ttft, 50), "ms", len(ttft)),
        "ttft_p90_ms": metric("ttft_p90_ms", pct(ttft, 90), "ms", len(ttft)),
        "itl_p50_ms": metric("itl_p50_ms", pct(itl, 50), "ms", len(itl)),
        "itl_p99_ms": metric("itl_p99_ms", pct(itl, 99), "ms", len(itl)),
        "e2e_p50_ms": metric("e2e_p50_ms", pct(e2e, 50), "ms", len(e2e)),
        "e2e_p90_ms": metric("e2e_p90_ms", pct(e2e, 90), "ms", len(e2e)),
        "error_rate": metric("error_rate", failed / len(recs), "ratio", len(recs)),
        "quality": metric("quality", float(np.mean([r.score for r in recs])),
                          "ratio", len(recs)),
        "rss_peak_mb": metric("rss_peak_mb", result.rss_mb, "MB", 1 + result.n_workers),
    }
    if workload in SLO_LIMITS:
        ttft_limit, itl_limit = SLO_LIMITS[workload]
        met = 0
        for r in ok:
            if (r.token_times[0] - r.due) * 1e3 > ttft_limit:
                continue
            if itl_limit is not None and gaps_ms(r) and np.mean(gaps_ms(r)) > itl_limit:
                continue
            met += 1
        every["slo_attain"] = metric("slo_attain", met / len(recs), "ratio", len(recs))
    names = COMMON_METRICS + WORKLOAD_METRICS[workload]
    return [every[n] for n in sorted(names, key=list(every).index)]


# ---- per-layer metrics from a traced pass --------------------------------------


def _durations_ms(spans: list[Span], name: str) -> list[float]:
    return [s.duration * 1e3 for s in spans if s.name == name]


def _total(spans, name, label) -> dict:
    values = _durations_ms(spans, name)
    return metric(label, sum(values), "ms", len(values))


def _p(spans, name, q, label) -> dict:
    values = _durations_ms(spans, name)
    return metric(label, pct(values, q), "ms", len(values))


def prefill_flops(config, tokens: int, start: int) -> float:
    """Dense forward FLOPs of one prefill call, computed from shapes.

    Per layer: QKV/O projections and the gated FFN (2 FLOPs per weight
    per token) plus causal attention scores and mixing over the cache
    (4 * n_q_heads * head_dim per attended pair); one LM-head row.
    """
    d, hd = config.d_model, config.head_dim
    linear = 2 * d * hd * (config.n_q_heads * 2 + config.n_kv_heads * 2)
    ffn = 2 * 3 * d * config.d_ff
    pairs = tokens * start + tokens * (tokens + 1) / 2
    attention = 4 * config.n_q_heads * hd * pairs
    per_layer = (linear + ffn) * tokens + attention
    return config.n_layers * per_layer + 2 * d * config.vocab_size


def _transport(spans: list[Span]) -> tuple[float, int]:
    """Mean executor step wall minus the slowest replica step it waited on.

    Replicas step in lockstep, so the k-th ``engine.step`` pairs with the
    k-th ``server.step`` of every replica process.
    """
    steps = sorted((s for s in spans if s.name == "engine.step"), key=lambda s: s.start)
    per_pid: dict[int, list[Span]] = {}
    for s in spans:
        if s.name == "server.step":
            per_pid.setdefault(s.pid, []).append(s)
    if not steps or not per_pid:
        return 0.0, 0
    replica = [sorted(v, key=lambda s: s.start) for v in per_pid.values()]
    # Inproc replicas share the executor's pid: split them round-robin.
    if len(replica) == 1 and steps and steps[0].pid == replica[0][0].pid:
        n_rep = max(1, round(len(replica[0]) / len(steps)))
        replica = [replica[0][i::n_rep] for i in range(n_rep)]
    n = min(len(steps), *(len(r) for r in replica))
    gaps = [
        steps[k].duration - max(r[k].duration for r in replica) for k in range(n)
    ]
    return float(np.mean(gaps)) * 1e3 if gaps else 0.0, n


def per_layer(spans: list[Span], servers: list[dict], base, traced,
              base_e2e: dict, traced_e2e: dict, model_config) -> list[dict]:
    """Every per-layer metric of one traced pass (see README table)."""
    out: list[dict] = []
    add = out.append
    recs = traced.records
    ok = [r for r in recs if r.ok]
    window = (min(r.due for r in recs), max(r.done for r in ok)) if ok else (0.0, 0.0)

    # serving.http
    connects = [r.connect_ms for r in recs if r.connect_ms is not None]
    add(metric("http.connect_ms_p50", pct(connects, 50), "ms", len(connects)))
    add(_total(spans, "http.parse", "http.parse_ms_total"))
    add(_p(spans, "http.submit", 50, "http.submit_wait_ms_p50"))

    # serving.engine
    steps = [s for s in spans if s.name == "engine.step"]
    add(metric("engine.steps", len(steps), "count", len(steps)))
    add(_p(spans, "engine.step", 50, "engine.step_ms_p50"))
    add(_p(spans, "engine.step", 99, "engine.step_ms_p99"))
    add(_p(spans, "engine.add_request", 50, "engine.add_request_ms_p50"))
    lo, hi = window
    busy = sum(max(0.0, min(s.end, hi) - max(s.start, lo)) for s in steps)
    add(metric("engine.idle_frac", 1.0 - busy / (hi - lo) if hi > lo else 0.0,
               "ratio", len(steps)))
    transport, n_pairs = _transport(spans)
    add(metric("engine.transport_ms_per_step", transport, "ms", n_pairs))

    # serving.placement
    add(metric("placement.affinity_hit_rate", traced.affinity_hit_rate, "ratio",
               sum(traced.routed)))
    routed = traced.routed or [0]
    mean_routed = float(np.mean(routed))
    add(metric("placement.load_skew", max(routed) / mean_routed if mean_routed else 0.0,
               "ratio", len(routed)))

    # serving.server
    add(_p(spans, "server.step", 50, "server.step_ms_p50"))
    selfs = self_times(spans)
    server_steps = [s for s in spans if s.name == "server.step"]
    add(metric("server.step_self_ms_total",
               sum(selfs[(s.pid, s.sid)] for s in server_steps) * 1e3, "ms",
               len(server_steps)))
    decodes = [s for s in spans if s.name in ("model.decode", "model.decode_spec")]
    rows = [s.attrs["rows"] for s in decodes]
    add(metric("server.decode_rows_mean", float(np.mean(rows)) if rows else 0.0,
               "rows", len(rows)))
    chunked = {(s.pid, s.sid) for s in spans if s.name == "model.prefill_chunked"}
    prefills = [s for s in spans if s.name == "model.prefill"
                and (s.pid, s.parent) not in chunked]
    prefill_tokens = sum(s.attrs["tokens"] for s in prefills)
    add(metric("server.prefill_tokens", prefill_tokens, "tokens", len(prefills)))
    waits = [w for srv in servers for w in srv["queue_wait_steps"]]
    add(metric("server.queue_wait_steps_p90", pct(waits, 90), "steps", len(waits)))
    add(metric("server.preemptions", sum(srv["preemptions"] for srv in servers),
               "count", len(servers)))

    # kvcache.pool
    add(_p(spans, "pool.init", 50, "pool.init_ms"))
    reused = sum(srv["prefix_reused_tokens"] for srv in servers)
    prompt = sum(srv["prompt_tokens"] for srv in servers)
    add(metric("pool.prefix_reused_token_frac", reused / prompt if prompt else 0.0,
               "ratio", sum(srv["n_outputs"] for srv in servers)))
    add(metric("pool.peak_used_frac",
               max((srv["pool"]["peak_used_frac"] for srv in servers), default=0.0),
               "ratio", len(servers)))
    add(metric("pool.evictions",
               sum(srv["pool"]["prefix_evictions"] for srv in servers), "count",
               len(servers)))

    # kvcache.cache (bytes computed from the gathered tensors' sizes)
    gathers = [s for s in spans if s.name in ("cache.gather", "cache.gather_into")]
    add(metric("cache.gather_calls", len(gathers), "count", len(gathers)))
    add(metric("cache.gather_ms_total", sum(s.duration for s in gathers) * 1e3, "ms",
               len(gathers)))
    add(metric("cache.gather_mb", sum(s.attrs["bytes"] for s in gathers) / 2**20,
               "MB", len(gathers)))

    # models (FLOPs computed from shapes)
    prefill_s = sum(s.duration for s in prefills)
    flops = sum(prefill_flops(model_config, s.attrs["tokens"], s.attrs["start"])
                for s in prefills)
    add(metric("model.prefill_ms_total", prefill_s * 1e3, "ms", len(prefills)))
    add(metric("model.prefill_tokens", prefill_tokens, "tokens", len(prefills)))
    add(metric("model.prefill_gflop_s", flops / prefill_s / 1e9 if prefill_s else 0.0,
               "GFLOP/s", len(prefills)))
    decode_s = sum(s.duration for s in decodes)
    add(metric("model.decode_ms_total", decode_s * 1e3, "ms", len(decodes)))
    add(metric("model.decode_rows", sum(rows), "rows", len(decodes)))
    add(metric("model.decode_ms_per_row", decode_s * 1e3 / sum(rows) if rows else 0.0,
               "ms", sum(rows)))

    # retrieval + core.retrieval_head
    select = [s for s in spans if s.name in ("retrieval.select", "retrieval.pre_step")]
    add(metric("retrieval.select_ms_total", sum(s.duration for s in select) * 1e3,
               "ms", len(select)))
    add(_total(spans, "retrieval.head_observe", "retrieval.head_observe_ms_total"))
    picks = [s.attrs for s in spans if s.name == "retrieval.select"]
    cached = sum(a["cached"] for a in picks)
    add(metric("retrieval.selected_frac",
               sum(a["selected"] for a in picks) / cached if cached else 0.0,
               "ratio", len(picks)))

    # core
    add(_total(spans, "core.elastic_observe", "core.elastic_observe_ms_total"))
    add(metric("core.transfer_mb",
               sum(srv["bytes_transferred"] for srv in servers) / 2**20, "MB",
               sum(srv["n_outputs"] for srv in servers)))
    overlaps = [o for srv in servers for o in srv["selection_overlap"]]
    add(metric("core.elastic_overlap", float(np.mean(overlaps)) if overlaps else 0.0,
               "ratio", len(overlaps)))

    # load generator and tracing
    lags = [(r.sent - r.due) * 1e3 for r in recs if r.sent is not None]
    add(metric("loadgen.sent", len(recs), "count", len(recs)))
    add(metric("loadgen.ok", len(ok), "count", len(recs)))
    add(metric("loadgen.failed", len(recs) - len(ok), "count", len(recs)))
    add(metric("loadgen.lag_p99_ms", pct(lags, 99), "ms", len(lags)))
    untraced = base_e2e["e2e_p50_ms"]["value"]
    add(metric("trace.overhead_frac",
               traced_e2e["e2e_p50_ms"]["value"] / untraced - 1.0 if untraced else 0.0,
               "ratio", base_e2e["e2e_p50_ms"]["n"] + traced_e2e["e2e_p50_ms"]["n"]))
    return out
