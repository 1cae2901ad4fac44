"""Tests of the benchmark itself: seeded inputs and span arithmetic.

They take under a second. The end-to-end smoke runs of ``run.py`` live in
``smoke_runs.py`` (see its docstring). Run with
``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import workload_inputs as inputs  # noqa: E402
from span_trace import Span, Tracer, self_times  # noqa: E402


def _snapshot(tokenizer, seed: int) -> list:
    lw = inputs.PROFILES["longwriter"]
    lb = inputs.PROFILES["longbench"]
    chat = inputs.PROFILES["chat"]
    kb = inputs.knowledge_base(tokenizer, chat, seed)
    return [
        [e.prompt_ids.tolist() for e in inputs.writing_batch(tokenizer, lw, seed, 0)],
        [inputs.qa_example(tokenizer, lb, seed, i).prompt_ids.tolist() for i in range(3)],
        [inputs.chat_question(tokenizer, chat, kb, seed, i) for i in range(4)],
    ]


def test_inputs_repeat_at_one_seed_and_differ_across_seeds():
    tokenizer, _ = inputs.build_model()
    first, again, other = (_snapshot(tokenizer, s) for s in (7, 7, 8))
    assert first == again
    for part, changed in zip(first, other):
        assert part != changed


def test_arrival_trace_is_fixed_sorted_and_sized():
    profile = inputs.PROFILES["longbench"]
    offsets = inputs.arrival_offsets(profile, 30.0)
    assert offsets.tolist() == inputs.arrival_offsets(profile, 30.0).tolist()
    assert len(offsets) == max(round(profile.rate_rps * 30.0), profile.min_requests)
    assert np.all(np.diff(offsets) >= 0)
    assert offsets[-1] <= len(offsets) / profile.rate_rps


def test_self_time_subtracts_union_of_nested_children():
    spans = [
        Span(1, 1, None, "root", 0.0, 10.0),
        Span(1, 2, 1, "a", 1.0, 4.0),
        Span(1, 3, 1, "b", 3.0, 6.0),   # overlaps a: union [1, 6]
        Span(1, 4, 2, "leaf", 2.0, 3.0),
        Span(1, 5, 1, "late", 9.0, 12.0),  # clipped to the parent's end
        Span(2, 1, None, "other-process", 0.0, 1.0),
    ]
    got = self_times(spans)
    assert got[(1, 1)] == pytest.approx(10.0 - 5.0 - 1.0)
    assert got[(1, 2)] == pytest.approx(2.0)
    assert got[(1, 3)] == pytest.approx(3.0)
    assert got[(1, 4)] == pytest.approx(1.0)
    assert got[(2, 1)] == pytest.approx(1.0)


def test_tracer_records_parents_and_restores_classes(tmp_path):
    from repro.models.llm import TransformerLM

    tokenizer, model = inputs.build_model()
    original = TransformerLM.__dict__["prefill_chunked"]
    tracer = Tracer(tmp_path)
    tracer.install()
    try:
        cache = model.new_cache()
        model.prefill_chunked(np.arange(1, 40), cache, 16)
    finally:
        tracer.uninstall()
    assert TransformerLM.__dict__["prefill_chunked"] is original
    sid, parent, name, *_ = tracer.spans[-1]
    assert name == "model.prefill_chunked" and parent is None
    children = [s for s in tracer.spans if s[1] == sid]
    assert [c[2] for c in children] == ["model.prefill"] * 3
    assert sum(c[6]["tokens"] for c in children) == 39
