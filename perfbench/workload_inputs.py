"""Seeded inputs and sizes for the three workloads.

The served model is fixed (``MODEL_SEED``); the workload seed only
changes the inputs. Every input is a pure function of ``(seed, index)``
so a run can draw as many as its time window needs and two runs with
the same seed see the same requests in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.builder import build_recall_model
from repro.models.config import tiny_test_config
from repro.models.llm import TransformerLM
from repro.models.tokenizer import SyntheticTokenizer
from repro.workloads import (
    EntityPool,
    QAExample,
    WritingExample,
    generate_examples,
    generate_writing_examples,
    weave_context,
)

VOCAB = 512
N_LAYERS = 2
MODEL_SEED = 0
QA_TASKS = ("trivia", "2wikimqa", "hotpotqa")

# Stream tags: independent rng streams per purpose under one seed.
_WRITING, _QA, _ARRIVALS, _KB, _QUESTIONS = range(5)
# Seed of the fixed open-loop arrival trace (see arrival_offsets).
SCHEDULE_SEED = 0
# Input index reserved for warm-up requests (never measured).
WARM_INDEX = 1_000_000


@dataclass(frozen=True)
class Profile:
    """Sizes of one workload; ``smoke`` profiles shrink them for tests."""

    budget: int
    # longwriter
    batch: int = 0
    batch_seconds: float = 8.0  # window share per batch (one takes ~9 s)
    sections: int = 0
    section_len: int = 0
    outline_len: int = 0
    # longbench
    context_len: int = 0
    rate_rps: float = 0.0
    min_requests: int = 0
    prefill_chunk_tokens: int | None = None
    max_step_tokens: int | None = None
    # chat
    kb_len: int = 0
    n_facts: int = 0
    max_tokens: int = 0
    connections: int = 0


PROFILES = {
    "longwriter": Profile(
        budget=128, batch=16, sections=12, section_len=18, outline_len=320
    ),
    "longbench": Profile(
        budget=64, context_len=192, rate_rps=4.0, min_requests=100,
        prefill_chunk_tokens=128, max_step_tokens=256,
    ),
    "chat": Profile(
        budget=64, kb_len=512, n_facts=24, max_tokens=16, connections=2
    ),
}

SMOKE_PROFILES = {
    "longwriter": Profile(
        budget=32, batch=4, sections=3, section_len=6, outline_len=80,
        batch_seconds=0.5,
    ),
    "longbench": Profile(
        budget=32, context_len=256, rate_rps=8.0, min_requests=4,
        prefill_chunk_tokens=32, max_step_tokens=64,
    ),
    "chat": Profile(
        budget=32, kb_len=128, n_facts=6, max_tokens=4, connections=2
    ),
}


def build_model() -> tuple[SyntheticTokenizer, TransformerLM]:
    """The served model: the repo's recall circuit at a fixed seed."""
    tokenizer = SyntheticTokenizer(vocab_size=VOCAB)
    config = tiny_test_config(n_layers=N_LAYERS, vocab_size=VOCAB)
    model = TransformerLM(
        build_recall_model(config, tokenizer, np.random.default_rng(MODEL_SEED))
    )
    return tokenizer, model


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def writing_batch(
    tokenizer: SyntheticTokenizer, profile: Profile, seed: int, batch: int
) -> list[WritingExample]:
    """Batch ``batch`` of the offline longwriter load."""
    return generate_writing_examples(
        tokenizer,
        _rng(seed, _WRITING, batch),
        profile.batch,
        n_sections=profile.sections,
        section_len=profile.section_len,
        prompt_len=profile.outline_len,
    )


def writing_batches(profile: Profile, seconds: float) -> int:
    """Batches per run: one per ``batch_seconds`` of the requested window.

    The work is fixed by the window length, not by how fast the host
    is, so runs of one length compare throughput and memory over the
    same requests.
    """
    return max(1, round(seconds / profile.batch_seconds))


def qa_example(
    tokenizer: SyntheticTokenizer, profile: Profile, seed: int, index: int
) -> QAExample:
    """Request ``index`` of the longbench mix (tasks cycle in order)."""
    task = QA_TASKS[index % len(QA_TASKS)]
    (example,) = generate_examples(
        task, tokenizer, _rng(seed, _QA, index), 1,
        context_len=profile.context_len,
    )
    return example


def arrival_offsets(profile: Profile, seconds: float) -> np.ndarray:
    """Open-loop send times (s from start): one fixed Poisson trace.

    The count is ``rate * seconds`` (at least ``min_requests``) and the
    times are sorted uniform draws over the span that count needs at the
    rate, i.e. a Poisson process conditioned on its count. The trace is
    drawn from ``SCHEDULE_SEED``, not the workload seed: like a recorded
    production trace it is part of the workload, so runs at different
    seeds (different prompts) queue the same way and their latencies
    compare without the schedule's own variance.
    """
    n = max(int(round(profile.rate_rps * seconds)), profile.min_requests)
    span = n / profile.rate_rps
    return np.sort(_rng(SCHEDULE_SEED, _ARRIVALS).uniform(0.0, span, size=n))


@dataclass(frozen=True)
class KnowledgeBase:
    """The chat system prompt and the facts planted in it."""

    prompt_ids: tuple[int, ...]
    facts: tuple[tuple[int, int], ...]  # (key, value)


def knowledge_base(
    tokenizer: SyntheticTokenizer, profile: Profile, seed: int
) -> KnowledgeBase:
    rng = _rng(seed, _KB)
    pool = EntityPool(tokenizer, rng)
    facts = [tuple(pool.take(2)) for _ in range(profile.n_facts)]
    ids, _ = weave_context(
        tokenizer, rng, [list(f) for f in facts], profile.kb_len
    )
    return KnowledgeBase(tuple(ids), tuple(facts))


def chat_question(
    tokenizer: SyntheticTokenizer, profile: Profile, kb: KnowledgeBase,
    seed: int, index: int,
) -> tuple[list[int], int, int]:
    """Request ``index``: (shared KB + ``<q> key``, expected answer, max_tokens).

    Output lengths vary by ±25% around ``profile.max_tokens``: with one
    fixed length, the two closed-loop clients fall into lockstep and every
    admission competes with the other client's, which made TTFT bimodal
    across seeds (halved whenever an early stop broke the lockstep).
    """
    rng = _rng(seed, _QUESTIONS, index)
    key, value = kb.facts[int(rng.integers(len(kb.facts)))]
    spread = profile.max_tokens // 4
    max_tokens = profile.max_tokens + int(rng.integers(-spread, spread + 1))
    return list(kb.prompt_ids) + [tokenizer.question_id, key], value, max_tokens
