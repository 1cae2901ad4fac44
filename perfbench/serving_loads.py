"""Load generators for the three workloads, measured at the client.

Each runner builds the real serving stack, times its set-up (executor
or server process start until every worker answers), warms it up, runs
its load for the time window and returns a :class:`PassResult`: one
:class:`Record` per request as the client saw it, plus the set-up
samples, peak RSS and the post-run pool audit. Nothing here touches
the tracer; a traced pass differs only in which wrappers are installed.
"""

from __future__ import annotations

import asyncio
import gc
import json
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import benchenv
import workload_inputs as inputs
from repro.api.config import ClusterConfig, EngineConfig, SamplingParams
from repro.api.errors import (
    EngineUnavailableError,
    OverloadedError,
    RequestValidationError,
)
from repro.api.request import GenerationRequest
from repro.serving.engine import make_executor
from repro.serving.http import AsyncEngine
from repro.workloads import judge_generation, score_qa

clock = time.perf_counter

SETUP_REPEATS = 3
CHAT_SERVER = Path(__file__).resolve().parent / "chat_server.py"
MAX_SCORE = 5.0


@dataclass
class Record:
    """One request as the client saw it (times are ``perf_counter``)."""

    index: int
    due: float
    sent: float | None = None
    connect_ms: float | None = None
    token_times: list[float] = field(default_factory=list)
    tokens: list[int] = field(default_factory=list)
    done: float | None = None
    terminals: int = 0
    error: str | None = None
    score: float = 0.0

    @property
    def ok(self) -> bool:
        return self.terminals == 1 and self.error is None and self.done is not None


@dataclass
class PassResult:
    records: list[Record]
    setup_s: list[float]
    rss_mb: float
    audited: int
    routed: list[int]
    affinity_hit_rate: float
    n_workers: int


def _engine_config(profile: inputs.Profile, tokenizer, **extra) -> EngineConfig:
    return EngineConfig(
        budget=profile.budget,
        bos_id=tokenizer.bos_id,
        policy="specontext",
        max_concurrency=8,
        seed=0,
        **extra,
    )


def _request(prompt_ids, max_new_tokens: int, stop_ids, budget: int):
    return GenerationRequest(
        prompt_ids=prompt_ids,
        sampling=SamplingParams(max_new_tokens=max_new_tokens, stop_ids=tuple(stop_ids)),
        policy="specontext",
        budget=budget,
    )


def timed_setup(model, config: EngineConfig, cluster: ClusterConfig):
    """Build the executor ``SETUP_REPEATS`` times; keep the last one.

    Each sample runs from ``make_executor`` until every worker has
    answered a ``stats`` command (fork and replica build included).
    """
    samples = []
    for i in range(SETUP_REPEATS):
        t0 = clock()
        executor = make_executor(model, config, cluster)
        executor.stats()
        samples.append(clock() - t0)
        if i + 1 < SETUP_REPEATS:
            executor.shutdown()
            del executor
            gc.collect()  # a discarded set-up must not add to the peak RSS
    return executor, samples


async def _consume(queue: asyncio.Queue, rec: Record) -> None:
    while True:
        kind, payload = await queue.get()
        now = clock()
        if kind == "token":
            rec.tokens.append(payload.token_id)
            rec.token_times.append(now)
            continue
        rec.terminals += 1
        rec.done = now
        if kind == "error":
            rec.error = payload.code
        return


def _late_terminals(queue: asyncio.Queue, rec: Record) -> None:
    """Count terminal items delivered after the first one (must be none)."""
    while not queue.empty():
        kind, _ = queue.get_nowait()
        if kind != "token":
            rec.terminals += 1


async def _send(engine: AsyncEngine, request: GenerationRequest, rec: Record,
                queues: list) -> None:
    """Submit and stream one request; a rejected submission is its outcome."""
    try:
        _, queue = await engine.submit(request)
    except (RequestValidationError, OverloadedError, EngineUnavailableError) as err:
        rec.terminals += 1
        rec.done = clock()
        rec.error = type(err).__name__
        return
    queues.append((queue, rec))
    await _consume(queue, rec)


async def _finish_engine(engine: AsyncEngine, executor, queues) -> tuple[float, int]:
    """Peak RSS and pool audit after the window, then a graceful drain.

    After the drain no more items can arrive, so any terminal item still
    queued behind a request's first one is counted against it.
    """
    rss = benchenv.tree_peak_rss_mb()
    audited = await engine.call(executor.audit_pools)
    await engine.drain()
    for queue, rec in queues:
        _late_terminals(queue, rec)
    return rss, audited


def _result(records, setup, rss, audited, executor) -> PassResult:
    routing = executor.routing
    return PassResult(
        records=records,
        setup_s=setup,
        rss_mb=rss,
        audited=audited,
        routed=list(routing.routed),
        affinity_hit_rate=float(routing.hit_rate),
        n_workers=executor.n_workers,
    )


# ---- longwriter: offline batches through AsyncEngine, multiproc ---------------


async def _longwriter(model, tokenizer, profile, seed, seconds) -> PassResult:
    config = _engine_config(profile, tokenizer)
    cluster = ClusterConfig(n_replicas=2, executor="multiproc", pace_s_per_token=0.0)
    executor, setup = timed_setup(model, config, cluster)
    engine = AsyncEngine(executor)
    await engine.start()
    # Warm-up: one short request per worker, outside the window.
    warm = inputs.writing_batch(tokenizer, profile, seed, inputs.WARM_INDEX)
    await asyncio.gather(*(
        _send(engine, _request(e.prompt_ids, 8, e.stop_ids, profile.budget),
              Record(-1, clock()), [])
        for e in warm[: executor.n_workers]
    ))

    records: list[Record] = []
    queues: list = []
    for batch in range(inputs.writing_batches(profile, seconds)):
        examples = inputs.writing_batch(tokenizer, profile, seed, batch)
        t0 = clock()
        recs = [Record(batch * profile.batch + i, due=t0, sent=t0)
                for i in range(len(examples))]
        await asyncio.gather(*(
            _send(engine, _request(e.prompt_ids, e.max_new_tokens, e.stop_ids,
                                   profile.budget), rec, queues)
            for e, rec in zip(examples, recs)
        ))
        for rec, example in zip(recs, examples):
            if rec.ok:
                rec.score = judge_generation(rec.tokens, example).average / MAX_SCORE
        records.extend(recs)
    rss, audited = await _finish_engine(engine, executor, queues)
    return _result(records, setup, rss, audited, executor)


# ---- longbench: open-loop Poisson arrivals, chunked prefill, inproc -----------


async def _longbench(model, tokenizer, profile, seed, seconds) -> PassResult:
    config = _engine_config(
        profile, tokenizer,
        prefill_chunk_tokens=profile.prefill_chunk_tokens,
        max_step_tokens=profile.max_step_tokens,
    )
    cluster = ClusterConfig(n_replicas=1, executor="inproc", pace_s_per_token=0.0)
    executor, setup = timed_setup(model, config, cluster)
    engine = AsyncEngine(executor)
    await engine.start()
    warm = inputs.qa_example(tokenizer, profile, seed, inputs.WARM_INDEX)
    await _send(engine, _request(
        warm.prompt_ids, warm.max_new_tokens, warm.stop_ids, profile.budget
    ), Record(-1, clock()), [])

    offsets = inputs.arrival_offsets(profile, seconds)
    examples = [inputs.qa_example(tokenizer, profile, seed, i) for i in range(len(offsets))]
    queues: list = []

    async def one(rec: Record, example) -> None:
        rec.sent = clock()
        await _send(engine, _request(
            example.prompt_ids, example.max_new_tokens, example.stop_ids, profile.budget
        ), rec, queues)
        if rec.ok:
            rec.score = score_qa(example, rec.tokens)

    records: list[Record] = []
    tasks = []
    start = clock() + 0.01
    for i, (offset, example) in enumerate(zip(offsets, examples)):
        due = start + float(offset)
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        rec = Record(i, due=due)
        records.append(rec)
        tasks.append(asyncio.create_task(one(rec, example)))
    await asyncio.gather(*tasks)
    rss, audited = await _finish_engine(engine, executor, queues)
    return _result(records, setup, rss, audited, executor)


# ---- chat: HTTP/SSE server process, closed-loop streaming client --------------


class ChatServer:
    """``chat_server.py`` as a child process (one launch).

    Use as ``async with ChatServer(...) as server``; leaving the block
    stops the process (and kills it if it does not exit in time), so a
    cancelled pass leaves no server behind.
    """

    def __init__(self, profile: inputs.Profile, trace_dir: str | None = None):
        self.cmd = [sys.executable, str(CHAT_SERVER), "--budget", str(profile.budget)]
        if trace_dir:
            self.cmd += ["--trace-dir", trace_dir]
        self.proc: asyncio.subprocess.Process | None = None
        self.report: dict | None = None

    async def __aenter__(self) -> "ChatServer":
        self.t0 = clock()
        self.proc = await asyncio.create_subprocess_exec(
            *self.cmd, stdout=asyncio.subprocess.PIPE
        )
        words = (await self.proc.stdout.readline()).decode().split()
        if len(words) != 2 or words[0] != "READY":
            await self._kill()
            raise RuntimeError(f"chat server failed to start: {words}")
        self.port = int(words[1])
        return self

    async def __aexit__(self, *exc) -> None:
        try:
            await self.stop()
        finally:
            await self._kill()

    async def _kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()

    async def wait_healthy(self) -> float:
        """Seconds from launch until ``/healthz`` says every worker is ok."""
        while True:
            status, body = await http_get("127.0.0.1", self.port, "/healthz")
            if status == 200 and json.loads(body)["status"] == "ok":
                return clock() - self.t0
            await asyncio.sleep(0.01)

    async def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM: the server audits its pools, reports, drains and exits."""
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        out, _ = await asyncio.wait_for(self.proc.communicate(), timeout)
        for line in out.decode().splitlines():
            if line.startswith("RESULT "):
                self.report = json.loads(line[len("RESULT "):])
        if self.report is None:
            raise RuntimeError(
                f"chat server exited ({self.proc.returncode}) without a result"
            )


async def http_get(host: str, port: int, path: str) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        while (await reader.readline()) not in (b"\r\n", b"\n", b""):
            pass
        return status, await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()


async def stream_completion(port: int, body: bytes, rec: Record) -> None:
    """POST one streaming completion; fills ``rec`` from the SSE chunks."""
    t0 = clock()
    rec.sent = t0
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    rec.connect_ms = (clock() - t0) * 1e3
    try:
        writer.write(
            b"POST /v1/completions HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        while (await reader.readline()) not in (b"\r\n", b"\n", b""):
            pass
        if status != 200:
            rec.terminals += 1
            rec.done = clock()
            rec.error = f"http_{status}"
            return
        sentinels = 0
        async for line in reader:
            if not line.startswith(b"data: "):
                continue
            now = clock()
            data = line[6:].strip()
            if data == b"[DONE]":
                sentinels += 1
                continue
            chunk = json.loads(data)
            choice = chunk["choices"][0]
            if "error" in chunk:
                rec.error = chunk["error"]["code"]
            if choice["finish_reason"] is None and "error" not in chunk:
                rec.tokens.extend(choice["token_ids"])
                rec.token_times.append(now)
            else:
                rec.terminals += 1
                rec.done = now
        if sentinels != 1:
            rec.error = rec.error or f"{sentinels}_done_sentinels"
    finally:
        writer.close()
        await writer.wait_closed()


async def _chat(model, tokenizer, profile, seed, seconds, trace_dir=None) -> PassResult:
    setup = []
    for _ in range(SETUP_REPEATS - 1):
        async with ChatServer(profile) as probe:
            setup.append(await probe.wait_healthy())
    async with ChatServer(profile, trace_dir) as server:
        setup.append(await server.wait_healthy())
        kb = inputs.knowledge_base(tokenizer, profile, seed)

        def body(index: int) -> tuple[bytes, int]:
            prompt, expected, max_tokens = inputs.chat_question(
                tokenizer, profile, kb, seed, index
            )
            payload = {
                "prompt": prompt, "max_tokens": max_tokens,
                "stream": True, "policy": "specontext", "budget": profile.budget,
            }
            return json.dumps(payload).encode(), expected

        for i in range(profile.connections):  # warm-up: publishes the KB prefix
            await stream_completion(
                server.port, body(inputs.WARM_INDEX + i)[0], Record(-1, clock())
            )

        records: list[Record] = []
        next_index = 0
        deadline = clock() + seconds

        async def connection() -> None:
            nonlocal next_index
            while clock() < deadline:
                index = next_index
                next_index += 1
                payload, expected = body(index)
                rec = Record(index, due=clock())
                records.append(rec)
                await stream_completion(server.port, payload, rec)
                if rec.ok and rec.tokens:
                    rec.score = float(rec.tokens[0] == expected)

        await asyncio.gather(*(connection() for _ in range(profile.connections)))
        rss = benchenv.tree_peak_rss_mb(server.proc.pid)
    report = server.report
    records.sort(key=lambda r: r.index)
    return PassResult(
        records=records,
        setup_s=setup,
        rss_mb=rss,
        audited=report["audited"],
        routed=report["routed"],
        affinity_hit_rate=report["affinity_hit_rate"],
        n_workers=report["n_workers"],
    )


RUNNERS = {"longwriter": _longwriter, "longbench": _longbench, "chat": _chat}


def run_pass(workload: str, model, tokenizer, profile, seed: int, seconds: float,
             timeout: float, trace_dir: str | None = None) -> PassResult:
    """One measured pass of ``workload`` (``trace_dir`` only matters for chat).

    ``timeout`` bounds the pass: a crashed engine loop would otherwise
    leave the clients waiting forever.
    """
    runner = RUNNERS[workload]
    args = (model, tokenizer, profile, seed, seconds)
    if workload == "chat":
        args += (trace_dir,)
    gc.collect()  # an earlier pass's garbage must not count toward this peak
    benchenv.reset_peak_rss()
    return asyncio.run(asyncio.wait_for(runner(*args), timeout))
