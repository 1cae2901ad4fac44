"""The ``chat`` workload's server process: HTTP/SSE over a 2-worker engine.

Started by the benchmark (``serving_loads.ChatServer``), never by hand:

    python3 perfbench/chat_server.py --budget 64 [--trace-dir DIR]

It builds the served model, wires ``build_http_server`` (``multiproc``
executor, 2 workers, ``prefix_affinity`` routing) and runs
``serve_async`` on an ephemeral localhost port, printing ``READY
<port>`` once listening. On SIGTERM it audits every worker's pool,
prints ``RESULT <json>`` (audit count and routing counters), then lets
``serve_async`` drain and release the workers. With ``--trace-dir`` the
span wrappers are installed before the workers fork, and every process
writes its spans into that directory on the way out.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

import benchenv

benchenv.prepare()

import workload_inputs as inputs  # noqa: E402
from repro.api.config import ClusterConfig, EngineConfig  # noqa: E402
from repro.serving.http import build_http_server, serve_async  # noqa: E402
from span_trace import Tracer  # noqa: E402


async def serve(server) -> None:
    executor = server.engine.executor
    stop = asyncio.Event()
    ready = asyncio.Event()
    finishing: list[asyncio.Task] = []

    async def finish() -> None:
        try:
            audited = await server.engine.call(executor.audit_pools)
        except Exception as err:  # reported to the benchmark as a failed audit
            print(f"pool audit failed: {err!r}", file=sys.stderr)
            audited = 0
        routing = executor.routing
        report = {
            "audited": audited,
            "routed": list(routing.routed),
            "affinity_hit_rate": float(routing.hit_rate),
            "n_workers": executor.n_workers,
        }
        print("RESULT " + json.dumps(report), flush=True)
        stop.set()

    loop = asyncio.get_running_loop()
    loop.add_signal_handler(
        signal.SIGTERM, lambda: finishing.append(asyncio.ensure_future(finish()))
    )
    serving = asyncio.create_task(serve_async(
        server, "127.0.0.1", 0, stop=stop, ready=ready,
        install_signal_handlers=False,
    ))
    await ready.wait()
    print(f"READY {server.addresses[0][1]}", flush=True)
    await serving
    for task in finishing:
        await task


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=int, required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    tokenizer, model = inputs.build_model()
    tracer = None
    if args.trace_dir:
        tracer = Tracer(args.trace_dir)
        tracer.install()
    config = EngineConfig(
        budget=args.budget,
        bos_id=tokenizer.bos_id,
        policy="specontext",
        max_concurrency=8,
        seed=0,
    )
    cluster = ClusterConfig(
        n_replicas=2, executor="multiproc", router="prefix_affinity",
        pace_s_per_token=0.0,
    )
    server = build_http_server(model, tokenizer, config, cluster)
    asyncio.run(serve(server))
    if tracer is not None:
        tracer.flush("server")
    return 0


if __name__ == "__main__":
    sys.exit(main())
