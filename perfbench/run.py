"""SpeContext serving benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {longwriter,longbench,chat} \\
        --seed N --seconds S --trace {0,1} [--smoke]

``--trace 0`` runs one untraced pass and reports the end-to-end metrics
measured at the client. ``--trace 1`` runs the same untraced pass, then
a traced pass at the same seed with span wrappers installed (see
``span_trace.py``), and reports the per-layer metrics. Human-readable
lines come first; the last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full report
(every metric with its unit and sample count, the environment and the
gate verdicts) and, for traced runs, a Chrome trace of all spans are
written under ``.perfbench/`` in the working directory.

The run exits 1 when a correctness gate fails: quality below the
committed baseline, a request without exactly one terminal outcome, a
failed pool audit, an open-loop generator that ran late beyond
``MAX_LAG_P99_MS``, or traced token streams that differ from the
untraced ones. An untraced pass during which the hypervisor stole more
than ``MAX_STEAL_FRAC`` of the VM's CPU is run once more (time
permitting); both attempts are gated and the less disturbed one is
reported. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import benchenv

benchenv.prepare()

import report  # noqa: E402
import serving_loads as loads  # noqa: E402
import workload_inputs as inputs  # noqa: E402
from span_trace import Tracer, load_dir, write_chrome_trace  # noqa: E402

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
OUT_DIR = Path(".perfbench")
# An open-loop run whose sends slipped further than this is invalid.
MAX_LAG_P99_MS = 100.0
# Wall-clock budget of all measured passes of one run (the run must end
# within 180 s including interpreter start and report writing).
RUN_BUDGET_S = 165.0
# Share of the VM's CPU time the hypervisor may steal during the untraced
# pass before the pass is run once more. On a shared 2-vCPU host, 2-6%
# steal raised longbench latencies by 35-60% and 26% halved longwriter
# throughput; quiet passes saw under 0.5%, and a steady ~1% background
# moved latencies by about 10%, within the bounds, so it is tolerated
# rather than re-measured at twice the cost.
MAX_STEAL_FRAC = 0.02
MAX_ATTEMPTS = 2


def gates(workload: str, result, e2e: dict, baseline: dict) -> list[str]:
    """Correctness failures of one pass (empty when it is valid)."""
    problems = []
    floor = baseline["quality_floor"][workload]
    if e2e["quality"]["value"] < floor:
        problems.append(f"quality {e2e['quality']['value']:.4f} below baseline {floor}")
    bad = [r.index for r in result.records if r.terminals != 1]
    if bad:
        problems.append(f"requests without exactly one terminal outcome: {bad[:10]}")
    if result.audited != result.n_workers:
        problems.append(f"pool audit passed on {result.audited}/{result.n_workers} workers")
    lags = [(r.sent - r.due) * 1e3 for r in result.records if r.sent is not None]
    lag = report.pct(lags, 99)
    if lag > MAX_LAG_P99_MS:
        problems.append(f"load generator ran late: lag p99 {lag:.1f} ms")
    return problems


def _steal(host: dict | None) -> float:
    return host["steal_frac"] if host else 0.0


def streams_differ(base, traced) -> list[int]:
    """Request indices present in both passes whose token streams differ."""
    ref = {r.index: r.tokens for r in base.records if r.ok}
    return [r.index for r in traced.records if r.ok and r.index in ref
            and ref[r.index] != r.tokens]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="SpeContext serving benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(loads.RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    profiles = inputs.SMOKE_PROFILES if args.smoke else inputs.PROFILES
    profile = profiles[args.workload]
    baseline = json.loads(BASELINE.read_text())
    tokenizer, model = inputs.build_model()
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)

    deadline = time.perf_counter() + RUN_BUDGET_S

    def remaining(passes_left: float) -> float:
        return (deadline - time.perf_counter()) / passes_left

    # The untraced pass, run again (once) when the hypervisor stole CPU
    # during it; every attempt is gated, the least disturbed one reported.
    attempts = []  # (host CPU shares, pass result, e2e metrics)
    problems: list[str] = []
    while True:
        started, before = time.perf_counter(), benchenv.cpu_times()
        run = loads.run_pass(args.workload, model, tokenizer, profile, args.seed,
                               args.seconds, remaining(1 + args.trace))
        host = benchenv.host_cpu(before, benchenv.cpu_times())
        metrics = report.end_to_end(args.workload, run)
        problems += gates(args.workload, run, {m["name"]: m for m in metrics}, baseline)
        attempts.append((host, run, metrics))
        took = time.perf_counter() - started
        if (_steal(host) <= MAX_STEAL_FRAC or len(attempts) == MAX_ATTEMPTS
                or remaining(1) < took * (2.5 if args.trace else 1.2)):
            break
    _, base, e2e_list = min(attempts, key=lambda a: _steal(a[0]))
    e2e = {m["name"]: m for m in e2e_list}
    host_cpu = {"untraced_attempts": [a[0] for a in attempts]}
    layers: list[dict] = []
    result = base
    if args.trace:
        trace_dir = OUT_DIR / f"spans-{tag}-{os.getpid()}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        tracer = Tracer(trace_dir)
        tracer.install()
        before = benchenv.cpu_times()
        try:
            traced = loads.run_pass(args.workload, model, tokenizer, profile,
                                      args.seed, args.seconds, remaining(1),
                                      str(trace_dir))
        finally:
            tracer.uninstall()
        host_cpu["traced"] = benchenv.host_cpu(before, benchenv.cpu_times())
        tracer.flush("main")
        spans, servers = load_dir(trace_dir)
        shutil.rmtree(trace_dir, ignore_errors=True)
        write_chrome_trace(spans, OUT_DIR / f"trace-{tag}.json")
        traced_e2e = {m["name"]: m for m in report.end_to_end(args.workload, traced)}
        problems += [f"traced pass: {p}" for p in gates(args.workload, traced, traced_e2e, baseline)]
        differ = streams_differ(base, traced)
        if differ:
            problems.append(f"traced token streams differ from untraced: {differ[:10]}")
        layers = report.per_layer(spans, servers, base, traced, e2e, traced_e2e,
                                  model.config)
        result = traced

    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": {**benchenv.environment(), "host_cpu": host_cpu},
        "end_to_end": e2e_list,
        "per_layer": layers,
        "problems": problems,
    }
    (OUT_DIR / f"report-{tag}.json").write_text(json.dumps(full, indent=1))
    for m in e2e_list + layers:
        print(f"{m['name']:<34} {m['value']:>14.4f} {m['unit']:<8} n={m['n']}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    by_name = {m["name"]: m for m in e2e_list + layers}
    line = {
        "correct": not problems,
        "attempted": len(result.records),
        "failed": sum(1 for r in result.records if not r.ok),
        "metrics": {
            w["name"]: {"value": by_name[w["name"]]["value"], "unit": w["unit"]}
            for w in wanted
        },
    }
    print(json.dumps(line))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
