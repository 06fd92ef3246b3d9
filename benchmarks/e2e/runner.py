"""One benchmark run: generate inputs, measure passes or trace, check, report."""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import shutil
import sys
import time
import traceback
from typing import Dict, List, Optional

from repro.metrics import bench_environment

from . import inputs
from .procs import Cli
from .trace import Tracer
from .workloads import WORKLOADS, Context, Pass, fresh_dir, median

#: Environment variables that change how the program runs, recorded per result.
RECORDED_ENV = (
    "REPRO_PROC_WORKERS",
    "REPRO_KERNEL_THREADS",
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs and a single pass (seconds per workload)"
    )
    parser.add_argument(
        "--workdir",
        default=None,
        help="input cache and scratch space (default: benchmarks/e2e/.work)",
    )
    parser.add_argument(
        "--results", default=None, help="directory for the full result JSON (default: WORKDIR/results)"
    )
    return parser.parse_args(argv)


def environment(cli_env: Dict[str, str]) -> Dict[str, object]:
    return {
        "bench_environment": bench_environment(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "env": {name: os.environ.get(name) for name in RECORDED_ENV},
        "cli_env": cli_env,
    }


def measure(
    workload, ctx: Context, data: str, passes: List[Pass], seconds: float, min_passes: int
) -> None:
    """Append passes while another one is expected to end within ``seconds``."""
    started = time.perf_counter()
    while True:
        passes.append(workload.run_pass(ctx, data, fresh_dir(os.path.join(ctx.rundir, "pass"))))
        elapsed = time.perf_counter() - started
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return


def gate_metrics(passes: List[Pass], test_rmse: float) -> Dict[str, float]:
    steps = [s for p in passes for s in p.steps_s]
    return {
        "setup_s": median(p.setup_s for p in passes),
        "work_s": median(p.work_s for p in passes),
        "step_p50_ms": median(steps) * 1e3,
        "cpu_s": median(sum(s.user_s + s.sys_s for s in p.stages) for p in passes),
        "peak_rss_mb": median(max(s.rss_mb for s in p.stages) for p in passes),
        "test_rmse": test_rmse,
    }


def info_metrics(passes: List[Pass]) -> Dict[str, float]:
    """Per-pass stage metrics (medians over passes) and the failure share."""
    keys = passes[0].info.keys()
    out = {key: median(p.info[key] for p in passes) for key in keys}
    attempted = sum(p.attempted for p in passes)
    out["failed_frac"] = sum(p.failed for p in passes) / attempted if attempted else 0.0
    return out


def main(argv, root: str, src: str) -> int:
    args = parse_args(argv)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    workload = WORKLOADS[args.workload]
    workdir = os.path.abspath(args.workdir or os.path.join(root, "benchmarks", "e2e", ".work"))
    size, _ = workload.size(args.smoke)
    data, input_info = inputs.cached_inputs(workdir, workload.kind, args.seed, size)
    run_id = f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    rundir = fresh_dir(os.path.join(workdir, "runs", run_id))
    cli = Cli(src=src, logdir=rundir)
    ctx = Context(cli=cli, seed=args.seed, smoke=args.smoke, rundir=rundir)

    problems: List[str] = []
    reasons: Dict[str, str] = {}
    passes: List[Pass] = []
    metrics: Dict[str, Optional[float]] = {}
    info: Dict[str, float] = {}
    crashed = False
    try:
        if args.trace:  # one reference pass for the replay to match
            measure(workload, ctx, data, passes, seconds=0.0, min_passes=1)
        else:
            measure(workload, ctx, data, passes, args.seconds, 1 if args.smoke else 2)
        test_rmse, problems = workload.check(ctx, data, passes)
        if args.trace:
            metrics = traced_metrics(
                workload, ctx, data, passes[0], bench, problems, reasons, workdir, run_id
            )
        else:
            metrics = gate_metrics(passes, test_rmse)
            info = info_metrics(passes)
    except (RuntimeError, OSError, ValueError) as exc:
        # A failed stage, an unreachable or misbehaving server, a malformed
        # reply: the run is incorrect, and still reports.
        traceback.print_exc(file=sys.stderr)
        problems.append(str(exc))
        crashed = True
    attempted = sum(p.attempted for p in passes) + crashed
    failed = sum(p.failed for p in passes) + crashed
    correct = not problems and all(
        v is None or math.isfinite(v) for v in metrics.values()
    )

    for name, value in list(metrics.items()) + sorted(info.items()):
        print(f"{name} {value if value is not None else 'null'} {units.get(name, '')}".rstrip())
    for name, reason in sorted(reasons.items()):
        print(f"# {name} is null: {reason}")
    for problem in problems:
        print(f"# check failed: {problem}", file=sys.stderr)

    results_dir = args.results or os.path.join(workdir, "results")
    os.makedirs(results_dir, exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "info": info,
        "null_reasons": reasons,
        "passes": [
            {"setup_s": p.setup_s, "work_s": p.work_s, "steps_s": p.steps_s, "info": p.info}
            for p in passes
        ],
        "inputs": input_info,
        "environment": environment(workload.cli_env),
    }
    with open(os.path.join(results_dir, f"{run_id}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if correct:
        shutil.rmtree(rundir, ignore_errors=True)
    else:
        print(f"# run directory kept for inspection: {rundir}", file=sys.stderr)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
            for m in wanted
            if m["name"] in metrics
        },
    }
    print(json.dumps(line))
    return 0 if correct else 1


def traced_metrics(workload, ctx, data, ref: Pass, bench, problems, reasons, workdir, run_id):
    """Every per-layer metric: the reference pass's, then the traced replay's.

    A layer the workload does not reach reads 0.  When a wrapper cannot be
    attached any more (a refactor removed the class or function it
    relies on), the replay's metrics become ``None`` with the reason, and
    the run still succeeds.
    """
    layer: Dict[str, Optional[float]] = {m["name"]: 0.0 for m in bench["per_layer"]}
    layer.update(info_metrics([ref]))
    tracer = Tracer(workload.name, run_id)
    try:
        replayed, replay_problems = workload.traced(
            ctx, data, ref, tracer, fresh_dir(os.path.join(ctx.rundir, "traced"))
        )
    except (ImportError, AttributeError, TypeError) as exc:
        traceback.print_exc(file=sys.stderr)
        for name in layer:
            if name not in ref.info and name != "failed_frac":
                layer[name] = None
                reasons[name] = f"traced replay could not attach: {exc}"
    else:
        layer.update(replayed)
        problems.extend(replay_problems)
    traces = os.path.join(workdir, "traces")
    os.makedirs(traces, exist_ok=True)
    tracer.dump(os.path.join(traces, f"{run_id}.json"), {"metrics": layer, "null_reasons": reasons})
    return layer
