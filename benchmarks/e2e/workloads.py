"""The four workloads: untraced CLI passes, output checks and traced replays.

A *pass* runs one workload's CLI stages once, as fresh child processes,
and records its set-up time, its measured work, its repeated steps and the
``wait4`` usage of every process.  The runner repeats passes for the
requested seconds and reports medians.  The traced run makes one untraced
pass and then repeats the same calls in-process with the wrappers of
:mod:`e2e.trace`.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np
from repro.core import PTucker, PTuckerConfig
from repro.model_io import load_model, load_result, save_model
from repro.serve import ServingModel
from repro.shards import ShardStore
from repro.tensor import load_text
from repro.tensor.io import DEFAULT_CHUNK_NNZ, open_entry_reader, save_shards
from repro.updates import DeltaLog, apply_delta, compact

from . import inputs, loadgen
from .procs import Cli, Stage
from .trace import (
    TIMED_BACKEND,
    TimedReader,
    Tracer,
    register_timed_backend,
    timed_store_class,
    traced_executor_class,
    traced_incore_fit,
)

RATINGS_RANKS = (10, 10, 5, 5)
WIDE_RANKS = (16, 16, 16)
#: The CLI defaults of ``fit`` / ``update``; the traced replays pass them
#: explicitly so they make the CLI's calls.
REGULARIZATION = 0.01
BLOCK_SIZE = 200_000
SHARD_NNZ = 1_000_000
PROC_STAGES = ("ingest", "fit", "serve", "update", "compact")
SAMPLED_ANSWERS = 64


class StageFailed(RuntimeError):
    def __init__(self, stage: Stage) -> None:
        tail = (stage.stderr or stage.stdout).strip().splitlines()[-5:]
        reason = "timed out" if stage.timed_out else f"exit {stage.returncode}"
        super().__init__(f"{stage.name} {reason}: " + " | ".join(tail))
        self.stage = stage


@dataclass
class Pass:
    """One untraced pass of a workload."""

    setup_s: float
    work_s: float
    steps_s: List[float]
    stages: List[Stage]
    info: Dict[str, float]
    outputs: Dict[str, Any] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0


@dataclass
class Context:
    cli: Cli
    seed: int
    smoke: bool
    rundir: str


def checked(stage: Stage) -> Stage:
    if not stage.ok:
        raise StageFailed(stage)
    return stage


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


_ITER_LINE = re.compile(r"iter\s+\d+: error=\S+ \(([0-9.]+)s\)")


def sweep_seconds(stage: Stage) -> List[float]:
    """Per-iteration seconds as ``fit`` prints them."""
    return [float(s) for s in _ITER_LINE.findall(stage.stdout)]


def proc_metrics(stages: List[Stage]) -> Dict[str, float]:
    """``proc.<stage>.*``: CPU and faults summed, RSS maxed per stage kind."""
    out: Dict[str, float] = {}
    for kind in PROC_STAGES:
        mine = [s for s in stages if s.name == kind]
        out[f"proc.{kind}.user_s"] = sum(s.user_s for s in mine)
        out[f"proc.{kind}.sys_s"] = sum(s.sys_s for s in mine)
        out[f"proc.{kind}.minflt"] = float(sum(s.minflt for s in mine))
        out[f"proc.{kind}.rss_mb"] = max((s.rss_mb for s in mine), default=0.0)
    return out


def dir_mb(path: str) -> float:
    total = 0
    for parent, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(parent, f)) for f in files)
    return total / 1e6


def stored_digest(npz_path: str) -> str:
    """The content digest ``save_model`` stored in the archive."""
    with np.load(npz_path) as archive:
        return str(archive["digest"])


def held_out_rmse(npz_path: str, test_path: str, value_range) -> float:
    """RMSE of a saved model on a held-out text file (``load_model(...).predict``).

    Predictions are clipped to the training values' range, as a recommender
    clips to its rating scale: rows with one or two training entries
    overfit at the CLI's default regularization, and their unclipped
    predictions swing the RMSE by about 5 % from seed to seed.
    """
    test = load_text(test_path)
    predicted = np.clip(load_model(npz_path).predict(test.indices), *value_range)
    return float(np.sqrt(np.mean((predicted - test.values) ** 2)))


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, fraction: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), fraction * 100.0))


# ----------------------------------------------------------------------
# Traced-run helpers shared by the fit workloads
# ----------------------------------------------------------------------


def traced_sharded_fit(tracer: Tracer, text: str, store_dir: str, iterations: int, prefix: str):
    """``fit TEXT --shards STORE`` with timed store, executor and kernels."""
    TimedStore = timed_store_class(tracer)
    Executor = traced_executor_class(tracer)
    with tracer.span("fit"):
        with tracer.span("tensor.load_text"):
            tensor = load_text(text)
        config = PTuckerConfig(
            ranks=RATINGS_RANKS,
            regularization=REGULARIZATION,
            max_iterations=iterations,
            tolerance=0.0,
            backend=TIMED_BACKEND,
            shard_dir=store_dir,
            shard_nnz=SHARD_NNZ,
        )
        with tracer.span("shards.open"):
            store = TimedStore.for_tensor(
                tensor, store_dir, shard_nnz=SHARD_NNZ, index_dtype=config.index_dtype
            )
        result = Executor(store, backend=config.backend, block_size=config.block_size).fit(
            config
        )
        with tracer.span("model_io.save"):
            path = save_model(result, prefix)
    return result, path


def traced_ingest(tracer: Tracer, text: str, store_dir: str) -> None:
    """``ingest TEXT --out STORE`` with the reader proxy."""
    with tracer.span("ingest"), tracer.span("shards.build"):
        save_shards(
            None,
            store_dir,
            shard_nnz=SHARD_NNZ,
            source=TimedReader(open_entry_reader(text), tracer),
            chunk_nnz=DEFAULT_CHUNK_NNZ,
        )


def fit_layer_metrics(tracer: Tracer, result) -> Dict[str, float]:
    seconds = [record.seconds for record in result.trace.records]
    n = max(len(seconds), 1)
    total = sum(seconds)
    mode_update = tracer.total("fit.mode_update")
    residual = tracer.total("fit.residual")
    return {
        "fit.iter_s": total / n,
        "fit.mode_update_s": mode_update / n,
        "fit.residual_s": residual / n,
        "fit.unattributed_frac": (total - mode_update - residual) / total if total else 0.0,
    }


def common_layer_metrics(tracer: Tracer, block_cells: int) -> Dict[str, float]:
    """tensor / shards / kernels / model_io metrics every traced run shares."""
    parse = tracer.total("tensor.parse")
    ne_block = tracer.total("kernels.ne_block")
    entries = tracer.counters["kernels.entries"]
    saves = max(tracer.calls("model_io.save"), 1)
    return {
        "tensor.parse_s": parse,
        "tensor.load_text_s": tracer.total("tensor.load_text"),
        "shards.build_self_s": tracer.total("shards.build") - parse,
        "shards.read_s": tracer.total("shards.read"),
        "shards.read_calls": float(tracer.calls("shards.read")),
        "shards.read_mb": tracer.counters["shards.read_bytes"] / 1e6,
        "kernels.setup_s": tracer.total("kernels.setup"),
        "kernels.ne_block_s": ne_block,
        "kernels.delta_s": tracer.self_time("kernels.ne_block", child="kernels.reduce"),
        "kernels.reduce_s": tracer.total("kernels.reduce"),
        "kernels.solve_s": tracer.total("kernels.solve"),
        "kernels.entries": float(entries),
        "kernels.rows_solved": float(tracer.counters["kernels.rows_solved"]),
        "kernels.entries_per_s": entries / ne_block if ne_block else 0.0,
        "kernels.block_intermediate_mb": block_cells * 8 / 1e6,
        "model_io.save_s": tracer.total("model_io.save") / saves,
    }


def kronecker_block_cells(nnz: int, ranks) -> int:
    """``block × max_n Π_{k≠n} J_k``: the widest per-block δ intermediate bound."""
    width = max(math.prod(ranks) // rank for rank in ranks)
    return min(BLOCK_SIZE, nnz) * width


def compare_models(cli_npz: str, traced_npz: str) -> List[str]:
    """The traced model's core and factors equal the CLI model's, byte for byte."""
    cli, traced = load_model(cli_npz), load_model(traced_npz)
    arrays = zip([cli.core, *cli.factors], [traced.core, *traced.factors])
    if len(cli.factors) != len(traced.factors) or any(
        a.shape != b.shape or a.tobytes() != b.tobytes() for a, b in arrays
    ):
        return [f"traced model {traced_npz} differs from the CLI model {cli_npz}"]
    return []


# ----------------------------------------------------------------------
# ratings-sharded
# ----------------------------------------------------------------------


class RatingsSharded:
    name = "ratings-sharded"
    kind = "ratings"
    cli_env: Dict[str, str] = {}

    def size(self, smoke: bool):
        if smoke:
            return inputs.RatingsSize(nnz=20_000, held_out=2_000), 2
        return inputs.RatingsSize(nnz=250_000), 4

    def run_pass(self, ctx: Context, data: str, pass_dir: str) -> Pass:
        _, iterations = self.size(ctx.smoke)
        ingest, fit, model = ingest_and_fit(ctx, data, pass_dir, iterations)
        sweeps = sweep_seconds(fit)
        stages = [ingest, fit]
        return Pass(
            setup_s=fit.wall_s - sum(sweeps),
            work_s=ingest.wall_s + sum(sweeps),
            steps_s=sweeps,
            stages=stages,
            info={
                "ingest_s": ingest.wall_s,
                "fit_s": fit.wall_s,
                "sweep_s": median(sweeps),
                **proc_metrics(stages),
            },
            outputs={"model": model, "digest": stored_digest(model)},
            attempted=len(stages),
        )

    def check(self, ctx: Context, data: str, passes: List[Pass]) -> Tuple[float, List[str]]:
        return fit_checks(passes, data)

    def traced(self, ctx: Context, data: str, ref: Pass, tracer: Tracer, tdir: str):
        size, iterations = self.size(ctx.smoke)
        train = os.path.join(data, "train.txt")
        store = os.path.join(tdir, "store")
        register_timed_backend(tracer, "numpy")
        started = time.perf_counter()
        traced_ingest(tracer, train, store)
        store_mb = dir_mb(store)
        result, path = traced_sharded_fit(
            tracer, train, store, iterations, os.path.join(tdir, "model")
        )
        traced_s = time.perf_counter() - started
        metrics = {
            **common_layer_metrics(tracer, kronecker_block_cells(size.nnz, RATINGS_RANKS)),
            **fit_layer_metrics(tracer, result),
            "shards.store_mb": store_mb,
            "model_io.model_mb": os.path.getsize(path) / 1e6,
            "trace.overhead_s": traced_s - (ref.setup_s + ref.work_s),
        }
        return metrics, compare_models(ref.outputs["model"], path)


def ingest_and_fit(ctx: Context, data: str, pass_dir: str, iterations: int):
    """``ingest train.txt --out STORE`` then ``fit train.txt --shards STORE``.

    Returns both stages and the written model's path.
    """
    train = os.path.join(data, "train.txt")
    store = os.path.join(pass_dir, "store")
    model = os.path.join(pass_dir, "model")
    ingest = checked(ctx.cli.run("ingest", ["ingest", train, "--out", store]))
    fit = checked(
        ctx.cli.run(
            "fit",
            [
                "fit", train, "--shards", store, "--backend", "numpy",
                "--ranks", *map(str, RATINGS_RANKS),
                "--max-iterations", str(iterations), "--tolerance", "0",
                "--output", model,
            ],
        )
    )
    return ingest, fit, model + ".npz"


def fit_checks(passes: List[Pass], data: str) -> Tuple[float, List[str]]:
    """Every pass wrote the same model, and its held-out RMSE is finite."""
    problems = []
    digests = {p.outputs["digest"] for p in passes}
    if len(digests) != 1:
        problems.append(f"passes wrote {len(digests)} different models")
    with open(os.path.join(data, "inputs.json"), encoding="utf-8") as handle:
        value_range = json.load(handle)["value_range"]
    rmse = held_out_rmse(
        passes[-1].outputs["model"], os.path.join(data, "test.txt"), value_range
    )
    if not math.isfinite(rmse):
        problems.append(f"test RMSE is {rmse}")
    return rmse, problems


# ----------------------------------------------------------------------
# wide-procpool
# ----------------------------------------------------------------------


class WideProcpool:
    name = "wide-procpool"
    kind = "wide"
    cli_env = {"REPRO_PROC_WORKERS": "2"}

    def size(self, smoke: bool):
        if smoke:
            return inputs.WideSize(shape=(2_000, 2_000, 2_000), nnz=3_000, held_out=300), 2
        return inputs.WideSize(nnz=100_000), 2

    def run_pass(self, ctx: Context, data: str, pass_dir: str) -> Pass:
        _, iterations = self.size(ctx.smoke)
        model = os.path.join(pass_dir, "model")
        fit = checked(
            ctx.cli.run(
                "fit",
                [
                    "fit", os.path.join(data, "wide.txt"), "--backend", "procpool",
                    "--ranks", *map(str, WIDE_RANKS),
                    "--max-iterations", str(iterations), "--tolerance", "0",
                    "--output", model,
                ],
                extra_env=self.cli_env,
            )
        )
        sweeps = sweep_seconds(fit)
        return Pass(
            setup_s=fit.wall_s - sum(sweeps),
            work_s=sum(sweeps),
            steps_s=sweeps,
            stages=[fit],
            info={"fit_s": fit.wall_s, "sweep_s": median(sweeps), **proc_metrics([fit])},
            outputs={"model": model + ".npz", "digest": stored_digest(model + ".npz")},
            attempted=1,
        )

    def check(self, ctx: Context, data: str, passes: List[Pass]) -> Tuple[float, List[str]]:
        return fit_checks(passes, data)

    def traced(self, ctx: Context, data: str, ref: Pass, tracer: Tracer, tdir: str):
        from repro.kernels.backends.procpool import default_workers, shared_supervisor

        size, iterations = self.size(ctx.smoke)
        os.environ.update(self.cli_env)
        register_timed_backend(tracer, "procpool")
        started = time.perf_counter()
        with tracer.span("fit"):
            with tracer.span("tensor.load_text"):
                tensor = load_text(os.path.join(data, "wide.txt"))
            config = PTuckerConfig(
                ranks=WIDE_RANKS,
                regularization=REGULARIZATION,
                max_iterations=iterations,
                tolerance=0.0,
                backend=TIMED_BACKEND,
            )
            with traced_incore_fit(tracer):
                result = PTucker(config).fit(tensor)
            with tracer.span("model_io.save"):
                path = save_model(result, os.path.join(tdir, "model"))
        traced_s = time.perf_counter() - started
        workers = default_workers()
        supervisor = shared_supervisor(workers)
        counters = supervisor.counters
        supervisor.shutdown()
        dispatched = counters.get("fabric.tasks_dispatched")
        completed = counters.get("fabric.tasks_completed")
        task_bytes = tracer.counters["kernels.block_bytes"] + tracer.counters["kernels.result_bytes"]
        metrics = {
            **common_layer_metrics(tracer, kronecker_block_cells(size.nnz, WIDE_RANKS)),
            **fit_layer_metrics(tracer, result),
            "fabric.tasks_dispatched": float(dispatched),
            "fabric.tasks_completed": float(completed),
            "fabric.hedges": float(counters.get("fabric.hedges")),
            "fabric.redispatches": float(counters.get("fabric.redispatches")),
            "fabric.useful_ratio": completed / dispatched if dispatched else 0.0,
            "fabric.broadcast_mb": tracer.counters["kernels.setup_bytes"] * workers / 1e6,
            "fabric.task_mb": task_bytes / 1e6 if dispatched else 0.0,
            "model_io.model_mb": os.path.getsize(path) / 1e6,
            "trace.overhead_s": traced_s - (ref.setup_s + ref.work_s),
        }
        return metrics, compare_models(ref.outputs["model"], path)


# ----------------------------------------------------------------------
# topk-http
# ----------------------------------------------------------------------


def canonical_order(items, scores) -> bool:
    """Scores descending, ties by ascending item."""
    return all(
        (scores[i] > scores[i + 1]) or (scores[i] == scores[i + 1] and items[i] < items[i + 1])
        for i in range(len(items) - 1)
    )


def answer(model: ServingModel, kind: str, payload: Dict[str, Any], tracer=None) -> Dict[str, Any]:
    """The in-process answer to one request, shaped like the HTTP reply.

    With a tracer, the projection, the top-K selection and the point
    predictions are spans.
    """
    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    if kind == "predict":
        with span("serve.predict_compute"):
            values = model.predict(payload["indices"])
        return {"values": [float(v) for v in values]}
    contexts = payload.get("contexts") or [payload["context"]]
    with span("serve.project"):
        model.project(contexts, payload["mode"])
    with span("serve.topk_compute" if kind == "topk" else "serve.batch_topk_compute"):
        results = model.topk_batch(contexts, payload["mode"], payload["k"])
    lists = [
        {"items": [int(i) for i in r.items], "scores": [float(s) for s in r.scores]}
        for r in results
    ]
    return {"results": lists} if "contexts" in payload else lists[0]


class TopkHttp:
    name = "topk-http"
    kind = "model"
    cli_env: Dict[str, str] = {}

    def size(self, smoke: bool):
        if smoke:
            return inputs.ModelSize(shape=(2_000, 5_000, 24), held_out=200), 40
        return inputs.ModelSize(), 400

    def run_pass(self, ctx: Context, data: str, pass_dir: str) -> Pass:
        size, n_requests = self.size(ctx.smoke)
        requests = loadgen.request_stream(size.shape, n_requests, ctx.seed)
        server = ctx.cli.spawn("serve", ["serve", os.path.join(data, "model.npz"), "--port", "0"])
        attempted, failed, stage = 1, 0, None
        try:
            host, port = wait_for_server(server)
            warm = [
                ("/topk", {"context": [0, 0], "mode": loadgen.TOPK_MODE, "k": loadgen.TOPK_K}),
                ("/predict", {"indices": [[0, 0, 0]]}),
            ]
            for path, payload in warm:
                attempted += 1
                status, _ = loadgen.call(host, port, "POST", path, payload)
                if status != 200:
                    raise RuntimeError(f"warm-up {path} answered {status}")
            setup_s = time.perf_counter() - server.started
            cpu_before = os.times()
            started = time.perf_counter()
            replies = loadgen.run_closed_loop(host, port, requests, connections=2)
            work_s = time.perf_counter() - started
            cpu_after = os.times()
            attempted += len(replies)
            failed += sum(1 for r in replies if r.status != 200)
            _, stats = loadgen.call(host, port, "GET", "/stats")
            rmse, rmse_requests = served_rmse(host, port, os.path.join(data, "test.txt"))
            attempted += rmse_requests
            loadgen.call(host, port, "POST", "/shutdown")
            stage = server.wait()
        finally:
            if stage is None:
                server.kill()
                server.wait()
        checked(stage)
        ok = [r for r in replies if r.status == 200]
        latency = {
            kind: [r.seconds for r in ok if r.kind == kind]
            for kind in ("topk", "batch_topk", "predict")
        }
        all_topk = latency["topk"] + latency["batch_topk"]
        server_latency = stats["latency"]
        info = {
            "topk_p50_ms": median(latency["topk"]) * 1e3,
            "topk_p90_ms": percentile(latency["topk"], 0.90) * 1e3,
            "batch_topk_p50_ms": median(latency["batch_topk"]) * 1e3,
            "predict_p50_ms": median(latency["predict"]) * 1e3,
            "qps": len(ok) / work_s,
            "loadgen.topk_p99_ms": percentile(latency["topk"], 0.99) * 1e3,
            "loadgen.cpu_s": (cpu_after.user - cpu_before.user)
            + (cpu_after.system - cpu_before.system),
            "serve.server_topk_p50_ms": server_latency["topk"]["p50_ms"],
            "serve.server_predict_p50_ms": server_latency["predict"]["p50_ms"],
            "serve.transport_p50_ms": median(all_topk) * 1e3 - server_latency["topk"]["p50_ms"],
            "serve.batch_mean_occupancy": stats["batcher"]["mean_occupancy"],
            "serve.batches": float(stats["batcher"]["batches"]),
            "serve.query_cache_hit_rate": stats["query_cache"]["hit_rate"],
            **proc_metrics([stage]),
        }
        return Pass(
            setup_s=setup_s,
            work_s=work_s,
            steps_s=latency["topk"],
            stages=[stage],
            info=info,
            outputs={"requests": requests, "replies": replies, "test_rmse": rmse},
            attempted=attempted,
            failed=failed,
        )

    def check(self, ctx: Context, data: str, passes: List[Pass]) -> Tuple[float, List[str]]:
        last = passes[-1]
        problems = []
        pairs = [
            (request, reply)
            for request, reply in zip(last.outputs["requests"], last.outputs["replies"])
            if reply.status == 200
        ]
        for (kind, _, _), reply in pairs:
            lists = reply.body.get("results", [reply.body]) if kind != "predict" else []
            if not all(canonical_order(r["items"], r["scores"]) for r in lists):
                problems.append(f"a {kind} answer is not in canonical order")
                break
        rng = np.random.default_rng([ctx.seed, 64])
        sample = rng.choice(len(pairs), size=min(SAMPLED_ANSWERS, len(pairs)), replace=False)
        model = ServingModel.load(os.path.join(data, "model.npz"))
        mismatched = sum(
            1 for i in sample if answer(model, pairs[i][0][0], pairs[i][0][2]) != pairs[i][1].body
        )
        if mismatched:
            problems.append(f"{mismatched} of {len(sample)} sampled HTTP answers differ in-process")
        rmse = median(p.outputs["test_rmse"] for p in passes)
        if not math.isfinite(rmse):
            problems.append(f"served test RMSE is {rmse}")
        return rmse, problems

    def traced(self, ctx: Context, data: str, ref: Pass, tracer: Tracer, tdir: str):
        started = time.perf_counter()
        with tracer.span("serve.model_load"):
            model = ServingModel.load(os.path.join(data, "model.npz"))
        with tracer.span("serve.projection_build"):
            model.item_projection(loadgen.TOPK_MODE)
        mismatched = sum(
            1
            for (kind, _, payload), reply in zip(ref.outputs["requests"], ref.outputs["replies"])
            if reply.status == 200 and answer(model, kind, payload, tracer) != reply.body
        )
        traced_s = time.perf_counter() - started

        def p50_ms(name: str) -> float:
            durations = tracer.durations(name)
            return median(durations) * 1e3 if durations else 0.0

        metrics = {
            "serve.model_load_s": tracer.total("serve.model_load"),
            "serve.projection_build_s": tracer.total("serve.projection_build"),
            "serve.project_ms": p50_ms("serve.project"),
            "serve.topk_compute_ms": p50_ms("serve.topk_compute"),
            "serve.batch_topk_compute_ms": p50_ms("serve.batch_topk_compute"),
            "serve.predict_compute_ms": p50_ms("serve.predict_compute"),
            "model_io.model_mb": os.path.getsize(os.path.join(data, "model.npz")) / 1e6,
            "trace.overhead_s": traced_s - (ref.setup_s + ref.work_s),
        }
        problems = [f"{mismatched} replayed answers differ from HTTP"] if mismatched else []
        return metrics, problems


def wait_for_server(server, timeout: float = 120.0) -> Tuple[str, int]:
    """Address from the ``serving on http://HOST:PORT`` line, once ``/health`` is 200."""
    deadline = time.monotonic() + timeout
    address = None
    while time.monotonic() < deadline:
        if server.proc.poll() is not None:
            raise RuntimeError(f"serve exited early: {server.read_stdout()[-500:]}")
        match = re.search(r"serving on http://([^:\s]+):(\d+)", server.read_stdout())
        if match:
            address = match.group(1), int(match.group(2))
            status, _ = loadgen.call(*address, "GET", "/health")
            if status == 200:
                return address
        time.sleep(0.005)
    raise RuntimeError("serve did not become healthy in time")


def served_rmse(host: str, port: int, test_path: str, chunk: int = 500) -> Tuple[float, int]:
    """RMSE of ``/predict`` answers on the held-out cells, and requests made."""
    test = load_text(test_path)
    cells = test.indices.tolist()
    predicted: List[float] = []
    requests = 0
    for start in range(0, len(cells), chunk):
        requests += 1
        status, body = loadgen.call(
            host, port, "POST", "/predict", {"indices": cells[start : start + chunk]}
        )
        if status != 200:
            raise RuntimeError(f"held-out /predict answered {status}")
        predicted.extend(body["values"])
    error = np.asarray(predicted) - test.values
    return float(np.sqrt(np.mean(error**2))), requests


# ----------------------------------------------------------------------
# delta-update
# ----------------------------------------------------------------------


class DeltaUpdate:
    name = "delta-update"
    kind = "ratings"
    cli_env: Dict[str, str] = {}

    def size(self, smoke: bool):
        if smoke:
            return inputs.RatingsSize(nnz=10_000, held_out=1_000, n_deltas=2, delta_nnz=500), 1
        return inputs.RatingsSize(nnz=50_000, n_deltas=6, delta_nnz=1_000), 1

    def run_pass(self, ctx: Context, data: str, pass_dir: str) -> Pass:
        size, iterations = self.size(ctx.smoke)
        ingest, fit, model = ingest_and_fit(ctx, data, pass_dir, iterations)
        store = os.path.join(pass_dir, "store")
        updates = [
            checked(
                ctx.cli.run(
                    "update",
                    ["update", store, os.path.join(data, f"delta{k}.rcoo"), "--model", model],
                )
            )
            for k in range(size.n_deltas)
        ]
        compacted = checked(ctx.cli.run("compact", ["compact", store]))
        stages = [ingest, fit, *updates, compacted]
        rows = [
            sum(int(n) for n in re.findall(r"mode \d+: (\d+) factor rows re-solved", u.stdout))
            for u in updates
        ]
        walls = [u.wall_s for u in updates]
        return Pass(
            setup_s=ingest.wall_s + fit.wall_s,
            work_s=sum(walls) + compacted.wall_s,
            steps_s=walls,
            stages=stages,
            info={
                "ingest_s": ingest.wall_s,
                "fit_s": fit.wall_s,
                "update_p50_s": median(walls),
                "compact_s": compacted.wall_s,
                "updates.rows_resolved": float(statistics.mean(rows)),
                **proc_metrics(stages),
            },
            outputs={"model": model, "digest": stored_digest(model), "store": store},
            attempted=len(stages),
        )

    def check(self, ctx: Context, data: str, passes: List[Pass]) -> Tuple[float, List[str]]:
        size, _ = self.size(ctx.smoke)
        rmse, problems = fit_checks(passes, data)
        store = passes[-1].outputs["store"]
        verify = ctx.cli.run("shards-verify", ["shards-verify", store])
        passes[-1].attempted += 1
        if not verify.ok:
            passes[-1].failed += 1
            problems.append(f"shards-verify failed: {verify.stdout.strip()} {verify.stderr.strip()}")
        expected = size.nnz + size.n_deltas * size.delta_nnz
        nnz = ShardStore.open(store).nnz
        if nnz != expected:
            problems.append(f"compacted store holds {nnz} entries, expected {expected}")
        return rmse, problems

    def traced(self, ctx: Context, data: str, ref: Pass, tracer: Tracer, tdir: str):
        size, iterations = self.size(ctx.smoke)
        train = os.path.join(data, "train.txt")
        store_dir = os.path.join(tdir, "store")
        prefix = os.path.join(tdir, "model")
        TimedStore = timed_store_class(tracer)
        register_timed_backend(tracer, "numpy")
        started = time.perf_counter()
        traced_ingest(tracer, train, store_dir)
        store_mb = dir_mb(store_dir)
        fitted, path = traced_sharded_fit(tracer, train, store_dir, iterations, prefix)
        for k in range(size.n_deltas):
            # The CLI's `update STORE DELTA --model MODEL.npz` call sequence.
            with tracer.span("update"):
                store = TimedStore.open(store_dir)
                log = DeltaLog.open(store.directory)
                with tracer.span("updates.model_io"):
                    result = load_result(path)
                with tracer.span("updates.append"):
                    log.append(os.path.join(data, f"delta{k}.rcoo"), store.shape)
                factors = [np.ascontiguousarray(f, dtype=np.float64) for f in result.factors]
                core = np.ascontiguousarray(result.core, dtype=np.float64)
                with tracer.span("updates.resolve"):
                    solved = apply_delta(
                        store,
                        factors,
                        core,
                        regularization=REGULARIZATION,
                        block_size=BLOCK_SIZE,
                        backend=TIMED_BACKEND,
                        log=log,
                    )
                tracer.count("updates.rows_resolved", sum(r.shape[0] for r, _ in solved.values()))
                result.factors = factors
                result.core = core
                with tracer.span("updates.model_io"):
                    save_model(result, prefix)
        with tracer.span("compact"):
            compacted = compact(ShardStore.open(store_dir))
        traced_s = time.perf_counter() - started
        n = max(size.n_deltas, 1)
        metrics = {
            **common_layer_metrics(tracer, kronecker_block_cells(size.nnz, RATINGS_RANKS)),
            **fit_layer_metrics(tracer, fitted),
            "shards.store_mb": store_mb,
            "model_io.model_mb": os.path.getsize(path) / 1e6,
            "updates.append_s": tracer.total("updates.append") / n,
            "updates.resolve_s": tracer.total("updates.resolve") / n,
            "updates.rows_resolved": tracer.counters["updates.rows_resolved"] / n,
            "updates.model_io_s": tracer.total("updates.model_io") / n,
            "trace.overhead_s": traced_s - (ref.setup_s + ref.work_s),
        }
        problems = compare_models(ref.outputs["model"], path)
        cli_store = ShardStore.open(ref.outputs["store"])
        if compacted.fingerprint != cli_store.fingerprint:
            problems.append("traced compacted store differs from the CLI one")
        return metrics, problems


WORKLOADS = {w.name: w for w in (RatingsSharded(), WideProcpool(), TopkHttp(), DeltaUpdate())}
