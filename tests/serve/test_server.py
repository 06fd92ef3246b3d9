"""ModelServer request handling plus an end-to-end CLI serve smoke test."""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import urllib.request

import numpy as np
import pytest

from repro.core import TuckerResult
from repro.model_io import save_model
from repro.serve import ServingModel
from repro.serve.server import ModelServer, ServingError

SHAPE = (6, 9, 5)
RANKS = (2, 3, 2)


def build_model(seed=0):
    rng = np.random.default_rng(seed)
    factors = [rng.standard_normal((dim, rank)) for dim, rank in zip(SHAPE, RANKS)]
    core = rng.standard_normal(RANKS)
    return ServingModel(factors, core, algorithm="ptucker")


def call(server, op, request):
    async def scenario():
        try:
            return await server.handle_request(op, request)
        finally:
            await server.batcher.close()

    return asyncio.run(scenario())


class TestHandleRequest:
    def test_predict_single_index(self):
        model = build_model()
        reply = call(ModelServer(model), "predict", {"index": [1, 2, 3]})
        expected = float(model.predict([[1, 2, 3]])[0])
        assert reply == {"values": [pytest.approx(expected)]}

    def test_predict_batch_matches_model(self):
        model = build_model()
        indices = [[0, 0, 0], [5, 8, 4], [2, 3, 1]]
        reply = call(ModelServer(model), "predict", {"indices": indices})
        np.testing.assert_array_equal(
            np.asarray(reply["values"]), model.predict(indices)
        )

    def test_topk_single_context(self):
        model = build_model()
        reply = call(
            ModelServer(model),
            "topk",
            {"context": [2, 4], "mode": 1, "k": 3},
        )
        expected = model.topk([2, 4], mode=1, k=3)
        assert reply["items"] == [int(i) for i in expected.items]
        assert reply["scores"] == [float(s) for s in expected.scores]

    def test_topk_many_contexts(self):
        model = build_model()
        contexts = [[0, 0], [3, 2], [5, 4]]
        reply = call(
            ModelServer(model),
            "topk",
            {"contexts": contexts, "mode": 1, "k": 2},
        )
        assert len(reply["results"]) == 3
        for context, result in zip(contexts, reply["results"]):
            expected = model.topk(context, mode=1, k=2)
            assert result["items"] == [int(i) for i in expected.items]

    def test_health(self):
        reply = call(ModelServer(build_model()), "health", {})
        assert reply == {"status": "ok", "ready": True}

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_coalesced_topk_equals_single_queries_bitwise(self, mode):
        """Concurrent requests the batcher fuses into one batch answer
        byte for byte like single queries on a fresh model."""
        server = ModelServer(build_model(), max_batch=8, max_wait_ms=50.0)
        contexts = [[2, 4], [0, 0], [5, 3], [1, 2], [3, 1]]

        async def scenario():
            try:
                return await asyncio.gather(
                    *(
                        server.handle_request(
                            "topk", {"context": c, "mode": mode, "k": 4}
                        )
                        for c in contexts
                    )
                )
            finally:
                await server.batcher.close()

        replies = asyncio.run(scenario())
        assert server.batcher.snapshot()["batches"] == 1
        reference = build_model()
        for context, reply in zip(contexts, replies):
            expected = reference.topk(context, mode=mode, k=4)
            assert reply["items"] == [int(i) for i in expected.items]
            assert np.array(reply["scores"]).tobytes() == expected.scores.tobytes()

    def test_stats_payload_shape(self):
        model = build_model()
        server = ModelServer(model)

        async def scenario():
            await server.op_predict({"index": [0, 0, 0]})
            try:
                return server.op_stats()
            finally:
                await server.batcher.close()

        stats = asyncio.run(scenario())
        assert stats["algorithm"] == "ptucker"
        assert stats["shape"] == list(SHAPE)
        assert stats["batcher"]["requests"] == 1
        assert stats["latency"]["predict"]["count"] == 1
        assert stats["latency"]["topk"]["count"] == 0
        assert "query_cache" in stats and "counters" in stats

    def test_stats_and_health_carry_only_in_process_keys(self):
        """/stats is the model's own payload plus the batcher and latency
        windows; neither endpoint reports worker or degradation state."""
        model = build_model()
        server = ModelServer(model)
        stats = server.op_stats()
        assert set(stats) == set(model.stats()) | {"batcher", "latency"}
        assert set(server.op_health()) == {"status", "ready"}
        for key in ("workers", "serving", "degraded"):
            assert key not in stats

    @pytest.mark.parametrize(
        "op, request_body, message",
        [
            ("predict", {}, "predict needs"),
            ("predict", {"indices": []}, "predict needs"),
            ("topk", {"mode": 1, "k": 3}, "topk needs 'context'"),
            ("topk", {"contexts": [], "mode": 1, "k": 3}, "non-empty"),
            ("topk", {"context": [0, 0], "k": 3}, "integer 'mode' and 'k'"),
            ("topk", {"context": [0, 0], "mode": 1}, "integer 'mode' and 'k'"),
            ("nope", {}, "unknown operation"),
        ],
    )
    def test_bad_requests_raise_serving_error(self, op, request_body, message):
        server = ModelServer(build_model())

        async def scenario():
            try:
                with pytest.raises(ServingError, match=message):
                    await server.handle_request(op, request_body)
            finally:
                await server.batcher.close()

        asyncio.run(scenario())

    def test_shutdown_op_sets_event(self):
        server = ModelServer(build_model())

        async def scenario():
            server.shutdown_event = asyncio.Event()
            try:
                reply = await server.handle_request("shutdown", {})
                return reply, server.shutdown_event.is_set()
            finally:
                await server.batcher.close()

        reply, fired = asyncio.run(scenario())
        assert reply == {"status": "shutting down"}
        assert fired


def post(base, path, payload, timeout=10):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def get(base, path, timeout=10):
    with urllib.request.urlopen(base + path, timeout=timeout) as response:
        return json.loads(response.read())


@pytest.fixture
def model_file(tmp_path):
    rng = np.random.default_rng(7)
    factors = [rng.standard_normal((dim, rank)) for dim, rank in zip(SHAPE, RANKS)]
    core = rng.standard_normal(RANKS)
    result = TuckerResult(core=core, factors=factors, algorithm="ptucker")
    return save_model(result, str(tmp_path / "model"))


class TestEndToEnd:
    def test_http_and_stdio_round_trip_with_graceful_shutdown(self, model_file):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                model_file,
                "--port",
                "0",
                "--stdio",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"no serving banner in {banner!r}"
            base = f"http://{match.group(1)}:{match.group(2)}"

            assert get(base, "/health") == {"status": "ok", "ready": True}

            reply = post(base, "/predict", {"index": [1, 2, 3]})
            assert len(reply["values"]) == 1

            reply = post(
                base, "/topk", {"context": [2, 4], "mode": 1, "k": 3}
            )
            assert len(reply["items"]) == 3
            assert reply["scores"] == sorted(reply["scores"], reverse=True)

            # Same queries over the stdin JSON-lines transport.
            process.stdin.write(
                json.dumps({"op": "predict", "index": [1, 2, 3]}) + "\n"
            )
            process.stdin.flush()
            stdio_reply = json.loads(process.stdout.readline())
            assert stdio_reply["values"] == reply_values_approx(
                post(base, "/predict", {"index": [1, 2, 3]})["values"]
            )

            process.stdin.write(
                json.dumps(
                    {"op": "topk", "context": [2, 4], "mode": 1, "k": 3}
                )
                + "\n"
            )
            process.stdin.flush()
            stdio_topk = json.loads(process.stdout.readline())
            assert stdio_topk["items"] == reply["items"]

            stats = get(base, "/stats")
            assert stats["latency"]["predict"]["count"] >= 2
            assert stats["batcher"]["requests"] >= 4

            # Malformed request surfaces as HTTP 400, not a crash.
            bad = urllib.request.Request(
                base + "/topk",
                data=json.dumps({"context": [2, 4]}).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(bad, timeout=10)
            assert excinfo.value.code == 400

            process.send_signal(signal.SIGTERM)
            process.stdin.close()
            assert process.wait(timeout=15) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=15)

    def test_shutdown_endpoint_stops_the_server(self, model_file):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", model_file, "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"no serving banner in {banner!r}"
            base = f"http://{match.group(1)}:{match.group(2)}"
            reply = post(base, "/shutdown", {})
            assert reply == {"status": "shutting down"}
            assert process.wait(timeout=15) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=15)


def test_serving_loads_no_fabric_module(model_file):
    """``repro.serve`` and the CLI's serve path never import the process
    fabric: serving is in-process, the fabric belongs to ``procpool``."""
    import repro

    script = """
import sys
import repro.cli
import repro.serve
import repro.serve.server

served = []
repro.serve.server.serve_model = lambda model, **kwargs: served.append(model)
assert repro.cli.main(["serve", sys.argv[1], "--port", "0"]) == 0
assert len(served) == 1
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", "fabric"]))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script, model_file],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def reply_values_approx(values):
    return [pytest.approx(v) for v in values]
