"""Autotuner unit tests: measured selection, cache hits, JSON persistence."""

import json

import numpy as np
import pytest

from repro.core.row_update import update_factor_mode
from repro.kernels.backends import (
    AutoBackend,
    Autotuner,
    block_size_bucket,
    shape_class_key,
)
from repro.kernels.backends.autotune import default_auto_backend
from repro.tensor import SparseTensor


class StubTimer:
    """Deterministic timer: scripted seconds per backend name, call counting."""

    def __init__(self, seconds):
        self.seconds = dict(seconds)
        self.calls = 0

    def __call__(self, kernel, args, repeats):
        self.calls += 1
        name = getattr(kernel, "stub_name")
        return self.seconds[name], kernel(*args)


def _named_kernel(name, scale):
    def kernel(indices, values, starts):
        return (
            np.full((starts.shape[0], 2, 2), scale, dtype=np.float64),
            np.full((starts.shape[0], 2), scale, dtype=np.float64),
        )

    kernel.stub_name = name
    return kernel


CALIBRATION = (
    np.zeros((6, 3), dtype=np.int64),
    np.ones(6),
    np.asarray([0, 2, 4], dtype=np.int64),
)


def test_shape_class_key_buckets_block_sizes():
    assert block_size_bucket(0) == 0
    assert block_size_bucket(1) == 1
    assert block_size_bucket(90_000) == block_size_bucket(100_000) == 1 << 17
    assert (
        shape_class_key(3, (10, 10, 10), 100_000)
        == "solver=rows|order=3|ranks=10x10x10|block=131072"
    )
    assert shape_class_key(3, (10, 10, 10), 1_000) != shape_class_key(
        3, (10, 10, 10), 100_000
    )


def test_pick_selects_measured_fastest_never_slower():
    timer = StubTimer({"numpy": 2.0, "threaded": 5.0})
    tuner = Autotuner(timer=timer)
    candidates = {
        "numpy": _named_kernel("numpy", 1.0),
        "threaded": _named_kernel("threaded", 2.0),
    }
    winner, result = tuner.pick("k1", candidates, CALIBRATION)
    assert winner == "numpy"  # threaded measured slower: never selected
    assert result is not None and result[0][0, 0, 0] == 1.0
    assert tuner.timings("k1") == {"numpy": 2.0, "threaded": 5.0}


def test_cache_hit_skips_re_timing():
    timer = StubTimer({"numpy": 1.0, "threaded": 0.5})
    tuner = Autotuner(timer=timer)
    candidates = {
        "numpy": _named_kernel("numpy", 1.0),
        "threaded": _named_kernel("threaded", 2.0),
    }
    winner, _ = tuner.pick("k1", candidates, CALIBRATION)
    assert winner == "threaded"
    calls_after_first = timer.calls
    assert calls_after_first == 2  # one measurement per candidate

    winner2, result2 = tuner.pick("k1", candidates, CALIBRATION)
    assert winner2 == "threaded"
    assert result2 is None  # cache hit: caller runs the winner itself
    assert timer.calls == calls_after_first  # no re-timing

    # A different shape class calibrates independently.
    tuner.pick("k2", candidates, CALIBRATION)
    assert timer.calls == calls_after_first + 2


def test_json_cache_roundtrip(tmp_path):
    path = str(tmp_path / "autotune.json")
    timer = StubTimer({"numpy": 3.0, "threaded": 1.0})
    tuner = Autotuner(cache_path=path, timer=timer)
    tuner.pick(
        "k1",
        {
            "numpy": _named_kernel("numpy", 1.0),
            "threaded": _named_kernel("threaded", 2.0),
        },
        CALIBRATION,
    )
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["choices"] == {"k1": "threaded"}

    # A fresh tuner (new process in real life) reuses the persisted winner
    # without ever invoking its timer.
    fresh_timer = StubTimer({"numpy": 0.1, "threaded": 9.0})
    fresh = Autotuner(cache_path=path, timer=fresh_timer)
    winner, result = fresh.pick(
        "k1",
        {
            "numpy": _named_kernel("numpy", 1.0),
            "threaded": _named_kernel("threaded", 2.0),
        },
        CALIBRATION,
    )
    assert winner == "threaded"
    assert result is None
    assert fresh_timer.calls == 0


def test_failed_dump_leaves_previous_cache_readable(tmp_path, monkeypatch):
    """A write that dies half-way (here: disk full) never touches the
    cache file: the previous winners still load in a fresh process."""
    import builtins
    import errno

    path = tmp_path / "autotune.json"
    candidates = {
        "numpy": _named_kernel("numpy", 1.0),
        "threaded": _named_kernel("threaded", 2.0),
    }
    first = Autotuner(
        cache_path=str(path), timer=StubTimer({"numpy": 3.0, "threaded": 1.0})
    )
    first.pick("k1", candidates, CALIBRATION)
    before = path.read_bytes()

    class HalfWrite:
        def __init__(self, handle):
            self.handle = handle

        def write(self, payload):
            self.handle.write(payload[: len(payload) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        def close(self):
            self.handle.close()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.close()

    real_open = builtins.open

    def disk_full_open(name, mode="r", *args, **kwargs):
        handle = real_open(name, mode, *args, **kwargs)
        return HalfWrite(handle) if "w" in mode else handle

    monkeypatch.setattr(builtins, "open", disk_full_open)
    second = Autotuner(
        cache_path=str(path), timer=StubTimer({"numpy": 1.0, "threaded": 2.0})
    )
    winner, _ = second.pick("k2", candidates, CALIBRATION)
    monkeypatch.undo()
    assert winner == "numpy"  # the failed dump does not fail the pick

    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["autotune.json"]
    assert Autotuner(cache_path=str(path)).lookup("k1") == "threaded"


def test_corrupt_cache_file_is_ignored(tmp_path):
    path = tmp_path / "autotune.json"
    path.write_text("{not json")
    tuner = Autotuner(cache_path=str(path))
    assert tuner.lookup("anything") is None


def test_cached_winner_outside_candidates_recalibrates():
    timer = StubTimer({"numpy": 1.0})
    tuner = Autotuner(timer=timer)
    tuner._choices["k1"] = "numba"  # e.g. a cache written by an older build
    winner, _ = tuner.pick(
        "k1", {"numpy": _named_kernel("numpy", 1.0)}, CALIBRATION
    )
    assert winner == "numpy"
    assert timer.calls == 1


def test_cache_timed_on_normal_equations_kernels_recalibrates(tmp_path):
    """Winners keyed without ``solver=rows`` were timed on another unit."""
    path = tmp_path / "tune.json"
    key = shape_class_key(3, (3, 3, 3), CALIBRATION[0].shape[0])
    older_key = key.split("|", 1)[1]
    path.write_text(json.dumps({"choices": {older_key: "numpy"}}))
    timer = StubTimer({"numpy": 2.0, "threaded": 1.0})
    tuner = Autotuner(cache_path=str(path), timer=timer)
    assert tuner.lookup(key) is None
    winner, _ = tuner.pick(
        key,
        {
            "numpy": _named_kernel("numpy", 1.0),
            "threaded": _named_kernel("threaded", 2.0),
        },
        CALIBRATION,
    )
    assert winner == "threaded"
    assert timer.calls == 2
    assert json.loads(path.read_text())["choices"][key] == "threaded"


def test_auto_backend_update_matches_numpy():
    rng = np.random.default_rng(4)
    indices = np.stack([rng.integers(0, d, 500) for d in (12, 10, 8)], axis=1)
    tensor = SparseTensor(
        indices.astype(np.int64), rng.uniform(0.1, 1.0, 500), (12, 10, 8)
    ).deduplicate()
    factors = [rng.uniform(-1, 1, (d, 3)) for d in tensor.shape]
    core = rng.uniform(-1, 1, (3, 3, 3))
    reference = [f.copy() for f in factors]
    update_factor_mode(tensor, reference, core, 0, 0.01, backend="numpy")
    auto = [f.copy() for f in factors]
    update_factor_mode(
        tensor, auto, core, 0, 0.01, backend=AutoBackend(tuner=Autotuner())
    )
    np.testing.assert_allclose(auto[0], reference[0], atol=1e-12, rtol=1e-12)


def test_auto_backend_calibrates_once_per_shape_class():
    timer = StubTimer({"numpy": 1.0, "threaded": 2.0})
    tuner = Autotuner(timer=timer)

    # Patch candidate kernels through a custom AutoBackend whose candidate
    # set is stubbed at the tuner level: drive pick() directly with blocks
    # of two different shape classes.
    candidates = {
        "numpy": _named_kernel("numpy", 1.0),
        "threaded": _named_kernel("threaded", 2.0),
    }
    small = (np.zeros((100, 3), np.int64), np.ones(100), np.zeros(5, np.int64))
    large = (np.zeros((5000, 3), np.int64), np.ones(5000), np.zeros(9, np.int64))
    for block in (small, small, large, large, small):
        key = shape_class_key(3, (3, 3, 3), block[0].shape[0])
        tuner.pick(key, candidates, block)
    # Two distinct shape classes -> exactly two calibrations (4 timings).
    assert timer.calls == 4


def test_default_auto_backend_is_shared_singleton():
    assert default_auto_backend() is default_auto_backend()
