"""Chaos tests: real SIGKILLs against real child processes.

Marked ``chaos`` and excluded from the tier-1 run (see ``pytest.ini``);
CI runs them as a separate job step with ``-m chaos``.  Every random
choice (kill iteration, flipped byte) comes from a seeded
:class:`~faultinject.FaultInjector`, so a failure reproduces exactly.
"""

import os
import subprocess
import sys

import pytest

from faultinject import FaultInjector, repro_env
from repro.cli import load_model, main
from repro.data import planted_tucker_tensor
from repro.exceptions import DataFormatError
from repro.shards import ShardStore
from repro.tensor import save_text

pytestmark = pytest.mark.chaos

MAX_ITERATIONS = 8


@pytest.fixture
def tensor_file(tmp_path):
    # Large enough that one ALS iteration takes appreciable wall time, so
    # the SIGKILL lands mid-fit, never after the child already finished.
    planted = planted_tucker_tensor(
        shape=(70, 60, 50), ranks=(4, 4, 4), nnz=30_000,
        noise_level=0.01, seed=13,
    )
    path = tmp_path / "tensor.tns"
    save_text(planted.tensor, path)
    return str(path)


def _fit_argv(tensor_file, ckpt_dir, output=None):
    argv = [
        "fit", tensor_file, "--ranks", "4", "4", "4",
        "--max-iterations", str(MAX_ITERATIONS), "--tolerance", "0",
        "--checkpoint-dir", str(ckpt_dir),
    ]
    if output:
        argv += ["--output", str(output)]
    return argv


class TestKillAndResume:
    def test_resume_after_sigkill_is_bitwise_identical(
        self, tensor_file, tmp_path, capsys
    ):
        """Kill a fit at a seeded-random iteration; resume must reproduce
        the uninterrupted model bit for bit."""
        injector = FaultInjector(seed=20260807)
        ckpt = str(tmp_path / "ckpt")

        targeted = injector.kill_fit_at_iteration(
            _fit_argv(tensor_file, ckpt), ckpt
        )
        from repro.resilience import CheckpointManager

        latest = CheckpointManager(ckpt).latest_iteration()
        assert latest is not None and latest >= targeted
        assert latest < MAX_ITERATIONS, "fit finished before the kill landed"

        # Canary inside the first checkpoint: a resume re-enters at
        # latest+1 and never rewrites it; a from-scratch refit would.
        canary = os.path.join(ckpt, "iter0000001", "canary")
        open(canary, "w").close()

        ref_prefix = str(tmp_path / "reference")
        assert main(_fit_argv(
            tensor_file, str(tmp_path / "ckpt-ref"), output=ref_prefix
        )) == 0
        resumed_prefix = str(tmp_path / "resumed")
        assert main(
            _fit_argv(tensor_file, ckpt, output=resumed_prefix) + ["--resume"]
        ) == 0
        capsys.readouterr()

        reference = load_model(ref_prefix + ".npz")
        resumed = load_model(resumed_prefix + ".npz")
        # npz bytes are not deterministic (zip metadata); the arrays are.
        assert resumed.core.tobytes() == reference.core.tobytes()
        for mine, theirs in zip(resumed.factors, reference.factors):
            assert mine.tobytes() == theirs.tobytes()
        assert os.path.exists(canary)

    def test_bit_flip_after_kill_is_diagnosed_not_misread(
        self, tensor_file, tmp_path, capsys
    ):
        """Corrupting the surviving checkpoint makes resume fail loudly,
        naming the damaged file and the fall-back checkpoint."""
        injector = FaultInjector(seed=77)
        ckpt = str(tmp_path / "ckpt")
        injector.kill_fit_at_iteration(
            _fit_argv(tensor_file, ckpt), ckpt, iteration=3
        )
        from repro.resilience import CheckpointManager

        latest = CheckpointManager(ckpt).latest_iteration()
        bad = os.path.join(ckpt, f"iter{latest:07d}", "factor0.npy")
        injector.bit_flip(bad)
        code = main(_fit_argv(tensor_file, ckpt) + ["--resume"])
        assert code == 2
        err = capsys.readouterr().err
        assert bad in err
        assert f"last valid checkpoint is iteration {latest - 1}" in err


class TestKillDuringStreamingBuild:
    def test_next_build_detects_cleans_and_matches_fresh(
        self, tensor_file, tmp_path
    ):
        """SIGKILL a streaming shard build mid-ingest; the next build over
        the same directory detects the debris, cleans it, and produces a
        store byte-identical to one built in a fresh directory."""
        injector = FaultInjector(seed=3)
        crashed_dir = str(tmp_path / "crashed")
        injector.kill_streaming_build_mid_ingest(
            tensor_file, crashed_dir, die_after_chunks=2, chunk_nnz=2_000,
            shard_nnz=5_000,
        )
        assert os.path.isdir(os.path.join(crashed_dir, ".ingest-tmp"))
        assert not os.path.exists(os.path.join(crashed_dir, "manifest.json"))
        with pytest.raises(DataFormatError):
            ShardStore.open(crashed_dir)

        # Rebuild over the crashed directory and build a pristine control.
        env = repro_env({"REPRO_SPILL_WORKERS": "1"})
        fresh_dir = str(tmp_path / "fresh")
        for target in (crashed_dir, fresh_dir):
            subprocess.run(
                [sys.executable, "-m", "repro", "ingest", tensor_file,
                 "--out", target, "--chunk-nnz", "2000",
                 "--shard-nnz", "5000"],
                env=env, check=True, capture_output=True,
            )

        assert not os.path.isdir(os.path.join(crashed_dir, ".ingest-tmp"))
        ShardStore.open(crashed_dir).validate()

        def snapshot(directory):
            files = {}
            for root, _, names in os.walk(directory):
                for name in names:
                    path = os.path.join(root, name)
                    relative = os.path.relpath(path, directory)
                    with open(path, "rb") as handle:
                        files[relative] = handle.read()
            return files

        rebuilt, fresh = snapshot(crashed_dir), snapshot(fresh_dir)
        assert sorted(rebuilt) == sorted(fresh)
        for relative in fresh:
            assert rebuilt[relative] == fresh[relative], relative
