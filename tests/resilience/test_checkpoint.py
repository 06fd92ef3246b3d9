"""Tests for crash-safe checkpoint/resume of P-Tucker fits."""

import os

import numpy as np
import pytest

from faultinject import FaultInjector
from repro.cli import main
from repro.core import PTucker, PTuckerApprox, PTuckerCache, PTuckerConfig
from repro.core.trace import ConvergenceTrace, IterationRecord
from repro.exceptions import DataFormatError, ShapeError
from repro.resilience import CheckpointManager, fit_state_digest, resume_state
from repro.tensor import save_text


def _fit(tensor, **overrides):
    settings = dict(ranks=(3, 3, 3), max_iterations=6, tolerance=0.0, seed=0)
    settings.update(overrides)
    return PTucker(PTuckerConfig(**settings)).fit(tensor)


def _assert_models_bitwise_equal(result, reference):
    assert result.core.tobytes() == reference.core.tobytes()
    for mine, theirs in zip(result.factors, reference.factors):
        assert mine.tobytes() == theirs.tobytes()


class _Killed(Exception):
    """Stands in for a SIGKILL landing right after a checkpoint commits."""


def _fit_killed_after(solver, tensor, iteration, monkeypatch):
    """Run ``solver.fit`` and abort it once iteration ``iteration`` is saved."""
    save = CheckpointManager.save

    def save_then_die(self, saved_iteration, *args, **kwargs):
        path = save(self, saved_iteration, *args, **kwargs)
        if saved_iteration == iteration:
            raise _Killed
        return path

    with monkeypatch.context() as patch:
        patch.setattr(CheckpointManager, "save", save_then_die)
        with pytest.raises(_Killed):
            solver.fit(tensor)


def _sample_trace() -> ConvergenceTrace:
    trace = ConvergenceTrace()
    trace.add(
        IterationRecord(
            iteration=1,
            reconstruction_error=0.5,
            loss=1.25,
            seconds=0.01,
            core_nnz=27,
        )
    )
    return trace


class TestCheckpointManager:
    def test_save_load_round_trip(self, tmp_path, rng):
        manager = CheckpointManager(str(tmp_path / "ckpt"))
        factors = [rng.standard_normal((5, 3)) for _ in range(3)]
        core = rng.standard_normal((3, 3, 3))
        trace = _sample_trace()
        manager.save(1, factors, core, trace, config_digest="abc123")

        state = manager.load_latest()
        assert state is not None
        assert state.iteration == 1
        assert state.config_digest == "abc123"
        assert state.core.tobytes() == core.tobytes()
        for mine, theirs in zip(state.factors, factors):
            assert mine.tobytes() == theirs.tobytes()
        assert len(state.trace.records) == 1
        assert state.trace.records[0].reconstruction_error == 0.5
        assert not state.trace.converged

    def test_due_cadence_and_final_override(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), every=3)
        assert [i for i in range(1, 8) if manager.due(i)] == [3, 6]
        assert manager.due(5, final=True)

    def test_partial_checkpoint_without_manifest_is_invisible(
        self, tmp_path, rng
    ):
        """A crash mid-save leaves no manifest; resume must not see it."""
        manager = CheckpointManager(str(tmp_path))
        factors = [rng.standard_normal((4, 2)) for _ in range(3)]
        core = rng.standard_normal((2, 2, 2))
        manager.save(1, factors, core, _sample_trace(), "d")
        partial = manager.iter_dir(2)
        os.makedirs(partial)
        np.save(os.path.join(partial, "factor0.npy"), factors[0])
        assert manager.iterations() == [1]
        assert manager.load_latest().iteration == 1

    def test_corruption_names_file_and_fallback(self, tmp_path, rng):
        manager = CheckpointManager(str(tmp_path))
        factors = [rng.standard_normal((4, 2)) for _ in range(3)]
        core = rng.standard_normal((2, 2, 2))
        for iteration in (1, 2):
            manager.save(iteration, factors, core, _sample_trace(), "d")
        bad = os.path.join(manager.iter_dir(2), "core.npy")
        FaultInjector(seed=5).bit_flip(bad)
        with pytest.raises(DataFormatError) as excinfo:
            manager.load(2)
        message = str(excinfo.value)
        assert bad in message
        assert "last valid checkpoint is iteration 1" in message
        assert manager.iter_dir(1) in message
        # The earlier checkpoint is intact and still loads.
        assert manager.load(1).iteration == 1

    def test_truncation_diagnosed_before_numpy_parses(self, tmp_path, rng):
        manager = CheckpointManager(str(tmp_path))
        factors = [rng.standard_normal((4, 2)) for _ in range(3)]
        manager.save(
            1, factors, rng.standard_normal((2, 2, 2)), _sample_trace(), "d"
        )
        bad = os.path.join(manager.iter_dir(1), "factor1.npy")
        FaultInjector().truncate(bad)
        with pytest.raises(DataFormatError) as excinfo:
            manager.load(1)
        message = str(excinfo.value)
        assert bad in message
        assert "truncated" in message
        assert "no earlier valid checkpoint exists" in message

    def test_digest_mismatch_refuses_resume(self, tmp_path, rng):
        manager = CheckpointManager(str(tmp_path))
        factors = [rng.standard_normal((4, 2)) for _ in range(3)]
        manager.save(
            3, factors, rng.standard_normal((2, 2, 2)), _sample_trace(), "aaa"
        )
        with pytest.raises(DataFormatError, match="config digest"):
            resume_state(manager, resume=True, config_digest="bbb")

    def test_resume_off_or_empty_returns_none(self, tmp_path):
        manager = CheckpointManager(str(tmp_path / "never-created"))
        assert resume_state(None, True, "d") is None
        assert resume_state(manager, False, "d") is None
        assert resume_state(manager, True, "d") is None

    def test_fit_state_digest_separates_trajectories(self):
        base = dict(
            shape=(4, 4, 4),
            nnz=10,
            ranks=(2, 2, 2),
            regularization=0.01,
            seed=0,
            orthogonalize=False,
            backend="numpy",
            block_size=100_000,
        )
        digest = fit_state_digest(**base)
        assert digest == fit_state_digest(**base)
        assert digest != fit_state_digest(**{**base, "seed": 1})
        assert digest != fit_state_digest(**{**base, "regularization": 0.02})
        assert digest != fit_state_digest(**{**base, "ranks": (3, 2, 2)})

    def test_plain_digest_is_unchanged_and_variants_differ(self):
        base = dict(
            shape=(4, 4, 4),
            nnz=10,
            ranks=(2, 2, 2),
            regularization=0.01,
            seed=0,
            orthogonalize=False,
            backend="numpy",
            block_size=100_000,
        )
        # Pinned: checkpoints written before variants were digested resume.
        assert fit_state_digest(**base) == (
            "47f57c78dde999ff029af35f0e0bd62bc8a6f88d70c52282de5380b507d0ed70"
        )
        approx = {"name": "P-Tucker-Approx", "truncation_rate": 0.2}
        assert fit_state_digest(**base, variant=approx) != fit_state_digest(**base)
        assert fit_state_digest(**base, variant=approx) != fit_state_digest(
            **base, variant={**approx, "truncation_rate": 0.3}
        )


class TestFitResume:
    def test_resume_is_bitwise_identical_to_uninterrupted(
        self, planted_small, tmp_path
    ):
        tensor = planted_small.tensor
        reference = _fit(tensor)

        ckpt = str(tmp_path / "ckpt")
        _fit(tensor, max_iterations=3, checkpoint_dir=ckpt)
        # Canary: resume must re-enter at iteration 4, leaving the early
        # checkpoints untouched (a from-scratch refit would rewrite them).
        canary = os.path.join(ckpt, "iter0000001", "canary")
        open(canary, "w").close()

        resumed = _fit(tensor, checkpoint_dir=ckpt, resume=True)
        _assert_models_bitwise_equal(resumed, reference)
        assert os.path.exists(canary)
        assert len(resumed.trace.records) == 6
        assert CheckpointManager(ckpt).latest_iteration() == 6

    def test_resume_of_finished_fit_is_a_no_op(self, planted_small, tmp_path):
        tensor = planted_small.tensor
        ckpt = str(tmp_path / "ckpt")
        reference = _fit(tensor, checkpoint_dir=ckpt)
        again = _fit(tensor, checkpoint_dir=ckpt, resume=True)
        _assert_models_bitwise_equal(again, reference)
        assert len(again.trace.records) == 6

    def test_resume_after_convergence_keeps_verdict(
        self, planted_small, tmp_path
    ):
        """A checkpoint that already recorded convergence stops immediately."""
        tensor = planted_small.tensor
        ckpt = str(tmp_path / "ckpt")
        first = _fit(tensor, checkpoint_dir=ckpt, tolerance=0.5)
        assert first.trace.converged
        again = _fit(
            tensor, checkpoint_dir=ckpt, resume=True, tolerance=0.5
        )
        _assert_models_bitwise_equal(again, first)
        assert again.trace.converged
        assert len(again.trace.records) == len(first.trace.records)

    def test_checkpoint_every_cadence(self, planted_small, tmp_path):
        tensor = planted_small.tensor
        ckpt = str(tmp_path / "ckpt")
        _fit(tensor, max_iterations=5, checkpoint_dir=ckpt, checkpoint_every=2)
        # Every 2nd iteration plus the forced final one.
        assert CheckpointManager(ckpt).iterations() == [2, 4, 5]

    def test_sharded_fit_resume_is_bitwise_identical(
        self, planted_small, tmp_path
    ):
        tensor = planted_small.tensor
        reference = _fit(tensor, shard_dir=str(tmp_path / "shards-ref"))
        ckpt = str(tmp_path / "ckpt")
        shards = str(tmp_path / "shards")
        _fit(
            tensor, max_iterations=2, shard_dir=shards, checkpoint_dir=ckpt
        )
        resumed = _fit(
            tensor, shard_dir=shards, checkpoint_dir=ckpt, resume=True
        )
        _assert_models_bitwise_equal(resumed, reference)

    @pytest.mark.parametrize(
        "first, second",
        [(PTucker, PTuckerApprox), (PTuckerApprox, PTucker)],
        ids=["approx-from-plain", "plain-from-approx"],
    )
    def test_variant_mismatch_refuses_resume(
        self, planted_small, tmp_path, first, second
    ):
        ckpt = str(tmp_path / "ckpt")
        config = PTuckerConfig(
            ranks=(3, 3, 3), max_iterations=3, tolerance=0.0,
            checkpoint_dir=ckpt,
        )
        first(config).fit(planted_small.tensor)
        with pytest.raises(DataFormatError, match="config digest"):
            second(config.with_updates(resume=True)).fit(planted_small.tensor)

    @pytest.mark.parametrize("make", [pytest.param(PTuckerApprox, id="approx")])
    @pytest.mark.parametrize("killed_after", [1, 3])
    def test_variant_resume_is_bitwise_identical(
        self, planted_small, tmp_path, monkeypatch, bitwise, make, killed_after
    ):
        """Kill a variant's fit right after iteration k's checkpoint lands;
        the resumed fit reproduces the uninterrupted model byte for byte."""
        tensor = planted_small.tensor
        config = PTuckerConfig(
            ranks=(3, 3, 3), max_iterations=5, tolerance=0.0, seed=2
        )
        reference = make(config).fit(tensor)

        ckpt = str(tmp_path / "ckpt")
        checkpointed = config.with_updates(checkpoint_dir=ckpt)
        _fit_killed_after(make(checkpointed), tensor, killed_after, monkeypatch)
        assert CheckpointManager(ckpt).latest_iteration() == killed_after

        resumed = make(checkpointed.with_updates(resume=True)).fit(tensor)
        bitwise(resumed.core, reference.core, "core")
        for mode, (mine, theirs) in enumerate(
            zip(resumed.factors, reference.factors)
        ):
            bitwise(mine, theirs, f"factor {mode}")
        assert resumed.trace.errors == reference.trace.errors

    def test_cache_refuses_checkpointing(self, planted_small, tmp_path):
        config = PTuckerConfig(
            ranks=(3, 3, 3), max_iterations=2,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        with pytest.raises(ShapeError, match="Pres table is not part of a"):
            PTuckerCache(config).fit(planted_small.tensor)
        assert not os.path.exists(tmp_path / "ckpt")

    def test_config_validation(self):
        with pytest.raises(ShapeError, match="checkpoint_every"):
            PTuckerConfig(ranks=(2, 2, 2), checkpoint_every=0)
        with pytest.raises(ShapeError, match="resume"):
            PTuckerConfig(ranks=(2, 2, 2), resume=True)


class TestCliResume:
    @pytest.fixture
    def tensor_file(self, tmp_path, planted_small):
        path = tmp_path / "tensor.tns"
        save_text(planted_small.tensor, path)
        return str(path)

    def test_cli_resume_matches_uninterrupted_run(
        self, tensor_file, tmp_path, capsys
    ):
        from repro.cli import load_model

        common = [
            "fit", tensor_file, "--ranks", "3", "3", "3",
            "--max-iterations", "4", "--tolerance", "0",
        ]
        ref_prefix = str(tmp_path / "ref")
        assert main(common + ["--output", ref_prefix]) == 0

        ckpt = str(tmp_path / "ckpt")
        assert main(
            ["fit", tensor_file, "--ranks", "3", "3", "3",
             "--max-iterations", "2", "--tolerance", "0",
             "--checkpoint-dir", ckpt]
        ) == 0
        resumed_prefix = str(tmp_path / "resumed")
        assert main(
            common
            + ["--checkpoint-dir", ckpt, "--resume", "--output", resumed_prefix]
        ) == 0
        capsys.readouterr()
        reference = load_model(ref_prefix + ".npz")
        resumed = load_model(resumed_prefix + ".npz")
        assert resumed.core.tobytes() == reference.core.tobytes()
        for mine, theirs in zip(resumed.factors, reference.factors):
            assert mine.tobytes() == theirs.tobytes()

    def test_cli_resume_from_corrupt_checkpoint_exits_2(
        self, tensor_file, tmp_path, capsys
    ):
        ckpt = str(tmp_path / "ckpt")
        assert main(
            ["fit", tensor_file, "--ranks", "3", "3", "3",
             "--max-iterations", "3", "--tolerance", "0",
             "--checkpoint-dir", ckpt]
        ) == 0
        bad = os.path.join(ckpt, "iter0000003", "core.npy")
        FaultInjector(seed=1).truncate(bad)
        capsys.readouterr()
        code = main(
            ["fit", tensor_file, "--ranks", "3", "3", "3",
             "--max-iterations", "3", "--tolerance", "0",
             "--checkpoint-dir", ckpt, "--resume"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert bad in err
        assert "last valid checkpoint is iteration 2" in err

    def test_cli_resume_requires_checkpoint_dir(self, tensor_file, capsys):
        code = main(
            ["fit", tensor_file, "--ranks", "3", "3", "3", "--resume"]
        )
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_cli_checkpoint_rejects_other_algorithms(
        self, tensor_file, tmp_path, capsys
    ):
        code = main(
            ["fit", tensor_file, "--ranks", "3", "--algorithm", "s-hot",
             "--checkpoint-dir", str(tmp_path / "ckpt")]
        )
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err
