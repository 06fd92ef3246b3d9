"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import ALGORITHMS, load_model, main, save_model
from repro.core import PTucker, PTuckerConfig
from repro.data import planted_tucker_tensor
from repro.tensor import save_text


@pytest.fixture
def tensor_file(tmp_path):
    planted = planted_tucker_tensor(
        shape=(15, 12, 10), ranks=(2, 2, 2), nnz=700, noise_level=0.01, seed=6
    )
    path = tmp_path / "tensor.tns"
    save_text(planted.tensor, path)
    return str(path), planted.tensor


class TestInfoCommand:
    def test_prints_statistics(self, tensor_file, capsys):
        path, tensor = tensor_file
        assert main(["info", path]) == 0
        output = capsys.readouterr().out
        assert f"shape: {tensor.shape}" in output
        assert f"observed entries: {tensor.nnz}" in output
        assert "mode 0" in output


class TestFactorizeCommand:
    def test_factorize_and_save_model(self, tensor_file, tmp_path, capsys):
        path, _ = tensor_file
        prefix = str(tmp_path / "model")
        code = main(
            [
                "factorize",
                path,
                "--ranks",
                "2",
                "2",
                "2",
                "--max-iterations",
                "3",
                "--output",
                prefix,
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "P-Tucker" in output
        assert "iter   1" in output or "iter 1" in output.replace("  ", " ")
        model = load_model(prefix + ".npz")
        assert model.core.shape == (2, 2, 2)
        assert len(model.factors) == 3

    def test_factorize_with_test_split(self, tensor_file, capsys):
        path, _ = tensor_file
        code = main(
            [
                "factorize",
                path,
                "--ranks",
                "2",
                "--max-iterations",
                "2",
                "--test-fraction",
                "0.1",
            ]
        )
        assert code == 0
        assert "test RMSE" in capsys.readouterr().out

    def test_factorize_with_alternative_algorithm(self, tensor_file, capsys):
        path, _ = tensor_file
        code = main(
            [
                "factorize",
                path,
                "--algorithm",
                "s-hot",
                "--ranks",
                "2",
                "--max-iterations",
                "2",
            ]
        )
        assert code == 0
        assert "S-HOT" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["threaded", "procpool"])
    def test_factorize_with_backend(self, tensor_file, capsys, backend):
        """A non-default backend name runs end to end."""
        path, _ = tensor_file
        code = main(
            [
                "factorize",
                path,
                "--ranks",
                "2",
                "2",
                "2",
                "--max-iterations",
                "2",
                "--backend",
                backend,
            ]
        )
        assert code == 0
        assert "error=" in capsys.readouterr().out

    def test_fit_alias_with_shards(self, tensor_file, tmp_path, capsys):
        """`fit --shards DIR` builds a shard store and streams the sweeps."""
        path, _ = tensor_file
        shard_dir = tmp_path / "shards"
        code = main(
            [
                "fit",
                path,
                "--ranks",
                "2",
                "2",
                "2",
                "--max-iterations",
                "2",
                "--shards",
                str(shard_dir),
                "--shard-nnz",
                "100",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "streaming sweeps from shard store" in output
        assert "error=" in output
        assert (shard_dir / "manifest.json").exists()

    def test_shards_match_in_core_model(self, tensor_file, tmp_path, capsys):
        """The sharded CLI run stores the same model as the in-core run."""
        path, _ = tensor_file
        incore_prefix = str(tmp_path / "incore")
        sharded_prefix = str(tmp_path / "sharded")
        base = ["factorize", path, "--ranks", "2", "2", "2",
                "--max-iterations", "2", "--tolerance", "0"]
        assert main(base + ["--output", incore_prefix]) == 0
        assert main(
            base
            + [
                "--output",
                sharded_prefix,
                "--shards",
                str(tmp_path / "shards"),
                "--shard-nnz",
                "128",
            ]
        ) == 0
        capsys.readouterr()
        incore = load_model(incore_prefix + ".npz")
        sharded = load_model(sharded_prefix + ".npz")
        np.testing.assert_array_equal(sharded.core, incore.core)
        for mine, reference in zip(sharded.factors, incore.factors):
            np.testing.assert_array_equal(mine, reference)

    def test_shards_reject_other_algorithms(self, tensor_file, tmp_path, capsys):
        path, _ = tensor_file
        code = main(
            [
                "factorize",
                path,
                "--algorithm",
                "s-hot",
                "--ranks",
                "2",
                "--shards",
                str(tmp_path / "shards"),
            ]
        )
        assert code == 2
        assert "--shards" in capsys.readouterr().err

    @pytest.mark.parametrize("sharded", [False, True], ids=["in-core", "shards"])
    def test_rank_above_mode_length_exits_2(self, tensor_file, tmp_path, capsys, sharded):
        path, _ = tensor_file
        shards = tmp_path / "shards"
        extra = ["--shards", str(shards)] if sharded else []
        code = main(
            ["fit", path, "--ranks", "2", "13", "2", "--max-iterations", "1", *extra]
        )
        assert code == 2
        assert "rank 13 exceeds mode length 12" in capsys.readouterr().err
        # Refused before the shard build: no store is left behind.
        assert not shards.exists() or list(shards.iterdir()) == []

    @pytest.mark.parametrize("algorithm", ["ptucker-approx", "ptucker-sampled"])
    def test_checkpoint_dir_accepts_variants(
        self, tensor_file, tmp_path, capsys, algorithm
    ):
        path, _ = tensor_file
        ckpt = tmp_path / "ckpt"
        code = main(
            ["fit", path, "--algorithm", algorithm, "--ranks", "2",
             "--max-iterations", "2", "--tolerance", "0",
             "--checkpoint-dir", str(ckpt)]
        )
        assert code == 0
        assert "error=" in capsys.readouterr().out
        assert (ckpt / "iter0000002" / "manifest.json").exists()

    def test_checkpoint_dir_rejects_cache_with_library_reason(
        self, tensor_file, tmp_path, capsys
    ):
        path, _ = tensor_file
        code = main(
            ["fit", path, "--algorithm", "ptucker-cache", "--ranks", "2",
             "--checkpoint-dir", str(tmp_path / "ckpt")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "checkpoint_dir does not support P-Tucker-Cache" in err
        assert "Pres table" in err

    def test_all_registered_algorithms_are_constructible(self):
        config = PTuckerConfig(ranks=(2, 2, 2), max_iterations=1)
        for name, cls in ALGORITHMS.items():
            solver = cls(config)
            assert hasattr(solver, "fit"), name


class TestIngestCommand:
    def test_ingest_builds_matching_store(self, tensor_file, tmp_path, capsys):
        path, tensor = tensor_file
        store_dir = str(tmp_path / "store")
        code = main(
            ["ingest", path, "--shards", store_dir, "--chunk-nnz", "123"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "observed entries" in output
        from repro.shards import ShardStore

        store = ShardStore.open(store_dir)
        store.validate()
        assert store.matches(tensor)

    def test_ingest_reshards_existing_store(self, tensor_file, tmp_path, capsys):
        path, _ = tensor_file
        first = str(tmp_path / "first")
        second = str(tmp_path / "second")
        assert main(["ingest", path, "--shards", first]) == 0
        code = main(["ingest", first, "--shards", second, "--shard-nnz", "99"])
        assert code == 0
        from repro.shards import ShardStore

        assert ShardStore.open(second).shard_nnz == 99


class TestFromTextFlag:
    def test_from_text_matches_in_ram_model(self, tensor_file, tmp_path, capsys):
        path, _ = tensor_file
        in_ram_prefix = str(tmp_path / "in_ram")
        streamed_prefix = str(tmp_path / "streamed")
        common = ["--ranks", "2", "2", "2", "--max-iterations", "2",
                  "--tolerance", "0"]
        assert main(["fit", path, *common, "--output", in_ram_prefix]) == 0
        code = main(
            ["fit", path, *common, "--from-text", "--chunk-nnz", "200",
             "--output", streamed_prefix]
        )
        assert code == 0
        assert "streaming ingest" in capsys.readouterr().out
        in_ram = load_model(in_ram_prefix + ".npz")
        streamed = load_model(streamed_prefix + ".npz")
        np.testing.assert_array_equal(streamed.core, in_ram.core)
        for mine, theirs in zip(streamed.factors, in_ram.factors):
            np.testing.assert_array_equal(mine, theirs)

    def test_from_text_rejects_other_algorithms(self, tensor_file, capsys):
        path, _ = tensor_file
        code = main(
            ["fit", path, "--ranks", "2", "2", "2", "--from-text",
             "--algorithm", "cp-als"]
        )
        assert code == 2
        assert "--from-text" in capsys.readouterr().err

    def test_from_text_rejects_test_fraction(self, tensor_file, capsys):
        path, _ = tensor_file
        code = main(
            ["fit", path, "--ranks", "2", "2", "2", "--from-text",
             "--test-fraction", "0.1"]
        )
        assert code == 2
        assert "test" in capsys.readouterr().err


class TestPredictCommand:
    def test_predict_matches_library_prediction(self, tensor_file, tmp_path, capsys):
        path, tensor = tensor_file
        config = PTuckerConfig(ranks=(2, 2, 2), max_iterations=3, seed=0)
        result = PTucker(config).fit(tensor)
        prefix = str(tmp_path / "model")
        save_model(result, prefix)

        code = main(["predict", prefix + ".npz", "--index", "1", "2", "3"])
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        expected = float(result.predict(np.array([1, 2, 3]))[0])
        assert printed == pytest.approx(expected, rel=1e-5)

    def test_predict_wrong_arity(self, tensor_file, tmp_path, capsys):
        path, tensor = tensor_file
        config = PTuckerConfig(ranks=(2, 2, 2), max_iterations=1, seed=0)
        result = PTucker(config).fit(tensor)
        prefix = str(tmp_path / "model")
        save_model(result, prefix)
        code = main(["predict", prefix + ".npz", "--index", "1", "2"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestModelRoundtrip:
    def test_save_load_preserves_model(self, tensor_file, tmp_path):
        _, tensor = tensor_file
        config = PTuckerConfig(ranks=(2, 2, 2), max_iterations=2, seed=0)
        result = PTucker(config).fit(tensor)
        prefix = str(tmp_path / "roundtrip")
        save_model(result, prefix)
        loaded = load_model(prefix + ".npz")
        np.testing.assert_allclose(loaded.core, result.core)
        for original, reloaded in zip(result.factors, loaded.factors):
            np.testing.assert_allclose(original, reloaded)
        assert loaded.algorithm == "P-Tucker"


@pytest.fixture
def model_file(tensor_file, tmp_path):
    _, tensor = tensor_file
    config = PTuckerConfig(ranks=(2, 2, 2), max_iterations=2, seed=0)
    result = PTucker(config).fit(tensor)
    prefix = str(tmp_path / "served")
    save_model(result, prefix)
    return prefix + ".npz", result


class TestQueryCommand:
    def test_point_query_matches_predict(self, model_file, capsys):
        path, result = model_file
        assert main(["query", path, "--index", "1", "2", "3"]) == 0
        printed = float(capsys.readouterr().out.strip())
        expected = float(result.predict(np.array([1, 2, 3]))[0])
        assert printed == pytest.approx(expected, rel=1e-5)

    def test_topk_prints_item_score_lines(self, model_file, capsys):
        path, result = model_file
        code = main(
            ["query", path, "--topk", "4", "--mode", "1", "--context", "3", "5"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        scores = []
        for line in lines:
            item, score = line.split("\t")
            assert 0 <= int(item) < 12
            scores.append(float(score))
        assert scores == sorted(scores, reverse=True)

    def test_topk_without_mode_or_context_is_usage_error(self, model_file, capsys):
        path, _ = model_file
        assert main(["query", path, "--topk", "4"]) == 2
        assert "--mode and --context" in capsys.readouterr().err

    def test_missing_model_file_is_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.npz")
        code = main(["query", missing, "--index", "1", "2", "3"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unreachable_server_is_exit_2(self, capsys):
        code = main(
            ["query", "http://127.0.0.1:9", "--index", "1", "2", "3"]
        )
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err


class TestServeCommand:
    def test_no_http_without_stdio_is_usage_error(self, model_file, capsys):
        path, _ = model_file
        assert main(["serve", path, "--no-http"]) == 2
        assert "--stdio" in capsys.readouterr().err
