"""Model archive round-trip, digest verification and checkpoint loading."""

import hashlib
import os
import struct
import subprocess
import sys
import zipfile

import numpy as np
import pytest

from repro.core import PTucker, PTuckerConfig, TuckerResult
from repro.core.trace import ConvergenceTrace, IterationRecord
from repro.data import planted_tucker_tensor
from repro.exceptions import DataFormatError
from repro.model_io import (
    MODEL_FORMAT,
    MODEL_VERSION,
    load_model,
    load_result,
    model_digest,
    save_model,
)
from repro.resilience import CheckpointManager

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def make_result(rng, shape=(5, 7, 4), ranks=(2, 3, 2), algorithm="ptucker"):
    factors = [rng.standard_normal((dim, rank)) for dim, rank in zip(shape, ranks)]
    core = rng.standard_normal(ranks)
    return TuckerResult(core=core, factors=factors, algorithm=algorithm)


def save_model_deflated(result, path):
    """The archive ``save_model`` wrote before its members were stored."""
    factors = [np.asarray(f) for f in result.factors]
    arrays = {
        "core": result.core,
        "algorithm": np.asarray(result.algorithm),
        "format": np.asarray(MODEL_FORMAT),
        "version": np.asarray(MODEL_VERSION),
        "digest": np.asarray(model_digest(result.core, factors)),
    }
    for mode, factor in enumerate(factors):
        arrays[f"factor_{mode}"] = factor
    np.savez_compressed(path, **arrays)
    return path


def digest_via_tobytes(core, factors):
    """``model_digest`` as first written, hashing a ``tobytes()`` copy."""
    digest = hashlib.sha256()
    digest.update(repr(tuple(core.shape)).encode("ascii"))
    digest.update(np.ascontiguousarray(core, dtype=np.float64).tobytes())
    for factor in factors:
        digest.update(repr(tuple(factor.shape)).encode("ascii"))
        digest.update(np.ascontiguousarray(factor, dtype=np.float64).tobytes())
    return digest.hexdigest()


def flip_member_byte(path, member, where=0.5):
    """Flip one bit of ``member``'s data inside the zip file at ``path``."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    with open(path, "rb") as handle:
        raw = bytearray(handle.read())
    # Local file header: 30 fixed bytes, then the name and extra fields.
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    start = info.header_offset + 30 + name_len + extra_len
    raw[start + int(where * (info.compress_size - 1))] ^= 0x01
    with open(path, "wb") as handle:
        handle.write(raw)


def assert_bitwise_equal(loaded, reference):
    assert loaded.core.tobytes() == reference.core.tobytes()
    assert len(loaded.factors) == len(reference.factors)
    for mine, theirs in zip(loaded.factors, reference.factors):
        assert mine.tobytes() == theirs.tobytes()


class TestRoundTrip:
    def test_save_load_is_bitwise(self, tmp_path, rng):
        reference = make_result(rng)
        path = save_model(reference, str(tmp_path / "model"))
        assert path.endswith(".npz")
        loaded = load_model(path)
        assert_bitwise_equal(loaded, reference)
        assert loaded.algorithm == "ptucker"

    def test_digest_is_content_addressed(self, rng):
        result = make_result(rng)
        same = model_digest(result.core, result.factors)
        assert same == model_digest(result.core.copy(), [f.copy() for f in result.factors])
        perturbed = result.core.copy()
        perturbed.flat[0] += 1.0
        assert same != model_digest(perturbed, result.factors)

    def test_digest_pinned_across_releases(self):
        # Computed when the digest hashed tobytes() copies; archives on
        # disk carry this string, so it must never change.
        core = np.arange(12, dtype=np.float64).reshape(2, 3, 2) / 7
        factors = [
            np.arange(10, dtype=np.float64).reshape(5, 2) / 3,
            np.arange(21, dtype=np.float64).reshape(7, 3) / 11,
            np.arange(8, dtype=np.float64).reshape(4, 2) / 13,
        ]
        assert model_digest(core, factors) == (
            "c82bcedb8b6e52b0ef303b7881443140756b1f5f7754464aebddd2a560d2cc07"
        )

    @pytest.mark.parametrize("layout", ["C", "F", "float32", "strided"])
    def test_digest_equals_tobytes_formulation(self, rng, layout):
        result = make_result(rng)
        convert = {
            "C": np.ascontiguousarray,
            "F": np.asfortranarray,
            "float32": lambda a: a.astype(np.float32),
            "strided": lambda a: np.repeat(a, 2, axis=-1)[..., ::2],
        }[layout]
        core = convert(result.core)
        factors = [convert(f) for f in result.factors]
        assert model_digest(core, factors) == digest_via_tobytes(core, factors)

    def test_load_result_dispatches_to_npz(self, tmp_path, rng):
        reference = make_result(rng)
        path = save_model(reference, str(tmp_path / "model"))
        assert_bitwise_equal(load_result(path), reference)


class TestArchiveFormat:
    def test_every_member_is_stored(self, tmp_path, rng):
        path = save_model(make_result(rng), str(tmp_path / "model"))
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        assert {m.filename for m in members} >= {"core.npy", "digest.npy", "factor_0.npy"}
        assert all(m.compress_type == zipfile.ZIP_STORED for m in members)

    def test_deflated_archive_loads_and_verifies(self, tmp_path, rng):
        reference = make_result(rng)
        path = save_model_deflated(reference, str(tmp_path / "legacy.npz"))
        with zipfile.ZipFile(path) as archive:
            assert all(
                m.compress_type == zipfile.ZIP_DEFLATED for m in archive.infolist()
            )
        assert_bitwise_equal(load_model(path), reference)

    def test_fitted_model_matches_the_deflated_archive(self, tmp_path):
        planted = planted_tucker_tensor((12, 10, 8), (2, 2, 2), 400, seed=0)
        result = PTucker(PTuckerConfig(ranks=(2, 2, 2), max_iterations=2)).fit(
            planted.tensor
        )
        stored = save_model(result, str(tmp_path / "stored"))
        deflated = save_model_deflated(result, str(tmp_path / "deflated.npz"))
        assert_bitwise_equal(load_model(stored), load_model(deflated))
        assert_bitwise_equal(load_model(stored), result)
        with np.load(stored) as new, np.load(deflated) as old:
            assert str(new["digest"]) == str(old["digest"])
            assert str(new["digest"]) == model_digest(result.core, result.factors)


MEMBERS = [
    "core.npy",
    "algorithm.npy",
    "format.npy",
    "version.npy",
    "digest.npy",
    "factor_0.npy",
    "factor_1.npy",
    "factor_2.npy",
]


class TestCorruptArchive:
    # Byte 0 of a member is the .npy magic (a header parse error); the last
    # byte is caught only by the member's CRC.  A deflated member's first
    # and last bits can flip without changing its content, so deflated
    # archives are damaged mid-member only.
    @pytest.mark.parametrize("member", MEMBERS)
    @pytest.mark.parametrize(
        "writer, where",
        [("stored", 0.0), ("stored", 0.5), ("stored", 1.0), ("deflated", 0.5)],
    )
    def test_flipped_byte_is_a_named_error(self, tmp_path, rng, writer, where, member):
        result = make_result(rng)
        if writer == "stored":
            path = save_model(result, str(tmp_path / "model"))
        else:
            path = save_model_deflated(result, str(tmp_path / "model.npz"))
        flip_member_byte(path, member, where)
        with pytest.raises(DataFormatError, match=f"model.npz.*{member}"):
            load_model(path)

    def test_cli_predict_exits_2_naming_the_file(self, tmp_path, rng):
        path = save_model(make_result(rng), str(tmp_path / "model"))
        flip_member_byte(path, "factor_1.npy")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC_DIR, env.get("PYTHONPATH", "")) if p
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "predict", path, "--index", "1", "2", "3"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 2
        assert path in completed.stderr
        assert "Traceback" not in completed.stderr


class TestValidation:
    def test_corrupt_digest_is_detected(self, tmp_path, rng):
        result = make_result(rng)
        path = save_model(result, str(tmp_path / "model"))
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["core"] = arrays["core"].copy()
        arrays["core"].flat[0] += 1.0
        for writer in (np.savez, np.savez_compressed):
            writer(path, **arrays)
            with pytest.raises(DataFormatError, match="digest"):
                load_model(path)

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_bytes(b"definitely not a zip file")
        with pytest.raises(DataFormatError, match="cannot read"):
            load_model(str(path))

    def test_archive_without_core(self, tmp_path, rng):
        path = tmp_path / "model.npz"
        np.savez_compressed(path, factor_0=rng.standard_normal((3, 2)))
        with pytest.raises(DataFormatError, match="no 'core'"):
            load_model(str(path))

    def test_archive_without_factors(self, tmp_path, rng):
        path = tmp_path / "model.npz"
        np.savez_compressed(path, core=rng.standard_normal((2, 2)))
        with pytest.raises(DataFormatError, match="no factor"):
            load_model(str(path))

    def test_rank_mismatch_rejected_on_save(self, tmp_path, rng):
        result = make_result(rng)
        result.factors[1] = rng.standard_normal((7, 5))  # rank 5 != core's 3
        with pytest.raises(DataFormatError):
            save_model(result, str(tmp_path / "model"))

    def test_mmap_rejected_for_npz(self, tmp_path, rng):
        path = save_model(make_result(rng), str(tmp_path / "model"))
        with pytest.raises(DataFormatError, match="checkpoint directory"):
            load_result(path, mmap=True)


def sample_trace():
    trace = ConvergenceTrace()
    trace.add(
        IterationRecord(
            iteration=1,
            reconstruction_error=0.5,
            loss=1.25,
            seconds=0.01,
            core_nnz=12,
        )
    )
    return trace


class TestCheckpointDirectories:
    def write_checkpoint(self, tmp_path, rng):
        reference = make_result(rng)
        manager = CheckpointManager(str(tmp_path / "ckpt"))
        manager.save(
            3, reference.factors, reference.core, sample_trace(), "digest"
        )
        return str(tmp_path / "ckpt"), reference

    def test_loads_latest_checkpoint(self, tmp_path, rng):
        directory, reference = self.write_checkpoint(tmp_path, rng)
        loaded = load_result(directory)
        assert_bitwise_equal(loaded, reference)
        assert loaded.algorithm == "ptucker"

    def test_mmap_load_maps_factors_readonly(self, tmp_path, rng):
        directory, reference = self.write_checkpoint(tmp_path, rng)
        loaded = load_result(directory, mmap=True)
        assert_bitwise_equal(loaded, reference)
        assert isinstance(loaded.factors[0], np.memmap)
        with pytest.raises((ValueError, OSError)):
            loaded.factors[0][0, 0] = 99.0

    def test_empty_directory_is_a_named_error(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        with pytest.raises(DataFormatError, match="no complete checkpoint"):
            load_result(str(empty))
