"""Fast documentation checks, part of the default pytest run.

Two guarantees: the README quickstart actually executes (its ``>>>``
snippets run under doctest), and no relative link in ``README.md`` or
``docs/*.md`` points at a file that does not exist.
"""

import doctest
import pathlib
import pydoc
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
README = REPO_ROOT / "README.md"
DOC_FILES = [README] + sorted((REPO_ROOT / "docs").glob("*.md"))

#: Markdown inline links: [text](target).  Images and reference-style links
#: are not used in this repository's docs.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def test_readme_quickstart_doctests(tmp_path, monkeypatch):
    """Every ``>>>`` example in the README runs and prints what it claims."""
    monkeypatch.chdir(tmp_path)  # stray outputs land in the test sandbox
    results = doctest.testfile(
        str(README),
        module_relative=False,
        optionflags=doctest.NORMALIZE_WHITESPACE,
    )
    assert results.attempted > 0, "README lost its executable quickstart"
    assert results.failed == 0


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(doc):
    targets = LINK_RE.findall(doc.read_text(encoding="utf-8"))
    assert targets, f"{doc.name} contains no links — regex or docs regressed"
    for target in targets:
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = (doc.parent / target.split("#")[0]).resolve()
        assert path.exists(), f"{doc.name}: broken relative link {target!r}"


def test_readme_lists_exactly_the_cli_algorithms():
    """The ``--algorithm`` row names every solver the CLI offers, no more."""
    from repro.cli import ALGORITHMS

    row = next(
        line
        for line in README.read_text(encoding="utf-8").splitlines()
        if line.startswith("| `--algorithm` |")
    )
    choices = row.split("|")[3]
    assert set(re.findall(r"`([^`]+)`", choices)) == set(ALGORITHMS)


def test_readme_documents_the_cli_flags():
    """The CLI reference table keeps up with the parser's flags."""
    text = README.read_text(encoding="utf-8")
    for flag in (
        "--backend",
        "--shards",
        "--shard-nnz",
        "--ranks",
        "--from-text",
        "--chunk-nnz",
        "--index-dtype",
        "--format",
        "--out",
        "--checkpoint-dir",
        "--checkpoint-every",
        "--checkpoint-diff",
        "--resume",
        "--topk",
        "--mode",
        "--context",
        "--exclude-observed",
        "--max-batch",
        "--max-wait-ms",
        "--cache-rows",
        "--stdio",
        "--no-http",
        "--mmap",
    ):
        assert flag in text, f"README CLI table is missing {flag}"
    for command in (
        "ingest",
        "shards-verify",
        "update",
        "compact",
        "serve",
        "query",
    ):
        assert command in text, f"README CLI table is missing {command}"
    assert "rcoo" in text, "README does not mention the rcoo container"


@pytest.mark.parametrize(
    "module,expected",
    [
        ("repro.columns", ("IndexColumns", "uint8", "zero-copy")),
        ("repro.shards", ("ShardStore", "ShardedSweepExecutor", "manifest")),
        ("repro.shards.store", ("read_mode_block", "mode_segmentation", "uint8")),
        ("repro.shards.executor", ("bitwise", "fit", "run_als")),
        ("repro.shards.merge", ("streaming_build", "k-way", "bitwise", "narrow")),
        ("repro.tensor.io", ("iter_entry_chunks", "TextEntryReader", "rcoo")),
        ("repro.tensor.textparse", ("parse_numeric_block", "float(token)")),
        (
            "repro.kernels.backends",
            ("KernelBackend", "resolve_backend", "unknown kernel backend"),
        ),
        ("repro.kernels.backends.base", ("solve_segments", "make_row_solver")),
        ("repro.kernels.solve", ("solve_segments", "dual", "push-through")),
        ("repro.resilience", ("atomic_open", "CheckpointManager", "bitwise")),
        ("repro.resilience.atomic", ("fsync", "rename", "crash")),
        ("repro.resilience.checkpoint", ("manifest", "bitwise", "resume")),
        # ``retry`` the function shadows the submodule for pydoc (like
        # ``updates.compact``); the needles target the function docstring.
        ("repro.resilience.retry", ("deadline", "backoff", "attempts")),
        ("repro.fabric", ("TaskSupervisor", "heartbeat", "bitwise")),
        ("repro.fabric.protocol", ("frame", "magic", "length")),
        ("repro.fabric.supervisor", ("hedg", "deadline", "poison")),
        ("repro.fabric.pool", ("setup log", "respawn", "backoff")),
        ("repro.fabric.worker", ("dotted path", "HEARTBEAT", "SIGSTOP")),
        ("repro.kernels.backends.procpool", ("fabric", "GIL", "bitwise", "solves")),
        ("repro.updates", ("DeltaLog", "targeted", "compaction")),
        ("repro.updates.deltalog", ("deltalog.json", "commit", "sha256")),
        ("repro.updates.union", ("read_mode_block", "bitwise", "log-append")),
        ("repro.updates.resolve", ("touched", "bitwise", "solve")),
        # ``compact`` the function shadows the submodule for pydoc; the
        # needles target the function's own docstring.
        ("repro.updates.compact", ("byte-identical", "union", "pending")),
        ("repro.updates.lowrank", ("R@C", "rank", "bitwise")),
        ("repro.serve", ("ServingModel", "rank space", "micro-batch")),
        ("repro.serve.topk", ("canonical", "bitwise", "margin")),
        ("repro.serve.cache", ("LRUCache", "hit", "evict")),
        ("repro.serve.batch", ("MicroBatcher", "max_batch", "deadline")),
        ("repro.serve.server", ("ModelServer", "/stats", "shutdown")),
        ("repro.model_io", ("save_model", "load_result", "digest")),
        ("repro.metrics.timing", ("Counters", "LatencyWindow", "percentile")),
        ("repro.metrics.environment", ("single_cpu_caveat", "blas")),
        ("repro.core.row_update", ("InMemorySource", "read_mode_block", "bitwise")),
        ("repro.core.ptucker", ("run_als", "update_factor_mode", "error_and_loss")),
        ("repro.kernels.microbench", ("kron_update_factor_mode", "frozen", "speedup")),
    ],
)
def test_pydoc_renders_public_api(module, expected):
    """``python -m pydoc`` output for the public APIs is usable: the module
    docstrings exist and name their central concepts."""
    text = pydoc.render_doc(module)
    for needle in expected:
        assert needle in text, f"pydoc {module} does not mention {needle!r}"


def _config_backend_doc():
    from repro.core.config import PTuckerConfig

    doc = PTuckerConfig.__doc__
    return doc[doc.index("backend:") : doc.index("shard_dir:")]


def _update_factor_mode_doc():
    from repro.core.row_update import update_factor_mode

    return update_factor_mode.__doc__


def _module_doc(module):
    def read():
        import importlib

        return importlib.import_module(module).__doc__

    return read


def _factorize_backend_help():
    from repro.cli import _build_parser

    parser = _build_parser()
    (subparsers,) = [
        action for action in parser._actions if action.dest == "command"
    ]
    factorize = subparsers.choices["factorize"]
    (backend,) = [
        action for action in factorize._actions if "--backend" in action.option_strings
    ]
    return backend.help


def _readme_backend_row():
    rows = [
        line
        for line in README.read_text(encoding="utf-8").splitlines()
        if line.startswith("| `--backend`") and "execution strategy" in line
    ]
    assert len(rows) == 1, "README lost its --backend row"
    return rows[0]


@pytest.mark.parametrize(
    "read",
    [
        _config_backend_doc,
        _update_factor_mode_doc,
        _module_doc("repro.shards"),
        _module_doc("repro.shards.executor"),
        _module_doc("repro.kernels"),
        _module_doc("repro.kernels.backends"),
        _factorize_backend_help,
        _readme_backend_row,
    ],
    ids=[
        "PTuckerConfig.backend",
        "update_factor_mode",
        "repro.shards",
        "repro.shards.executor",
        "repro.kernels",
        "repro.kernels.backends",
        "factorize --backend",
        "README --backend",
    ],
)
def test_backend_lists_name_the_registered_backends(read):
    """Every place that lists the kernel backends names exactly the ones
    ``--backend`` accepts, and none that is not registered."""
    from repro.kernels.backends import available_backends

    text = read()
    for name in available_backends():
        assert re.search(rf"[`'\"]{name}[`'\"]", text), f"does not name {name!r}"
    assert "numba" not in text.lower()
