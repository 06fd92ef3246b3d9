"""Command-line interface: factorize a tensor file and inspect the result.

Usage::

    python -m repro factorize ratings.tns --ranks 10 10 5 5 --output model
    python -m repro fit ratings.tns --ranks 10 --shards /data/shards
    python -m repro fit ratings.tns --ranks 10 --from-text --output model
    python -m repro fit ratings.tns --ranks 10 --checkpoint-dir ckpt
    python -m repro fit ratings.tns --ranks 10 --checkpoint-dir ckpt --resume
    python -m repro ingest ratings.tns --out /data/shards
    python -m repro ingest ratings.tns --format rcoo --out ratings.rcoo
    python -m repro shards-verify /data/shards
    python -m repro update /data/shards new-entries.rcoo
    python -m repro update /data/shards new-entries.rcoo --model model --output model
    python -m repro compact /data/shards
    python -m repro predict model.npz --index 3 17 2 14
    python -m repro serve model.npz --port 8763
    python -m repro query model.npz --topk 10 --mode 1 --context 3 7
    python -m repro query http://127.0.0.1:8763 --index 3 17 2 14
    python -m repro info ratings.tns

(``fit`` is an alias of ``factorize``; ``--shards DIR`` streams the sweeps
from an on-disk shard store instead of RAM, ``--from-text`` additionally
streams the *input file* through the external-memory shard build so the
tensor never exists in RAM, and ``ingest`` runs that build on its own —
``--format rcoo`` writes the chunked binary COO container of
:mod:`repro.tensor.io` instead of a store.  ``shards-verify``
checks an existing store's files against its manifest and exits 0/2.
``--checkpoint-dir`` writes crash-safe per-iteration checkpoints and
``--resume`` continues an interrupted fit bitwise-identically — see
:mod:`repro.resilience`; ``--checkpoint-diff`` stores later checkpoints
as low-rank row diffs against their predecessor, and ``--resume``
reconstructs the chain bitwise-identically.  ``update`` appends an
``.rcoo`` delta file to a store's pending delta log (atomically — a
crash leaves the log unchanged) and, with ``--model``, re-solves only
the factor rows the delta touches; ``compact`` folds pending deltas
into the store, producing files identical to a fresh build of the
union tensor — see :mod:`repro.updates`.  ``shards-verify`` also
validates any pending deltas against their logged digests.)

``factorize`` reads a whitespace-separated ``i_1 ... i_N value`` file (the
format of the paper's released datasets), runs the chosen algorithm, reports
the convergence trace, and optionally stores the fitted model as ``.npz``
files.  ``predict`` loads a stored model and evaluates Eq. (4) at the given
index.  ``serve`` keeps a fitted model resident behind the low-latency
query layer of :mod:`repro.serve` (HTTP and/or stdin JSON-lines,
micro-batched, with a ``/stats`` endpoint); ``query`` issues one point or
top-K query against a local model file or a running ``serve`` URL.
``info`` prints basic statistics of a tensor file.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from .baselines import SHot, TuckerAls, TuckerCsf, TuckerWopt
from .core import PTucker, PTuckerApprox, PTuckerCache, PTuckerConfig
from .kernels.backends import available_backends
from .model_io import load_model, load_result, save_model
from .tensor import SparseTensor, load_text
from .tensor.io import DEFAULT_CHUNK_NNZ, open_entry_reader

ALGORITHMS = {
    "ptucker": PTucker,
    "ptucker-cache": PTuckerCache,
    "ptucker-approx": PTuckerApprox,
    "tucker-als": TuckerAls,
    "tucker-wopt": TuckerWopt,
    "tucker-csf": TuckerCsf,
    "s-hot": SHot,
}


# save_model / load_model live in repro.model_io (shared with the serving
# layer); re-exported here because the CLI is their historical home.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="P-Tucker: sparse Tucker factorization from the command line.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    factorize = subparsers.add_parser(
        "factorize", aliases=["fit"], help="factorize a tensor file"
    )
    factorize.add_argument("tensor", help="path to a 'i_1 ... i_N value' text file")
    factorize.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="ptucker",
        help="factorization method (default: ptucker)",
    )
    factorize.add_argument(
        "--ranks", type=int, nargs="+", required=True, help="Tucker ranks, one per mode"
    )
    factorize.add_argument(
        "--backend",
        choices=available_backends(),
        default="numpy",
        help="kernel execution strategy: 'numpy' (serial), 'threaded' "
        "(shared-memory threads) or 'procpool' (supervised worker processes)",
    )
    factorize.add_argument(
        "--shards",
        metavar="DIR",
        default="",
        help="run the sweeps out of core: shard the tensor into mode-sorted "
        "memory-mapped COO blocks at DIR (reused when DIR already shards "
        "this tensor) and stream them instead of holding sorted copies in "
        "RAM; P-Tucker only, every mode update bitwise-equal to the "
        "in-core sweep (see repro.shards for the convergence-metric "
        "caveat at nonzero --tolerance)",
    )
    factorize.add_argument(
        "--shard-nnz",
        type=int,
        default=1_000_000,
        help="entries per shard when --shards builds a store (default: 1e6)",
    )
    factorize.add_argument(
        "--from-text",
        action="store_true",
        help="stream the input file through the external-memory shard "
        "build instead of loading it into RAM (ptucker only; the store "
        "lands at --shards DIR when given, else in a temporary "
        "directory), so the whole fit runs with bounded memory",
    )
    factorize.add_argument(
        "--chunk-nnz",
        type=int,
        default=DEFAULT_CHUNK_NNZ,
        help="entries read per chunk during --from-text ingest "
        "(default: 5e5; bounds ingest peak memory)",
    )
    factorize.add_argument("--regularization", type=float, default=0.01)
    factorize.add_argument("--max-iterations", type=int, default=20)
    factorize.add_argument("--tolerance", type=float, default=1e-4)
    factorize.add_argument("--seed", type=int, default=0)
    factorize.add_argument(
        "--test-fraction",
        type=float,
        default=0.0,
        help="hold out this fraction of entries and report their RMSE",
    )
    factorize.add_argument(
        "--zero-based",
        action="store_true",
        help="indices in the file start at 0 instead of 1",
    )
    factorize.add_argument(
        "--output", default="", help="prefix for the stored model (.npz)"
    )
    factorize.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default="",
        help="write a crash-safe checkpoint (factors + core + trace, "
        "checksummed, manifest last) into DIR during the fit; P-Tucker "
        "algorithms except ptucker-cache.  An interrupted run restarts "
        "with --resume",
    )
    factorize.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        default=1,
        help="checkpoint every N iterations (default: 1; the final "
        "iteration is always checkpointed)",
    )
    factorize.add_argument(
        "--checkpoint-diff",
        action="store_true",
        help="store each checkpoint after the first as a low-rank row diff "
        "against its predecessor (only changed factor rows are written); "
        "--resume reconstructs the chain bitwise-identically",
    )
    factorize.add_argument(
        "--resume",
        action="store_true",
        help="resume from the latest valid checkpoint in --checkpoint-dir "
        "and continue bitwise-identically to an uninterrupted fit; "
        "corrupt checkpoints are diagnosed with the file name and the "
        "last valid checkpoint to fall back to (exit 2)",
    )

    ingest = subparsers.add_parser(
        "ingest",
        help="stream a tensor file into an on-disk shard store or an "
        ".rcoo container (bounded RAM)",
    )
    ingest.add_argument(
        "input",
        help="tensor input: a 'i_1 ... i_N value' text file, a .npz "
        "archive, an .rcoo container, or an existing shard-store "
        "directory (any version) to re-shard",
    )
    ingest.add_argument(
        "--out",
        "--shards",
        dest="out",
        metavar="PATH",
        required=True,
        help="target of the build: a directory for the shard store "
        "(--format store), or a file path for --format rcoo "
        "(--shards is an accepted alias)",
    )
    ingest.add_argument(
        "--format",
        choices=("store", "rcoo"),
        default="store",
        help="output format: 'store' (default) builds the sharded "
        "mode-sorted store; 'rcoo' writes the chunked binary COO "
        "container (entry order preserved, bounded-RAM re-read)",
    )
    ingest.add_argument(
        "--shard-nnz",
        type=int,
        default=1_000_000,
        help="entries per shard in the built store (default: 1e6)",
    )
    ingest.add_argument(
        "--chunk-nnz",
        type=int,
        default=DEFAULT_CHUNK_NNZ,
        help="entries read per chunk (default: 5e5; bounds peak memory)",
    )
    ingest.add_argument(
        "--zero-based",
        action="store_true",
        help="indices in a text input start at 0 instead of 1",
    )

    verify = subparsers.add_parser(
        "shards-verify",
        help="check a shard store's files against its manifest (exit 0/2)",
    )
    verify.add_argument("store", help="path of the shard-store directory")
    verify.add_argument(
        "--quick",
        action="store_true",
        help="header/size checks only (O(files)); skip the full data-level "
        "validation that re-reads every shard",
    )

    update = subparsers.add_parser(
        "update",
        help="append an .rcoo delta file to a store's pending delta log "
        "(optionally re-solving only the touched factor rows of a model)",
    )
    update.add_argument("store", help="path of the shard-store directory")
    update.add_argument(
        "delta",
        help="new observed entries as an .rcoo container (same order and "
        "within-bounds indices as the store)",
    )
    update.add_argument(
        "--model",
        default="",
        metavar="PREFIX",
        help="model .npz written by 'factorize': re-solve only the factor "
        "rows the delta touches, over the union of old and new entries",
    )
    update.add_argument(
        "--output",
        default="",
        metavar="PREFIX",
        help="prefix for the updated model (.npz); defaults to --model "
        "(updated in place)",
    )
    update.add_argument("--regularization", type=float, default=0.01)
    update.add_argument(
        "--backend",
        choices=available_backends(),
        default="numpy",
        help="kernel execution strategy for the targeted re-solves",
    )
    update.add_argument(
        "--block-size",
        type=int,
        default=200_000,
        help="entries per streamed block during the re-solves; matching "
        "the fit's block size makes the touched rows bitwise-equal to a "
        "full sweep's (default 200000)",
    )

    compact = subparsers.add_parser(
        "compact",
        help="fold a store's pending deltas into its shards (files "
        "identical to a fresh build of the union tensor)",
    )
    compact.add_argument("store", help="path of the shard-store directory")
    compact.add_argument(
        "--shard-nnz",
        type=int,
        default=None,
        help="entries per shard of the compacted store (default: keep the "
        "store's current setting)",
    )

    predict = subparsers.add_parser("predict", help="predict one cell of a stored model")
    predict.add_argument("model", help="path to a model .npz written by 'factorize'")
    predict.add_argument(
        "--index", type=int, nargs="+", required=True, help="0-based cell index"
    )

    info = subparsers.add_parser("info", help="print statistics of a tensor file")
    info.add_argument("tensor", help="path to a 'i_1 ... i_N value' text file")
    info.add_argument("--zero-based", action="store_true")

    serve = subparsers.add_parser(
        "serve", help="serve a fitted model over HTTP and/or stdin JSON-lines"
    )
    serve.add_argument(
        "model", help="model .npz written by 'factorize' or a checkpoint directory"
    )
    serve.add_argument("--host", default="127.0.0.1", help="HTTP bind address")
    serve.add_argument("--port", type=int, default=8763, help="HTTP port")
    serve.add_argument(
        "--stdio",
        action="store_true",
        help="additionally answer JSON-lines requests on stdin",
    )
    serve.add_argument(
        "--no-http",
        action="store_true",
        help="disable the HTTP listener (stdin-only serving)",
    )
    serve.add_argument(
        "--shards",
        metavar="DIR",
        help="attach the fit's shard store so top-K queries can "
        "exclude observed entries",
    )
    serve.add_argument(
        "--mmap",
        action="store_true",
        help="memory-map checkpoint factor matrices instead of loading "
        "them into RAM (checkpoint directories only)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=256,
        help="most requests coalesced into one kernel call (default 256)",
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="longest a request waits for batch companions (default 2.0)",
    )
    serve.add_argument(
        "--cache-rows",
        type=int,
        default=4096,
        help="projected-vector LRU capacity; 0 disables caching "
        "(default 4096)",
    )

    query = subparsers.add_parser(
        "query", help="query a model file or a running serve endpoint"
    )
    query.add_argument(
        "model",
        help="model .npz, checkpoint directory, or http://HOST:PORT of a "
        "running 'serve'",
    )
    group = query.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--index",
        type=int,
        nargs="+",
        help="0-based cell index for a point prediction",
    )
    group.add_argument(
        "--topk",
        type=int,
        metavar="K",
        help="return the K best items of --mode for --context",
    )
    query.add_argument(
        "--mode", type=int, default=None, help="item mode ranked by --topk"
    )
    query.add_argument(
        "--context",
        type=int,
        nargs="+",
        default=None,
        help="query context indices: all modes except --mode (or all modes "
        "with the --mode position ignored)",
    )
    query.add_argument(
        "--exclude-observed",
        action="store_true",
        help="drop items the context has observed entries for "
        "(needs --shards locally or a server started with --shards)",
    )
    query.add_argument(
        "--shards",
        metavar="DIR",
        help="shard store for --exclude-observed when querying a local model",
    )

    return parser


def _command_factorize(args: argparse.Namespace) -> int:
    # The P-Tucker variants refuse what they cannot honour themselves
    # (ShapeError, exit 2 with the library's reason); the baselines do not
    # read these config fields at all, so they are refused here.
    p_tucker = issubclass(ALGORITHMS[args.algorithm], PTucker)
    if (args.shards or args.from_text) and not p_tucker:
        flag = "--shards" if args.shards else "--from-text"
        print(
            f"error: {flag} supports the base 'ptucker' algorithm only "
            f"(got --algorithm {args.algorithm})",
            file=sys.stderr,
        )
        return 2
    if args.from_text and args.test_fraction > 0.0:
        print(
            "error: --from-text streams the input and cannot hold out a "
            "test split; drop --test-fraction or load in RAM",
            file=sys.stderr,
        )
        return 2
    if args.checkpoint_dir and not p_tucker:
        print(
            "error: --checkpoint-dir supports the P-Tucker algorithms only "
            f"(got --algorithm {args.algorithm})",
            file=sys.stderr,
        )
        return 2
    if args.resume and not args.checkpoint_dir:
        print(
            "error: --resume needs --checkpoint-dir DIR to know where the "
            "checkpoints live",
            file=sys.stderr,
        )
        return 2
    if args.checkpoint_diff and not args.checkpoint_dir:
        print(
            "error: --checkpoint-diff needs --checkpoint-dir DIR to know "
            "where the checkpoints live",
            file=sys.stderr,
        )
        return 2

    config = PTuckerConfig(
        ranks=tuple(args.ranks),
        regularization=args.regularization,
        max_iterations=args.max_iterations,
        tolerance=args.tolerance,
        seed=args.seed,
        backend=args.backend,
        shard_dir=args.shards or None,
        shard_nnz=args.shard_nnz,
        ingest_chunk_nnz=args.chunk_nnz,
        checkpoint_dir=args.checkpoint_dir or None,
        checkpoint_every=args.checkpoint_every,
        checkpoint_diff=args.checkpoint_diff,
        resume=args.resume,
    )
    solver = ALGORITHMS[args.algorithm](config)

    test: Optional[SparseTensor] = None
    if args.from_text:
        from .tensor import NpzEntryReader

        reader = open_entry_reader(args.tensor, one_based=not args.zero_based)
        if isinstance(reader, NpzEntryReader):
            print(
                f"streaming ingest of {args.tensor} (.npz arrays decompress "
                "in RAM; the shard build itself stays chunked)"
            )
        else:
            print(f"streaming ingest of {args.tensor} (tensor never held in RAM)")
        result = solver.fit_streaming(reader)
    else:
        tensor = load_text(args.tensor, one_based=not args.zero_based)
        print(f"loaded {tensor}")
        train = tensor
        if args.test_fraction > 0.0:
            train, test = tensor.split(
                1.0 - args.test_fraction, rng=np.random.default_rng(args.seed)
            )
            print(f"holding out {test.nnz} entries for testing")
        if args.shards:
            print(f"streaming sweeps from shard store at {args.shards}")
        result = solver.fit(train)

    print(result.summary())
    for record in result.trace.records:
        print(
            f"  iter {record.iteration:3d}: error={record.reconstruction_error:.6g} "
            f"({record.seconds:.3f}s)"
        )
    if test is not None:
        print(f"test RMSE: {result.test_rmse(test):.6g}")
    if args.output:
        path = save_model(result, args.output)
        print(f"model written to {path}")
    return 0


def _command_ingest(args: argparse.Namespace) -> int:
    from .tensor.io import RcooEntryReader, save_shards, write_rcoo

    reader = open_entry_reader(args.input, one_based=not args.zero_based)
    if args.format == "rcoo":
        shape = write_rcoo(reader, args.out, block_nnz=args.chunk_nnz)
        written = RcooEntryReader(args.out)
        print(f"ingested {args.input} into rcoo container at {args.out}")
        print(f"shape: {shape}")
        print(f"observed entries: {written.nnz}")
        print(
            f"blocks: {-(-written.nnz // written.block_nnz)} "
            f"({written.block_nnz} entries per block, index dtypes "
            f"{[str(d) for d in written.index_dtypes]})"
        )
        return 0
    store = save_shards(
        None,
        args.out,
        shard_nnz=args.shard_nnz,
        source=reader,
        chunk_nnz=args.chunk_nnz,
    )
    n_shards = sum(len(store.mode_shards(mode)) for mode in range(store.order))
    print(f"ingested {args.input} into shard store at {store.directory}")
    print(f"shape: {store.shape}")
    print(f"observed entries: {store.nnz}")
    print(f"shards: {n_shards} ({store.shard_nnz} entries per shard)")
    print(
        f"index bytes per entry: {store.index_bytes_per_entry} "
        f"({[str(d) for d in store.index_dtypes]})"
    )
    return 0


def _command_shards_verify(args: argparse.Namespace) -> int:
    from .shards import ShardStore
    from .updates import DeltaLog

    store = ShardStore.open(args.store)
    store.verify_files()
    log = DeltaLog.open(store.directory)
    if len(log):
        # Pending deltas are part of the store's logical content; a digest
        # mismatch raises a DataFormatError naming the file (exit 2).
        log.verify()
    if args.quick:
        print(f"shard store at {store.directory}: file headers OK")
    else:
        store.validate()
        print(f"shard store at {store.directory}: OK")
    n_shards = sum(len(store.mode_shards(mode)) for mode in range(store.order))
    print(f"shape: {store.shape}")
    print(f"observed entries: {store.nnz}")
    print(f"shards: {n_shards} ({store.shard_nnz} entries per shard)")
    if len(log):
        print(
            f"pending deltas: {len(log)} ({log.pending_nnz} entries, "
            "digests OK)"
        )
    return 0


def _command_update(args: argparse.Namespace) -> int:
    from .shards import ShardStore
    from .updates import DeltaLog, apply_delta

    store = ShardStore.open(args.store)
    log = DeltaLog.open(store.directory)
    # Load the model before touching the log: an unreadable model path
    # must not leave the delta appended (a retry would append it twice).
    result = load_result(args.model) if args.model else None
    record = log.append(args.delta, store.shape)
    print(f"appended {args.delta} to the delta log at {log.log_path()}")
    print(f"delta entries: {record.nnz}")
    print(f"pending deltas: {len(log)} ({log.pending_nnz} entries)")
    if result is None:
        return 0
    output = args.output or args.model
    if output.endswith(".npz"):
        output = output[: -len(".npz")]
    factors = [
        np.ascontiguousarray(f, dtype=np.float64) for f in result.factors
    ]
    core = np.ascontiguousarray(result.core, dtype=np.float64)
    updates = apply_delta(
        store,
        factors,
        core,
        regularization=args.regularization,
        block_size=args.block_size,
        backend=args.backend,
        log=log,
    )
    for mode in range(store.order):
        rows = updates[mode][0].shape[0] if mode in updates else 0
        print(f"mode {mode}: {rows} factor rows re-solved")
    result.factors = factors
    result.core = core
    path = save_model(result, output)
    print(f"updated model written to {path}")
    return 0


def _command_compact(args: argparse.Namespace) -> int:
    from .shards import ShardStore
    from .updates import DeltaLog, compact

    store = ShardStore.open(args.store)
    log = DeltaLog.open(store.directory)
    if not log.records:
        print(f"shard store at {store.directory}: no pending deltas")
        return 0
    pending, pending_nnz = len(log), log.pending_nnz
    before = store.nnz
    store = compact(store, shard_nnz=args.shard_nnz)
    print(
        f"compacted {pending} pending deltas ({pending_nnz} entries) "
        f"into {store.directory}"
    )
    print(f"observed entries: {before} -> {store.nnz}")
    return 0


def _command_predict(args: argparse.Namespace) -> int:
    result = load_model(args.model)
    index = np.asarray(args.index, dtype=np.int64)
    if index.shape[0] != result.order:
        print(
            f"error: model has {result.order} modes but {index.shape[0]} indices given",
            file=sys.stderr,
        )
        return 2
    value = float(result.predict(index)[0])
    print(f"{value:.6g}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from .serve import ServingModel
    from .serve.server import serve_model

    model = ServingModel.load(
        args.model, mmap=args.mmap, query_cache=args.cache_rows
    )
    if args.shards:
        model.attach_store(args.shards)
    host = None if args.no_http else args.host
    if host is None and not args.stdio:
        print(
            "error: --no-http without --stdio leaves no way to reach the "
            "server",
            file=sys.stderr,
        )
        return 2
    serve_model(
        model,
        host=host,
        port=args.port,
        stdio=args.stdio,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
    )
    return 0


def _query_remote(args: argparse.Namespace) -> int:
    import json
    from urllib import error, request as urlrequest

    base = args.model.rstrip("/")
    if args.index is not None:
        path, payload = "/predict", {"index": list(args.index)}
    else:
        payload = {
            "context": list(args.context),
            "mode": args.mode,
            "k": args.topk,
            "exclude_observed": args.exclude_observed,
        }
        path = "/topk"
    body = json.dumps(payload).encode("utf-8")
    req = urlrequest.Request(
        base + path, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urlrequest.urlopen(req, timeout=30) as response:
            reply = json.loads(response.read())
    except error.HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace").strip()
        print(f"error: server rejected the query: {detail}", file=sys.stderr)
        return 2
    except (error.URLError, OSError) as exc:
        print(f"error: cannot reach {base}: {exc}", file=sys.stderr)
        return 2
    if args.index is not None:
        print(f"{reply['values'][0]:.6g}")
    else:
        for item, score in zip(reply["items"], reply["scores"]):
            print(f"{item}\t{score:.6g}")
    return 0


def _command_query(args: argparse.Namespace) -> int:
    if args.topk is not None and (args.mode is None or args.context is None):
        print(
            "error: --topk needs --mode and --context", file=sys.stderr
        )
        return 2
    if args.model.startswith(("http://", "https://")):
        return _query_remote(args)
    from .serve import ServingModel

    model = ServingModel.load(args.model)
    if args.shards:
        model.attach_store(args.shards)
    if args.index is not None:
        print(f"{float(model.predict(args.index)[0]):.6g}")
        return 0
    result = model.topk(
        args.context, args.mode, args.topk, args.exclude_observed
    )
    for item, score in zip(result.items, result.scores):
        print(f"{int(item)}\t{float(score):.6g}")
    return 0


def _command_info(args: argparse.Namespace) -> int:
    tensor = load_text(args.tensor, one_based=not args.zero_based)
    print(f"shape: {tensor.shape}")
    print(f"order: {tensor.order}")
    print(f"observed entries: {tensor.nnz}")
    print(f"density: {tensor.density:.3e}")
    print(f"value range: [{tensor.values.min():.6g}, {tensor.values.max():.6g}]")
    print(f"Frobenius norm (observed): {tensor.norm():.6g}")
    for mode in range(tensor.order):
        counts = tensor.counts_along_mode(mode)
        nonempty = int(np.count_nonzero(counts))
        print(
            f"mode {mode}: length {tensor.shape[mode]}, non-empty slices {nonempty}, "
            f"max entries per slice {int(counts.max())}"
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Data-format problems (a malformed input file, a retired v1 shard
    store under ``ingest``, a store that fails ``shards-verify``, a
    pending delta whose digest mismatches its log record, a malformed or
    shape-mismatched delta under ``update``, a corrupt or mismatched
    checkpoint under ``--resume``) surface as an error message plus exit
    code 2 instead of a traceback — the v1 message names both format
    versions and the ``ingest <input> --out <dir>`` rebuild recipe, and a
    corrupt-checkpoint message names the bad file and the last valid
    checkpoint to fall back to.  ``fit --shards``
    treats its directory as a cache, so a v1 store there is rebuilt as
    v2 from the input tensor rather than reported.
    """
    from .exceptions import DataFormatError, ShapeError

    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("factorize", "fit"):
            return _command_factorize(args)
        if args.command == "ingest":
            return _command_ingest(args)
        if args.command == "shards-verify":
            return _command_shards_verify(args)
        if args.command == "update":
            return _command_update(args)
        if args.command == "compact":
            return _command_compact(args)
        if args.command == "predict":
            return _command_predict(args)
        if args.command == "info":
            return _command_info(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "query":
            return _command_query(args)
    except (DataFormatError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
