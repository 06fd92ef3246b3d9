"""End-to-end benchmark of the P-Tucker system, from raw text to served top-K.

Run one workload (from the repository root)::

    python3 benchmarks/e2e/run.py --workload ratings-sharded --seed 0 --seconds 20 --trace 0

Every metric is printed as ``name value unit``; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer
metrics (``--trace 1``).  A failed output check exits 1.

Compare two directories of saved results (``--results DIR``)::

    python3 benchmarks/e2e/run.py compare PARENT_DIR CHANGE_DIR

See ``benchmarks/e2e/README.md`` for the workloads and the metric glossary.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")


def main(argv) -> int:
    sys.path.insert(0, os.path.dirname(HERE))
    if argv[:1] == ["compare"]:
        from e2e.compare import main as compare_main

        return compare_main(argv[1:], ROOT)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from e2e.runner import main as run_main

    return run_main(argv, ROOT, SRC)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
