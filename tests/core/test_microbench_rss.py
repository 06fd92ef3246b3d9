"""The microbench's cold-subprocess peak-RSS runner.

Both RSS column families (``peak_rss_mb_*`` for sweeps and
``peak_rss_mb_build_*`` for shard builds) come from one runner that
executes a probe script — the shared sampling prelude plus a workload —
in a fresh interpreter.  These tests drive it with tiny probes: it must
see memory a workload really touches, pass its arguments through, and
degrade to ``None`` instead of failing when the child does.
"""

import os

import pytest

from repro.kernels.microbench import _RSS_PROBE_PRELUDE, _cold_peak_rss_mb

pytestmark = pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"),
    reason="the RSS sampler reads /proc/self/statm",
)

#: Touches ``sys.argv[1]`` MiB of fresh pages inside the sampled run.
_ALLOCATING_PROBE = _RSS_PROBE_PRELUDE + """
import time

mebibytes = int(sys.argv[1])


def run():
    data = b"x" * (mebibytes << 20)
    time.sleep(0.05)
    del data


report_peak_growth(run)
"""


def test_runner_sees_touched_memory_and_passes_arguments():
    big = _cold_peak_rss_mb(_ALLOCATING_PROBE, 48)
    small = _cold_peak_rss_mb(_ALLOCATING_PROBE, 0)
    assert big is not None and small is not None
    assert big >= 40.0
    assert small < big - 32.0


@pytest.mark.parametrize(
    "probe",
    [
        "raise SystemExit(3)",
        "print('no json here')",
        _RSS_PROBE_PRELUDE + "print('{}')",
    ],
    ids=["child-fails", "not-json", "no-delta"],
)
def test_runner_degrades_to_none(probe):
    assert _cold_peak_rss_mb(probe) is None
