"""Smoke and shape tests for every figure/table experiment module.

Each experiment is run at a reduced size and checked for the structural
properties the paper's corresponding figure/table relies on (which methods
appear, which columns exist, the expected qualitative ordering).
"""

import os

import numpy as np
import pytest

from repro.core import PTucker
from repro.experiments import EXPERIMENTS, figure5, figure8, figure9, figure10, table1, table3, table5, table6
from repro.kernels.backends import threaded


class TestRegistry:
    def test_every_paper_artifact_has_an_experiment(self):
        expected = {
            "table1",
            "table3",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
            "table5",
            "table6",
            "bench-kernels",
        }
        assert expected == set(EXPERIMENTS)

    def test_every_experiment_module_has_run(self):
        for module in EXPERIMENTS.values():
            assert callable(module.run)


class TestTable1:
    def test_ptucker_gets_all_checkmarks(self):
        result = table1.run(dimensionality=25, nnz=1500, max_iterations=2)
        by_method = {row["method"]: row for row in result.rows}
        ptucker = by_method["P-Tucker"]
        assert all(ptucker[key] for key in ("scale", "speed", "memory", "accuracy"))

    def test_all_methods_reported(self):
        result = table1.run(dimensionality=25, nnz=1500, max_iterations=2)
        assert {row["method"] for row in result.rows} == set(table1.TABLE1_METHODS)


class TestTable3:
    def test_time_rows_grow_with_nnz(self):
        # Entry counts 100x apart make the larger fit's iterations 2-5x as
        # long (about 10 ms against 25 ms), a margin that the host's timer
        # jitter of about 1 ms cannot cross, as it could at 8x apart.
        rows = table3.time_scaling_rows(nnz_values=(500, 50000), dimensionality=150)
        assert rows[-1]["sec/iter"] > rows[0]["sec/iter"]

    def test_memory_rows_rank_ptucker_smallest(self):
        rows = table3.memory_model_rows(dimensionality=120, nnz=2500, rank=4)
        measured = {row["algorithm"]: row["measured_MB"] for row in rows}
        assert measured["P-Tucker"] <= min(
            measured["P-Tucker-Cache"], measured["Tucker-ALS"]
        )

    def test_model_column_present(self):
        rows = table3.memory_model_rows(dimensionality=80, nnz=1000, rank=3)
        assert all("model_MB" in row for row in rows)


class TestFigure5:
    def test_cumulative_share_monotone_and_bounded(self):
        result = figure5.run(rank=4, n_ratings=3000, max_iterations=2)
        shares = [row["cumulative_error_share"] for row in result.rows]
        assert all(b >= a - 1e-12 for a, b in zip(shares, shares[1:]))
        assert shares[-1] == pytest.approx(1.0)

    def test_top_entries_carry_disproportionate_error(self):
        result = figure5.run(rank=4, n_ratings=3000, max_iterations=2)
        by_fraction = {
            row["core_entry_fraction"]: row["cumulative_error_share"]
            for row in result.rows
        }
        assert by_fraction[0.2] > 0.3  # far above the uniform 0.2 share


class TestFigure8:
    def test_cache_uses_more_memory_everywhere(self):
        result = figure8.run(orders=(3, 4), dimensionality=25, nnz=400, max_iterations=1)
        by_key = {(row["order"], row["algorithm"]): row for row in result.rows}
        for order in (3, 4):
            assert (
                by_key[(order, "P-Tucker-Cache")]["peak_mem_MB"]
                > by_key[(order, "P-Tucker")]["peak_mem_MB"]
            )

    def test_cache_memory_grows_with_order(self):
        result = figure8.run(orders=(3, 5), dimensionality=25, nnz=400, max_iterations=1)
        cache_rows = [r for r in result.rows if r["algorithm"] == "P-Tucker-Cache"]
        assert cache_rows[-1]["peak_mem_MB"] > cache_rows[0]["peak_mem_MB"]


class TestFigure9:
    def test_core_shrinks_only_for_approx(self):
        result = figure9.run(rank=4, n_ratings=2500, max_iterations=3)
        approx_core = [
            row["core_nnz"] for row in result.rows if row["algorithm"] == "P-Tucker-Approx"
        ]
        exact_core = [
            row["core_nnz"] for row in result.rows if row["algorithm"] == "P-Tucker"
        ]
        assert approx_core[-1] < approx_core[0]
        assert exact_core[-1] == exact_core[0]

    def test_both_methods_report_every_iteration(self):
        result = figure9.run(rank=4, n_ratings=2500, max_iterations=3)
        per_method = {}
        for row in result.rows:
            per_method.setdefault(row["algorithm"], []).append(row["iteration"])
        assert per_method["P-Tucker"] == [1, 2, 3]
        assert per_method["P-Tucker-Approx"] == [1, 2, 3]


class TestFigure10:
    """Figure 10 rows are measured ``threaded`` fits, never modelled ones.

    Only claims that hold at any scale are asserted: wall-clock speed-ups
    depend on the host, so none is compared against a threshold.
    """

    #: 20 000 entries make at least two 8 192-entry chunks per mode at 2 threads.
    SIZE = dict(dimensionality=400, nnz=20_000, rank=4, max_iterations=1)

    @pytest.fixture
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(figure10.os, "cpu_count", lambda: 2)

    @pytest.fixture
    def fits(self, monkeypatch):
        """Every model ``figure10.run`` fits, keyed by the thread count it ran at."""
        recorded = []

        class RecordingPTucker(PTucker):
            def fit(self, tensor):
                result = super().fit(tensor)
                threads = os.environ[figure10.THREADS_VARIABLE]
                recorded.append((int(threads), tensor, self.config, result))
                return result

        monkeypatch.setattr(figure10, "PTucker", RecordingPTucker)
        return recorded

    def test_rows_stop_at_cpu_count_and_name_the_rest(self, two_cores):
        result = figure10.run(thread_counts=(1, 2, 4, 8), **self.SIZE)
        assert [row["threads"] for row in result.rows] == [1, 2]
        assert any("T = 4, 8" in note for note in result.notes)
        assert any("dynamic over static" in note for note in result.notes)
        assert result.rows[0]["speedup"] == 1.0
        assert all(row["traced_peak_MB"] > 0 for row in result.rows)

    def test_fits_are_bitwise_equal_across_threads_and_to_numpy(
        self, two_cores, fits, monkeypatch, bitwise
    ):
        chunked = []
        boundaries = threaded.chunk_boundaries

        def spy(starts, n_entries, n_chunks):
            edges = boundaries(starts, n_entries, n_chunks)
            chunked.append(edges.shape[0] - 1)
            return edges

        monkeypatch.setattr(threaded, "chunk_boundaries", spy)
        figure10.run(thread_counts=(1, 2), **self.SIZE)
        assert {threads for threads, *_ in fits} == {1, 2}
        assert chunked and min(chunked) >= 2, "2 threads must really chunk"

        _, tensor, config, _ = fits[0]
        reference = PTucker(config.with_updates(backend="numpy")).fit(tensor)
        for threads, _, _, result in fits:
            bitwise(result.core, reference.core, f"core @ {threads}")
            for mode, (mine, theirs) in enumerate(zip(result.factors, reference.factors)):
                bitwise(mine, theirs, f"factor {mode} @ {threads}")

    @pytest.mark.parametrize("caller_value", [None, "3"])
    def test_thread_variable_is_restored(self, two_cores, monkeypatch, caller_value):
        if caller_value is None:
            monkeypatch.delenv(figure10.THREADS_VARIABLE, raising=False)
        else:
            monkeypatch.setenv(figure10.THREADS_VARIABLE, caller_value)
        figure10.run(thread_counts=(1, 2), dimensionality=50, nnz=500, max_iterations=1)
        assert os.environ.get(figure10.THREADS_VARIABLE) == caller_value


class TestDiscoveryTables:
    def test_table5_reports_dominant_genres(self):
        result = table5.run(rank=5, n_concepts=4, n_ratings=5000, max_iterations=3)
        assert result.rows, "expected at least one concept row"
        for row in result.rows:
            assert 0.0 <= row["genre_share"] <= 1.0
            assert row["size"] > 0

    def test_table6_reports_relations_with_valid_attributes(self):
        result = table6.run(rank=4, n_relations=2, n_ratings=5000, max_iterations=3)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row["g_value"] >= 0.0
            assert row["top_years"]
            assert row["top_hours"]
