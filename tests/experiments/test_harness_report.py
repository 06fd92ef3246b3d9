"""Tests for the experiment harness and the text report utilities."""

import numpy as np
import pytest

from repro import cli
from repro.core import PTuckerConfig
from repro.experiments import (
    ALGORITHM_REGISTRY,
    PAPER_COMPETITORS,
    make_solver,
    render_table,
    run_algorithm,
    run_algorithms,
    summarize_speedups,
)
from repro.experiments.report import format_cell, ratio


class TestHarness:
    def test_registry_holds_exactly_the_paper_methods(self):
        """The three P-Tucker methods, Tucker-ALS (Table 3) and the
        evaluation's competitors — no more, and the CLI offers the same
        solvers, so neither table can carry a method the other lacks."""
        paper_methods = {
            "P-Tucker",
            "P-Tucker-Cache",
            "P-Tucker-Approx",
            "Tucker-ALS",
            *PAPER_COMPETITORS,
        }
        assert set(ALGORITHM_REGISTRY) == paper_methods
        assert set(cli.ALGORITHMS.values()) == set(ALGORITHM_REGISTRY.values())

    def test_make_solver_unknown_name(self):
        with pytest.raises(KeyError):
            make_solver("NotATucker", PTuckerConfig())

    def test_run_algorithm_collects_metrics(self, planted_small, rng):
        train, test = planted_small.tensor.split(0.9, rng=rng)
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=2, seed=0)
        outcome = run_algorithm("P-Tucker", train, config, test)
        assert outcome.result is not None
        assert outcome.seconds_per_iteration > 0
        assert np.isfinite(outcome.reconstruction_error)
        assert np.isfinite(outcome.test_rmse)
        assert not outcome.out_of_memory

    def test_run_algorithm_flags_oom(self, planted_small):
        config = PTuckerConfig(
            ranks=(3, 3, 3), max_iterations=2, seed=0, memory_budget_bytes=16
        )
        outcome = run_algorithm("Tucker-wOpt", planted_small.tensor, config)
        assert outcome.out_of_memory
        assert outcome.result is None

    def test_run_algorithms_order_preserved(self, planted_small):
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=1, seed=0)
        outcomes = run_algorithms(["S-HOT", "P-Tucker"], planted_small.tensor, config)
        assert [o.algorithm for o in outcomes] == ["S-HOT", "P-Tucker"]

    def test_outcome_as_row_keys(self, planted_small):
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=1, seed=0)
        outcome = run_algorithm("P-Tucker", planted_small.tensor, config)
        row = outcome.as_row()
        assert {"algorithm", "sec/iter", "recon_error", "test_rmse", "oom"} <= set(row)


class TestReport:
    def test_render_table_alignment_and_title(self):
        rows = [
            {"name": "a", "value": 1.0},
            {"name": "long-name", "value": 123456.789},
        ]
        text = render_table(rows, title="My Table")
        lines = text.splitlines()
        assert lines[0] == "My Table"
        assert "name" in lines[1]
        # All data lines have the same width.
        assert len(lines[3]) == len(lines[4])

    def test_render_table_empty(self):
        assert "(no rows)" in render_table([], title="empty")

    def test_render_table_respects_column_order(self):
        rows = [{"b": 1, "a": 2}]
        text = render_table(rows, columns=["a", "b"])
        header = text.splitlines()[0]
        assert header.index("a") < header.index("b")

    def test_format_cell_variants(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"
        assert format_cell(0.0) == "0"
        assert "e" in format_cell(1.5e-7)
        assert format_cell("text") == "text"

    def test_ratio_handles_zero_denominator(self):
        assert ratio(1.0, 0.0) == float("inf")
        assert ratio(0.0, 0.0) == 1.0

    def test_summarize_speedups(self):
        rows = [
            {"slow": 10.0, "fast": 2.0},
            {"slow": 6.0, "fast": 3.0},
        ]
        summary = summarize_speedups(rows, "slow", "fast")
        assert summary["min"] == pytest.approx(2.0)
        assert summary["max"] == pytest.approx(5.0)
