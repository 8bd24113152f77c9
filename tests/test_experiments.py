"""Tests for the experiment harness (small-scale, reduced suite)."""

from collections import Counter

import numpy as np
import pytest

from repro.config import SimPointConfig
from repro.core import pipeline
from repro.experiments import paper_data
from repro.experiments.common import (
    CORE_COUNTS,
    ExperimentRunner,
    experiment_machine,
)
from repro.experiments import (
    ablations,
    fig1_barrier_counts,
    fig3_ipc_trace,
    fig4_perfect_warmup,
    fig5_maxk_methods,
    fig6_cross_validation,
    fig8_relative_scaling,
    fig9_speedups,
    table3_barrierpoints,
)
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(
        scale=0.15,
        benchmarks=("npb-is", "npb-ft"),
        simpoint=SimPointConfig(max_k=12, kmeans_restarts=2),
    )


class TestCommon:
    def test_experiment_machine(self):
        assert experiment_machine(8).num_cores == 8
        assert experiment_machine(32).num_cores == 32
        with pytest.raises(ConfigError):
            experiment_machine(16)

    def test_memoization(self, runner):
        first = runner.full("npb-is", 8)
        assert runner.full("npb-is", 8) is first
        prof = runner.profiles("npb-is", 8)
        assert runner.profiles("npb-is", 8) is prof
        sel = runner.selection("npb-is", 8)
        assert runner.selection("npb-is", 8) is sel
        assert runner.selection("npb-is", 8) is runner.selection(
            "npb-is", 8, max_k=runner.simpoint.max_k
        )


class TestFig1(object):
    def test_counts_match_paper(self, runner):
        rows = fig1_barrier_counts.compute(runner)
        for row in rows:
            assert row["barriers_8"] == paper_data.BARRIER_COUNTS[
                row["benchmark"]]
            assert row["invariant"]

    def test_render(self, runner):
        out = fig1_barrier_counts.run(runner)
        assert "Fig. 1" in out and "npb-is" in out


class TestFig3:
    def test_series_shapes(self, runner):
        data = fig3_ipc_trace.compute(runner)
        n = runner.workload("npb-ft", 32).num_regions
        assert data["actual_ipc"].shape == (n,)
        assert data["reconstructed_ipc"].shape == (n,)
        assert data["correlation"] > 0.5

    def test_render(self, runner):
        out = fig3_ipc_trace.run(runner)
        assert "IPC" in out and "barrierpoint" in out


class TestFig4:
    def test_errors_reasonable(self, runner):
        data = fig4_perfect_warmup.compute(runner)
        assert data["avg_error"] < 25.0
        assert data["max_error"] >= data["avg_error"]
        assert len(data["rows"]) == 4  # 2 benchmarks x 2 core counts

    def test_render_mentions_paper(self, runner):
        out = fig4_perfect_warmup.run(runner)
        assert "paper: 0.6%" in out


class TestFig5:
    def test_grid_and_one_signature_build_per_sweep(self, runner, monkeypatch):
        builds = Counter()
        real = pipeline.build_signature_matrix

        def counting(profiles, config):
            builds[(id(profiles), config)] += 1
            return real(profiles, config)

        monkeypatch.setattr(pipeline, "build_signature_matrix", counting)
        data = fig5_maxk_methods.compute(runner)
        assert set(data["grid"]) == {
            (variant, k)
            for variant in fig5_maxk_methods.VARIANTS
            for k in fig5_maxk_methods.MAX_K_SWEEP
        }
        assert len(data["grid"]) == 7 * 4
        assert all(np.isfinite(v) for v in data["grid"].values())
        assert data["best_max_k"] in fig5_maxk_methods.MAX_K_SWEEP
        assert data["best_variant"] in fig5_maxk_methods.VARIANTS
        assert max(builds.values()) == 1
        assert len(builds) <= 7 * len(runner.benchmarks) * len(CORE_COUNTS)
        assert "maxK=20" in fig5_maxk_methods.render(data)


class TestFig6:
    def test_transfer_cells_present(self, runner):
        rows = fig6_cross_validation.compute(runner)
        for row in rows:
            assert set(row["cells"]) == {(8, 8), (8, 32), (32, 8), (32, 32)}

    def test_render(self, runner):
        assert "cross-validation" in fig6_cross_validation.run(runner)


class TestFig8:
    def test_predicted_close_to_actual(self, runner):
        rows = fig8_relative_scaling.compute(runner)
        for row in rows:
            assert row["actual"] > 0
            assert row["predicted"] == pytest.approx(row["actual"],
                                                     rel=0.35)


class TestFig9:
    def test_aggregates(self, runner):
        data = fig9_speedups.compute(runner)
        assert data["max_parallel"] >= data["hmean_parallel"]
        assert data["min_parallel"] <= data["hmean_parallel"]
        for row in data["rows"]:
            assert row["parallel"] >= row["serial"] * 0.99

    def test_render(self, runner):
        assert "harmonic-mean" in fig9_speedups.run(runner)


class TestTable3:
    def test_structure(self, runner):
        rows = table3_barrierpoints.compute(runner)
        for row in rows:
            assert row["num_barriers"] == paper_data.BARRIER_COUNTS[
                row["benchmark"]]
            assert row["num_significant"] + row["num_insignificant"] >= 1
            assert 0 <= row["insig_total_weight"] < 0.1

    def test_render(self, runner):
        assert "Table III" in table3_barrierpoints.run(runner)


class TestNonPaperWorkloads:
    """Fig. 1 and Table III render programs the paper never published."""

    @pytest.fixture(scope="class")
    def fuzz_runner(self):
        return ExperimentRunner(
            scale=0.05,
            benchmarks=("fuzz-1",),
            store=None,
            simpoint=SimPointConfig(max_k=5, kmeans_restarts=1),
        )

    def test_fig1_renders_missing_paper_count(self, fuzz_runner):
        (row,) = fig1_barrier_counts.compute(fuzz_runner)
        assert row["paper"] is None and row["invariant"]
        line = fig1_barrier_counts.run(fuzz_runner).splitlines()[-1]
        assert line.split()[0] == "fuzz-1" and "—" in line.split()

    def test_table3_renders_missing_paper_barrierpoints(self, fuzz_runner):
        rows = table3_barrierpoints.compute(fuzz_runner)
        assert [r["cores"] for r in rows] == [8, 32]
        assert all(r["paper_significant"] is None for r in rows)
        body = table3_barrierpoints.run(fuzz_runner).splitlines()[-2:]
        for line in body:
            assert line.split()[0] == "fuzz-1" and "—" in line.split()


class TestAblations:
    def test_thread_combining(self, runner):
        rows = ablations.compute_thread_combining(runner)
        assert {r["benchmark"] for r in rows} == set(runner.benchmarks)

    def test_significant_only(self, runner):
        rows = ablations.compute_significant_only(runner)
        for row in rows:
            assert row["serial_significant"] >= row["serial_all"] * 0.99
            assert row["coverage_pct"] > 90.0

    def test_render(self, runner):
        assert "Ablation" in ablations.run(runner)
