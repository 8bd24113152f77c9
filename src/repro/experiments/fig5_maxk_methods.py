"""Fig. 5 — average error vs maxK and signature/clustering method.

Sweeps maxK over {1, 5, 10, 20} and the seven signature variants of
section III-A (BBV-only, LDV-only with/without 2^(n/v) weighting, and
combined), averaging the perfect-warmup runtime error over all benchmarks
and both core counts, as the paper does.
"""

from __future__ import annotations

import numpy as np

from repro.core.signatures import SIGNATURE_VARIANTS
from repro.experiments import paper_data
from repro.experiments.common import CORE_COUNTS, ExperimentRunner
from repro.util.tables import format_table

MAX_K_SWEEP = (1, 5, 10, 20)
VARIANTS = tuple(SIGNATURE_VARIANTS)


def compute(runner: ExperimentRunner) -> dict:
    """avg abs %% error per (variant, maxK)."""
    grid: dict[tuple[str, int], float] = {}
    # One signature build and one BIC sweep serve every maxK of a
    # (variant, program, core count).
    for variant in VARIANTS:
        for name in runner.benchmarks:
            for nt in CORE_COUNTS:
                runner.selections(name, nt, variant, MAX_K_SWEEP)
    for variant in VARIANTS:
        for max_k in MAX_K_SWEEP:
            errors = []
            for name in runner.benchmarks:
                for nt in CORE_COUNTS:
                    result = runner.evaluate_perfect(
                        name, nt, variant=variant, max_k=max_k
                    )
                    errors.append(result.runtime_error_pct)
            grid[(variant, max_k)] = float(np.mean(errors))
    best = min(grid, key=grid.get)
    return {"grid": grid, "best_variant": best[0], "best_max_k": best[1]}


def render(data: dict) -> str:
    """Variant x maxK error matrix, as in the paper's grouped bars."""
    grid = data["grid"]
    rows = [
        [variant] + [f"{grid[(variant, k)]:.2f}" for k in MAX_K_SWEEP]
        for variant in VARIANTS
    ]
    table = format_table(
        ["method"] + [f"maxK={k}" for k in MAX_K_SWEEP],
        rows,
        title="Fig. 5 — avg abs % runtime error by clustering method",
    )
    summary = (
        f"\nbest configuration: {data['best_variant']} @ maxK="
        f"{data['best_max_k']} "
        f"(paper: {paper_data.BEST_VARIANT} @ maxK={paper_data.BEST_MAX_K})"
    )
    return table + summary


def run(runner: ExperimentRunner) -> str:
    """Compute and render."""
    return render(compute(runner))
