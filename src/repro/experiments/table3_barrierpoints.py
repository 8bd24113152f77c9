"""Table III — the selected barrierpoints and their multipliers.

Per (benchmark, cores): total dynamic barriers, significant barrierpoints
(>= 0.1% of instructions) with their multipliers, and the insignificant
remainder summarized as count / combined multiplier / total weight, in the
paper's format.
"""

from __future__ import annotations

from repro.experiments import paper_data
from repro.experiments.common import CORE_COUNTS, ExperimentRunner
from repro.util.tables import format_table


def compute(runner: ExperimentRunner) -> list[dict]:
    """One row per (benchmark, cores) with the full selection summary.

    ``paper_significant`` is ``None`` for programs outside the paper's
    suite (``fuzz-<seed>`` scenarios, ``trace:`` workloads).
    """
    rows = []
    for name in runner.benchmarks:
        for nt in CORE_COUNTS:
            sel = runner.selection(name, nt)
            workload = runner.workload(name, nt)
            insig = sel.insignificant_points
            rows.append(
                {
                    "benchmark": name,
                    "input_size": workload.input_size,
                    "cores": nt,
                    "num_barriers": sel.num_regions,
                    "num_significant": len(sel.significant_points),
                    "num_insignificant": len(insig),
                    "insig_combined_multiplier": sum(
                        p.multiplier for p in insig
                    ),
                    "insig_total_weight": sum(p.weight for p in insig),
                    "points": [
                        (p.region_index, p.multiplier)
                        for p in sel.significant_points
                    ],
                    "paper_significant": (
                        paper_data.SIGNIFICANT_BARRIERPOINTS.get((name, nt))
                    ),
                }
            )
    return rows


def render(rows: list[dict]) -> str:
    """The paper's Table III layout (condensed)."""
    body = []
    for r in rows:
        points = " ".join(
            f"{idx}({mult:.1f})" for idx, mult in r["points"][:8]
        )
        if len(r["points"]) > 8:
            points += " ..."
        body.append(
            [r["benchmark"], r["input_size"], r["cores"], r["num_barriers"],
             r["num_significant"],
             "—" if r["paper_significant"] is None
             else r["paper_significant"],
             f"{r['num_insignificant']} / "
             f"{r['insig_combined_multiplier']:.1f} / "
             f"{r['insig_total_weight']:.1e}",
             points]
        )
    return format_table(
        ["application", "input", "cores", "barriers", "significant bps",
         "paper bps", "insignificant (n / mult / weight)",
         "barrierpoint (multiplier)"],
        body,
        title="Table III — selected barrierpoints and multipliers",
    )


def run(runner: ExperimentRunner) -> str:
    """Compute and render."""
    return render(compute(runner))
