"""Fig. 1 — dynamic barrier counts at 8 and 32 threads.

The paper's observation: barrier counts are large (up to thousands) and
*invariant* in thread count, which is what makes inter-barrier regions
fixed units of work.
"""

from __future__ import annotations

from repro.experiments import paper_data
from repro.experiments.common import CORE_COUNTS, ExperimentRunner
from repro.util.tables import format_table


def compute(runner: ExperimentRunner) -> list[dict]:
    """One row per benchmark: measured counts at both thread counts.

    ``paper`` is ``None`` for programs outside the paper's suite
    (``fuzz-<seed>`` scenarios, ``trace:`` workloads).
    """
    rows = []
    for name in runner.benchmarks:
        counts = {
            nt: runner.workload(name, nt).barrier_count for nt in CORE_COUNTS
        }
        rows.append(
            {
                "benchmark": name,
                "barriers_8": counts[8],
                "barriers_32": counts[32],
                "paper": paper_data.BARRIER_COUNTS.get(name),
                "invariant": counts[8] == counts[32],
            }
        )
    return rows


def render(rows: list[dict]) -> str:
    """Paper-style table with the published counts alongside."""
    table = format_table(
        ["benchmark", "8 threads", "32 threads", "paper", "thread-invariant"],
        [
            [r["benchmark"], r["barriers_8"], r["barriers_32"],
             "—" if r["paper"] is None else r["paper"],
             "yes" if r["invariant"] else "NO"]
            for r in rows
        ],
        title="Fig. 1 — dynamically executed barriers",
    )
    return table


def run(runner: ExperimentRunner) -> str:
    """Compute and render."""
    return render(compute(runner))
