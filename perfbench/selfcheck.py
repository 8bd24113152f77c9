"""Self-checks of the benchmark's own machinery (seconds, no workloads).

Run from the repository root::

    python3 perfbench/selfcheck.py

Kept out of ``test_*.py`` naming on purpose, so the repository's pytest
run does not collect it.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from run import Checker, DEFAULT_SEED, _wall_s  # noqa: E402
from tracer import Tracer, install_layer_wrappers  # noqa: E402


def check_self_time() -> None:
    """Self time is the span minus its direct children; only work inside
    a timed operation is recorded."""
    tracer = Tracer()
    with tracer.span("a.untimed"):
        tracer.count("a.calls")
    with tracer.span("bench.op"):
        with tracer.span("a.outer"):
            time.sleep(0.02)
            with tracer.span("b.inner"):
                time.sleep(0.03)
    assert [s[0] for s in tracer.spans] == ["bench.op", "a.outer", "b.inner"]
    assert not tracer.counters
    _, outer, inner = tracer.self_times()
    assert 0.015 < outer < 0.03, outer
    assert 0.025 < inner < 0.05, inner
    assert abs(tracer.layer_seconds() - (outer + inner)) < 1e-9


def check_wrappers_removed() -> None:
    """Every wrapper is gone after ``remove`` and the originals are back."""
    from repro.experiments import battery, common
    from repro.sim.machine import Machine
    from repro.store.artifacts import ArtifactStore
    from repro.workloads.base import Workload

    before = (Workload.region_trace, Machine.run_full, ArtifactStore.get,
              common.get_workload, battery.EXPERIMENTS["fig5"].run)
    tracer = Tracer()
    install_layer_wrappers(tracer)
    assert tracer.installed > 10
    assert Machine.run_full is not before[1]
    tracer.remove()
    after = (Workload.region_trace, Machine.run_full, ArtifactStore.get,
             common.get_workload, battery.EXPERIMENTS["fig5"].run)
    assert tracer.installed == 0
    assert all(a is b for a, b in zip(before, after))


def check_traced_call() -> None:
    """A traced pipeline stage records spans and counters."""
    from repro.config import scaled, table1_8core
    from repro.core.pipeline import BarrierPointPipeline
    from repro.workloads import get_workload

    tracer = Tracer()
    install_layer_wrappers(tracer)
    try:
        workload = get_workload("npb-is", 8, 0.05)
        with tracer.span("bench.op"):
            BarrierPointPipeline(scaled(table1_8core())).profile(workload)
    finally:
        tracer.remove()
    names = {span[0] for span in tracer.spans}
    assert {"profiling.profile", "workloads.region_trace"} <= names, names
    assert tracer.counters["workloads.regions"] == workload.num_regions
    assert tracer.counters["profiling.accesses"] == (
        tracer.counters["workloads.accesses"])


def check_checker() -> None:
    """Pinned digests are enforced; unpinned ones must agree across rounds."""
    pins = {"w": {"ops": {"p": {"d": "1"}, "fuzz-1": {"d": "2"}}}}
    checker = Checker("w", DEFAULT_SEED, pins)
    checker.check("ops", "p", {"d": "1"})
    checker.check("ops", "fuzz-1", {"d": "2"}, seeded=True)
    assert not checker.failures
    checker.check("ops", "p", {"d": "x"})
    assert len(checker.failures) == 1
    other = Checker("w", DEFAULT_SEED + 1, pins)
    other.check("ops", "fuzz-1", {"d": "9"}, seeded=True)
    other.check("ops", "fuzz-1", {"d": "9"}, seeded=True)
    assert not other.failures
    other.check("ops", "fuzz-1", {"d": "8"}, seeded=True)
    other.check("ops", "q", None, error="boom")
    assert len(other.failures) == 2 and other.attempted == 4


def check_wall() -> None:
    """``wall_s`` sums each operation's median over the rounds."""
    rounds = [{"adjusted": {"a": 2.0, "b": 1.0}},
              {"adjusted": {"a": 1.5, "b": 3.0}},
              {"adjusted": {"a": 1.0, "b": 2.0}}]
    assert _wall_s(rounds) == 3.5


def check_speed_clock() -> None:
    """Corrected segment time scales raw time by the kernel's slowdown."""
    import cases

    clock = cases.SpeedClock()
    clock._kernel = 2 * cases.REFERENCE_S
    time.sleep(0.05)
    clock.lap("x")
    label, raw, adjusted = clock.segments[0]
    assert label == "x" and raw >= 0.05
    # The closing kernel ran at some real speed; the opening one at half
    # the reference speed, so the correction lies below raw.
    assert adjusted < raw


def main() -> int:
    for check in (check_self_time, check_wrappers_removed, check_traced_call,
                  check_checker, check_wall, check_speed_clock):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
