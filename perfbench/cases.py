"""The benchmark's three workloads, one round of each per child process.

A round runs every operation of a workload once and times each one, raw
and corrected for the host's speed (:class:`SpeedClock`).  The parent
(``run.py``) starts each round in a fresh interpreter, so no memo, store
state or wrapper survives from one round into the next, and sums each
operation's median corrected time over the rounds into ``wall_s``.

* ``estimate-cold``: one BarrierPoint estimate per (program, core count)
  from nothing: profile, select (combine, maxK 20), full reference run,
  MRU capture, warmed barrierpoint simulation, reconstruction.  Serial,
  no store.
* ``select-sweep``: ``run_experiments`` over fig4, fig5, fig6 and table3,
  one fresh runner per program, over a store that holds only the profile
  and full-run passes filled during set-up.  No detailed simulation.
* ``battery-quick-j2``: the default battery at the ``--quick``
  configuration with two workers on an empty store, i.e.
  ``repro run --quick -j 2``.  Its operations are the fan-out prefetch
  and each figure.

The first two workloads also run the seed's ScenarioFuzzer scenario
``fuzz-<seed>`` through the same path (``select-sweep`` without table3).
The battery does not: Fig. 1 and Table III look up the paper's published
per-program numbers, which a scenario does not have, so the ``--quick``
battery rejects it.  The scenario's size varies with the seed, so its time
is reported apart from ``wall_s`` and its outputs are checked but kept out
of the accuracy averages.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import time

ESTIMATE_SCALE = 0.5
ESTIMATE_THREADS = (8,)
ESTIMATE_BENCHMARKS = ("npb-cg", "npb-ft", "npb-is", "npb-lu", "npb-mg",
                       "parsec-bodytrack")
SWEEP_SCALE = 0.1
SWEEP_BENCHMARKS = ("npb-ft", "npb-is", "npb-mg")
SWEEP_FIGURES = ("fig4", "fig5", "fig6", "table3")
#: Figures that need the paper's published per-program numbers.
PAPER_ONLY_FIGURES = ("fig1", "table3")
BATTERY_WORKERS = 2
#: Battery operation that covers the ``-j 2`` prefetch of every profile
#: and full-run pass (see :func:`round_battery`).
PREFETCH_OP = "prefetch"

WORKLOADS = ("estimate-cold", "select-sweep", "battery-quick-j2")
#: Workloads that also run the seed's fuzz scenario.
FUZZ_WORKLOADS = ("estimate-cold", "select-sweep")


def fuzz_name(seed: int) -> str:
    """The seed's ScenarioFuzzer workload name."""
    return f"fuzz-{seed}"


def text_digest(*texts: str) -> str:
    """Short digest of rendered figure text."""
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8") + b"\0")
    return digest.hexdigest()[:16]


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


#: Seconds :func:`reference_kernel` takes at full speed on the 2-vCPU
#: x86-64 VM the benchmark was built on (Python 3.11, numpy 2.4, one BLAS
#: thread): the scale of the speed-corrected times.
REFERENCE_S = 0.037
#: Shortest segment after which a runner step boundary ends the segment.
LAP_S = 1.0

_KERNEL_DATA: list = []


def reference_kernel() -> float:
    """Run a fixed mix of interpreter, dict and numpy work; its seconds.

    The mix follows the benchmark's own code: the simulator and profiler
    are interpreted Python over dicts, clustering is small dense numpy.
    """
    import numpy as np

    if not _KERNEL_DATA:
        _KERNEL_DATA.extend((
            np.arange(64 * 64, dtype=np.float64).reshape(64, 64) / 4096.0,
            (np.arange(50_000, dtype=np.int64) * 7919) % 200_000,
            np.arange(200_000, dtype=np.float64),
        ))
    base, index, table = _KERNEL_DATA
    start = time.perf_counter()
    for _ in range(3):
        acc = 0
        lookup: dict[int, int] = {}
        for i in range(60_000):
            acc += (i * i) % 97
            lookup[i & 1023] = acc
        m = base
        for _ in range(60):
            m = m @ base
            m /= m.max()
        for _ in range(18):
            acc += int(table[index].sum()) & 1
    return time.perf_counter() - start


class SpeedClock:
    """Times segments of work and corrects each for the host's speed.

    The 2-vCPU VM the benchmark was built on drifts in speed by up to 2x
    in phases of seconds to minutes, alike for interpreted and numpy code.
    The reference kernel runs at every segment boundary (never inside a
    segment); a segment's corrected time is its raw time scaled by
    ``REFERENCE_S`` over the mean of the kernel times at its two ends.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.segments: list[tuple[str | None, float, float]] = []
        #: Wall seconds spent in kernel runs so far (whole runs included).
        self.kernel_s = 0.0
        self._kernel = self._reference()
        self._start = time.perf_counter()

    def _reference(self) -> float:
        began = time.perf_counter()
        if self.tracer is None:
            seconds = reference_kernel()
        else:
            with self.tracer.span("bench.reference"):
                seconds = reference_kernel()
        self.kernel_s += time.perf_counter() - began
        return seconds

    def restart(self) -> None:
        """Start the next segment now."""
        self._start = time.perf_counter()

    def lap(self, label: str | None = None) -> None:
        """End the current segment, run the kernel, start the next."""
        raw = time.perf_counter() - self._start
        kernel = self._reference()
        scale = REFERENCE_S / (0.5 * (self._kernel + kernel))
        self.segments.append((label, raw, raw * scale))
        self._kernel = kernel
        self._start = time.perf_counter()

    def lap_if_due(self) -> None:
        """Lap once the current segment is ``LAP_S`` long (long stages
        would otherwise span a change of phase)."""
        if time.perf_counter() - self._start >= LAP_S:
            self.lap()


class Round:
    """Times and records the operations of one round.

    ``times`` holds each fixed operation's raw seconds and ``adjusted``
    its speed-corrected seconds (:class:`SpeedClock`); the fuzz scenario's
    raw seconds are summed apart in ``fuzz_s``.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.clock = SpeedClock(tracer)
        self.times: dict[str, float] = {}
        self.adjusted: dict[str, float] = {}
        self.ops: list[dict] = []
        self.fuzz_s = 0.0

    def run(self, label: str, seeded: bool, fn):
        """Run ``fn(lap)``; a raising operation is recorded as failed.

        ``fn`` may call ``lap`` at stage boundaries, so each stage is
        corrected by the kernel runs next to it.
        """
        op = {"op": label, "seeded": seeded}
        self.ops.append(op)
        if self.tracer is not None:
            self.tracer.op = label
        first = len(self.clock.segments)
        self.clock.restart()
        try:
            if self.tracer is not None:
                with self.tracer.span("bench.op"):
                    result = fn(self.clock.lap)
            else:
                result = fn(self.clock.lap)
        except Exception as exc:  # counted in ``failed``, never fatal
            op["error"] = f"{type(exc).__name__}: {exc}"
            result = None
        self.clock.lap()
        segments = self.clock.segments[first:]
        raw = sum(seconds for _, seconds, _ in segments)
        if seeded:
            self.fuzz_s += raw
        else:
            self.times[label] = raw
            self.adjusted[label] = sum(adj for _, _, adj in segments)
        return op, result

    def result(self, **extra) -> dict:
        """The round's JSON-ready record (``round_s``: every operation)."""
        return {"times": self.times, "adjusted": self.adjusted,
                "fuzz_s": self.fuzz_s,
                "round_s": sum(self.times.values()) + self.fuzz_s,
                "ops": self.ops, **extra}


class FigureTimes:
    """``run_experiments`` callback: per-figure seconds and clock laps.

    ``on_result`` reports each figure's seconds, which include any kernel
    runs a :func:`lapping_runner` made inside the figure; those are taken
    out again.  Each callback ends a clock segment labelled by the figure.
    """

    def __init__(self, clock: SpeedClock) -> None:
        self.clock = clock
        self.seconds: dict[str, float] = {}
        self._kernel_mark = clock.kernel_s

    def start(self) -> None:
        """Call right before ``run_experiments``."""
        self._kernel_mark = self.clock.kernel_s

    def __call__(self, name, output, seconds, cached) -> None:
        inside = self.clock.kernel_s - self._kernel_mark
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds - inside
        self.clock.lap(name)
        self._kernel_mark = self.clock.kernel_s


def _means(errors: list[float], speedups: list[float]) -> dict:
    """The deterministic end-to-end values from per-program numbers."""
    if not errors or not speedups:
        return {}
    return {
        "mean_abs_error_pct": sum(errors) / len(errors),
        "sim_reduction_x": sum(speedups) / len(speedups),
    }


def _store_files(root: str) -> dict[str, tuple[int, int]]:
    """``{relative path: (inode, size)}`` of every artifact in a store."""
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name.endswith(".pkl"):
                path = os.path.join(dirpath, name)
                st = os.stat(path)
                files[os.path.relpath(path, root)] = (st.st_ino, st.st_size)
    return files


def _store_writes(before: dict, root: str) -> dict:
    """Artifacts written since ``before``, counted from the store itself.

    Counting files catches the writes of ``-j 2`` pool workers too, which
    the in-process put counter never sees.  An overwrite is a new inode.
    """
    after = _store_files(root)
    written = [path for path, meta in after.items() if before.get(path) != meta]
    return {"puts": len(written),
            "bytes_written": sum(after[path][1] for path in written)}


_LAPPING_RUNNER: list = []


def lapping_runner(clock: SpeedClock | None, **kwargs):
    """An ``ExperimentRunner`` that offers ``clock`` a segment boundary
    after every selection and warmup evaluation.

    A figure such as Fig. 5 runs for seconds inside one call; these
    boundaries let the speed correction follow it.  Results, memos and
    store traffic are those of the plain runner.
    """
    if not _LAPPING_RUNNER:
        from repro.experiments.common import ExperimentRunner

        class LappingRunner(ExperimentRunner):
            def selection(self, *args, **kw):
                result = super().selection(*args, **kw)
                if self.clock is not None:
                    self.clock.lap_if_due()
                return result

            def evaluate_warmup(self, *args, **kw):
                result = super().evaluate_warmup(*args, **kw)
                if self.clock is not None:
                    self.clock.lap_if_due()
                return result

        _LAPPING_RUNNER.append(LappingRunner)
    runner = _LAPPING_RUNNER[0](**kwargs)
    runner.clock = clock
    return runner


# -- set-up -------------------------------------------------------------------


def setup(workload: str, seed: int, store_root: str):
    """Prepare a round's inputs.

    ``select-sweep`` fills ``store_root`` with the profile and full-run
    passes of every (program, core count), the fuzz scenario included, and
    returns its runner for :func:`setup_digests`.  The other two workloads
    only resolve their workloads and machines.
    """
    if workload == "estimate-cold":
        from repro.experiments.common import experiment_machine
        from repro.workloads import get_workload

        for _, _, name, nt in _estimate_jobs(seed, True, True):
            get_workload(name, nt, ESTIMATE_SCALE)
            experiment_machine(nt)
        return None
    if workload == "battery-quick-j2":
        _battery_runner(store_root)
        return None
    from repro.experiments.common import CORE_COUNTS

    runner = _sweep_runner(SWEEP_BENCHMARKS + (fuzz_name(seed),), store_root)
    for name in runner.benchmarks:
        for nt in CORE_COUNTS:
            runner.profiles(name, nt)
            runner.full(name, nt)
    return runner


def setup_digests(runner) -> dict:
    """Digests of the passes a ``select-sweep`` set-up stored."""
    from repro.experiments.common import CORE_COUNTS
    from repro.profiling.profiler import profiles_digest
    from repro.trace.corpus import full_run_digest

    if runner is None:
        return {}
    return {
        f"{name}/{nt}t": {
            "profiles": profiles_digest(runner.profiles(name, nt)),
            "full": full_run_digest(runner.full(name, nt)),
        }
        for name in runner.benchmarks
        for nt in CORE_COUNTS
    }


# -- estimate-cold ------------------------------------------------------------


def _estimate_jobs(seed: int, fixed: bool, fuzz: bool) -> list:
    """``(label, seeded, program, threads)`` per estimate operation."""
    names = ((ESTIMATE_BENCHMARKS if fixed else ())
             + ((fuzz_name(seed),) if fuzz else ()))
    return [(f"{name}/{nt}t", name.startswith("fuzz-"), name, nt)
            for name in names for nt in ESTIMATE_THREADS]


def _estimate_one(name: str, nt: int, lap):
    """From nothing: profile -> select -> full run -> MRU capture + warmed
    barrierpoint simulation -> reconstruction (``lap`` between stages)."""
    from repro.core.pipeline import BarrierPointPipeline
    from repro.experiments.common import experiment_machine
    from repro.workloads import get_workload

    workload = get_workload(name, nt, ESTIMATE_SCALE)
    pipe = BarrierPointPipeline(experiment_machine(nt))
    profiles = pipe.profile(workload)
    lap()
    selection = pipe.select(workload, profiles)
    lap()
    full = pipe.full_run(workload)
    lap()
    result = pipe.evaluate_with_warmup(selection, workload, full, "mru")
    return profiles, selection, full, result


def _selection_ok(selection) -> bool:
    """Seed-independent check: multipliers rebuild the instruction total."""
    rebuilt = sum(p.multiplier * p.instructions for p in selection.points)
    weight = sum(p.weight for p in selection.points)
    total = selection.total_instructions
    return abs(rebuilt - total) <= 1e-9 * total and abs(weight - 1.0) <= 1e-9


def round_estimate(seed: int, fixed: bool, fuzz: bool, tracer=None) -> dict:
    """One estimate-cold round: every estimate, serially, from nothing.

    Each estimate's outputs are digested as soon as it ends and then
    dropped, so the peak resident set is that of the largest estimate.
    """
    from repro.core.speedup import speedup_report
    from repro.profiling.profiler import profiles_digest
    from repro.trace.corpus import full_run_digest

    rnd = Round(tracer)
    errors, speedups = [], []
    cpu = cpu_seconds()
    for label, seeded, name, nt in _estimate_jobs(seed, fixed, fuzz):
        op, out = rnd.run(label, seeded,
                          lambda lap, n=name, t=nt: _estimate_one(n, t, lap))
        if out is None:
            continue
        profiles, selection, full, result = out
        points = [[p.region_index, repr(p.multiplier)]
                  for p in selection.points]
        op["digests"] = {
            "profiles": profiles_digest(profiles),
            "full": full_run_digest(full),
            "selection": text_digest(json.dumps(points)),
            "cycles": repr(result.estimate.cycles),
        }
        op["valid"] = _selection_ok(selection) and result.estimate.cycles > 0
        if not seeded:
            errors.append(result.runtime_error_pct)
            speedups.append(speedup_report(
                selection, warmup_lines=result.warmup_lines
            ).serial_speedup)
        del out, profiles, selection, full, result
    cpu = cpu_seconds() - cpu - rnd.clock.kernel_s
    values = _means(errors, speedups) if fixed else {}
    return rnd.result(cpu_s=cpu, values=values)


# -- select-sweep -------------------------------------------------------------


def _sweep_runner(benchmarks: tuple[str, ...], store_root: str,
                  clock: SpeedClock | None = None):
    """A fresh serial runner at the sweep scale over ``store_root``."""
    from repro.store import ArtifactStore

    return lapping_runner(clock, scale=SWEEP_SCALE, benchmarks=benchmarks,
                          workers=0, store=ArtifactStore(root=store_root))


def _sweep_values(runners: dict) -> dict:
    """Perfect-warmup error over the Fig. 5 grid, and Fig. 9 serial speedup.

    Read back from each runner's memoized selections, so nothing is
    recomputed.
    """
    from repro.core.speedup import speedup_report
    from repro.experiments.common import CORE_COUNTS
    from repro.experiments.fig5_maxk_methods import MAX_K_SWEEP, VARIANTS

    errors, speedups = [], []
    for name, runner in runners.items():
        for nt in CORE_COUNTS:
            for variant in VARIANTS:
                for max_k in MAX_K_SWEEP:
                    errors.append(runner.evaluate_perfect(
                        name, nt, variant=variant, max_k=max_k
                    ).runtime_error_pct)
            speedups.append(
                speedup_report(runner.selection(name, nt)).serial_speedup)
    return _means(errors, speedups)


def round_sweep(seed: int, store_root: str, fixed: bool, fuzz: bool,
                tracer=None) -> dict:
    """One select-sweep round: the figures, one fresh runner per program."""
    from repro.experiments.battery import run_experiments

    rnd = Round(tracer)
    figures = FigureTimes(rnd.clock)
    runners = {}
    jobs = [(name, False, SWEEP_FIGURES)
            for name in (SWEEP_BENCHMARKS if fixed else ())]
    if fuzz:
        names = tuple(n for n in SWEEP_FIGURES if n not in PAPER_ONLY_FIGURES)
        jobs.append((fuzz_name(seed), True, names))
    before = _store_files(store_root)
    cpu = cpu_seconds()
    for name, seeded, names in jobs:
        runner = _sweep_runner((name,), store_root, rnd.clock)

        def sweep(lap, runner=runner, names=names):
            figures.start()
            return run_experiments(runner, list(names), figures)

        op, outputs = rnd.run(name, seeded, sweep)
        runner.clock = None
        if outputs is not None:
            op["digests"] = {"figures": text_digest(
                *(outputs[f] for f in names))}
            op["valid"] = all(outputs[f].strip() for f in names)
            if not seeded:
                runners[name] = runner
    cpu = cpu_seconds() - cpu - rnd.clock.kernel_s
    values = (_sweep_values(runners)
              if fixed and len(runners) == len(SWEEP_BENCHMARKS) else {})
    return rnd.result(cpu_s=cpu, values=values, figure_s=figures.seconds,
                      store=_store_writes(before, store_root))


# -- battery-quick-j2 ---------------------------------------------------------


def _battery_runner(store_root: str, clock: SpeedClock | None = None):
    """A fresh ``--quick -j 2`` runner over ``store_root``."""
    from repro.experiments.battery import QUICK_BENCHMARKS, QUICK_SCALE
    from repro.store import ArtifactStore

    return lapping_runner(clock, scale=QUICK_SCALE,
                          benchmarks=QUICK_BENCHMARKS,
                          workers=BATTERY_WORKERS,
                          store=ArtifactStore(root=store_root))


def _battery_values(runner) -> dict:
    """Fig. 7 MRU-warmup error and Fig. 9 serial speedup, replay charged."""
    from repro.core.speedup import speedup_report
    from repro.experiments.common import CORE_COUNTS

    errors, speedups = [], []
    for name in runner.benchmarks:
        for nt in CORE_COUNTS:
            mru = runner.evaluate_warmup(name, nt, "mru")
            errors.append(mru.runtime_error_pct)
            speedups.append(speedup_report(
                runner.selection(name, nt), warmup_lines=mru.warmup_lines
            ).serial_speedup)
    return _means(errors, speedups)


def round_battery(store_root: str, tracer=None) -> dict:
    """One ``repro run --quick -j 2``: the prefetch and every figure.

    ``run_experiments`` first fans out every profile and full-run pass,
    then renders the figures in order, calling back after each.  The
    clock segments up to Fig. 1's callback are the ``prefetch`` operation
    (Fig. 1 needs no pass and takes milliseconds); each later figure's
    segments are its operation.
    """
    from repro.experiments.battery import DEFAULT_BATTERY, run_experiments

    rnd = Round(tracer)
    runner = _battery_runner(store_root, rnd.clock)
    figures = FigureTimes(rnd.clock)

    def battery(lap):
        figures.start()
        return run_experiments(runner, list(DEFAULT_BATTERY), figures)

    before = _store_files(store_root)
    cpu = cpu_seconds()
    op, outputs = rnd.run("battery", False, battery)
    runner.clock = None
    cpu = cpu_seconds() - cpu - rnd.clock.kernel_s
    rnd.times.clear()
    rnd.adjusted.clear()
    raw = adj = 0.0
    for name, seg_raw, seg_adj in rnd.clock.segments:
        raw, adj = raw + seg_raw, adj + seg_adj
        if name is not None:
            label = PREFETCH_OP if name == DEFAULT_BATTERY[0] else name
            rnd.times[label] = raw
            rnd.adjusted[label] = adj
            raw = adj = 0.0
    rnd.times[PREFETCH_OP] = rnd.times.get(PREFETCH_OP, 0.0) + raw
    rnd.adjusted[PREFETCH_OP] = rnd.adjusted.get(PREFETCH_OP, 0.0) + adj
    error = op.get("error")
    rnd.ops = []
    for name in DEFAULT_BATTERY:
        figure = {"op": name, "seeded": False}
        if outputs is not None:
            figure["digests"] = {"text": text_digest(outputs[name])}
            figure["valid"] = bool(outputs[name].strip())
        else:
            figure["error"] = error
        rnd.ops.append(figure)
    return rnd.result(
        cpu_s=cpu,
        values={} if outputs is None else _battery_values(runner),
        figure_s=figures.seconds,
        store=_store_writes(before, store_root),
        report={"tasks": len(runner.report.tasks),
                "retries": sum(max(0, t.attempts - 1)
                               for t in runner.report.tasks)},
    )


def run_round(workload: str, seed: int, store_root: str, fixed: bool,
              fuzz: bool, tracer=None) -> dict:
    """Dispatch one round of ``workload``: its fixed operations, the fuzz
    scenario's, or both."""
    if workload == "estimate-cold":
        return round_estimate(seed, fixed, fuzz, tracer)
    if workload == "select-sweep":
        return round_sweep(seed, store_root, fixed, fuzz, tracer)
    return round_battery(store_root, tracer)
