"""The repository benchmark: three workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload estimate-cold --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` adds one traced round after the untraced ones and prints the
per-layer metrics and the tracing overhead, and writes the traced round's
spans as Chrome trace-event JSON under ``perfbench/out/``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Times are corrected for the host's drifting speed by a reference kernel
run between stages (see ``cases.SpeedClock``); the uncorrected figures are
printed too.  Every set-up and every round runs in a fresh interpreter
(this file with ``--child``) with a pinned environment: ``REPRO_*`` cleared,
``REPRO_JIT=off``, one BLAS thread, and a private store under the run's
scratch directory.  The parent process imports nothing from ``repro``.
Outputs are checked against ``perfbench/pins.json`` (see ``--record-pins``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

_STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PINS = HERE / "pins.json"

sys.path.insert(0, str(HERE))
from cases import (  # noqa: E402  (stdlib only at import)
    FUZZ_WORKLOADS,
    REFERENCE_S,
    WORKLOADS,
)

#: Seed whose ``fuzz-<seed>`` outputs are pinned in ``pins.json``.
DEFAULT_SEED = 1
#: Set-ups per run; ``setup_s`` is their median.  The traced run sets up
#: once.
SETUPS = 3
#: Timed rounds per run, unless that would take over twice
#: ``--seconds`` (``wall_s`` takes each operation's median).
MIN_ROUNDS = 3
#: BLAS/OpenMP threads of every child (at most ``nproc`` on any host).
BLAS_THREADS = 1
#: A child still running after this many seconds is killed.
CHILD_TIMEOUT_S = 150.0


# -- child side ---------------------------------------------------------------


def _child(args: argparse.Namespace) -> int:
    """Run one set-up or round and print its result as one JSON line.

    A set-up's ``setup_s`` runs from interpreter start-up (this module's
    first statement) to the end of the workload's set-up.
    """
    import cases

    if args.child == "setup":
        state = cases.setup(args.workload, args.seed, args.store)
        setup_s = time.perf_counter() - _STARTED
        print(json.dumps({
            "setup_s": setup_s,
            "kernel_s": cases.reference_kernel(),
            "digests": cases.setup_digests(state) if args.ops else {},
        }))
        return 0

    import numpy

    tracer = None
    if args.trace_out:
        from tracer import Tracer, install_layer_wrappers

        tracer = Tracer()
        install_layer_wrappers(tracer)
    try:
        result = cases.run_round(args.workload, args.seed, args.store,
                                 "fixed" in args.ops, "fuzz" in args.ops,
                                 tracer)
    finally:
        if tracer is not None:
            tracer.remove()
    result["stamp"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        if tracer.installed:
            raise RuntimeError("tracing wrappers survived the traced round")
        result["layers"] = _layer_metrics(tracer, result)
        tracer.write_chrome_trace(args.trace_out, {
            "workload": args.workload, "seed": args.seed,
            "round_s": result["round_s"], **result["stamp"],
        })
    print(json.dumps(result))
    return 0


def _layer_metrics(tracer, result: dict) -> dict:
    """Per-layer numbers of the traced round (every span ``*_s`` is self
    time; ``bench.fuzz_s`` is the fuzz scenario's share of the round)."""
    from repro.experiments.battery import DEFAULT_BATTERY

    spans = tracer.by_name()
    c = tracer.counters

    def self_s(name: str) -> float:
        return spans.get(name, (0, 0.0))[1]

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    sim_accesses = c.get("sim.full_run_accesses", 0) + c.get(
        "sim.barrierpoint_accesses", 0)
    gets = c.get("store.gets", 0)
    wall = result["round_s"]
    metrics = {
        "sim.full_run_s": self_s("sim.full_run"),
        "sim.barrierpoint_s": self_s("sim.barrierpoint"),
        "sim.warmup_s": self_s("sim.warmup"),
        "mem.accesses": sim_accesses,
        "sim.host_ns_per_access": ratio(
            self_s("sim.full_run"), c.get("sim.full_run_accesses", 0), 1e9),
        "sim.warmup_lines": c.get("sim.warmup_lines", 0),
        "sim.host_ns_per_warmup_line": ratio(
            self_s("sim.warmup"), c.get("sim.warmup_lines", 0), 1e9),
        "profiling.profile_s": self_s("profiling.profile"),
        "profiling.capture_s": self_s("profiling.capture"),
        "profiling.captured_lines": c.get("profiling.captured_lines", 0),
        "profiling.host_ns_per_access": ratio(
            self_s("profiling.profile"), c.get("profiling.accesses", 0), 1e9),
        "workloads.region_trace_s": self_s("workloads.region_trace"),
        "workloads.regions": c.get("workloads.regions", 0),
        "workloads.accesses": c.get("workloads.accesses", 0),
        "workloads.build_s": self_s("workloads.build"),
        "signatures.build_s": self_s("signatures.build"),
        "signatures.builds": c.get("signatures.builds", 0),
        "signatures.distinct_frac": ratio(
            tracer.distinct("signatures.builds"),
            c.get("signatures.builds", 0)),
        "clustering.fit_s": self_s("clustering.fit"),
        "clustering.fits": c.get("clustering.fits", 0),
        "clustering.projection_s": self_s("clustering.projection"),
        "clustering.kmeans_s": self_s("clustering.kmeans"),
        "clustering.kmeans_calls": c.get("clustering.kmeans_calls", 0),
        "clustering.kmeans_distinct_frac": ratio(
            tracer.distinct("clustering.kmeans_calls"),
            c.get("clustering.kmeans_calls", 0)),
        "clustering.bic_s": self_s("clustering.bic"),
        "selection.select_s": self_s("selection.select"),
        "selection.barrierpoints": c.get("selection.barrierpoints", 0),
        "reconstruction.reconstruct_s": self_s("reconstruction.reconstruct"),
        "store.get_s": self_s("store.get"),
        "store.gets": gets,
        "store.hit_frac": ratio(c.get("store.hits", 0), gets),
        "store.bytes_read": c.get("store.bytes_read", 0),
        "store.put_s": self_s("store.put"),
        "store.puts": result.get("store", {}).get("puts", 0),
        "store.bytes_written": result.get("store", {}).get(
            "bytes_written", 0),
        "experiments.prefetch_s": self_s("experiments.prefetch"),
        "experiments.prefetch_tasks": result.get("report", {}).get(
            "tasks", 0),
        "experiments.retries": result.get("report", {}).get("retries", 0),
        "experiments.self_s": sum(
            seconds for name, (_, seconds) in spans.items()
            if name.startswith("experiments.")
            and name != "experiments.prefetch"
        ),
        "host.cpu_s": result["cpu_s"],
        "host.cpu_util": ratio(result["cpu_s"], wall),
        "bench.fuzz_s": result["fuzz_s"],
        "trace.wall_s": wall,
        "trace.layer_frac": ratio(tracer.layer_seconds(), wall),
        "trace.spans": len(tracer.spans),
    }
    seconds = result.get("figure_s", {})
    for name in DEFAULT_BATTERY:
        metrics[f"experiments.figure.{name}_s"] = seconds.get(name, 0.0)
    return metrics


# -- parent side --------------------------------------------------------------


def _child_env(scratch: Path) -> dict:
    """The pinned environment every child runs in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_JIT"] = "off"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(scratch)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _run_child(kind: str, workload: str, seed: int, store: Path,
               scratch: Path, env: dict, ops: str = "fixed",
               trace_out: Path | None = None) -> dict:
    """Run one child to completion and return its JSON result.

    Adds ``peak_rss_mb``: ``os.wait4`` reports the larger of the child's
    own peak resident set and that of its largest reaped descendant (a
    ``-j 2`` pool worker).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", kind,
           "--workload", workload, "--seed", str(seed),
           "--store", str(store), "--ops", ops]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out,
                                stderr=err, start_new_session=True)
    # Block in wait4 (no polling); a timer kills a child that hangs, with
    # every process it started.
    killer = threading.Timer(CHILD_TIMEOUT_S, os.killpg,
                             (proc.pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{kind} child exited {proc.returncode}: "
            + err_path.read_text(errors="replace").strip()[-3000:]
        )
    result = json.loads(out_path.read_text().strip().splitlines()[-1])
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    return result


def _git_rev() -> str:
    """The checkout's git revision, read from ``.git`` (no subprocess)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Checker:
    """Counts operations and checks each one's outputs.

    An operation's digests must equal the pinned ones when pins apply (the
    seed-independent operations always, every operation at the pinned
    seed); otherwise they must equal the first round's, so every round of
    the run, traced or not, agrees.  The deterministic values must be
    identical in every round.
    """

    def __init__(self, workload: str, seed: int, pins: dict | None) -> None:
        self.seed = seed
        self.pins = (pins or {}).get(workload, {})
        self.attempted = 0
        self.failures: list[str] = []
        self._first: dict[str, dict] = {}
        self._values: dict | None = None

    def _expected(self, section: str, label: str,
                  seeded: bool) -> dict | None:
        if seeded and self.seed != DEFAULT_SEED:
            return None
        return self.pins.get(section, {}).get(label)

    def check(self, section: str, label: str, digests: dict | None,
              error: str | None = None, valid: bool = True,
              seeded: bool = False) -> None:
        """Count one operation; record it as failed if its output is off."""
        self.attempted += 1
        if error is not None or digests is None or not valid:
            self.failures.append(f"{section} {label}: {error or 'invalid'}")
            return
        expected = self._expected(section, label, seeded)
        if expected is None:
            expected = self._first.setdefault(f"{section}/{label}", digests)
        if digests != expected:
            self.failures.append(
                f"{section} {label}: {digests} != expected {expected}")

    def check_round(self, result: dict) -> None:
        """Check every operation and the deterministic values of a round."""
        for op in result["ops"]:
            self.check("ops", op["op"], op.get("digests"), op.get("error"),
                       op.get("valid", True), op["seeded"])
        values = result["values"]
        if not values:
            return
        if self._values is None:
            self._values = values
        elif values != self._values:
            self.failures.append(f"values {values} != {self._values}")
            self.attempted += 1


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _measure(args: argparse.Namespace, scratch: Path, env: dict,
             checker: Checker | None) -> dict:
    """Set up, then run rounds until ``--seconds`` is used (and at least
    ``MIN_ROUNDS``).

    The fuzz scenario runs in the first round only; its seed-dependent
    time is kept apart (``fuzz_s``) and out of ``wall_s``.  With
    ``--trace 1`` a traced round of every operation follows; its fuzz
    digests must equal the untraced ones.  Only the first set-up's
    outputs are digested and checked; the others only time the set-up.
    """
    workload, seed = args.workload, args.seed
    setups = []
    for i in range(1 if args.trace else SETUPS):
        store = scratch / f"setup{i}"
        setups.append(_run_child("setup", workload, seed, store, scratch,
                                 env, "" if i else "digests"))
        if checker is not None:
            for label, digests in setups[-1]["digests"].items():
                checker.check("setup", label, digests,
                              seeded="fuzz-" in label)
        if i:
            shutil.rmtree(store, ignore_errors=True)
    base = scratch / "setup0"

    def run_round(ops: str, trace_out: Path | None = None) -> dict:
        store = scratch / "store"
        shutil.rmtree(store, ignore_errors=True)
        if base.is_dir():
            shutil.copytree(base, store)
        began = time.perf_counter()
        result = _run_child("round", workload, seed, store, scratch, env,
                            ops, trace_out)
        result["child_s"] = time.perf_counter() - began
        if checker is not None:
            checker.check_round(result)
        return result

    began = time.perf_counter()
    deadline = began + args.seconds
    rounds = [run_round(
        "fixed,fuzz" if workload in FUZZ_WORKLOADS else "fixed")]
    # Start another round while the typical round still fits (leaving room
    # for the traced round), or while fewer than MIN_ROUNDS ran and it
    # would end within twice --seconds.
    reserve = 1.3 * rounds[0]["child_s"] if args.trace else 0.0
    while True:
        end = time.perf_counter() + _median([r["child_s"] for r in rounds])
        if end + reserve > deadline and (
                len(rounds) >= MIN_ROUNDS
                or end > began + 2 * args.seconds):
            break
        rounds.append(run_round("fixed"))
    traced = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        traced = run_round("fixed,fuzz",
                           OUT / f"trace-{workload}-seed{seed}.json")
    return {"setups": setups, "rounds": rounds, "traced": traced}


def _wall_s(rounds: list[dict], key: str = "adjusted") -> float:
    """Sum over operations of each operation's median over the rounds.

    ``key`` picks speed-corrected (``adjusted``, see ``cases.SpeedClock``)
    or raw (``times``) seconds.
    """
    return sum(_median([r[key][op] for r in rounds]) for op in rounds[0][key])


def _setup_s(setup: dict) -> float:
    """A set-up's seconds, corrected by the kernel run right after it."""
    return setup["setup_s"] * REFERENCE_S / setup["kernel_s"]


def _end_to_end(run: dict, checker: Checker) -> dict:
    rounds = run["rounds"]
    values = rounds[0]["values"]
    return {
        "wall_s": (_wall_s(rounds), "s"),
        "setup_s": (_median([_setup_s(s) for s in run["setups"]]), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in rounds]), "MiB"),
        "mean_abs_error_pct": (values.get("mean_abs_error_pct", 0.0), "%"),
        "sim_reduction_x": (values.get("sim_reduction_x", 0.0), "x"),
        "success_frac": (
            1.0 - len(checker.failures) / max(1, checker.attempted), "frac"),
    }


def _per_layer(run: dict) -> dict:
    traced = run["traced"]
    # Overhead on the fixed operations, both sides speed-corrected.
    untraced = _wall_s(run["rounds"])
    overhead = sum(traced["adjusted"].values()) - untraced
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_frac"] = overhead / untraced
    units = {}
    for name in layers:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_frac") or name.endswith("_util"):
            units[name] = "frac"
        elif name.endswith("_per_access") or name.endswith("_line"):
            units[name] = "ns"
        elif name.startswith("store.bytes"):
            units[name] = "B"
        else:
            units[name] = "count"
    return {name: (value, units[name]) for name, value in layers.items()}


def _record_pins(args: argparse.Namespace, scratch: Path, env: dict) -> int:
    """Write ``pins.json`` from one set-up and round per workload."""
    pins = {"seed": DEFAULT_SEED}
    for workload in WORKLOADS:
        args.workload, args.seed, args.seconds, args.trace = (
            workload, DEFAULT_SEED, 0, 0)
        run = _measure(args, scratch, env, None)
        ops = run["rounds"][0]["ops"]
        failed = [op for op in ops if "digests" not in op or op.get("error")]
        if failed:
            print(f"{workload}: operations failed: {failed}", file=sys.stderr)
            return 1
        pins[workload] = {
            "setup": run["setups"][0]["digests"],
            "ops": {op["op"]: op["digests"] for op in ops},
        }
        print(f"{workload}: {len(ops)} operations pinned")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        default="estimate-cold")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-pins", action="store_true",
                        help="rewrite perfbench/pins.json at the default "
                             "seed instead of measuring")
    parser.add_argument("--child", choices=("setup", "round"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--ops", default="", help=argparse.SUPPRESS)
    parser.add_argument("--store", help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.child:
        return _child(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir()
    env = _child_env(scratch)
    try:
        if args.record_pins:
            return _record_pins(args, scratch, env)
        if not PINS.is_file():
            print(f"missing {PINS}; run with --record-pins", file=sys.stderr)
            return 2
        checker = Checker(args.workload, args.seed,
                          json.loads(PINS.read_text()))
        try:
            run = _measure(args, scratch, env, checker)
        except RuntimeError as exc:
            print(f"benchmark aborted: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = _per_layer(run) if args.trace else _end_to_end(run, checker)
    stamp = dict(run["rounds"][0]["stamp"], rev=_git_rev(),
                 nproc=os.cpu_count(), blas_threads=BLAS_THREADS,
                 seed=args.seed, workload=args.workload,
                 rounds=[round(r["round_s"], 3) for r in run["rounds"]],
                 corrected=[round(sum(r["adjusted"].values()), 3)
                            for r in run["rounds"]],
                 fuzz_s=round(run["rounds"][0]["fuzz_s"], 3),
                 setup_s=[round(s["setup_s"], 3) for s in run["setups"]])
    print(f"stamp {json.dumps(stamp, sort_keys=True)}")
    print(f"uncorrected: wall_s {_wall_s(run['rounds'], 'times'):.4f} s, "
          f"setup_s {_median([s['setup_s'] for s in run['setups']]):.4f} s")
    print("median corrected seconds per operation: " + ", ".join(
        f"{op} {_median([r['adjusted'][op] for r in run['rounds']]):.3f}"
        for op in run["rounds"][0]["adjusted"]))
    for failure in checker.failures:
        print(f"FAILED {failure}")
    print(f"failed_frac {len(checker.failures) / max(1, checker.attempted)}"
          f" ({len(checker.failures)} of {checker.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
