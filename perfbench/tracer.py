"""In-memory span recorder and the layer wrappers of the traced run.

The traced run installs wrappers around the public entry points of each
``repro`` layer (see :func:`install_layer_wrappers`), records one span per
wrapped call (name, start, end, parent span, operation id) plus counters,
and removes every wrapper again when it is done.  Spans stay in memory and
are written out once, as Chrome trace-event JSON that Perfetto opens.

A layer is the part of a span name before its first dot.  A span's self
time is its duration minus the durations of its direct children; calls
are sequential inside one process, so children never overlap.  Only work
inside one of the benchmark's own ``bench.*`` spans (a timed operation)
is recorded, so checks made after the timed part do not count.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
import weakref
from contextlib import contextmanager

#: Span-name prefix of the benchmark's own spans, which belong to no layer.
BENCH_LAYER = "bench"


class Tracer:
    """Spans, counters and the monkeypatches that feed them."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counters: dict[str, float] = {}
        self.op = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._distinct: dict[str, set[str]] = {}

    # -- recording ----------------------------------------------------------

    @property
    def recording(self) -> bool:
        """Whether a timed operation (a ``bench.*`` span) is open."""
        return bool(self._stack)

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span under the current one.

        Outside any timed operation, only ``bench.*`` spans are recorded.
        """
        if not self._stack and not name.startswith(BENCH_LAYER + "."):
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (inside a timed operation)."""
        if self.recording:
            self.counters[name] = self.counters.get(name, 0) + amount

    def count_distinct(self, name: str, key: str) -> None:
        """Count one call of ``name`` whose inputs digest to ``key``."""
        if self.recording:
            self._distinct.setdefault(name, set()).add(key)

    def distinct(self, name: str) -> int:
        """Number of distinct input digests recorded under ``name``."""
        return len(self._distinct.get(name, ()))

    # -- patching -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        Args:
            owner: Module or class holding the callable.
            attr: Attribute name.
            name: Span name (``layer.what``).
            after: Optional ``after(args, kwargs, result)`` hook run once
                the span has closed, to update counters.
        """
        function = getattr(owner, attr)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = function(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`remove`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        """Restore every wrapped attribute, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        """Number of wrappers currently in place."""
        return len(self._patches)

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_name(self) -> dict[str, tuple[int, float]]:
        """``{span name: (calls, total self seconds)}``."""
        totals: dict[str, tuple[int, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            calls, seconds = totals.get(span[0], (0, 0.0))
            totals[span[0]] = (calls + 1, seconds + own)
        return totals

    def layer_seconds(self) -> float:
        """Self time summed over every span that belongs to a layer."""
        return sum(
            own for span, own in zip(self.spans, self.self_times())
            if span[0].split(".", 1)[0] != BENCH_LAYER
        )

    def write_chrome_trace(self, path: str, meta: dict) -> None:
        """Write the spans as Chrome trace-event JSON (opens in Perfetto)."""
        origin = min((s[1] for s in self.spans), default=0.0)
        pid = os.getpid()
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": 1,
                "args": {"id": index, "parent": parent, "op": op},
            }
            for index, (name, start, end, parent, op) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms",
                 "otherData": meta},
                handle,
            )


def _digest(*parts) -> str:
    """Short digest of arrays and scalars (identity of a call's inputs)."""
    import numpy as np

    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points; undo with ``tracer.remove()``.

    Every wrapper sits on a name that callers look up at call time: a
    class attribute, or the module global the calling module imported.
    """
    from repro.clustering import simpoint
    from repro.core import pipeline
    from repro.experiments import battery, common
    from repro.profiling.profiler import FunctionalProfiler
    from repro.sim.machine import Machine
    from repro.sim.warmup import ColdWarmup, MRUWarmup
    from repro.store.artifacts import ArtifactStore
    from repro.workloads.base import Workload

    generated: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def refs_of(workload, index: int) -> int:
        """Loads + stores of one region (memoized per workload)."""
        per_region = generated.setdefault(workload, {})
        if index not in per_region:
            trace = original_region_trace(workload, index)
            per_region[index] = trace.num_refs
        return per_region[index]

    # workloads + trace: region-trace generation.  Traces are memoized by
    # the workload, so only a region's first request generates; later
    # requests pass straight through without a span.
    original_region_trace = Workload.region_trace

    @functools.wraps(original_region_trace)
    def region_trace(self, region_index):
        if region_index in generated.get(self, {}):
            return original_region_trace(self, region_index)
        with tracer.span("workloads.region_trace"):
            trace = original_region_trace(self, region_index)
        generated.setdefault(self, {})[region_index] = trace.num_refs
        tracer.count("workloads.regions")
        tracer.count("workloads.accesses", trace.num_refs)
        return trace

    tracer.patch(Workload, "region_trace", region_trace)

    tracer.wrap(common, "get_workload", "workloads.build")

    def workload_refs(workload) -> int:
        return sum(refs_of(workload, i) for i in range(workload.num_regions))

    # profiling
    tracer.wrap(
        FunctionalProfiler, "profile", "profiling.profile",
        after=lambda a, k, r: tracer.count(
            "profiling.accesses", workload_refs(a[0].workload)
        ),
    )
    tracer.wrap(
        FunctionalProfiler, "capture_warmup", "profiling.capture",
        after=lambda a, k, r: tracer.count(
            "profiling.captured_lines",
            sum(d.total_lines for d in r.values()),
        ),
    )

    # core.signatures
    def after_signatures(args, kwargs, result):
        tracer.count("signatures.builds")
        tracer.count_distinct("signatures.builds", _digest(*result))

    tracer.wrap(pipeline, "build_signature_matrix", "signatures.build",
                after=after_signatures)

    # clustering: the fit, and the projection / k-means / BIC it drives
    tracer.wrap(simpoint.SimPointClusterer, "fit", "clustering.fit",
                after=lambda a, k, r: tracer.count("clustering.fits"))
    tracer.wrap(simpoint, "random_projection", "clustering.projection")
    tracer.wrap(simpoint, "weighted_bic", "clustering.bic")

    def after_kmeans(args, kwargs, result):
        tracer.count("clustering.kmeans_calls")
        tracer.count_distinct(
            "clustering.kmeans_calls",
            _digest(*args, *sorted(kwargs.items())),
        )

    tracer.wrap(simpoint, "weighted_kmeans", "clustering.kmeans",
                after=after_kmeans)

    # core.selection and core.reconstruction
    tracer.wrap(
        pipeline, "select_barrierpoints", "selection.select",
        after=lambda a, k, r: tracer.count(
            "selection.barrierpoints", r.num_barrierpoints
        ),
    )
    tracer.wrap(pipeline, "reconstruct_app", "reconstruction.reconstruct")

    # sim + mem
    tracer.wrap(
        Machine, "run_full", "sim.full_run",
        after=lambda a, k, r: tracer.count(
            "sim.full_run_accesses", workload_refs(a[1])
        ),
    )
    tracer.wrap(
        Machine, "simulate_barrierpoint", "sim.barrierpoint",
        after=lambda a, k, r: tracer.count(
            "sim.barrierpoint_accesses", refs_of(a[1], a[2])
        ),
    )
    tracer.wrap(
        MRUWarmup, "prepare", "sim.warmup",
        after=lambda a, k, r: tracer.count(
            "sim.warmup_lines", a[0].data.total_lines
        ),
    )
    tracer.wrap(ColdWarmup, "prepare", "sim.warmup")

    # store
    def after_get(args, kwargs, result):
        store, kind, key = args[:3]
        tracer.count("store.gets")
        if result is not None:
            tracer.count("store.hits")
            tracer.count("store.bytes_read",
                         store.path_for(kind, key).stat().st_size)

    tracer.wrap(ArtifactStore, "get", "store.get", after=after_get)
    tracer.wrap(ArtifactStore, "put", "store.put")

    # experiments: run_experiments, the fan-out and every figure
    tracer.wrap(battery, "run_experiments", "experiments.run")
    tracer.wrap(common.ExperimentRunner, "prefetch", "experiments.prefetch")
    for name, module in battery.EXPERIMENTS.items():
        tracer.wrap(module, "run", f"experiments.figure.{name}")
