"""Tests for warmup strategies: cold flush and MRU replay."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import TopologyConfig
from repro.errors import SimulationError
from repro.mem.backends import HIERARCHY_BACKENDS, hierarchy_backend
from repro.mem.hierarchy import MemoryHierarchy
from repro.sim.warmup import ColdWarmup, MRUWarmup, MRUWarmupData
from tests.conftest import tiny_machine


def _data(region=3, per_core=((), (), (), ())):
    return MRUWarmupData(region_index=region, per_core=per_core)


class TestColdWarmup:
    def test_flushes_state(self):
        h = MemoryHierarchy(tiny_machine())
        h.access(0, 99, True)
        ColdWarmup().prepare(h, 0)
        assert not h.l1d[0].contains(99)
        assert h.directory.owner(99) == -1


class TestMRUWarmupData:
    def test_total_lines(self):
        data = _data(per_core=(((1, False), (2, True)), ((3, False),), (), ()))
        assert data.total_lines == 3


class TestMRUWarmup:
    def test_replays_into_caches(self):
        h = MemoryHierarchy(tiny_machine())
        data = _data(per_core=(
            ((10, False), (11, True)), (), (), (),
        ))
        MRUWarmup(data).prepare(h, 3)
        assert h.l1d[0].contains(10)
        assert h.l1d[0].contains(11)
        assert h.directory.owner(11) == 0   # write replayed as write
        assert h.directory.owner(10) == -1

    def test_region_mismatch_rejected(self):
        h = MemoryHierarchy(tiny_machine())
        with pytest.raises(SimulationError):
            MRUWarmup(_data(region=3)).prepare(h, 4)

    def test_too_many_cores_rejected(self):
        h = MemoryHierarchy(tiny_machine())  # 4 cores
        data = _data(per_core=tuple(((1, False),) for _ in range(5)))
        with pytest.raises(SimulationError):
            MRUWarmup(data).prepare(h, 3)

    def test_flushes_before_replay(self):
        h = MemoryHierarchy(tiny_machine())
        h.access(0, 777, False)
        MRUWarmup(_data(per_core=(((1, False),), (), (), ()))).prepare(h, 3)
        assert not h.l1d[0].contains(777)

    def test_recency_order_preserved(self):
        """The last captured line must end up MRU (survive pressure)."""
        machine = tiny_machine()
        h = MemoryHierarchy(machine)
        capacity = machine.l1d.num_lines
        stream = tuple((i, False) for i in range(0, 4 * capacity * machine.l1d.associativity, 1))
        data = _data(per_core=(stream, (), (), ()))
        MRUWarmup(data).prepare(h, 3)
        last_line = stream[-1][0]
        assert h.l1d[0].contains(last_line)

    def test_old_writes_replayed_clean(self):
        """Entries beyond the LRU dirty window lose M state (their
        writeback already happened before the checkpoint)."""
        machine = tiny_machine()
        h = MemoryHierarchy(machine)
        window = machine.l3.num_lines // machine.cores_per_socket
        n = window + 50
        stream = tuple((i, True) for i in range(n))
        data = _data(per_core=(stream, (), (), ()))
        MRUWarmup(data).prepare(h, 3)
        assert h.directory.owner(0) == -1       # ancient write: clean
        assert h.directory.owner(n - 1) == 0    # recent write: still M

    def test_dirty_window_counts_active_threads_not_cores(self):
        """Regression: a capture with fewer streams than cores-per-socket
        must size the dirty window by the *active thread* count — the LLC
        was shared by that many writers — not by the machine's full
        cores-per-socket, which replayed recent writes as clean."""
        machine = tiny_machine()  # 4 cores/socket, 512-line L3
        llc = machine.l3.num_lines
        correct_window = llc // 2       # 2 active threads
        wrong_window = llc // machine.cores_per_socket
        assert correct_window > wrong_window
        # Two streams of `correct_window` distinct written lines each;
        # disjoint line ranges spread evenly over L3 sets, so the 512
        # lines exactly fill the L3 and nothing is evicted during replay.
        streams = (
            tuple((i, True) for i in range(correct_window)),
            tuple((1000 + i, True) for i in range(correct_window)),
        )
        h = MemoryHierarchy(machine)
        MRUWarmup(_data(per_core=streams)).prepare(h, 3)
        dirty = [
            line
            for lines in ((s[0] for s in st) for st in streams)
            for line in lines
            if h.directory.owner(line) >= 0
        ]
        # Every captured write is inside the two-sharer window, so every
        # line must replay dirty; the old cores-per-socket window dropped
        # M state from the first half of each stream.
        assert len(dirty) == 2 * correct_window

    def test_dirty_window_full_sockets_share_per_socket(self):
        """With every core active, the window is the per-socket share
        ``llc / cores_per_socket`` — stream counts on *other* sockets
        must not shrink it (a machine-wide 8-sharer window would)."""
        machine = tiny_machine(num_sockets=2)  # 8 cores, 4 per socket
        llc = machine.l3.num_lines
        window = llc // machine.cores_per_socket  # 4 writers per socket
        # Four streams per socket of exactly `window` written lines: the
        # socket L3 fills exactly (no evictions), and with the per-socket
        # window every entry is recent enough to stay dirty.  A
        # machine-wide 8-sharer window would replay each stream's older
        # half clean.
        n = window
        streams = tuple(
            tuple((core * 10_000 + i, True) for i in range(n))
            for core in range(8)
        )
        h = MemoryHierarchy(machine)
        MRUWarmup(_data(per_core=streams)).prepare(h, 3)
        for core in range(8):
            assert h.directory.owner(core * 10_000) == core
            assert h.directory.owner(core * 10_000 + n - 1) == core

    def test_dirty_window_is_per_socket(self):
        """A half-populated socket keeps its wider per-writer share: the
        window divides each socket's LLC by the streams mapped to *that*
        socket, not by a machine-wide stream count."""
        machine = tiny_machine(num_sockets=2)  # 4 cores/socket, 512-line L3s
        llc = machine.l3.num_lines
        # Six active streams: cores 0-3 fill socket 0 (4 writers), cores
        # 4-5 leave socket 1 half-populated (2 writers -> window llc/2).
        n1 = llc // 2
        streams = tuple(
            tuple((core * 10_000 + i, True) for i in range(
                llc // 4 if core < 4 else n1
            ))
            for core in range(6)
        )
        h = MemoryHierarchy(machine)
        MRUWarmup(_data(per_core=streams)).prepare(h, 3)
        # Socket 1's two streams fill its L3 exactly; with the per-socket
        # window every write is recent enough to stay dirty.  A
        # machine-wide 6-stream (clamped to 4) window would have replayed
        # each stream's older half clean.
        for core in (4, 5):
            assert h.directory.owner(core * 10_000) == core
            assert h.directory.owner(core * 10_000 + n1 - 1) == core

    def test_prefetch_suppressed_during_replay(self):
        """Replay is checkpoint reconstruction: a prefetching backend
        must install exactly the captured lines, not speculative
        neighbors that would evict captured state."""
        from repro.mem import NextLinePrefetchHierarchy

        h = NextLinePrefetchHierarchy(tiny_machine())
        data = _data(per_core=(((10, False), (20, True)), (), (), ()))
        MRUWarmup(data).prepare(h, 3)
        assert h.l1d[0].contains(10) and h.l1d[0].contains(20)
        assert not h.l2[0].contains(11)  # no next-line speculation
        assert not h.l2[0].contains(21)
        assert h.snapshot().prefetches == 0
        # The demand path prefetches again after replay.
        h.access(0, 100, False)
        assert h.l2[0].contains(101)
        assert h.snapshot().prefetches == 1

    def test_multi_core_round_robin(self):
        h = MemoryHierarchy(tiny_machine())
        data = _data(per_core=(
            ((1, False),), ((2, False),), ((3, False),), ((4, False),),
        ))
        MRUWarmup(data).prepare(h, 3)
        for core, line in enumerate((1, 2, 3, 4)):
            assert h.l1d[core].contains(line)


def _grouped_interleave(hierarchy, per_core):
    """Loop oracle for ``prepare``: cursor-major round-robin with the
    per-socket dirty window, replayed entry by entry."""
    machine = hierarchy.machine
    llc_lines = machine.l3.num_lines
    hierarchy.flush_all()
    streams_per_socket = [0] * machine.num_sockets
    for stream_index in range(len(per_core)):
        streams_per_socket[machine.socket_of(stream_index)] += 1
    streams = []
    for stream_index, core_data in enumerate(per_core):
        sharers = max(1, streams_per_socket[machine.socket_of(stream_index)])
        clean_until = len(core_data) - max(1, llc_lines // sharers)
        streams.append([
            (line, was_write if i >= clean_until else False)
            for i, (line, was_write) in enumerate(core_data)
        ])
    rounds = max((len(s) for s in streams), default=0)
    for cursor in range(rounds):
        for core, entries in enumerate(streams):
            if cursor < len(entries):
                hierarchy.replay(core, *entries[cursor])


def _state(h):
    caches = tuple(
        (c.resident_lines(), vars(c.stats))
        for c in (*h.l1i, *h.l1d, *h.l2, *h.l3)
    )
    d = h.directory
    return (caches, d._sharers, d._owner, vars(d.stats),
            h.snapshot().to_state())


def _ragged_capture(seed, lengths):
    rng = np.random.default_rng(seed)
    return tuple(
        tuple(
            (int(line), bool(w))
            for line, w in zip(rng.integers(-600, 2400, size=n),
                               rng.random(n) < 0.4)
        )
        for n in lengths
    )


class TestInterleavedStream:
    """``prepare`` builds the round-robin order in one vectorised pass."""

    @pytest.mark.parametrize("backend", sorted(HIERARCHY_BACKENDS))
    @pytest.mark.parametrize("lengths", [
        (0, 0, 0, 0),                 # all-empty capture (region 0)
        (40, 0, 7, 0),                # empty streams in between
        (5, 900, 3, 12),              # one stream longer than the rest
        (300, 300, 0, 0, 10, 0, 700),  # ragged over two sockets
    ])
    def test_matches_grouped_interleave(self, backend, lengths):
        machine = replace(tiny_machine(num_sockets=2), hierarchy=backend)
        if backend == "complex":
            machine = replace(machine, topology=TopologyConfig(
                cores_per_complex=(2, 2), cross_complex_extra_cycles=12))
        per_core = _ragged_capture(len(lengths) * 7 + sum(lengths), lengths)
        stream = hierarchy_backend(backend)(machine)
        oracle = hierarchy_backend(backend)(machine)
        # Both start from the same dirty state, which prepare must flush.
        for h in (stream, oracle):
            h.access_block(1, np.arange(64), np.ones(64, dtype=bool), 1.0)
        MRUWarmup(_data(per_core=per_core)).prepare(stream, 3)
        _grouped_interleave(oracle, per_core)
        assert _state(stream) == _state(oracle)

    def test_one_replay_stream_call_per_barrierpoint(self):
        h = MemoryHierarchy(tiny_machine())
        calls = []
        replay_stream = h.replay_stream

        def counting(cores, lines, writes):
            calls.append(len(lines))
            replay_stream(cores, lines, writes)

        h.replay_stream = counting
        for lengths in ((0, 0, 0, 0), (3, 1, 0, 2), (50, 50, 50, 50)):
            calls.clear()
            per_core = _ragged_capture(5, lengths)
            MRUWarmup(_data(per_core=per_core)).prepare(h, 3)
            assert calls == [sum(lengths)]
