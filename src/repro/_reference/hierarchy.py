"""Seed memory hierarchy, kept as a parity/benchmark reference.

Subclasses the fast :class:`~repro.mem.hierarchy.MemoryHierarchy` but
builds list-based reference caches and overrides the hot paths with the
seed implementations: the per-access loop probes/promotes through list
scans, ``_l3_fill`` is an out-of-line call per L3 miss, and ``replay``
allocates two numpy arrays per replayed line.  Pass it as
``hierarchy_factory`` to :class:`~repro.sim.machine.Machine` to run whole
simulations on the seed engine.
"""

from __future__ import annotations

import numpy as np

from repro._reference.cache import ReferenceSetAssocCache
from repro.errors import SimulationError
from repro.mem.hierarchy import _STORE_STALL_FRACTION, MemoryHierarchy


class ReferenceMemoryHierarchy(MemoryHierarchy):
    """Caches + directory + DRAM, seed (pre-optimization) hot paths."""

    cache_cls = ReferenceSetAssocCache

    def _l3_fill(self, socket: int, line: int) -> None:
        """Fill ``line`` into a socket's L3, handling inclusive eviction."""
        victim = self.l3[socket].fill(line)
        if victim is None:
            return
        vline = victim.line
        dir_sharers = self.directory._sharers
        dir_owner = self.directory._owner
        owner = dir_owner.get(vline, -1)
        if owner >= 0 and self._socket_of[owner] == socket:
            self.dram.writeback(socket)
            self._writebacks += 1
            del dir_owner[vline]
        # Inclusion: purge the victim from this socket's private caches.
        mask = dir_sharers.get(vline, 0)
        if mask:
            local = mask & self._socket_mask[socket]
            core = 0
            while local:
                if local & 1:
                    self.l1d[core].remove(vline)
                    self.l2[core].remove(vline)
                local >>= 1
                core += 1
            rest = mask & ~self._socket_mask[socket]
            if rest:
                dir_sharers[vline] = rest
            else:
                del dir_sharers[vline]

    def _invalidate_remote(self, line: int, mask: int, my_socket: int) -> bool:
        """Remove ``line`` from all cores in ``mask``; True if any was remote."""
        remote = False
        core = 0
        while mask:
            if mask & 1:
                self.l1d[core].remove(line)
                self.l2[core].remove(line)
                if self._socket_of[core] != my_socket:
                    remote = True
            mask >>= 1
            core += 1
        return remote

    def access_block(self, core, lines, writes, mlp: float) -> float:
        """Seed per-access loop; see the fast implementation for semantics."""
        if mlp < 1.0:
            raise SimulationError(f"mlp must be >= 1, got {mlp}")
        socket = self._socket_of[core]
        l1 = self.l1d[core]
        l2 = self.l2[core]
        l3 = self.l3[socket]
        l1_sets = l1._sets
        l1_mask = l1._set_mask
        l1_assoc = l1._assoc
        l2_sets = l2._sets
        l2_mask = l2._set_mask
        l2_assoc = l2._assoc
        l2_lat = l2.config.latency_cycles
        l3_lat = l3.config.latency_cycles
        dram_lat = self.dram.latency_cycles
        remote_lat = l3_lat + self.machine.remote_socket_extra_cycles
        directory = self.directory
        dir_sharers = directory._sharers
        dir_owner = directory._owner
        dir_stats = directory.stats
        my_bit = 1 << core
        num_sockets = self.machine.num_sockets
        dram_reads = self.dram.stats.reads_per_socket

        loads = stores = l1d_misses = l2_misses = c2c = 0
        stall = 0.0

        if type(lines) is not list:
            lines = lines.tolist()
        if type(writes) is not list:
            writes = writes.tolist()
        for line, w in zip(lines, writes):
            extra = 0
            if w:
                stores += 1
                prev_owner = dir_owner.get(line, -1)
                if prev_owner != core:
                    mask = dir_sharers.get(line, 0) & ~my_bit
                    if mask or prev_owner >= 0:
                        if mask:
                            dir_stats.invalidations_sent += bin(mask).count("1")
                            remote = self._invalidate_remote(line, mask, socket)
                        else:
                            remote = False
                        if prev_owner >= 0:
                            # Remote M copy: transfer + writeback on downgrade.
                            self.dram.writeback(self._socket_of[prev_owner])
                            self._writebacks += 1
                            remote = remote or self._socket_of[prev_owner] != socket
                            c2c += 1
                        if num_sockets > 1:
                            l3s = self.l3
                            for s in range(num_sockets):
                                if s != socket:
                                    l3s[s].remove(line)
                        extra = remote_lat if remote else l3_lat
                    dir_sharers[line] = my_bit
                    dir_owner[line] = core
            else:
                loads += 1

            # L1D probe.
            s = l1_sets[line & l1_mask]
            if line in s:
                s.remove(line)
                s.append(line)
                l1.stats.hits += 1
                if w and extra:
                    stall += extra * _STORE_STALL_FRACTION
                continue
            l1.stats.misses += 1
            l1d_misses += 1

            # L2 probe.
            s2 = l2_sets[line & l2_mask]
            if line in s2:
                s2.remove(line)
                s2.append(line)
                l2.stats.hits += 1
                extra += l2_lat
            else:
                l2.stats.misses += 1
                l2_misses += 1
                # L3 probe.
                if l3.lookup(line):
                    extra += l3_lat
                else:
                    owner = dir_owner.get(line, -1)
                    if owner >= 0 and owner != core:
                        # Dirty in a remote private hierarchy: cache-to-cache
                        # transfer plus MSI downgrade writeback.
                        extra += (
                            remote_lat
                            if self._socket_of[owner] != socket
                            else l3_lat + l2_lat
                        )
                        if not w:
                            del dir_owner[line]
                            dir_stats.downgrades += 1
                            self.dram.writeback(self._socket_of[owner])
                            self._writebacks += 1
                        dir_stats.cache_to_cache += 1
                        c2c += 1
                    else:
                        extra += dram_lat
                        dram_reads[socket] += 1
                    self._l3_fill(socket, line)
                # Fill L2.
                if len(s2) >= l2_assoc:
                    s2.pop(0)
                    l2.stats.evictions += 1
                s2.append(line)

            # Fill L1.
            if len(s) >= l1_assoc:
                s.pop(0)
                l1.stats.evictions += 1
            s.append(line)

            if not w:
                dir_sharers[line] = dir_sharers.get(line, 0) | my_bit
                prev_owner = dir_owner.get(line, -1)
                if prev_owner >= 0 and prev_owner != core:
                    del dir_owner[line]
                    dir_stats.downgrades += 1
                stall += extra
            else:
                stall += extra * _STORE_STALL_FRACTION

        self._loads += loads
        self._stores += stores
        self._l1d_misses += l1d_misses
        self._l2_misses += l2_misses
        self._c2c += c2c
        return stall / mlp

    def access_code(self, core: int, code_lines: tuple[int, ...]) -> int:
        """Instruction-fetch touch of a block's code lines; returns stalls."""
        l1i = self.l1i[core]
        extra = 0
        for line in code_lines:
            if not l1i.lookup(line):
                self._l1i_misses += 1
                l1i.fill(line)
                extra += self.l2[core].config.latency_cycles
        return extra

    def replay(self, core: int, line: int, was_write: bool) -> None:
        """Seed warmup replay: two fresh numpy arrays per replayed line."""
        self.access_block(
            core,
            np.array([line], dtype=np.int64),
            np.array([was_write], dtype=bool),
            mlp=1.0,
        )

    def replay_stream(self, cores, lines, writes) -> None:
        """Per-line seed replay (the one-pass stream path's oracle)."""
        for core, line, was_write in zip(cores, lines, writes):
            self.replay(int(core), line, was_write)
