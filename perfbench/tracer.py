"""Span tracing of s2alloc's public entry points, installed from outside the library.

Each wrapped entry point records one span per call: its name, start and end
(``perf_counter_ns``) and the index of the enclosing span. Spans are kept in
flat arrays while the run lasts and written out once at the end. A span's self
time is its duration minus the durations of its direct children; calls are
single-threaded, so children never overlap one another.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np


def entry_points(s2):
    """(owner, attribute, span name) for every entry point the trace wraps."""
    core, canary, rng, os_mem = s2.core, s2.canary, s2.rng, s2.os_mem
    model, simulator = s2.model, s2.simulator
    points = [(core.ThreadHeap, attr, f"core.{attr}")
              for attr in ("malloc", "free", "calloc", "realloc", "resolve")]
    points += [(core.Bag, attr, f"core.{attr}")
               for attr in ("ensure_free", "add_subbag", "index_remove", "index_add")]
    points += [
        (core.PagePool, "carve", "core.carve"),
        (canary.KeyedCanary, "batch_tags", "canary.batch_tags"),
        (rng.PcgState, "uniform_below", "rng.uniform_below"),
        (rng.PcgState, "coin", "rng.coin"),
        (os_mem.SimulatedBacking, "reserve", "os_mem.reserve"),
        (os_mem.SimulatedBacking, "protect", "os_mem.protect"),
        (os_mem.SimulatedBacking, "write", "os_mem.write"),
        (model, "rates_for_strategy", "model.rates_for_strategy"),
        (simulator, "rounds_to_reach_detection", "simulator.rounds_to_reach_detection"),
        (simulator, "simulate_strategy", "simulator.simulate_strategy"),
        (simulator, "simulate_allocator_attack", "simulator.simulate_allocator_attack"),
    ]
    return points


class Patches:
    """Attribute replacements that can all be undone at once."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def undo(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.child_ns = array("q")
        self.report_kinds: Counter = Counter()
        self.tags = 0
        self._stack: list[int] = []
        self._patches = Patches()

    def _wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack = self._stack
        name_id, parent, start, end, child_ns = (
            self.name_id, self.parent, self.start, self.end, self.child_ns)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            up = stack[-1] if stack else -1
            name_id.append(nid)
            parent.append(up)
            end.append(0)
            child_ns.append(0)
            stack.append(idx)
            t0 = clock()
            start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                end[idx] = t1
                stack.pop()
                if up >= 0:
                    child_ns[up] += t1 - t0

        return traced

    def install(self, s2) -> None:
        for owner, attr, name in entry_points(s2):
            self._patches.replace(owner, attr, lambda fn, name=name: self._wrap(name, fn))
        kinds = self.report_kinds

        def count_kind(fn):
            def counted(heap, kind, *args, **kwargs):
                kinds[kind.value] += 1
                return fn(heap, kind, *args, **kwargs)
            return counted

        self._patches.replace(s2.core.ThreadHeap, "_report", count_kind)

        def count_tags(fn):
            def counted(engine, addresses):
                tags = fn(engine, addresses)
                self.tags += len(tags) // 16
                return tags
            return counted

        self._patches.replace(s2.canary.KeyedCanary, "batch_tags", count_tags)

    def uninstall(self) -> None:
        self._patches.undo()

    def __len__(self) -> int:
        return len(self.start)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and total self time (ns)."""
        ids = np.frombuffer(self.name_id, dtype=np.uint16) if len(self) else np.zeros(0, np.uint16)
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        own = dur - np.asarray(self.child_ns, dtype=np.int64)
        out = {}
        for nid, name in enumerate(self.names):
            mask = ids == nid
            out[name] = {"calls": int(mask.sum()), "total_ns": float(dur[mask].sum()),
                         "self_ns": float(own[mask].sum())}
        return out

    def write(self, path: Path) -> None:
        """Write every span (name, parent, start, end) as a compressed numpy archive."""
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name_id=np.asarray(self.name_id, dtype=np.uint16),
            parent=np.asarray(self.parent, dtype=np.int32),
            start_ns=np.asarray(self.start, dtype=np.int64),
            end_ns=np.asarray(self.end, dtype=np.int64),
        )
