"""Per-layer spans recorded from outside the program.

The traced run patches each layer's entry point where its caller resolves
the name (a module global imported by name, a class method, or a module
attribute looked up at call time) with a wrapper that records one span:
name, start, end, parent span and operation id.  Spans are kept in memory
and written once at the end in the Chrome-trace format that
``python -m repro.obs summarize`` reads.  Nothing is patched in an
untraced run, so end-to-end figures never pay for the wrappers.

A span's self time is its duration minus the time its child spans cover;
calls are strictly nested (one thread, synchronous calls), so the
coverage is the sum of the children's durations.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

#: layer name -> the (module, attribute) pairs that are that layer's entry
#: points.  ``Class.method`` attributes patch the method on the class.
PATCH_POINTS = {
    "core.spanning_tree.elect": [
        ("repro.core.pa", "elect_leader_and_bfs_tree"),
    ],
    "core.subparts.division": [
        ("repro.core.pa", "build_subpart_division_randomized"),
    ],
    "core.shortcut.build": [
        ("repro.core.pa", "build_shortcut_randomized"),
    ],
    "core.blocks.annotate": [
        ("repro.core.corefast", "annotate_blocks"),
        ("repro.runtime.session", "annotate_blocks"),
    ],
    "core.verify": [
        ("repro.core.corefast", "verify_block_parameters"),
        ("repro.runtime.session", "verify_block_parameters"),
    ],
    # Local solves run the whole wave pass through run_pa_waves; sharded
    # solves plan in-process (plan_pa_waves) and run the waves in workers.
    "core.wave": [
        ("repro.core.pa", "run_pa_waves"),
        ("repro.runtime.session", "plan_pa_waves"),
    ],
    # Engine.run imports run_array_phase from repro.congest.arrays at call
    # time; scalar phases run Engine._run_loop.
    "congest.array_phase": [
        ("repro.congest.arrays", "run_array_phase"),
    ],
    "congest.scalar_phase": [
        ("repro.congest.engine", "Engine._run_loop"),
    ],
    "runtime.session.prepare": [
        ("repro.runtime.session", "PASession.prepare"),
    ],
    "runtime.session.coarsen": [
        ("repro.runtime.session", "PASession.coarsen"),
    ],
    "runtime.session.refine": [
        ("repro.runtime.session", "PASession.refine"),
    ],
    "runtime.session.repair": [
        ("repro.runtime.session", "PASession.apply_edge_updates"),
    ],
    "runtime.session.solve": [
        ("repro.runtime.session", "PASession.solve"),
        ("repro.runtime.session", "PASession.solve_many"),
    ],
    # The workloads call repro.algorithms.minimum_spanning_tree by
    # attribute at call time, so patching the package attribute suffices.
    "algorithms.mst": [
        ("repro.algorithms", "minimum_spanning_tree"),
    ],
    "service.flush": [
        ("repro.service.service", "PAService.flush"),
    ],
    "service.update": [
        ("repro.service.service", "PAService.update_partition"),
        ("repro.service.service", "PAService.update_edges"),
    ],
    "shard.ship": [
        ("repro.shard.orchestrator", "ShardOrchestrator.ship"),
    ],
    "shard.solve": [
        ("repro.shard.orchestrator", "ShardOrchestrator.solve"),
    ],
    "shard.recv": [
        ("repro.shard.orchestrator", "ShardOrchestrator._recv"),
    ],
    "shard.merge": [
        ("repro.shard.orchestrator", "ShardOrchestrator._merge"),
    ],
}

#: Counted but not spanned: the wave dispatch decision.
DISPATCH_POINT = ("repro.core.array_wave", "array_wave_supported")


class Recorder:
    """In-memory span store with a stack of open spans.

    Only the process that created the recorder records: forked shard
    workers inherit the patched functions, and their calls pass through.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.t0 = time.perf_counter()
        #: [name, start, end, parent index, op id, extra]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None
        self.dispatch = {True: 0, False: 0}
        self._undo: List[tuple] = []

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, self.op, None]
        )
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def probe(self) -> float:
        """Traced runs are not host-scaled, so they take no host probes."""
        return 1.0

    # -- patching ------------------------------------------------------
    def _wrap(self, layer: str, fn):
        recorder = self

        def traced(*args, **kwargs):
            if os.getpid() != recorder.pid:
                return fn(*args, **kwargs)
            name = layer
            stack = recorder._stack
            if (
                layer == "shard.recv" and stack
                and recorder.spans[stack[-1]][0] == "shard.solve"
            ):
                name = "shard.barrier_wait"
            idx = recorder._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                recorder._close(idx)
            if layer.startswith("congest."):
                recorder.spans[idx][5] = out.messages
            elif layer == "shard.solve":
                # The slowest shard's wall, as the worker measured it.
                walls = args[0].last_report["shard_wall_seconds"]
                recorder.spans[idx][5] = max(walls)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count_dispatch(self, fn):
        recorder = self

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if os.getpid() == recorder.pid:
                recorder.dispatch[bool(out)] += 1
            return out

        counted.__wrapped__ = fn
        return counted

    def _set(self, module_name: str, attr: str, make) -> None:
        owner = importlib.import_module(module_name)
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part)
        original = owner.__dict__[path[-1]]
        setattr(owner, path[-1], make(original))
        self._undo.append((owner, path[-1], original))

    def install(self) -> None:
        """Patch every layer entry point."""
        for layer, points in PATCH_POINTS.items():
            for module_name, attr in points:
                self._set(
                    module_name, attr,
                    lambda fn, layer=layer: self._wrap(layer, fn),
                )
        self._set(*DISPATCH_POINT, self._count_dispatch)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def layer_table(self, roots=("bench.setup", "bench.op")) -> Dict[str, dict]:
        """Per span name under the given root spans: calls, inclusive and
        self seconds, and the summed extra (messages, slowest shard)."""
        child_time = [0.0] * len(self.spans)
        root_of: List[Optional[str]] = [None] * len(self.spans)
        for idx, (name, start, end, parent, _op, _x) in enumerate(self.spans):
            if parent is None:
                root_of[idx] = name
            else:
                root_of[idx] = root_of[parent]
                child_time[parent] += end - start
        table: Dict[str, dict] = {}
        for idx, (name, start, end, _p, _op, extra) in enumerate(self.spans):
            if root_of[idx] not in roots:
                continue
            row = table.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": 0}
            )
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[idx]
            if extra is not None:
                row["extra"] += extra
        return dict(sorted(table.items()))

    def write_chrome(self, path: str, workload: str) -> None:
        """Write the spans as Chrome-trace complete events."""
        events = []
        for idx, (name, start, end, parent, op, _x) in enumerate(self.spans):
            events.append({
                "ph": "X",
                "name": name,
                "cat": "bench.layer",
                "ts": int((start - self.t0) * 1_000_000),
                "dur": int((end - start) * 1_000_000),
                "pid": 0,
                "tid": 0,
                "args": {"id": idx, "parent": parent, "op": op},
            })
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"schema": "perfbench/1", "workload": workload},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")
