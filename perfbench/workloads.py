"""The benchmark's four workloads, each a closed loop of one client.

Every workload has the same shape:

* ``setup(seed, rec)`` generates the inputs and constructs the session or
  service the operations run on; ``setup_s`` is its wall time.
* ``run_op(state, k, rec)`` runs operation ``k``.  Its inputs derive from
  ``(seed, k)`` only, so a seed fixes every operation's work.  It returns
  an :class:`OpResult` with the client-side latencies, the simulated cost
  and the answers checked against a sequential oracle.
* ``close(state)`` releases the session (and any worker processes).

Which call counts as *cold* and which as *warm* differs per workload; see
DESIGN.md next to this file.  Input generation and oracle checks happen
outside every timed region.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro import PASession, algorithms
from repro.analysis.reference import kruskal_mst
from repro.core import MAX, MIN, SUM
from repro.graphs import Partition, bfs_ball_partition, grid_2d
from repro.graphs.weights import with_distinct_weights
from repro.service import PAService, min_query, sum_query, top_k_query

clock = time.perf_counter


def derive(seed: int, *tags: object) -> int:
    """A 32-bit seed for one input, stable across processes and runs."""
    key = ":".join(str(t) for t in (seed,) + tags)
    return random.Random(key).getrandbits(32)


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now.

    Shared hosts drift between speed levels about 40% apart, for a
    fraction of a second up to minutes at a time.  Probes taken just
    before and just after each timed call let run.py scale the call's
    time by the speed the host had while it ran.
    """
    t0 = clock()
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    return clock() - t0


@dataclass
class OpResult:
    cold_s: List[float] = field(default_factory=list)
    warm_s: List[float] = field(default_factory=list)
    # Mean of the host probes just before and just after each sample.
    cold_probe_s: List[float] = field(default_factory=list)
    warm_probe_s: List[float] = field(default_factory=list)
    busy_s: float = 0.0        # wall inside library calls
    units: int = 0             # throughput units completed
    rounds: int = 0
    messages: int = 0
    attempted: int = 0         # answers and updates checked
    failed: int = 0            # answers that disagree with the oracle


def _fold(partition: Partition, values: Sequence[int], fn) -> Dict[int, object]:
    return {
        pid: fn(values[v] for v in members)
        for pid, members in enumerate(partition.members)
    }


def _top2(values) -> tuple:
    return tuple(sorted(values, reverse=True)[:2])


# ----------------------------------------------------------------------
class MstGrid:
    """``minimum_spanning_tree`` on a distinct-weight grid, fresh session
    per call.

    Cold: ``PASession(reuse=True, batch=True)`` construction plus the MST
    call.  Warm: the MST call alone on the just-built session.
    """

    name = "mst_grid"
    rows, cols = 12, 24
    min_ops = 24
    setup_reps = 41

    def setup(self, seed: int, rec) -> dict:
        with rec.span("graphs.generate"):
            grid = grid_2d(self.rows, self.cols)
            net = with_distinct_weights(grid, seed=derive(seed, "setup"))
        session = PASession(net, seed=derive(seed, "session"),
                            reuse=True, batch=True)
        return {"seed": seed, "grid": grid, "session": session}

    def warm_up(self, state: dict) -> None:
        """One untimed MST call, so lazy imports and kernel set-up are
        paid before timing."""
        session = state["session"]
        algorithms.minimum_spanning_tree(
            session.net, seed=state["seed"], session=session
        )

    def run_op(self, state: dict, k: int, rec) -> OpResult:
        seed = state["seed"]
        with rec.span("graphs.generate"):
            net = with_distinct_weights(state["grid"], seed=derive(seed, k))
        algo_seed = derive(seed, "algo", k)
        before = rec.probe()
        t0 = clock()
        session = PASession(net, seed=algo_seed, reuse=True, batch=True)
        t1 = clock()
        result = algorithms.minimum_spanning_tree(
            net, seed=algo_seed, session=session
        )
        t2 = clock()
        host = (before + rec.probe()) / 2
        state.setdefault("sessions", []).append(session.stats)
        out = OpResult(cold_s=[t2 - t0], warm_s=[t2 - t1],
                       cold_probe_s=[host], warm_probe_s=[host],
                       busy_s=t2 - t0,
                       units=1, rounds=result.ledger.rounds,
                       messages=result.ledger.messages, attempted=1)
        if set(result.output) != kruskal_mst(net):
            out.failed = 1
        return out

    def session_stats(self, state: dict) -> list:
        return state.get("sessions", [])

    def close(self, state: dict) -> None:
        state["session"].close()


# ----------------------------------------------------------------------
class PaLarge:
    """One-shot PA on a ~100k-node grid with sqrt(n)-node BFS-ball parts.

    Cold: ``prepare`` on a fresh partition plus the first (MIN) solve,
    which charges the setup.  Warm: each SUM and MAX solve on that setup.
    """

    name = "pa_large"
    side = 316
    min_ops = 4
    setup_reps = 3
    session_kwargs: dict = {}

    def setup(self, seed: int, rec) -> dict:
        with rec.span("graphs.generate"):
            net = grid_2d(self.side, self.side)
        session = PASession(net, seed=derive(seed, "session"),
                            **self.session_kwargs)
        return {"seed": seed, "net": net, "session": session, "ops": {}}

    def warm_up(self, state: dict) -> None:
        """Nothing to warm: one operation runs for seconds."""

    def inputs(self, state: dict, k: int, rec):
        net = state["net"]
        with rec.span("graphs.generate"):
            partition = bfs_ball_partition(
                net, math.isqrt(net.n), seed=derive(state["seed"], "part", k)
            )
            rng = random.Random(derive(state["seed"], "values", k))
            values = [rng.randrange(1 << 20) for _ in range(net.n)]
        return partition, values

    def solve_op(self, session: PASession, partition, values, rec) -> tuple:
        """prepare + MIN (cold), then SUM and MAX (warm); returns the
        three results, the latencies and the host probe around each."""
        probes = [rec.probe()]
        t0 = clock()
        setup = session.prepare(partition)
        first = session.solve(setup, values, MIN)
        t1 = clock()
        probes.append(rec.probe())
        t2 = clock()
        summed = session.solve(setup, values, SUM, charge_setup=False)
        t3 = clock()
        probes.append(rec.probe())
        t4 = clock()
        biggest = session.solve(setup, values, MAX, charge_setup=False)
        t5 = clock()
        probes.append(rec.probe())
        hosts = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
        return (first, summed, biggest), (t1 - t0, t3 - t2, t5 - t4), hosts

    def run_op(self, state: dict, k: int, rec) -> OpResult:
        partition, values = self.inputs(state, k, rec)
        results, (cold, warm1, warm2), hosts = self.solve_op(
            state["session"], partition, values, rec
        )
        out = OpResult(cold_s=[cold], warm_s=[warm1, warm2],
                       cold_probe_s=hosts[:1], warm_probe_s=hosts[1:],
                       busy_s=cold + warm1 + warm2, units=1, attempted=3)
        for result, fn in zip(results, (min, sum, max)):
            out.rounds += result.rounds
            out.messages += result.messages
            if result.aggregates != _fold(partition, values, fn):
                out.failed += 1
        if k == 0:
            state["ops"][0] = [
                (r.rounds, r.messages, r.aggregates) for r in results
            ]
        return out

    def session_stats(self, state: dict) -> list:
        return [state["session"].stats]

    def close(self, state: dict) -> None:
        state["session"].close()


class PaLargeSharded(PaLarge):
    """``pa_large``'s inputs and operations on the sharded backend with
    two forked workers.

    After measuring, operation 0 is replayed on a local session built the
    same way; its rounds, messages and answers must match bit for bit.
    """

    name = "pa_large_sharded"
    session_kwargs = {"backend": "sharded", "workers": 2}

    def parity_check(self, state: dict) -> int:
        """Replay op 0 locally; returns the number of mismatching solves."""
        twin = PASession(state["net"], seed=derive(state["seed"], "session"))
        partition, values = self.inputs(state, 0, NO_SPANS)
        results, _, _ = self.solve_op(twin, partition, values, NO_SPANS)
        expected = [(r.rounds, r.messages, r.aggregates) for r in results]
        return sum(a != b for a, b in zip(expected, state["ops"][0]))


# ----------------------------------------------------------------------
class ServiceChurn:
    """``PAService(max_batch=4, max_entries=2)`` on a sensor grid, three
    tenants, with partition and edge churn between query waves.

    One operation is one wave of four queries (min, sum, top-2, min),
    answered by the auto-flush on the fourth submit.  Every second wave is
    followed by one churn step: undo the previous step (delete its chord,
    restore the base clustering), then add a new chord and split one
    cluster or merge all of them.  Cold: one churn step.  Warm: one query,
    submit to answer.
    """

    name = "service_churn"
    rows, cols = 16, 24
    tile = 4                    # 4x4-node clusters: 24 of them
    min_ops = 400
    setup_reps = 41
    #: Partition derivations of successive churn steps.  Two splits to one
    #: merge keeps the median step inside the split steps' distribution.
    DERIVATIONS = ("split", "split", "merge")

    def setup(self, seed: int, rec) -> dict:
        with rec.span("graphs.generate"):
            grid = grid_2d(self.rows, self.cols)
            tiles_per_row = self.cols // self.tile
            base = Partition([
                (v // self.cols // self.tile) * tiles_per_row
                + (v % self.cols) // self.tile
                for v in range(grid.n)
            ])
        # A two-entry setup cache (the pinned base plus the latest
        # derivation) makes every split and merge a real derivation rather
        # than a hit on an earlier identical one.
        service = PAService(grid, base, seed=derive(seed, "session"),
                            max_batch=4, max_entries=2)
        return {"seed": seed, "grid": grid, "base": base, "service": service,
                "current": base, "chord": None,
                "splits": derive(seed, "split") % base.num_parts}

    def warm_up(self, state: dict) -> None:
        """Twenty untimed waves on a throwaway service, so lazy imports
        and kernel set-up are paid before timing."""
        scratch = self.setup(state["seed"] + 1, NO_SPANS)
        for k in range(20):
            self.run_op(scratch, k, NO_SPANS)
        self.close(scratch)

    def _split(self, state: dict) -> Partition:
        """Peel the last BFS node (over grid edges) off a rotating cluster,
        so both halves stay connected whatever chords come and go."""
        base, grid = state["base"], state["grid"]
        pid = state["splits"] % base.num_parts
        state["splits"] += 1
        members = set(base.members[pid])
        start = min(members)
        order, seen = [start], {start}
        for u in order:
            for nb in grid.neighbors[u]:
                if nb in members and nb not in seen:
                    seen.add(nb)
                    order.append(nb)
        part_of = list(base.part_of)
        part_of[order[-1]] = base.num_parts
        return Partition(part_of)

    def _chord(self, state: dict, rng: random.Random) -> tuple:
        net = state["service"].net
        while True:
            u, v = rng.sample(range(net.n), 2)
            if not net.has_edge(u, v):
                return (min(u, v), max(u, v))

    def _churn(self, state: dict, step: int, rng: random.Random) -> None:
        """One churn step: undo the previous one, then apply a new one.

        Added chords never join the BFS tree, so deleting one is always a
        tree-preserving repair.
        """
        svc = state["service"]
        if state["chord"] is not None:
            svc.update_edges(remove=[state["chord"]])
        if state["current"] is not state["base"]:
            svc.update_partition(state["base"])
        state["chord"] = self._chord(state, rng)
        svc.update_edges(add=[state["chord"]])
        kind = self.DERIVATIONS[step % len(self.DERIVATIONS)]
        if kind == "split":
            target = self._split(state)
        else:
            target = Partition([0] * svc.net.n)
        svc.update_partition(target)
        state["current"] = target

    def run_op(self, state: dict, k: int, rec) -> OpResult:
        svc = state["service"]
        rng = random.Random(derive(state["seed"], k))
        n = svc.net.n
        with rec.span("graphs.generate"):
            readings = [rng.randint(0, 500) for _ in range(n)]
            shifted = [r + 1 for r in readings]
            wave = [
                ("ops", min_query(readings)),
                ("billing", sum_query(readings)),
                ("science", top_k_query(readings, 2)),
                ("ops", min_query(shifted)),
            ]
        before = (svc.ledger.rounds, svc.ledger.messages)
        out = OpResult()
        starts, ids = [], []
        probe0 = rec.probe()
        for tenant, query in wave:
            starts.append(clock())
            ids.append(svc.submit(tenant, query))
        end = clock()
        probe1 = rec.probe()
        out.warm_s = [end - s for s in starts]
        out.warm_probe_s = [(probe0 + probe1) / 2] * len(wave)
        out.busy_s = end - starts[0]
        out.units = len(wave)

        partition = state["current"]
        expected = [
            _fold(partition, readings, min),
            _fold(partition, readings, sum),
            _fold(partition, readings, _top2),
            _fold(partition, shifted, min),
        ]
        for qid, want in zip(ids, expected):
            out.attempted += 1
            if svc.result(qid).aggregates != want:
                out.failed += 1

        if k % 2:
            t0 = clock()
            self._churn(state, k // 2, rng)
            t1 = clock()
            out.cold_s.append(t1 - t0)
            out.cold_probe_s.append((probe1 + rec.probe()) / 2)
            out.busy_s += t1 - t0
            out.attempted += 1

        out.rounds = svc.ledger.rounds - before[0]
        out.messages = svc.ledger.messages - before[1]
        return out

    def session_stats(self, state: dict) -> list:
        return [state["service"].session.stats]

    def close(self, state: dict) -> None:
        state["service"].close()


class _NoSpans:
    """Recorder stand-in for untraced code paths."""

    def span(self, name: str):
        return nullcontext()

    def probe(self) -> float:
        return host_probe()


NO_SPANS = _NoSpans()

WORKLOADS = {
    w.name: w
    for w in (MstGrid(), PaLarge(), PaLargeSharded(), ServiceChurn())
}
