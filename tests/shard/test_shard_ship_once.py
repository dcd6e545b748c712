"""A setup ships to the workers once, whichever copy of it is solved.

A session cache hit hands out a fresh ``PASetup`` copy (empty setup
ledger, shared structures) on every call.  The orchestrator must serve
every copy from the one shipped record — one ``load`` per worker, one
rank-0 pin — and releasing the cached setup must drop that record.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro import PASession
from repro.core import SUM
from repro.graphs import grid_2d, random_connected_partition
from repro.shard import orchestrator as orchestrator_module

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded backend requires the fork start method",
)


def test_cache_hit_copies_ship_once_and_release_together(monkeypatch):
    plans = []
    real_plan = orchestrator_module.build_shard_plan

    def counting_plan(setup, workers):
        plans.append(setup)
        return real_plan(setup, workers)

    monkeypatch.setattr(orchestrator_module, "build_shard_plan", counting_plan)

    net = grid_2d(20, 20)
    partition = random_connected_partition(net, 12, seed=4)
    values = list(range(net.n))
    session = PASession(
        net, seed=1, reuse=True, backend="sharded", workers=2, shard_min_n=1,
    )
    try:
        answers = []
        for _ in range(5):
            setup = session.prepare(partition)
            answers.append(session.solve(setup, values, SUM).aggregates)
        assert session.stats.cache_hits == 4
        assert session.stats.sharded_solves == 5
        assert all(answer == answers[0] for answer in answers)
        orch = session._orchestrator
        assert len(plans) == 1
        assert len(orch._shipped) == 1

        session.clear_cache()
        assert len(orch._shipped) == 0
    finally:
        session.close()
