"""The array-vs-scalar PA wave dispatch: crossover, reasons, forcing.

``array_wave_supported`` is the one place a wave pass picks the array
kernels or the scalar programs.  These tests pin the size crossover at
its boundary, the fallback reason each plan records (and the trace span
that carries it), the per-value int64 bound for MIN/MAX, and the
``force_array_waves`` switch the parity suites rely on.
"""

from __future__ import annotations

import re

import pytest

from repro import PASession
from repro.algorithms import minimum_spanning_tree
from repro.congest import Engine
from repro.core import MAX, MIN, MIN_TUPLE, OR, SUM, solve_pa
from repro.core import array_wave
from repro.core.array_wave import (
    array_wave_supported,
    force_array_waves,
    wave_fallback_reason,
)
from repro.core.wave import WavePlan
from repro.graphs import (
    bfs_ball_partition,
    grid_2d,
    path_graph,
    random_connected,
    random_connected_partition,
    with_distinct_weights,
)
from repro.obs import Tracer, use_tracer
from repro.shard.views import restrict_plan

CROSSOVER = array_wave.ARRAY_WAVE_MIN_N


def _engine(n, use_arrays=True):
    return Engine(path_graph(n), use_arrays=use_arrays)


def _ints(n):
    return list(range(n))


TOKENS = {0: 5, 1: 9}


# ----------------------------------------------------------------------
# The gate at its boundary
# ----------------------------------------------------------------------
def test_gate_is_false_just_below_the_crossover():
    engine = _engine(CROSSOVER - 1)
    values = _ints(CROSSOVER - 1)
    assert array_wave_supported(engine, values, SUM, TOKENS) is False
    assert wave_fallback_reason(engine, values, SUM, TOKENS) == (
        "below_crossover"
    )


def test_gate_is_true_at_the_crossover():
    engine = _engine(CROSSOVER)
    values = _ints(CROSSOVER)
    for agg in (SUM, MIN, MAX):
        assert array_wave_supported(engine, values, agg, TOKENS) is True
        assert wave_fallback_reason(engine, values, agg, TOKENS) is None


@pytest.mark.parametrize("n", [CROSSOVER, 4 * CROSSOVER])
def test_gate_stays_false_on_a_scalar_engine(n):
    engine = _engine(n, use_arrays=False)
    assert array_wave_supported(engine, _ints(n), SUM, TOKENS) is False
    assert wave_fallback_reason(engine, _ints(n), SUM, TOKENS) == (
        "scalar_engine"
    )


@pytest.mark.parametrize("n", [CROSSOVER - 1, CROSSOVER, 4 * CROSSOVER])
@pytest.mark.parametrize("agg", [MIN_TUPLE, SUM], ids=["min_tuple", "sum"])
def test_gate_stays_false_for_tuple_payloads(n, agg):
    engine = _engine(n)
    values = [(v % 7, v) for v in range(n)]
    assert array_wave_supported(engine, values, agg, TOKENS) is False
    assert wave_fallback_reason(engine, values, agg, TOKENS) == "payload"
    with force_array_waves():
        assert array_wave_supported(engine, values, agg, TOKENS) is False


def test_other_reasons_are_named():
    n = CROSSOVER
    engine = _engine(n)
    assert wave_fallback_reason(engine, _ints(n), OR, TOKENS) == "aggregation"
    assert wave_fallback_reason(
        engine, _ints(n), SUM, {0: (1, 2)}
    ) == "token"
    assert wave_fallback_reason(
        engine, _ints(n), SUM, {0: 1 << 62}
    ) == "token"
    assert wave_fallback_reason(
        engine, [1 << 61, 1 << 61] + [None] * (n - 2), SUM, TOKENS
    ) == "int64_range"
    assert wave_fallback_reason(
        engine, [-(1 << 62)] + [None] * (n - 1), MIN, TOKENS
    ) == "int64_range"


def test_force_sets_the_crossover_to_zero_and_restores_it():
    engine = _engine(8)
    assert not array_wave_supported(engine, _ints(8), SUM, TOKENS)
    with force_array_waves():
        assert array_wave.ARRAY_WAVE_MIN_N == 0
        assert array_wave_supported(engine, _ints(8), SUM, TOKENS)
    assert array_wave.ARRAY_WAVE_MIN_N == CROSSOVER
    with pytest.raises(RuntimeError):
        with force_array_waves():
            raise RuntimeError("restored on the way out")
    assert array_wave.ARRAY_WAVE_MIN_N == CROSSOVER


# ----------------------------------------------------------------------
# MIN/MAX bound each value, not the sum of magnitudes
# ----------------------------------------------------------------------
def _phase_log(ledger):
    return [
        (p.name, p.rounds, p.messages, p.ticks, p.bits)
        for p in ledger.phases()
    ]


def _wave_spans(tracer):
    return {
        e["name"]: e["args"]
        for e in tracer.events
        if e.get("cat") == "engine.phase" and e["name"].startswith("pa_")
    }


@pytest.fixture(scope="module")
def big_grid():
    net = grid_2d(28, 28, uid_seed=4)
    assert net.n >= CROSSOVER
    partition = bfs_ball_partition(net, 28, seed=2)
    # ~2**53 per node: every value fits int64, their magnitudes do not sum
    # below 2**62 — the bound SUM needs and MIN/MAX do not.
    values = [(1 << 53) - 977 * v for v in range(net.n)]
    assert sum(abs(v) for v in values) >= 1 << 62
    return net, partition, values


@pytest.mark.parametrize("agg", [MIN, MAX], ids=["min", "max"])
def test_large_min_max_values_dispatch_to_array(big_grid, agg):
    net, partition, values = big_grid
    tracer = Tracer()
    with use_tracer(tracer):
        ar = solve_pa(net, partition, values, agg, seed=5,
                      engine_impl="array")
    sc = solve_pa(net, partition, values, agg, seed=5, engine_impl="scalar")
    spans = _wave_spans(tracer)
    for phase in ("pa_wave", "pa_reverse", "pa_replay"):
        assert spans[phase]["impl"] == "array"
    assert dict(ar.aggregates) == dict(sc.aggregates)
    assert list(ar.value_at_node) == list(sc.value_at_node)
    assert _phase_log(ar.ledger) == _phase_log(sc.ledger)


def test_large_values_still_fall_back_for_sum(big_grid):
    net, _partition, values = big_grid
    engine = Engine(net, use_arrays=True)
    assert wave_fallback_reason(engine, values, SUM, TOKENS) == "int64_range"


# ----------------------------------------------------------------------
# The decision and its reason on the engine.phase spans
# ----------------------------------------------------------------------
def _traced_small_pa():
    net = random_connected(35, 0.12, seed=21, uid_seed=21)
    partition = random_connected_partition(net, 5, seed=8)
    values = [(v * 11 + 2) % 251 for v in range(net.n)]
    tracer = Tracer()
    with use_tracer(tracer):
        solve_pa(net, partition, values, SUM, seed=3, engine_impl="array")
    return _wave_spans(tracer)


def test_small_n_waves_run_scalar_unless_forced():
    spans = _traced_small_pa()
    for phase in ("pa_wave", "pa_reverse", "pa_replay"):
        assert spans[phase]["impl"] == "scalar"
    assert spans["pa_wave"]["fallback"] == "below_crossover"

    with force_array_waves():
        spans = _traced_small_pa()
    for phase in ("pa_wave", "pa_reverse", "pa_replay"):
        assert spans[phase]["impl"] == "array"
    assert "fallback" not in spans["pa_wave"]


def test_mst_grid_trace_names_each_fallback():
    """12x24 MST: SUM verify waves sit below the crossover, tuple waves
    carry tuple payloads; no wave pass runs as arrays at this size."""
    net = with_distinct_weights(grid_2d(12, 24), seed=1)
    session = PASession(net, seed=1, reuse=True, batch=True)
    tracer = Tracer()
    with use_tracer(tracer):
        minimum_spanning_tree(net, seed=1, session=session)
    reasons = {}
    for e in tracer.events:
        if e.get("cat") == "engine.phase" and e["name"].endswith("_wave"):
            kind = re.sub(r"\d+", "#", e["name"])
            reasons.setdefault(kind, set()).add(
                (e["args"]["impl"], e["args"].get("fallback"))
            )
    assert reasons["coarsen_verify_wave"] == {("scalar", "below_crossover")}
    assert reasons["phase#_moecoins_wave"] == {("scalar", "payload")}
    assert reasons["phase#_relabel_wave"] == {("scalar", "payload")}


def test_restrict_plan_carries_the_reason():
    plan = WavePlan(
        capacity=1, rounds_per_tick=1, delays={}, max_ticks=9,
        leader_tokens={3: 30, 7: 70}, use_array=False,
        fallback_reason="below_crossover",
    )
    local = restrict_plan(plan, [7])
    assert local.leader_tokens == {0: 70}
    assert (local.use_array, local.fallback_reason) == (
        False, "below_crossover",
    )
