"""Refinement's congestion budget: the second half of the refine rule.

Splitting a part hands every fragment its ancestor's whole edge set, so
a tree edge shared by ``k`` parts that each split into ``f`` fragments
ends up carrying ``k * f``.  On a grid with an apex, every row's
shortcut runs through the apex, so splitting each row into six
fragments drives the refined congestion past
``max(previous c, general envelope)`` while the block count stays in
budget — the projection must be discarded for a counted rebuild whose
ledger is a full prepare's, bit for bit.
"""

from __future__ import annotations

from repro import PASession
from repro.core import MIN
from repro.core.shortcuts import refine_shortcut, shortcut_hint_for_family
from repro.graphs import grid_with_apex
from repro.graphs.partitions import Partition, row_partition
from repro.runtime.session import _refinement_map

ROWS, COLS, FRAGMENTS = 8, 24, 6


class _UnboundedBlocks(PASession):
    """Only the congestion budget can reject a projection."""

    def block_budget(self) -> int:
        return 10**9


def _rows_and_fragments():
    net = grid_with_apex(ROWS, COLS)
    coarse = row_partition(ROWS, COLS, include_apex=True)
    labels = {}
    part_of = []
    for v in range(net.n):
        if v < ROWS * COLS:
            row, col = divmod(v, COLS)
            key = (row, col * FRAGMENTS // COLS)
        else:
            key = ("apex", coarse.part_of[v])
        part_of.append(labels.setdefault(key, len(labels)))
    return net, coarse, Partition(part_of)


def test_refined_congestion_exceeds_its_budget_on_this_instance():
    net, coarse, fine = _rows_and_fragments()
    session = PASession(net, seed=3, reuse=True)
    base = session.prepare(coarse)
    refined = refine_shortcut(
        base.shortcut, fine, _refinement_map(coarse, fine)
    )
    budget = max(
        base.shortcut.congestion(),
        shortcut_hint_for_family("general", net.n, session.solver.diameter)[1],
    )
    assert refined.congestion() > budget


def test_congestion_miss_is_a_counted_rebuild_with_full_prepare_ledger():
    net, coarse, fine = _rows_and_fragments()
    session = _UnboundedBlocks(net, seed=3, reuse=True)
    base = session.prepare(coarse)
    refined = session.prepare_incremental(base, fine)
    assert session.stats.refinements == 1
    assert session.stats.rebuilds == 1
    assert session.stats.prepares == 2

    twin = PASession(net, seed=3)
    full = twin.prepare(fine)
    rebuilt_phases = [
        (p.name[len("rebuild:"):], p.rounds, p.messages)
        for p in refined.setup_ledger.phases()
        if p.name.startswith("rebuild:")
    ]
    full_phases = [
        (p.name, p.rounds, p.messages) for p in full.setup_ledger.phases()
    ]
    assert rebuilt_phases == full_phases
    # The verification the rebuild discarded stays on the ledger: it ran.
    names = [p.name for p in refined.setup_ledger.phases()]
    assert names[0] == "refine_boundary_exchange"
    assert any(name.startswith("refine_verify") for name in names)

    values = list(range(net.n))
    got = session.solve(refined, values, MIN, charge_setup=False)
    want = twin.solve(full, values, MIN, charge_setup=False)
    assert got.aggregates == want.aggregates
