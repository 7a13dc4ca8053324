import itertools

import pytest

from syrtree import verify
from syrtree.matrices import Coord, entry
from syrtree.sequences import walk
from syrtree.verify import (
    MAX_COUNTEREXAMPLES,
    _Collector,
    check_closed_forms,
    check_connection_coverage,
    check_coverage,
    check_cycle_freedom,
    check_even_identity,
    check_partition,
    run_check,
    sweep_convergence,
    table_a_rows,
    table_b_cells,
)


def test_check_partition_passes():
    c = check_partition(2000)
    assert c.passed
    assert c.counterexamples == []
    assert c.id == "L2.1"
    assert c.details["identities_checked"] == 4 * 2001


def test_check_coverage_passes():
    c = check_coverage(10**5)
    assert c.passed
    # every odd <= bound is hit by exactly one cell
    assert c.details["cells_enumerated"] == c.details["odds_checked"] == 50000


def test_check_closed_forms_passes():
    c = check_closed_forms(6, 32)
    assert c.passed
    assert c.details["table_anchors"] == 4


def test_check_connection_coverage_passes():
    c = check_connection_coverage(2000)
    assert c.passed
    assert c.details["witnesses"] == 2 * 2001


def test_check_cycle_freedom_passes():
    c = check_cycle_freedom(10**4)
    assert c.passed
    assert c.details["seeds_checked"] == 5000


def test_check_cycle_freedom_reports_exhausted_budget():
    # seed 9 reaches 1 after 6 odd steps
    c = check_cycle_freedom(99, max_steps=5)
    assert not c.passed
    assert c.counterexamples[0] == {
        "seed": 9, "problem": "budget exhausted, cannot certify",
        "repro": "syrtree seq 9 --kind syr",
    }


def test_check_cycle_freedom_reports_a_cycling_walk(monkeypatch):
    # a walk that closes the cycle 35 -> 53 -> 35 (the real cells of both)
    def cycling_walk(n, max_steps):
        if n != 35:
            return walk(n, max_steps)
        steps = itertools.cycle([(Coord(5, 0, 8), 53), (Coord(5, 2, 0), 35)])
        return itertools.islice(steps, max_steps)

    monkeypatch.setattr(verify, "walk", cycling_walk)
    c = check_cycle_freedom(35)
    assert not c.passed
    assert c.counterexamples == [{
        "seed": 35, "column": (5, 8), "first_index": 0, "index": 2,
        "repro": "syrtree seq 35 --kind syr",
    }]


def test_check_even_identity_passes():
    c = check_even_identity(10**5)
    assert c.passed
    assert c.details["evens_checked"] == 50000
    assert c.details["sequence_prefixes_checked"] > 8000


def test_table_a_rows():
    rows = table_a_rows(15)
    assert len(rows) == 16
    assert rows[0] == (0, 1, 3, 5, 7, 1, 5, 1, 11)
    assert rows[1][5:] == (7, 17, 5, 23)
    assert rows[2][5:] == (13, 29, 1, 35)
    assert rows[3][5:] == (19, 41, 11, 47)


def test_table_b_cells_anchor_values():
    cells = set(table_b_cells(8, 15))
    assert (1, 1, 3, 0, 14) in cells
    assert (1, 5, 2, 1, 24) in cells
    assert (5, 1, 0, 4, 3) in cells
    assert (5, 5, 1, 4, 12) in cells


def test_table_b_cells_match_entries():
    for a, b, x, y, m in table_b_cells(8, 15):
        assert entry(a, x, y) == 6 * m + b


def test_sweep_tiny_ranges():
    r = sweep_convergence(1, 2)
    assert (r.decided, r.undecided) == (2, 0)
    assert r.max_stopping_time == (1, 2)
    assert r.max_excursion == (2, 2)

    r27 = sweep_convergence(27, 27)
    assert r27.max_stopping_time == (111, 27)
    assert r27.max_excursion == (9232, 27)


def test_sweep_decided_plus_undecided_is_range_size():
    r = sweep_convergence(1, 500, budget=20)
    assert r.decided + r.undecided == 500
    assert r.undecided > 0
    assert r.undecided_seeds[0] == min(r.undecided_seeds)
    assert len(r.undecided_seeds) <= MAX_COUNTEREXAMPLES


def test_sweep_budget_boundary():
    # stopping time of 7 is 16; the budget is inclusive
    assert sweep_convergence(7, 7, budget=16).decided == 1
    r = sweep_convergence(7, 7, budget=15)
    assert r.decided == 0
    assert r.undecided_seeds == [7]
    assert r.max_stopping_time is None
    assert r.max_excursion is None


def plain_sweep(lo, hi, budget):
    """Reference for the memoized sweep: every seed walked on its own.

    Returns (decided, undecided, max_stopping_time, max_excursion,
    undecided_seeds) as SweepReport holds them.
    """
    decided, best_steps, best_exc, undecided = 0, None, None, []
    for seed in range(lo, hi + 1):
        m, s, mx = seed, 0, seed
        while m != 1 and s < budget:
            m = 3 * m + 1 if m & 1 else m >> 1
            s += 1
            mx = max(mx, m)
        if m != 1:
            undecided.append(seed)
            continue
        decided += 1
        # seeds ascend, so a strict comparison keeps the smaller seed on ties
        if best_steps is None or s > best_steps[0]:
            best_steps = (s, seed)
        if best_exc is None or mx > best_exc[0]:
            best_exc = (mx, seed)
    return (decided, len(undecided), best_steps, best_exc,
            undecided[:MAX_COUNTEREXAMPLES])


def test_sweep_memoization_does_not_change_outcomes():
    for lo, hi, budget in ((1, 3000, 10**5), (27, 40, 111), (1, 200, 9)):
        r = sweep_convergence(lo, hi, budget=budget)
        got = (r.decided, r.undecided, r.max_stopping_time, r.max_excursion,
               r.undecided_seeds)
        assert got == plain_sweep(lo, hi, budget)


def test_sweep_worker_count_does_not_change_results():
    base = sweep_convergence(1, 5000).as_dict()
    for workers in (2, 3):
        assert sweep_convergence(1, 5000, workers=workers).as_dict() == base


def test_sweep_process_count_is_bounded(monkeypatch):
    # a stand-in pool: records its size and maps inline, so no process starts
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
    base = sweep_convergence(1, 100).as_dict()
    assert sweep_convergence(1, 3, workers=500).as_dict() == sweep_convergence(1, 3).as_dict()
    assert sweep_convergence(1, 100, workers=500).as_dict() == base
    assert sweep_convergence(1, 100, workers=3).as_dict() == base
    assert sizes == [3, 4, 3]


def test_sweep_rejects_bad_range():
    with pytest.raises(ValueError):
        sweep_convergence(0, 10)
    with pytest.raises(ValueError):
        sweep_convergence(5, 4)


def test_report_dicts_have_no_timing():
    assert "elapsed" not in check_partition(10).as_dict()
    assert "elapsed" not in sweep_convergence(1, 10).as_dict()


def test_run_check_dispatch():
    assert run_check("L2.1", 100).id == "L2.1"
    assert run_check("T2.9", 1001).passed
    with pytest.raises(ValueError):
        run_check("T9.99")


def test_collector_caps_capture():
    c = _Collector()
    for i in range(25):
        c.add(i=i)
    assert len(c.items) == MAX_COUNTEREXAMPLES
