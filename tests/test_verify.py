import gc
import importlib
import itertools
import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import time
import tracemalloc
import weakref
from concurrent.futures import Future
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syrtree import verify
from syrtree.arith import syr, syr_class
from syrtree.cli import main
from syrtree.matrices import Coord, child_column, entry, iter_connections, row
from syrtree.sequences import col_seq, walk
from syrtree.verify import (
    MAX_COUNTEREXAMPLES,
    SUITE_IDS,
    _Collector,
    check_closed_forms,
    check_connection_coverage,
    check_coverage,
    check_cycle_freedom,
    check_even_identity,
    check_partition,
    run_check,
    run_suite,
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


def plain_coverage(bound):
    """Reference for T2.9: the two-pass check, which enumerates the cells
    and then locates every odd n again to round-trip it through entry.
    Reads verify.locate, verify.entry, verify.row and
    verify.MAX_COUNTEREXAMPLES at call time, so patches reach it."""
    counterexamples = []

    def add(**kw):
        if len(counterexamples) < verify.MAX_COUNTEREXAMPLES:
            counterexamples.append(kw)
        return len(counterexamples) < verify.MAX_COUNTEREXAMPLES

    seen = bytearray((bound >> 1) + 1)
    cells = 0
    for a in (1, 5):
        p = 0
        while verify.entry(a, p, 0) <= bound:
            for q, e in enumerate(verify.row(a, p)):
                if e > bound:
                    break
                cells += 1
                if seen[(e - 1) >> 1]:
                    add(n=e, problem="hit by two cells", cell=(a, p, q))
                seen[(e - 1) >> 1] = 1
                if verify.locate(e) != (a, p, q):
                    add(n=e, problem="locate disagrees", cell=(a, p, q),
                        located=tuple(verify.locate(e)), repro=f"syrtree locate {e}")
            p += 1
    odds = 0
    for n in range(1, bound + 1, 2):
        odds += 1
        if not seen[(n - 1) >> 1]:
            if not add(n=n, problem="no cell", repro=f"syrtree locate {n}"):
                break
        a, p, q = verify.locate(n)
        if verify.entry(a, p, q) != n:
            if not add(n=n, problem="round-trip", cell=(a, p, q)):
                break
        if (p >= 1) != (n % 8 == 5):
            if not add(n=n, problem="row>=1 slice", p=p):
                break
    return verify.PropertyCheck("T2.9", f"n<={bound}", not counterexamples,
                                counterexamples,
                                {"cells_enumerated": cells, "odds_checked": odds})


def test_coverage_equals_plain_coverage():
    for bound in (1, 2, 3, 5, 13, 21, 85, 999, 1000, 3001, 10**4 + 1):
        assert check_coverage(bound).as_dict() == plain_coverage(bound).as_dict(), bound


def shifted_locate(shift_p, shift_q, where):
    """The locate core, with its cell moved by (shift_p, shift_q) where where(n)."""
    real = verify.locate

    def fake(n):
        a, p, q = real(n)
        return Coord(a, p + shift_p, q + shift_q) if where(n) else Coord(a, p, q)

    return fake


def bumped_entry(by, where):
    """The entry core, plus by where where(p, q)."""
    real = verify.entry
    return lambda a, p, q: real(a, p, q) + (by if where(p, q) else 0)


def swapped_rows():
    """Rows 0 and 1 of branch 1 trade places in row, entry and locate alike:
    every cell still round-trips, but each one breaks the row>=1 slice."""
    real_row, real_entry, real_locate = verify.row, verify.entry, verify.locate

    def swap(a, p):
        return 1 - p if a == 1 and p < 2 else p

    def fake_locate(n):
        a, p, q = real_locate(n)
        return Coord(a, swap(a, p), q)

    return {"row": lambda a, p: real_row(a, swap(a, p)),
            "entry": lambda a, p, q: real_entry(a, swap(a, p), q),
            "locate": fake_locate}


@pytest.mark.parametrize("patches", [
    lambda: {"locate": shifted_locate(0, 1, lambda n: n == 999)},
    lambda: {"locate": shifted_locate(1, 0, lambda n: n % 97 == 5)},
    lambda: {"entry": bumped_entry(1, lambda p, q: q == 77)},
    lambda: {"entry": bumped_entry(2, lambda p, q: (p, q) == (2, 0))},
    swapped_rows,
], ids=["locate-q+1", "locate-p+1", "entry+1", "entry+2", "swapped-rows"])
def test_coverage_reports_what_plain_coverage_reports(patches, monkeypatch):
    # one pass reports a cell's faults in enumeration order and a broken
    # locate as "locate disagrees" alone, so only the verdict, the details
    # and the failing n are compared, with every counterexample kept
    monkeypatch.setattr(verify, "MAX_COUNTEREXAMPLES", 10**6)
    for name, fake in patches().items():
        monkeypatch.setattr(verify, name, fake)
    got, want = check_coverage(3001), plain_coverage(3001)
    assert not want.passed
    assert (got.passed, got.details) == (want.passed, want.details)
    assert {c["n"] for c in got.counterexamples} == {c["n"] for c in want.counterexamples}


def test_coverage_scan_stops_at_the_counterexample_cap(monkeypatch):
    # row (5, 0) cut short after 200 cells leaves 4q+3 for q >= 200 to the
    # scan of the marks, the only fault: the report, details included, is the
    # two-pass one, which stops at the tenth odd with no cell
    real_row = verify.row

    def short_row(a, p):
        cells = real_row(a, p)
        return itertools.islice(cells, 200) if (a, p) == (5, 0) else cells

    monkeypatch.setattr(verify, "row", short_row)
    for bound in (999, 3001):
        got = check_coverage(bound)
        assert got.as_dict() == plain_coverage(bound).as_dict(), bound
        assert [c["n"] for c in got.counterexamples] == list(range(803, 840, 4))
        assert got.details["odds_checked"] == (839 + 1) // 2


def repeated_seven(a, p):
    """row, except that row (5, 0) hands out 7 again at the cell (5, 0, 2), which holds 11."""
    cells = row(a, p)
    return (7 if q == 2 else e for q, e in enumerate(cells)) if (a, p) == (5, 0) else cells


# T2.9 at bound 21 under repeated_seven: 7 comes out of a second cell,
# which also fails the round trip and makes locate disagree, and no cell
# holds 11 (the only counterexample of the scan of the marks)
REPEATED_SEVEN = [
    {"n": 7, "problem": "hit by two cells", "cell": (5, 0, 2)},
    {"n": 7, "problem": "locate disagrees", "cell": (5, 0, 2), "located": (5, 0, 1),
     "repro": "syrtree locate 7"},
    {"n": 7, "problem": "round-trip", "cell": (5, 0, 2)},
    {"n": 11, "problem": "no cell", "repro": "syrtree locate 11"},
]


@pytest.mark.parametrize("cap, odds", [(3, 6), (10, 11)])
def test_coverage_reports_a_cell_hit_twice(cap, odds, monkeypatch):
    # at cap 3 the cells are all enumerated, and the scan stops at 11
    monkeypatch.setattr(verify, "row", repeated_seven)
    monkeypatch.setattr(verify, "MAX_COUNTEREXAMPLES", cap)
    assert check_coverage(21).as_dict() == {
        "id": "T2.9", "bound": "n<=21", "passed": False, "counterexamples": REPEATED_SEVEN[:cap],
        "details": {"cells_enumerated": 11, "odds_checked": odds},
    }


def shifted_threes(a, q):
    """syr_class, two too high for class 3 at q = 1 mod 8."""
    value = syr_class(a, q)
    return value + 2 if a == 3 and q % 8 == 1 else value


def tripled_thirteen(n):
    """syr, except that the image of 13 is 3 * syr(13) = 15, a multiple of 3."""
    return 3 * syr(n) if n == 13 else syr(n)


def s5_miss(t, lhs):
    """L2.1's counterexample S5(4t+1) = lhs against S3(t) = lhs + 2."""
    return {"t": t, "identity": "S5(4t+1)", "lhs": lhs, "rhs": lhs + 2,
            "repro": "python -c 'from syrtree.arith import syr_class; "
                     f"print(syr_class(5, {4 * t + 1}), {lhs + 2})'"}


IMAGE_13 = {"t": 6, "value": 13, "image": 15, "identity": "image mod 3"}
# the rows read off the faulty class after the scan: table A's row q = 1 and
# S5(5) = S3(1)
CLASS_ROWS = [{"q": 1, "row": (7, 19, 5, 23), "expected": (7, 17, 5, 23), "identity": "table A row"},
              {"q": 5, "identity": "S5 duplication", "dup_class": 3}]
# L2.1 at bound 40 under injected faults: (patches, the counterexamples at cap 10)
L2_1_FAULTS = {
    "class": ({"syr_class": shifted_threes},
              [s5_miss(t, lhs) for t, lhs in ((1, 17), (9, 113), (17, 209), (25, 305), (33, 401))]
              + CLASS_ROWS),
    "image": ({"syr": tripled_thirteen}, [IMAGE_13]),
    "both": ({"syr_class": shifted_threes, "syr": tripled_thirteen},
             [s5_miss(1, 17), IMAGE_13]
             + [s5_miss(t, lhs) for t, lhs in ((9, 113), (17, 209), (25, 305), (33, 401))]
             + CLASS_ROWS),
}


# identities_checked where cap 3 ends the scan early: after t = 17 and t = 9;
# every other case scans t = 0..40, 164 identities
L2_1_EARLY = {("class", 3): 72, ("both", 3): 40}


@pytest.mark.parametrize("cap", [3, 10])
@pytest.mark.parametrize("fault", list(L2_1_FAULTS))
def test_check_partition_reports_injected_faults(fault, cap, monkeypatch):
    # cap 3 ends the scan early, and the rows after it are not recorded
    patches, found = L2_1_FAULTS[fault]
    for name, fake in patches.items():
        monkeypatch.setattr(verify, name, fake)
    monkeypatch.setattr(verify, "MAX_COUNTEREXAMPLES", cap)
    assert check_partition(40).as_dict() == {
        "id": "L2.1", "bound": "t<=40", "passed": False, "counterexamples": found[:cap],
        "details": {"identities_checked": L2_1_EARLY.get((fault, cap), 164), "table_rows": 16},
    }


def bumped_cell(a, p, q):
    """entry, one too high at the cell (5, 2, 3)."""
    return entry(a, p, q) + ((a, p, q) == (5, 2, 3))


def lowered_cell(child_a, parent_a, x, q):
    """child_column, one too low for child 1 of parent 1 at the cell (2, 5)."""
    m = child_column(child_a, parent_a, x, q)
    return m - 1 if (child_a, parent_a, x, q) == (1, 1, 2, 5) else m


def dropped_anchor(parent_a, *args, **kw):
    """iter_connections without table B's anchor cell (5, 1, 0, 4, 3)."""
    return (c for c in iter_connections(parent_a, *args, **kw)
            if (c.parent_a, c.child_a, c.x, c.y) != (5, 1, 0, 4))


def closed_form_miss(child, parent, x, q, closed, direct):
    """T2.11's counterexample for one connection cell."""
    return {"child": child, "parent": parent, "x": x, "q": q, "closed": closed,
            "direct": direct,
            "repro": "python -c 'from syrtree.matrices import child_column, entry; "
                     f"print(child_column({child}, {parent}, {x}, {q}), entry({parent}, {x}, {q}))'"}


ENTRY_MISS = {"cell": (5, 2, 3), "closed": 246, "iterated": 245}
COLUMN_MISS = closed_form_miss(1, 1, 2, 5, 109, 110)
ANCHOR_MISSES = [closed_form_miss(1, 5, 0, 4, 3, None),
                 {"anchor": (5, 1, 0, 4, 3), "problem": "missing from regenerated table"}]
# T2.11 at its default bounds under injected faults: (patches, the
# counterexamples at cap 10, table anchors found)
T2_11_FAULTS = {
    "entry": ({"entry": bumped_cell}, [ENTRY_MISS], 4),
    "column": ({"child_column": lowered_cell}, [COLUMN_MISS], 4),
    "anchor": ({"iter_connections": dropped_anchor}, ANCHOR_MISSES, 3),
    "all": ({"entry": bumped_cell, "child_column": lowered_cell,
             "iter_connections": dropped_anchor}, [ENTRY_MISS, COLUMN_MISS] + ANCHOR_MISSES, 3),
}


@pytest.mark.parametrize("cap", [3, 10])
@pytest.mark.parametrize("fault", list(T2_11_FAULTS))
def test_check_closed_forms_reports_injected_faults(fault, cap, monkeypatch):
    patches, found, anchors = T2_11_FAULTS[fault]
    for name, fake in patches.items():
        monkeypatch.setattr(verify, name, fake)
    monkeypatch.setattr(verify, "MAX_COUNTEREXAMPLES", cap)
    assert check_closed_forms().as_dict() == {
        "id": "T2.11", "bound": "p<=8,q<=64", "passed": False, "counterexamples": found[:cap],
        "details": {"entries_checked": 1170, "cells_checked": 2340, "table_anchors": anchors},
    }


def test_check_closed_forms_passes():
    c = check_closed_forms(32)
    assert c.passed
    assert c.details["table_anchors"] == 4


def test_check_connection_coverage_passes():
    c = check_connection_coverage(2000)
    assert c.passed
    assert c.details["witnesses"] == 2 * 2001


def dropped_sevens(parent_a, *args, **kw):
    """iter_connections without the cells whose child column m is 3 mod 7."""
    return (c for c in iter_connections(parent_a, *args, **kw) if c.m % 7 != 3)


def bumped_elevens(child_a, parent_a, x, q):
    """child_column, one too high for child 5 at the columns m = 0 mod 11."""
    m = child_column(child_a, parent_a, x, q)
    return m + 1 if child_a == 5 and m is not None and m % 11 == 0 else m


NO_CONNECTION = "no connection found"
MISMATCH = "witness mismatch"


# T2.12 at bound 200 under injected faults: (patches, cells enumerated,
# witnesses by counterexample cap, the first ten counterexamples as
# (m, child, problem, cell))
T2_12_FAULTS = {
    "dropped": ({"iter_connections": dropped_sevens}, 344, {3: 20, 4: 21, 10: 63},
                [(m, child, NO_CONNECTION, None) for m in (3, 10, 17, 24, 31) for child in (1, 5)]),
    "bumped": ({"child_column": bumped_elevens}, 402, {3: 45, 4: 67, 10: 199},
               [(0, 5, MISMATCH, (1, 1, 0)), (11, 5, MISMATCH, (5, 0, 17)),
                (22, 5, MISMATCH, (1, 0, 17)), (33, 5, MISMATCH, (5, 0, 50)),
                (44, 5, MISMATCH, (5, 1, 16)), (55, 5, MISMATCH, (5, 0, 83)),
                (66, 5, MISMATCH, (1, 0, 50)), (77, 5, MISMATCH, (5, 0, 116)),
                (88, 5, MISMATCH, (1, 2, 4)), (99, 5, MISMATCH, (5, 0, 149))]),
    "both": ({"iter_connections": dropped_sevens, "child_column": bumped_elevens}, 344,
             {3: 7, 4: 20, 10: 48},
             [(0, 5, MISMATCH, (1, 1, 0)), (3, 1, NO_CONNECTION, None),
              (3, 5, NO_CONNECTION, None), (10, 1, NO_CONNECTION, None),
              (10, 5, NO_CONNECTION, None), (11, 5, MISMATCH, (5, 0, 17)),
              (17, 1, NO_CONNECTION, None), (17, 5, NO_CONNECTION, None),
              (22, 5, MISMATCH, (1, 0, 17)), (24, 1, NO_CONNECTION, None)]),
}


@pytest.mark.parametrize("cap", [3, 4, 10])
@pytest.mark.parametrize("fault", list(T2_12_FAULTS))
def test_connection_coverage_reports_injected_faults(fault, cap, monkeypatch):
    # cap 3 with "dropped" stops between child 1 and child 5 of m = 10
    patches, cells, witnesses, found = T2_12_FAULTS[fault]
    for name, fake in patches.items():
        monkeypatch.setattr(verify, name, fake)
    monkeypatch.setattr(verify, "MAX_COUNTEREXAMPLES", cap)
    expected = [dict(m=m, child=child, problem=problem, **({"cell": cell} if cell else {}))
                for m, child, problem, cell in found[:cap]]
    assert check_connection_coverage(200).as_dict() == {
        "id": "T2.12", "bound": "m<=200", "passed": False, "counterexamples": expected,
        "details": {"cells_enumerated": cells, "witnesses": witnesses[cap]},
    }


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


def cycling_walk(n, max_steps):
    """walk, except that 35 closes the cycle 35 -> 53 -> 35 (the real cells of both)."""
    if n != 35:
        return walk(n, max_steps)
    steps = itertools.cycle([(Coord(5, 0, 8), 53), (Coord(5, 2, 0), 35)])
    return itertools.islice(steps, max_steps)


def test_check_cycle_freedom_reports_a_cycling_walk(monkeypatch):
    monkeypatch.setattr(verify, "walk", cycling_walk)
    c = check_cycle_freedom(35)
    assert not c.passed
    assert c.counterexamples == [{
        "seed": 35, "column": (5, 8), "first_index": 0, "index": 2,
        "repro": "syrtree seq 35 --kind syr",
    }]


def test_verify_text_prints_each_counterexample(monkeypatch, capsys):
    monkeypatch.setattr(verify, "walk", cycling_walk)
    assert main(["verify", "--suite", "T2.15", "--bound", "99", "--workers", "1"]) == 1
    out = re.sub(r"\(\d+\.\d\ds\)", "(N.NNs)", capsys.readouterr().out)
    assert out == ("T2.15 odd seeds<=99 FAIL (N.NNs)\n"
                   "  counterexample: seed=35, column=(5, 8), first_index=0, index=2, "
                   "repro=syrtree seq 35 --kind syr\n")


def recurring_walk(n, max_steps):
    """walk, except that 35 steps to 53, 53 back to 35, and 35, met again,
    to 7 and on as the real walk of 7 (the real cells of 35 and 53)."""
    if n != 35:
        return walk(n, max_steps)
    steps = itertools.chain([(Coord(5, 0, 8), 53), (Coord(5, 2, 0), 35), (Coord(5, 0, 8), 7)],
                            walk(7, max_steps))
    return itertools.islice(steps, max_steps)


@pytest.mark.parametrize("cap", [3, 10])
def test_check_cycle_freedom_reports_a_repeated_value(cap, monkeypatch):
    # no next term repeats, so no column does: 35 is reported as a value alone
    monkeypatch.setattr(verify, "walk", recurring_walk)
    monkeypatch.setattr(verify, "MAX_COUNTEREXAMPLES", cap)
    assert check_cycle_freedom(35).as_dict() == {
        "id": "T2.15", "bound": "odd seeds<=35", "passed": False,
        "counterexamples": [{"seed": 35, "value": 35, "problem": "value repeats",
                             "repro": "syrtree seq 35 --kind syr"}],
        "details": {"seeds_checked": 18},
    }


def plain_cycle_freedom(bound, max_steps):
    """Reference for T2.15: every odd seed's column walk checked on its own,
    terms 0..max_steps, through verify.walk so that a patched walk reaches
    it. Returns what check_cycle_freedom(bound, max_steps).as_dict() holds."""

    def first_revisit(seed):
        cols, values, cur = {}, set(), seed
        for i, ((a, _p, q), nxt) in enumerate(verify.walk(seed, max_steps + 1)):
            if nxt in cols:
                return {"column": (a, q), "first_index": cols[nxt], "index": i}
            cols[nxt] = i
            if cur in values:
                return {"value": cur, "problem": "value repeats"}
            values.add(cur)
            if i >= max_steps:
                break
            cur = nxt
        return None if cur == 1 else {"problem": "budget exhausted, cannot certify"}

    counterexamples, seeds = [], 0
    for seed in range(1, bound + 1, 2):
        seeds += 1
        found = first_revisit(seed)
        if found is not None:
            counterexamples.append({"seed": seed, **found,
                                    "repro": f"syrtree seq {seed} --kind syr"})
            if len(counterexamples) == verify.MAX_COUNTEREXAMPLES:
                break
    return {"id": "T2.15", "bound": f"odd seeds<={bound}", "passed": not counterexamples,
            "counterexamples": counterexamples, "details": {"seeds_checked": seeds}}


CYCLE_FREEDOM_BUDGETS = (0, 1, 2, 3, 5, 7, 12, 20, 40, 100, 10**5)


@pytest.mark.parametrize("max_steps", CYCLE_FREEDOM_BUDGETS)
def test_cycle_freedom_equals_plain_walks(max_steps):
    for bound in (1, 2, 3, 5, 9, 27, 99, 200, 999, 3001):
        assert check_cycle_freedom(bound, max_steps).as_dict() == \
            plain_cycle_freedom(bound, max_steps), bound


def test_cycle_freedom_above_the_memo_cap_equals_plain_walks(monkeypatch):
    # seeds above MEMO_MAX certify nothing, and walks stop only at seeds below it
    monkeypatch.setattr(verify, "MEMO_MAX", 64)
    for max_steps in CYCLE_FREEDOM_BUDGETS:
        assert check_cycle_freedom(999, max_steps).as_dict() == \
            plain_cycle_freedom(999, max_steps), max_steps


def test_cycle_freedom_walks_through_a_failed_seed(monkeypatch):
    # seed 93 steps to 35, whose patched walk cycles: 35 certifies nothing,
    # so 93 walks on through the real 35 -> 53 -> 5 -> 1 and needs 4 steps;
    # a higher counterexample cap lets every seed's outcome show
    monkeypatch.setattr(verify, "walk", cycling_walk)
    monkeypatch.setattr(verify, "MAX_COUNTEREXAMPLES", 100)
    assert next(iter(walk(93, 1)))[1] == 35
    for max_steps in CYCLE_FREEDOM_BUDGETS:
        assert check_cycle_freedom(99, max_steps).as_dict() == \
            plain_cycle_freedom(99, max_steps), max_steps
    assert [ce["seed"] for ce in check_cycle_freedom(99).counterexamples] == [35]


def test_cycle_freedom_memo_does_not_grow_with_bound():
    # one 8-byte slot per odd seed up to MEMO_MAX: 16 MiB, not the 64 MiB
    # of every odd seed up to 2**24; at budget 0 the scan stops at seed 21
    tracemalloc.start()
    try:
        c = check_cycle_freedom(2**24, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.details["seeds_checked"] == 11
    assert peak < 24 * 2**20


def test_check_even_identity_passes():
    c = check_even_identity(10**5)
    assert c.passed
    assert c.details["evens_checked"] == 50000
    assert c.details["sequence_prefixes_checked"] > 8000


def plain_even_identity(bound):
    """Reference for L3.3: the check's loop with each halving prefix read off
    the full col_seq(m), through verify.v2 so that a patched v2 reaches it.
    Returns what check_even_identity(bound).as_dict() holds."""
    counterexamples, evens, prefixes = [], 0, 0

    def add(**kw):
        counterexamples.append(kw)
        return len(counterexamples) < verify.MAX_COUNTEREXAMPLES

    for m in range(2, bound + 1, 2):
        evens += 1
        r = verify.v2(m)
        k, literal = m, 0
        while k & 1 == 0:
            k >>= 1
            literal += 1
        if r != literal or k & 1 == 0 or (k << r) != m or r < 1:
            if not add(m=m, r=r, literal=literal, odd_part=k):
                break
        if m <= (1 << 14) or m % 4096 == 0:
            terms = col_seq(m).terms
            prefixes += 1
            if terms[r] != k or any(t & 1 for t in terms[:r]):
                if not add(m=m, r=r, problem="sequence prefix",
                           repro=f"syrtree seq {m} --kind col"):
                    break
    return {"id": "L3.3", "bound": f"even m<={bound}", "passed": not counterexamples,
            "counterexamples": counterexamples,
            "details": {"evens_checked": evens, "sequence_prefixes_checked": prefixes}}


@pytest.mark.parametrize("patch_v2", [False, True])
def test_even_identity_equals_full_sequence_prefixes(patch_v2, monkeypatch):
    # the check builds only the first r plain steps of each sequence
    if patch_v2:
        monkeypatch.setattr(verify, "v2", lambda m: 1)
    for bound in (2, 3, 100, 2**14, 2**14 + 3 * 4096):
        assert check_even_identity(bound).as_dict() == plain_even_identity(bound), bound


def test_table_a_rows():
    rows = table_a_rows(15)
    assert len(rows) == 16
    assert rows[0] == (0, 1, 3, 5, 7, 1, 5, 1, 11)
    assert rows[1][5:] == (7, 17, 5, 23)
    assert rows[2][5:] == (13, 29, 1, 35)
    assert rows[3][5:] == (19, 41, 11, 47)


def test_table_b_cells_anchor_values():
    cells = set(table_b_cells(15))
    assert (1, 1, 3, 0, 14) in cells
    assert (1, 5, 2, 1, 24) in cells
    assert (5, 1, 0, 4, 3) in cells
    assert (5, 5, 1, 4, 12) in cells


def test_table_b_cells_match_entries():
    for a, b, x, y, m in table_b_cells(15):
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


def sweep_outcome(lo, hi, budget):
    r = sweep_convergence(lo, hi, budget=budget)
    return (r.decided, r.undecided, r.max_stopping_time, r.max_excursion,
            r.undecided_seeds)


def test_sweep_memo_hit_keeps_the_budget_inclusive():
    # seed 14's odd part 7 is memoized with 16 steps, so 14 takes 17: a memo
    # hit settled without a walk is still over a budget of 16
    assert [14 in sweep_outcome(7, 14, budget)[4] for budget in (16, 17)] == [True, False]
    for budget in (16, 17):
        assert sweep_outcome(7, 14, budget) == plain_sweep(7, 14, budget)


def test_sweep_excursion_tie_keeps_the_earlier_seed(monkeypatch):
    # with the memo window at 1, seed 5 walks through 16 itself rather than
    # hitting a slot that seed 3 filled, and so ties 3's record of 16
    monkeypatch.setattr(verify, "MEMO_MAX", 1)
    assert verify._sweep_chunk(3, 5, 100).max_excursion == (16, 3)


def test_sweep_memoization_does_not_change_outcomes():
    # (2**22 - 300, 2**22 + 300) crosses the edge of the memo window at
    # MEMO_MAX = 2**22; (1, 100) has a window below 2**(JUMP_K+1); at budget
    # 14 walks that reach the memo over budget still fill it, with maxima
    # from above the window; budgets 25 and 40 at 10**7 cut walks inside a
    # jump block; 2**30 needs exactly 30 steps. From 1, residue classes are
    # settled in bulk: at budget 16 a class whose glide bound tops the record
    # is walked, and one of its seeds sets the excursion record; at 187 a
    # class's first maximum (not its last) holds the stopping-time record; at
    # 45 a walked seed takes that record's tie from a larger seed settled in
    # bulk in its block
    for lo, hi, budget in ((1, 3000, 10**5), (27, 40, 111), (1, 200, 9),
                           (1, 5000, 16), (1, 30000, 187), (1, 2**15, 45),
                           (2**22 - 300, 2**22 + 300, 10**5), (1, 100, 10**5),
                           (1, 300, 30), (1, 300, 14), (10**7 + 1, 10**7 + 3000, 25),
                           (10**7 + 1, 10**7 + 3000, 40),
                           (2**40 + 1, 2**40 + 2000, 10**5),
                           (2**30, 2**30, 29), (2**30, 2**30, 30)):
        assert sweep_outcome(lo, hi, budget) == plain_sweep(lo, hi, budget)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.integers(1, 1000), st.integers(1, 2**64)), st.integers(0, 200),
       st.integers(0, 1000))
def test_sweep_equals_plain_sweep_on_random_windows(lo, width, budget):
    assert sweep_outcome(lo, lo + width, budget) == plain_sweep(lo, lo + width, budget)


def terras_block(n):
    """(end value, plain steps, plain values) of JUMP_K Terras steps from n,
    one plain 3n+1 or n/2 step at a time."""
    values, steps = [n], 0
    for _ in range(verify.JUMP_K):
        if n & 1:
            n = 3 * n + 1
            values.append(n)
            steps += 1
        n >>= 1
        values.append(n)
        steps += 1
    return n, steps, values


def test_jump_table_matches_plain_steps():
    (p3, steps, d, ua, ub), _glides = verify._terras_table()
    size = 1 << verify.JUMP_K
    assert len(p3) == len(steps) == len(d) == len(ua) == len(ub) == size
    for b in range(size):
        for a in (1, 2, 3**40):
            end, plain_steps, values = terras_block(size * a + b)
            assert (p3[b] * a + d[b], steps[b]) == (end, plain_steps), (a, b)
            assert max(values) <= ua[b] * a + ub[b], (a, b)


def first_odd_below(n):
    """(plain steps, value) at the first odd value below n, and the largest
    value up to it, one plain 3n+1 or n/2 step at a time."""
    m, steps, top = n, 0, n
    while not (m & 1 and m < n):
        m = 3 * m + 1 if m & 1 else m >> 1
        steps += 1
        top = max(top, m)
    return steps, m, top


def test_glide_table_matches_plain_steps():
    _jump, table = verify._terras_table()
    size = 1 << verify.JUMP_K
    assert len(table) == size
    # every even class glides but 0, whose seeds have JUMP_K or more factors of 2
    assert [b for b in range(0, size, 2) if table[b] is None] == [0]
    for b, glide in enumerate(table):
        if glide is None:
            continue
        A, B, steps, ua, ub = glide
        assert A % 2 == 0, b
        for a in (1, 2, 3**40):
            plain_steps, landing, top = first_odd_below(size * a + b)
            assert (steps, A * a + B) == (plain_steps, landing), (a, b)
            assert top <= ua * a + ub, (a, b)


@pytest.mark.parametrize("budget", [0, 30, 60, 120, 10**5])
def test_sweep_from_1_equals_plain_sweep(budget, monkeypatch):
    # blocks from 256 up settle whole residue classes from the memo; with a
    # small budget or memo window many of them fall back to walks
    expected = plain_sweep(1, 30000, budget)
    for memo_max in (64, 2**12, verify.MEMO_MAX):
        monkeypatch.setattr(verify, "MEMO_MAX", memo_max)
        assert sweep_outcome(1, 30000, budget) == expected, memo_max


@pytest.mark.parametrize("b", [1, 2])
def test_a_corrupted_glide_entry_changes_the_sweep(b, monkeypatch):
    # the sweep from 1 settles the odd class 1 and the even class 2 from the
    # memo, with the table's steps
    jump, glides = verify._terras_table()
    table = list(glides)
    A, B, steps, ua, ub = table[b]
    table[b] = (A, B, steps + 1000, ua, ub)
    clean = sweep_outcome(1, 2**15, 10**5)
    monkeypatch.setattr(verify, "_terras_table", lambda: (jump, tuple(table)))
    assert sweep_outcome(1, 2**15, 10**5) != clean


@pytest.mark.parametrize("b, extra, best", [(5, 1, (238, 3711)), (177, 1, (238, 3711)),
                                            (169, 30, (246, 2919))])
def test_a_settled_odd_class_fills_its_seeds_slots(b, extra, best, monkeypatch):
    # the sweep from 1 settles odd class b from the memo and writes its
    # seeds' steps, off the table, into their own slots. Later walks that
    # reach such a slot read its steps: seed 3711, of class 127, takes 237
    # steps, and one more under class 5's or 177's raised steps. A sweep that
    # left those slots empty would walk past them and report the clean record
    jump, glides = verify._terras_table()
    table = list(glides)
    A, B, steps, ua, ub = table[b]
    table[b] = (A, B, steps + extra, ua, ub)
    assert sweep_outcome(1, 4096, 10**5)[2] == (237, 3711)
    monkeypatch.setattr(verify, "_terras_table", lambda: (jump, tuple(table)))
    assert sweep_outcome(1, 4096, 10**5)[2] == best


@pytest.mark.parametrize("b", [1, 3, 255])
def test_a_corrupted_jump_entry_changes_the_sweep(b, monkeypatch):
    # above the memo window the sweep jumps JUMP_K Terras steps at once,
    # with the table's steps
    (p3, steps, d, ua, ub), glides = verify._terras_table()
    steps = list(steps)
    steps[b] += 1000
    clean = sweep_outcome(10**7 + 1, 10**7 + 3000, 10**5)
    monkeypatch.setattr(verify, "_terras_table",
                        lambda: ((p3, tuple(steps), d, ua, ub), glides))
    assert sweep_outcome(10**7 + 1, 10**7 + 3000, 10**5) != clean


@pytest.mark.parametrize("bound", ["record + 1 at a1", "record at a0"])
def test_a_glide_bound_over_the_record_walks_its_class(bound, monkeypatch):
    # [3584, 4095] is walked from an empty memo and sets the record R; in
    # the block [4096, 4863] (a = 16..18) seed 4591 of class 239 beats it.
    # Class 239 has no glide, so it gets a stand-in landing on the odds
    # 224a + 1 of the first block. A bound over R at the block's top a
    # walks the class whatever its glide says, so the report stays the
    # unpatched one; settling it would miss 4591
    lo, hi, budget = 3584, 4863, 10**5
    clean = sweep_outcome(lo, hi, budget)
    record = sweep_outcome(lo, 4095, budget)[3][0]
    assert clean[3] == (8153620, 4591) and record < 8153620
    b, a0 = 4591 & 255, 4096 >> verify.JUMP_K
    jump, glides = verify._terras_table()
    assert glides[b] is None
    ua, ub = (0, record + 1) if bound == "record + 1 at a1" else (1, record - a0)
    table = list(glides)
    table[b] = (224, 1, 1, ua, ub)
    monkeypatch.setattr(verify, "_terras_table", lambda: (jump, tuple(table)))
    assert sweep_outcome(lo, hi, budget) == clean


def test_a_jump_bound_over_the_record_walks_its_class(monkeypatch):
    # seed 10000009 beats the record R of the seeds before it at 3m + 1 for
    # an odd m above the memo window. A jump does not read the values it
    # skips, so with the bound of m's class at R + 1 that class is walked
    # and the report stays the unpatched one; a jump would miss that peak
    lo, seed = 10**7 + 1, 10**7 + 9
    clean = sweep_outcome(lo, seed, 10**5)
    peak, holder = clean[3]
    record = sweep_outcome(lo, seed - 1, 10**5)[3][0]
    assert holder == seed and peak > record and peak % 3 == 1
    b = (peak - 1) // 3 & ((1 << verify.JUMP_K) - 1)
    (p3, steps, d, ua, ub), glides = verify._terras_table()
    ua, ub = list(ua), list(ub)
    ua[b], ub[b] = 0, record + 1
    monkeypatch.setattr(verify, "_terras_table",
                        lambda: ((p3, steps, d, tuple(ua), tuple(ub)), glides))
    assert sweep_outcome(lo, seed, 10**5) == clean


def test_sweep_report_keeps_the_earlier_shard_on_ties():
    # hand-built shards of [3, 6], tied on both records: the earlier,
    # smaller seed wins each
    shards = [
        verify.SweepReport(3, 4, 100, 2, 0, (7, 3), (16, 3)),
        verify.SweepReport(5, 6, 100, 2, 0, (7, 5), (16, 5)),
    ]
    r = verify._sweep_report(shards)
    assert (r.max_stopping_time, r.max_excursion) == ((7, 3), (16, 3))


def test_sweep_memo_holds_odd_values_only():
    # one 2-byte slot per odd value up to MEMO_MAX, in one array('h'): 4 MiB
    tracemalloc.start()
    try:
        verify._sweep_chunk(2**24 + 1, 2**24 + 10, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_sweep_worker_count_does_not_change_results(monkeypatch):
    # phase two's shards start from phase one's memo, pickled to each
    # process; the range is cut only above MEMO_MAX, lowered here so that
    # it is cut
    monkeypatch.setattr(verify, "MEMO_MAX", 2**10)
    base = sweep_convergence(1, 40000).as_dict()
    for workers in (2, 3):
        assert sweep_convergence(1, 40000, workers=workers).as_dict() == base


@pytest.fixture
def pool_sizes(monkeypatch):
    """Sizes of the process pools started, with a stand-in pool that runs
    each task inline as it is submitted, so no process starts, on a host of
    4 CPUs that this process may all run on. Like a pool, it hands each
    task a pickled copy of its arguments."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*pickle.loads(pickle.dumps(args))))
            return future

    monkeypatch.setattr(verify, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    return sizes


def phase_one(lo, budget):
    """Phase one of a sweep from lo, as _sweep runs it: its report, and the
    fresh memo it fills."""
    memo = verify._memo(verify.MEMO_MAX)
    return verify._sweep_chunk(lo, verify.MEMO_MAX, budget, memo), memo


@pytest.mark.parametrize("lo", [1, 3, 500])
def test_phased_sweep_equals_one_task(lo, pool_sizes, monkeypatch):
    # phase one [lo, MEMO_MAX] runs before the pool starts, and phase two's
    # shards start from a pickled copy of its memo and from its excursion
    # record; below budget 50 some seed of the window is undecided, so
    # phase one leaves slots at -1 that phase two walks past
    monkeypatch.setattr(verify, "MEMO_MAX", 2**10)
    assert -1 in phase_one(1, 50)[1][:2**9]
    for hi in (2**10 + 1, 1500, 2**11 + 3, 2**12):
        for budget in (0, 1, 14, 50, 10**5):
            one = verify._sweep_chunk(lo, hi, budget).as_dict()
            for workers in (2, 3):
                assert sweep_convergence(lo, hi, budget, workers).as_dict() == one, (
                    hi, budget, workers)
    # at hi = MEMO_MAX + 1 phase two is one seed, run inline too
    assert pool_sizes == [2, 3] * 15


def test_a_corrupted_phase_one_slot_changes_the_sweep(pool_sizes, monkeypatch):
    # seed 1742 of phase two is 2 * 871, so it reads the slot of 871, the
    # window's slowest seed at 178 steps, and takes 179 steps, the budget.
    # One step more in that slot leaves it undecided; every other seed that
    # reads the slot takes more steps, over the budget either way
    monkeypatch.setattr(verify, "MEMO_MAX", 2**10)
    clean = sweep_convergence(1, 2**12, 179, workers=2)
    assert clean.as_dict() == verify._sweep_chunk(1, 2**12, 179).as_dict()
    assert verify._sweep_chunk(871, 871, 10**5).max_stopping_time == (178, 871)
    chunk = verify._sweep_chunk

    def corrupted(lo, hi, budget, memo=None, record=0):
        report = chunk(lo, hi, budget, memo, record)
        if hi == verify.MEMO_MAX:  # phase one, the one shard that ends there
            memo[871 >> 1] += 1
        return report

    monkeypatch.setattr(verify, "_sweep_chunk", corrupted)
    r = sweep_convergence(1, 2**12, 179, workers=2)
    assert (r.decided, r.undecided) == (clean.decided - 1, clean.undecided + 1)
    assert pool_sizes == [2, 2]


def test_phase_one_fills_every_odd_slot_of_the_window(monkeypatch):
    # slot v >> 1 for odd v <= MEMO_MAX, and one past it, which no value uses
    monkeypatch.setattr(verify, "MEMO_MAX", 2**10)
    report, memo = phase_one(1, 10**5)
    assert report.as_dict() == verify._sweep_chunk(1, 2**10, 10**5).as_dict()
    assert len(memo) == 2**9 + 1
    assert min(memo[:2**9]) >= 0 and memo[2**9] == -1
    assert memo[27 >> 1] == 111 and memo[0] == 0


def test_sweep_process_count_is_bounded(pool_sizes, monkeypatch):
    # the range is cut only above MEMO_MAX: phase one [1, 1] runs inline,
    # then phase two's min(workers, seeds above 1, 4 CPUs) shards on a pool
    monkeypatch.setattr(verify, "MEMO_MAX", 1)
    base = sweep_convergence(1, 100).as_dict()
    assert sweep_convergence(1, 3, workers=500).as_dict() == sweep_convergence(1, 3).as_dict()
    assert sweep_convergence(1, 100, workers=500).as_dict() == base
    assert sweep_convergence(1, 100, workers=3).as_dict() == base
    assert pool_sizes == [2, 4, 3]


def test_sweep_is_cut_only_above_the_memo_window(pool_sizes, monkeypatch):
    # a shard from inside the memo window, above lo, would walk every seed.
    # On pool_sizes' 4 CPUs, the one _run_tasks call of each _sweep is
    # recorded, not run: every task gives one stand-in report
    chunk = verify._sweep_chunk
    calls = []
    stand_in = verify.SweepReport(1, 1, 10**5, 1, 0, (0, 1), (7, 3))

    def record_only(tasks, workers):
        calls.append(tasks)
        return [stand_in] * len(tasks)

    monkeypatch.setattr(verify, "_run_tasks", record_only)

    def layout(lo, hi, workers):
        calls.clear()
        verify._sweep(lo, hi, 10**5, workers)
        return calls

    assert layout(1, 10**6, 4) == [[(chunk, 1, 10**6, 10**5, None, 0)]]
    assert layout(10**7 + 1, 11 * 10**6, 2) == [[
        (chunk, 10**7 + 1, 10**7 + 500_000, 10**5, None, 0),
        (chunk, 10**7 + 500_001, 11 * 10**6, 10**5, None, 0)]]
    # [1, 2*MEMO_MAX] on 4 processes: phase one is the whole window, run
    # before the call, and the call cuts the rest every MEMO_MAX/4 seeds, all
    # above the window, each shard with phase one's filled memo and record
    monkeypatch.setattr(verify, "MEMO_MAX", 2**10)
    report, memo = phase_one(1, 10**5)
    assert min(memo[:2**9]) >= 0
    record = report.max_excursion[0]
    assert layout(1, 2**11, 4) == [[(chunk, lo, lo + 2**8 - 1, 10**5, memo, record)
                                    for lo in range(2**10 + 1, 2**11, 2**8)]]
    # on one process it is one shard, whose memo stays warm from lo
    assert layout(1, 2**11, 1) == [[(chunk, 1, 2**11, 10**5, None, 0)]]


def test_pool_size_honours_cpu_affinity(pool_sizes, monkeypatch):
    # pinned to 1 of the host's 4 CPUs: one shard, run inline
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {2})
    assert sweep_convergence(1, 100, workers=4).as_dict() == sweep_convergence(1, 100).as_dict()
    assert pool_sizes == []


def suite_dicts(suite):
    checks, sweep = suite
    return [c.as_dict() for c in checks], sweep.as_dict() if sweep is not None else None


def test_suite_pool_size_is_bounded(pool_sizes, monkeypatch, capsys):
    serial = suite_dicts(run_suite(SUITE_IDS, 200))
    assert pool_sizes == []  # one worker starts no pool
    assert serial[0] == [run_check(cid, 200).as_dict() for cid in SUITE_IDS[:-1]]
    assert serial[1] == sweep_convergence(1, 200).as_dict()
    # the sweep as max(1, min(workers, 6 checks + 200 seeds, 4 CPUs) - 6) = 1 task, then 6 checks
    for workers in (2, 3, 500):
        assert suite_dicts(run_suite(SUITE_IDS, 200, workers=workers)) == serial
    assert suite_dicts(run_suite(["L2.1", "T2.11"], 200, workers=500)) == (serial[0][0:3:2], None)
    assert pool_sizes == [2, 3, 4, 2]

    # checks that fail inside the pool keep exit 1 and their report order
    monkeypatch.setattr(verify, "walk", cycling_walk)
    monkeypatch.setattr(verify, "v2", lambda m: 1)
    outs = []
    for workers in ("1", "3"):
        assert main(["verify", "--suite", "all", "--bound", "200", "--workers", workers,
                     "--format", "json"]) == 1
        outs.append(capsys.readouterr().out)
    assert pool_sizes[4:] == [3]
    assert outs[0] == outs[1]
    checks = json.loads(outs[1])["checks"]
    assert [c["id"] for c in checks] == list(SUITE_IDS[:-1])
    assert [c["id"] for c in checks if not c["passed"]] == ["T2.15", "L3.3"]
    assert checks[4]["counterexamples"][0]["seed"] == 35
    assert checks[5]["counterexamples"][0]["m"] == 4


@pytest.fixture
def pool_tasks(pool_sizes, monkeypatch):
    """The tasks (function, *args) submitted to each stand-in pool of
    pool_sizes, one list per pool."""
    tasks = []

    class RecordingPool(verify.ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            tasks.append([])

        def submit(self, fn, *args):
            tasks[-1].append((fn, *args))
            return super().submit(fn, *args)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", RecordingPool)
    return tasks


def test_suite_submits_the_warm_sweep_then_checks_longest_first(pool_tasks, monkeypatch):
    # checks go in by the bound each runs at, ties in report order: at one
    # --bound every check ties, and at the default bounds T2.11 goes last
    serial = suite_dicts(run_suite(SUITE_IDS, 200))
    assert suite_dicts(run_suite(SUITE_IDS, 200, workers=2)) == serial
    assert pool_tasks == [[(verify._sweep_chunk, 1, 200, 10**5, None, 0)]
                          + [(verify.CHECKS[cid][0], 200) for cid in SUITE_IDS[:-1]]]

    class Submitted(Exception):
        pass

    def submit_only(tasks, workers):  # the tasks at default bounds, not run
        pool_tasks.append(tasks)
        raise Submitted

    monkeypatch.setattr(verify, "_run_tasks", submit_only)
    with pytest.raises(Submitted):
        run_suite(SUITE_IDS, workers=2)
    by_default_bound = ["T2.9", "L3.3", "T2.15", "L2.1", "T2.12", "T2.11"]
    assert pool_tasks[1] == [(verify._sweep_chunk, 1, verify.SWEEP_BOUND, 10**5, None, 0)] + [
        (verify.CHECKS[cid][0], verify.CHECKS[cid][1]) for cid in by_default_bound]


def test_suite_cuts_the_sweep_into_the_processes_checks_leave_idle(pool_tasks, monkeypatch):
    serial = suite_dicts(run_suite(SUITE_IDS, 200))
    # the sweep is cut only above MEMO_MAX: phase one [1, 64] runs before
    # the pool starts, then one pool of 10 takes phase two [65, 200], cut
    # for the 10 - 6 processes the checks leave idle, and the checks. Each
    # shard carries phase one's memo and record (27's excursion, 9232)
    monkeypatch.setattr(verify, "MEMO_MAX", 64)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 10)
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: set(range(10)))
    calls = []
    run_tasks = verify._run_tasks

    def counted(tasks, workers):
        calls.append(len(tasks))
        return run_tasks(tasks, workers)

    monkeypatch.setattr(verify, "_run_tasks", counted)
    assert suite_dicts(run_suite(SUITE_IDS, 200, workers=10)) == serial
    chunk, (report, memo) = verify._sweep_chunk, phase_one(1, 10**5)
    assert report.max_excursion == (9232, 27) and min(memo[:32]) >= 0
    assert calls == [10]
    assert pool_tasks == [[(chunk, lo, min(lo + 33, 200), 10**5, memo, 9232)
                           for lo in (65, 99, 133, 167)]
                          + [(verify.CHECKS[cid][0], 200) for cid in SUITE_IDS[:-1]]]

    # with no checks the sweep is cut as sweep_convergence cuts it: phase
    # one runs first, and phase two goes to a pool of 3
    assert suite_dicts(run_suite(("sweep",), 200, workers=3)) == ([], serial[1])
    assert calls == [10, 3]
    assert pool_tasks[1:] == [[(chunk, 65, 110, 10**5, memo, 9232),
                               (chunk, 111, 156, 10**5, memo, 9232),
                               (chunk, 157, 200, 10**5, memo, 9232)]]


def test_a_failed_task_terminates_the_workers(pool_sizes, monkeypatch):
    # results are read in task order; the first that raises terminates every
    # worker of the pool, and the error reaches the caller
    terminated = []

    class Worker:
        def terminate(self):
            terminated.append(self)

    workers = [Worker(), Worker()]

    class PendingPool(verify.ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            self._processes = dict(enumerate(workers))

        def submit(self, fn, *args):
            future = Future()
            if fn is check_partition:
                future.set_exception(MemoryError())
            return future

    monkeypatch.setattr(verify, "ProcessPoolExecutor", PendingPool)
    with pytest.raises(MemoryError):
        verify._run_tasks([(check_partition, 10), (check_coverage, 10),
                           (check_closed_forms, 3)], workers=2)
    assert terminated == workers
    assert pool_sizes == [2]


@pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs a pool of two workers")
def test_a_failed_task_does_not_wait_for_the_running_ones():
    # int("x") fails at once while the other worker sleeps for a minute
    start = time.monotonic()
    with pytest.raises(ValueError):
        verify._run_tasks([(int, "x"), (time.sleep, 60)], 2)
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []


def test_suite_rejects_a_bad_check_before_any_pool_starts(pool_sizes):
    # an unknown ID beside the sweep, and a bound below 1, at 2 workers
    with pytest.raises(ValueError, match="T9.99"):
        run_suite(["T9.99", "sweep"], 200, workers=2)
    with pytest.raises(ValueError, match="L2.1"):
        run_suite(["L2.1"], 0, workers=2)
    assert pool_sizes == []


def test_sweep_rejects_bad_range():
    with pytest.raises(ValueError):
        sweep_convergence(0, 10)
    with pytest.raises(ValueError):
        sweep_convergence(5, 4)


def test_a_negative_budget_is_rejected_before_any_pool_starts(pool_sizes):
    with pytest.raises(ValueError, match="budget"):
        sweep_convergence(1, 10, -1, workers=2)
    for ids in (["sweep"], ["L2.1", "sweep"]):
        with pytest.raises(ValueError, match="budget"):
            run_suite(ids, 200, budget=-1, workers=2)
    assert pool_sizes == []


# phase two under the spawn start method, which pickles every task's
# arguments, phase one's memo among them, to a fresh interpreter
SPAWN_SWEEP = """\
import json, multiprocessing
from syrtree import verify

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    r = verify.sweep_convergence(1, verify.MEMO_MAX + 4000, 10**5, workers=2)
    print(json.dumps(r.as_dict()))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs a pool of two workers")
def test_phase_two_runs_under_spawn(tmp_path):
    # MEMO_MAX cannot be patched across spawn: phase one is the whole
    # window, and phase two two shards of 2000 seeds. The report is
    # _sweep_chunk(1, MEMO_MAX + 4000, 10**5)'s, one task
    script = tmp_path / "spawn_sweep.py"
    script.write_text(SPAWN_SWEEP, encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "lo": 1, "hi": verify.MEMO_MAX + 4000, "budget": 10**5,
        "decided": verify.MEMO_MAX + 4000, "undecided": 0,
        "max_stopping_time": {"steps": 596, "seed": 3732423},
        "max_excursion": {"value": 858555169576, "seed": 3873535}, "undecided_seeds": []}


def test_report_dicts_have_no_timing():
    check = check_partition(10)
    assert check.elapsed > 0
    assert list(check.as_dict()) == ["id", "bound", "passed", "counterexamples", "details"]
    assert "elapsed" not in sweep_convergence(1, 10).as_dict()


# one function of each module, found again in a fresh import by (module, name)
FRESH_IMPORT_PROBES = [("arith", "syr"), ("matrices", "_locate"), ("sequences", "walk"),
                       ("tree", "build_tree"), ("verify", "run_check"), ("cli", "main")]


def _fresh_import_refs():
    """Weak references to the probes of a fresh import of the package."""
    importlib.import_module("syrtree.cli")
    return [weakref.ref(getattr(sys.modules["syrtree." + mod], name))
            for mod, name in FRESH_IMPORT_PROBES]


def _drop_syrtree():
    """Drop the package and its modules from sys.modules; returns them."""
    names = [name for name in sys.modules if name.partition(".")[0] == "syrtree"]
    return {name: sys.modules.pop(name) for name in names}


def test_a_fresh_import_frees_the_copy_before_it():
    # typing caches each subscripted generic, such as List[SweepReport],
    # for the life of the process: one in an annotation that Python
    # evaluates would keep every copy of the module, and all it imports,
    # alive after a fresh import replaces it
    originals = _drop_syrtree()
    try:
        refs = _fresh_import_refs()
        _drop_syrtree()
        gc.collect()
        alive = [probe for probe, ref in zip(FRESH_IMPORT_PROBES, refs) if ref() is not None]
        assert alive == []
    finally:
        _drop_syrtree()
        sys.modules.update(originals)


def test_run_check_dispatch():
    assert run_check("L2.1", 100).id == "L2.1"
    assert run_check("T2.9", 1001).passed
    for check_id in ("T9.99", "sweep"):  # "sweep" is a suite ID, not a check
        with pytest.raises(ValueError):
            run_check(check_id)
    with pytest.raises(ValueError):
        run_suite(["T9.99"])


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


@pytest.mark.parametrize("check_id", ["T2.9", "T2.12", "T2.15"])
def test_cell_path_checks_at_default_bounds_equal_the_golden_suite(check_id):
    # golden.json's verify_all is `verify --suite all --format json` at default bounds
    suite = json.loads(json.loads(GOLDEN.read_text(encoding="utf-8"))["verify_all"])
    assert run_check(check_id).as_dict() == next(c for c in suite["checks"] if c["id"] == check_id)


@pytest.mark.parametrize("bound", [0, -5])
@pytest.mark.parametrize("check_id", list(verify.CHECKS))
def test_run_check_rejects_bound_below_1(check_id, bound):
    with pytest.raises(ValueError, match=re.escape(check_id) + ".*" + str(bound)):
        run_check(check_id, bound)


def test_collector_caps_capture():
    c = _Collector()
    for i in range(25):
        c.add(i=i)
    assert len(c.items) == MAX_COUNTEREXAMPLES
