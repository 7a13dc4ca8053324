"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (run with -s to see them on success)
and asserts exactly the documented tolerance: value checks are exact,
timing envelopes are the stated wall-clock budgets. Expected values come
either from fixed worked examples or from independent brute-force
oracles defined inline here.
"""

import json
import random
import time

from syrtree.cli import main
from syrtree.matrices import child_column, entry, locate
from syrtree.sequences import col_seq, stats, syr_seq_model, syr_seq_oracle
from syrtree.tree import ComponentId, build_tree
from syrtree.verify import (
    check_closed_forms,
    check_connection_coverage,
    check_coverage,
    check_cycle_freedom,
    sweep_convergence,
    table_a_rows,
)


def report(cid, name, ok, extra=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {cid} {name} {extra}".rstrip())
    assert ok, f"{cid} {name} {extra}"


def ref_syr(n):
    # inline reference: halve 3n+1 until odd
    m = 3 * n + 1
    while m % 2 == 0:
        m //= 2
    return m


def ref_col_stats(n):
    steps, mx = 0, n
    while n != 1:
        n = 3 * n + 1 if n % 2 else n // 2
        steps += 1
        mx = max(mx, n)
    return steps, mx


def test_c1_worked_examples_byte_exact(capsys):
    code = main(["seq", "35", "--kind", "syr"])
    out = capsys.readouterr().out
    ok = code == 0 and out == "35 53 5 1\n"
    code = main(["seq", "35", "--kind", "col"])
    out = capsys.readouterr().out
    ok = ok and code == 0 and out == "35 106 53 160 80 40 20 10 5 16 8 4 2 1\n"
    elapsed = min(
        _timed(lambda: syr_seq_model(35)), _timed(lambda: col_seq(35))
    )
    ok = ok and elapsed < 1e-3
    with capsys.disabled():
        report("C1", "worked examples byte-exact", ok, f"({elapsed * 1e6:.0f}us)")


def _timed(fn, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_c2_table_a_reproduction(capsys):
    rows = table_a_rows(15)
    anchors = {
        0: (1, 5, 1, 11),
        1: (7, 17, 5, 23),
        2: (13, 29, 1, 35),
        3: (19, 41, 11, 47),
    }
    ok = all(rows[q][5:] == t for q, t in anchors.items())
    for q in range(16):
        expected = (q, 8 * q + 1, 8 * q + 3, 8 * q + 5, 8 * q + 7) + tuple(
            ref_syr(8 * q + a) for a in (1, 3, 5, 7)
        )
        ok = ok and rows[q] == expected
    with capsys.disabled():
        report("C2", "table A rows q=0..15 exact", ok)


def test_c3_tree_reproduction(capsys):
    t0 = time.perf_counter()
    t = build_tree(2, 4)
    elapsed = time.perf_counter() - t0
    level1 = [(e.child, e.via) for e in t.edges[0]]
    ok = level1 == [
        (ComponentId(5, 0), 5),
        (ComponentId(1, 14), 85),
        (ComponentId(5, 56), 341),
    ]
    under_5_0 = [(e.child, e.via) for e in t.edges[1] if e.parent == ComponentId(5, 0)]
    ok = ok and under_5_0 == [
        (ComponentId(1, 2), 13),
        (ComponentId(5, 8), 53),
        (ComponentId(1, 142), 853),
    ]
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        report("C3", "tree levels 0-2 exact", ok, f"({elapsed:.3f}s)")


def test_c4_bijection_sweep(capsys):
    t0 = time.perf_counter()
    c = check_coverage(10**6)
    elapsed = time.perf_counter() - t0
    ok = c.passed and elapsed < 10.0
    ok = ok and c.details["cells_enumerated"] == 500000
    with capsys.disabled():
        report("C4", "bijection sweep n<=1e6", ok, f"({elapsed:.2f}s)")


def test_c5_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 100001, 2):
        a, _p, q = locate(n)
        if 6 * q + a != ref_syr(n):
            ok = False
            break
    for n in range(1, 100001, 2):
        if syr_seq_model(n).terms != syr_seq_oracle(n).terms:
            ok = False
            break
    rnd = random.Random(20260811)
    for _ in range(10**4):
        n = rnd.randrange(1, 10**18, 2)
        m = syr_seq_model(n, max_steps=10**5)
        o = syr_seq_oracle(n, max_steps=10**5)
        if m.terms != o.terms or m.truncated:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report("C5", "oracle equivalence 1e5 + 1e4 random", ok, f"({elapsed:.2f}s)")


def test_c6_closed_forms(capsys):
    c = check_closed_forms(64)
    ok = c.passed
    # spot re-derivation straight from the entries
    for child in (1, 5):
        for parent in (1, 5):
            for x in range(9):
                for q in range(65):
                    n = entry(parent, x, q)
                    want = (n - child) // 6 if n % 6 == child else None
                    if child_column(child, parent, x, q) != want:
                        ok = False
    with capsys.disabled():
        report("C6", "connection closed forms x<=8 q<=64 exact", ok)


def test_c7_connection_coverage(capsys):
    t0 = time.perf_counter()
    c = check_connection_coverage(10**4)
    elapsed = time.perf_counter() - t0
    ok = c.passed and elapsed < 30.0
    with capsys.disabled():
        report("C7", "connection coverage m<=1e4", ok, f"({elapsed:.2f}s)")


def test_c8_cycle_freedom(capsys):
    c = check_cycle_freedom(10**5)
    ok = c.passed and c.details["seeds_checked"] == 50000
    with capsys.disabled():
        report("C8", "cycle freedom odd seeds<=1e5", ok)


def test_c9_convergence_sweep(capsys):
    assert ref_col_stats(27) == (111, 9232)
    t0 = time.perf_counter()
    r = sweep_convergence(1, 10**6, budget=10**5, workers=4)
    elapsed = time.perf_counter() - t0
    ok = r.decided == 10**6 and r.undecided == 0
    ok = ok and r.max_stopping_time == (524, 837799)
    ok = ok and r.max_excursion == (56991483520, 704511)
    r27 = sweep_convergence(27, 27)
    ok = ok and r27.max_stopping_time == (111, 27) and r27.max_excursion == (9232, 27)
    ok = ok and elapsed < 60.0
    with capsys.disabled():
        report("C9", "convergence sweep [1,1e6]", ok, f"({elapsed:.2f}s)")


def test_c10_determinism(capsys):
    def catch(argv):
        code = main(argv)
        assert code == 0
        return capsys.readouterr().out

    ok = True
    for argv in (
        ["tree", "--levels", "3", "--max-p", "4", "--format", "dot"],
        ["tree", "--levels", "3", "--max-p", "4", "--format", "json"],
        ["table", "--which", "A"],
        ["table", "--which", "B"],
        ["verify", "--suite", "T2.12", "--bound", "2000", "--format", "json"],
    ):
        ok = ok and catch(argv) == catch(argv)
    sweep_out = [
        catch(["verify", "--suite", "sweep", "--bound", "20000",
               "--workers", str(w), "--format", "json"])
        for w in (1, 2, 4)
    ]
    ok = ok and sweep_out[0] == sweep_out[1] == sweep_out[2]
    ok = ok and json.loads(sweep_out[0])["sweep"]["decided"] == 20000
    # the whole suite shares one pool: checks and sweep shards
    suite_out = [
        catch(["verify", "--suite", "all", "--bound", "2000",
               "--workers", str(w), "--format", "json"])
        for w in (1, 2, 4)
    ]
    ok = ok and suite_out[0] == suite_out[1] == suite_out[2]
    with capsys.disabled():
        report("C10", "byte determinism across runs and workers", ok)
