"""Bounded property checks with brute-force oracles, plus range sweeps.

Every check restates one finite, mechanically decidable claim about the
matrices, the connection cells, or the sequences, and verifies it against
an independent route (direct iteration, cell enumeration, literal
halving). A failing check carries up to ten counterexamples, each with a
snippet that re-verifies the single instance in isolation. Nothing here
proves an asymptotic statement: a pass means "holds up to the bound", and
sequence sweeps report seeds that exhaust their step budget as undecided
rather than asserting convergence.

Check IDs (stable, individually addressable from the CLI):

    L2.1   residue-class partition identities and the S-value table
    T2.9   matrix coverage of the odds: bijection and the row>=1 slice
    T2.11  closed forms of entries and connection cells
    T2.12  every column index receives a connection, both branches
    T2.15  no repeated column in a sequence except the trivial tail
    L3.3   unique 2^r(2t+1) form of the evens and the halving prefix
    sweep  convergence statistics over a seed range
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .arith import syr, syr_class, v2
from .matrices import child_column, entry, iter_connections, locate, row
from .sequences import col_seq, walk

MAX_COUNTEREXAMPLES = 10

# S-value tuples (S1, S3, S5, S7) for t = 0..3, fixed reference rows
TABLE_A_ANCHORS = {
    0: (1, 5, 1, 11),
    1: (7, 17, 5, 23),
    2: (13, 29, 1, 35),
    3: (19, 41, 11, 47),
}

# (parent_a, child_a, x, y, m) reference cells, each re-derivable as
# (entry(parent_a, x, y) - child_a) / 6
TABLE_B_ANCHORS = [
    (1, 1, 3, 0, 14),
    (1, 5, 2, 1, 24),
    (5, 1, 0, 4, 3),
    (5, 5, 1, 4, 12),
]


@dataclass
class PropertyCheck:
    """Outcome of one bounded check."""

    id: str
    bound: str
    passed: bool
    counterexamples: List[dict] = field(default_factory=list)
    details: Dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0

    def as_dict(self) -> dict:
        # elapsed intentionally omitted: reports must be byte-reproducible
        return {
            "id": self.id,
            "bound": self.bound,
            "passed": self.passed,
            "counterexamples": self.counterexamples,
            "details": self.details,
        }


class _Collector:
    """Caps counterexample capture; scanning stops once the cap is hit."""

    def __init__(self):
        self.items: List[dict] = []

    def add(self, **kw) -> bool:
        """Record one counterexample; returns False when full."""
        if len(self.items) < MAX_COUNTEREXAMPLES:
            self.items.append(kw)
        return len(self.items) < MAX_COUNTEREXAMPLES

    def result(self, check_id: str, bound: str, details: Dict[str, int], t0: float) -> PropertyCheck:
        """The check's outcome: it passes exactly when nothing was recorded."""
        return PropertyCheck(check_id, bound, not self.items, self.items, details,
                             time.perf_counter() - t0)


def table_a_rows(q_max: int = 15) -> List[tuple]:
    """Rows (q, 8q+1, 8q+3, 8q+5, 8q+7, S1, S3, S5, S7)."""
    rows = []
    for q in range(q_max + 1):
        rows.append(
            (q, 8 * q + 1, 8 * q + 3, 8 * q + 5, 8 * q + 7)
            + tuple(syr_class(a, q) for a in (1, 3, 5, 7))
        )
    return rows


def table_b_cells(x_max: int = 8, q_max: int = 15) -> List[tuple]:
    """Defined connection cells (a, b, x, y, m) from the closed forms.

    a is the parent matrix branch, b the child branch, m the child column
    attaching to parent cell (x, y); cells whose entry is a multiple of 3
    are skipped. Ordered by (a, x, y).
    """
    cells = []
    for parent_a in (1, 5):
        for x in range(x_max + 1):
            for y in range(q_max + 1):
                for b in (1, 5):
                    m = child_column(b, parent_a, x, y)
                    if m is not None:
                        cells.append((parent_a, b, x, y, m))
                        break
    return cells


def check_partition(bound: int = 10_000) -> PropertyCheck:
    """L2.1: the four class identities, image residues, and the S table.

    For t <= bound: S5(4t)=S1(t), S5(4t+1)=S3(t), S5(4t+2)=S5(t),
    S5(4t+3)=S7(t), and the image of any odd is never a multiple of 3
    (so every non-seed term is 6t+1 or 6t+5). Regenerates the S-value
    table for q = 0..15 and compares the fixed reference rows.
    """
    t0 = time.perf_counter()
    ce = _Collector()
    scanning = True
    for t in range(bound + 1):
        if not scanning:
            break
        s5 = [syr_class(5, 4 * t + i) for i in range(4)]
        rhs = [syr_class(1, t), syr_class(3, t), syr_class(5, t), syr_class(7, t)]
        for i in range(4):
            if s5[i] != rhs[i]:
                scanning = ce.add(
                    t=t,
                    identity=f"S5(4t+{i})",
                    lhs=s5[i],
                    rhs=rhs[i],
                    repro=f"python -c 'from syrtree.arith import syr_class; "
                    f"print(syr_class(5, {4 * t + i}), {rhs[i]})'",
                )
        img = syr(2 * t + 1)
        if img % 3 == 0:
            scanning = ce.add(t=t, value=2 * t + 1, image=img, identity="image mod 3")
    rows = table_a_rows(15)
    for q, expected in TABLE_A_ANCHORS.items():
        got = rows[q][5:]
        if got != expected:
            ce.add(q=q, row=got, expected=expected, identity="table A row")
    for q in range(16):
        # every S5 value is a duplicate: S5(q) = S_a(q//4) with a fixed by q%4
        a_dup = (1, 3, 5, 7)[q % 4]
        if syr_class(5, q) != syr_class(a_dup, q // 4):
            ce.add(q=q, identity="S5 duplication", dup_class=a_dup)
    return ce.result("L2.1", f"t<={bound}",
                     {"identities_checked": 4 * (bound + 1), "table_rows": 16}, t0)


def check_coverage(bound: int = 10**6) -> PropertyCheck:
    """T2.9: every odd n <= bound sits in exactly one cell, and the cells
    with row p >= 1 are exactly the odds = 5 (mod 8).

    Route one enumerates all cells with value <= bound and marks them;
    route two walks the odds and round-trips locate/entry.
    """
    t0 = time.perf_counter()
    ce = _Collector()
    seen = bytearray((bound >> 1) + 1)
    cells = 0
    for a in (1, 5):
        p = 0
        while entry(a, p, 0) <= bound:
            for q, e in enumerate(row(a, p)):
                if e > bound:
                    break
                cells += 1
                idx = (e - 1) >> 1
                if seen[idx]:
                    ce.add(n=e, problem="hit by two cells", cell=(a, p, q))
                seen[idx] = 1
                if locate(e) != (a, p, q):
                    ce.add(n=e, problem="locate disagrees", cell=(a, p, q),
                           located=tuple(locate(e)), repro=f"syrtree locate {e}")
            p += 1
    odds = 0
    for n in range(1, bound + 1, 2):
        odds += 1
        if not seen[(n - 1) >> 1]:
            if not ce.add(n=n, problem="no cell", repro=f"syrtree locate {n}"):
                break
        a, p, q = locate(n)
        if entry(a, p, q) != n:
            if not ce.add(n=n, problem="round-trip", cell=(a, p, q)):
                break
        if (p >= 1) != (n % 8 == 5):
            if not ce.add(n=n, problem="row>=1 slice", p=p):
                break
    return ce.result("T2.9", f"n<={bound}",
                     {"cells_enumerated": cells, "odds_checked": odds}, t0)


def check_closed_forms(p_max: int = 8, q_max: int = 64) -> PropertyCheck:
    """T2.11: closed forms agree with their step-by-step counterparts.

    Entries: entry(a, p, q) equals p-fold application of m -> 4m+1 to the
    row-0 value. Connection cells: the closed form equals
    (entry - residue)/6 wherever defined, is undefined exactly where the
    entry residue disagrees, and its numerator is divisible by 9 exactly
    on the defined cells. Also regenerates the reference connection table
    (x <= 8, y <= 15) and compares the fixed anchor cells.
    """
    t0 = time.perf_counter()
    ce = _Collector()
    entries = 0
    for a in (1, 5):
        for q in range(q_max + 1):
            m = 8 * q + 1 if a == 1 else 4 * q + 3
            for p in range(p_max + 1):
                entries += 1
                if entry(a, p, q) != m:
                    ce.add(cell=(a, p, q), closed=entry(a, p, q), iterated=m)
                m = 4 * m + 1
    cells = 0
    direct_defined = {
        (c.child_a, c.parent_a, c.x, c.y): c.m
        for pa in (1, 5)
        for c in iter_connections(pa, p_max, q_max=q_max)
    }
    for child_a in (1, 5):
        for parent_a in (1, 5):
            for x in range(p_max + 1):
                for q in range(q_max + 1):
                    cells += 1
                    closed = child_column(child_a, parent_a, x, q)
                    direct = direct_defined.get((child_a, parent_a, x, q))
                    if closed != direct:
                        ce.add(
                            child=child_a, parent=parent_a, x=x, q=q,
                            closed=closed, direct=direct,
                            repro=f"python -c 'from syrtree.matrices import "
                            f"child_column, entry; print(child_column({child_a}, "
                            f"{parent_a}, {x}, {q}), entry({parent_a}, {x}, {q}))'",
                        )
    anchors_ok = 0
    table = set(table_b_cells(8, 15))
    for cell in TABLE_B_ANCHORS:
        if cell in table:
            anchors_ok += 1
        else:
            ce.add(anchor=cell, problem="missing from regenerated table")
    return ce.result("T2.11", f"p<={p_max},q<={q_max}",
                     {"entries_checked": entries, "cells_checked": cells,
                      "table_anchors": anchors_ok}, t0)


def check_connection_coverage(bound: int = 10_000) -> PropertyCheck:
    """T2.12: every column index m <= bound receives a connection in both
    branches.

    Route one enumerates defined cells of both parent matrices until the
    entry values pass 6*bound+5 and marks the child columns hit. Route
    two exhibits a witness per m: the cell holding 6m+a must be a defined
    connection with child column m (by closed form).
    """
    t0 = time.perf_counter()
    ce = _Collector()
    x_cap = 1
    while entry(1, x_cap, 0) <= 6 * bound + 5 or entry(5, x_cap, 0) <= 6 * bound + 5:
        x_cap += 1
    covered = {1: bytearray(bound + 1), 5: bytearray(bound + 1)}
    cells = 0
    for parent_a in (1, 5):
        for c in iter_connections(parent_a, x_cap, max_child=bound):
            covered[c.child_a][c.m] = 1
            cells += 1
    witnesses = 0
    for m in range(bound + 1):
        for child_a in (1, 5):
            if not covered[child_a][m]:
                if not ce.add(m=m, child=child_a, problem="no connection found"):
                    break
            b, x, y = locate(6 * m + child_a)
            if child_column(child_a, b, x, y) != m:
                if not ce.add(m=m, child=child_a, problem="witness mismatch",
                              cell=(b, x, y)):
                    break
            witnesses += 1
        else:
            continue
        break
    return ce.result("T2.12", f"m<={bound}",
                     {"cells_enumerated": cells, "witnesses": witnesses}, t0)


def check_cycle_freedom(bound: int = 10**5, max_steps: int = 10**5) -> PropertyCheck:
    """T2.15: a sequence never revisits a column, except the final pair
    landing in the root column, and never repeats a value before 1.

    The final-pair exception is forced: the predecessor of 1 is always an
    entry of column (1, 0), which also holds 1 itself (the trivial cycle;
    sequences may end ...,5,1 or ...,21,1).
    """
    t0 = time.perf_counter()
    ce = _Collector()
    seeds = 0
    for seed in range(1, bound + 1, 2):
        seeds += 1
        found = _first_revisit(seed, max_steps)
        if found is not None and not ce.add(seed=seed, **found,
                                            repro=f"syrtree seq {seed} --kind syr"):
            break
    return ce.result("T2.15", f"odd seeds<={bound}", {"seeds_checked": seeds}, t0)


def _first_revisit(seed: int, max_steps: int) -> Optional[dict]:
    """T2.15 for one seed: what its column walk repeats first, or None.

    Checks terms 0..max_steps; a walk still short of 1 after term max_steps
    cannot be certified. Columns are keyed by their connection point 6q+a,
    which no two columns share.
    """
    cols: Dict[int, int] = {}  # connection point -> index of the term in that column
    values = set()
    cur = seed
    for i, (c, nxt) in enumerate(walk(seed, max_steps + 1)):
        if nxt in cols:
            return {"column": (c.a, c.q), "first_index": cols[nxt], "index": i}
        cols[nxt] = i
        if cur in values:
            return {"value": cur, "problem": "value repeats"}
        values.add(cur)
        if i >= max_steps:
            break
        cur = nxt
    # the walk emits 1 only from the root column (1, 0), so a final 1 shares
    # that column with its predecessor alone: the forced final pair
    return None if cur == 1 else {"problem": "budget exhausted, cannot certify"}


def check_even_identity(bound: int = 10**6) -> PropertyCheck:
    """L3.3: every even m <= bound is 2^r(2t+1) for exactly one r >= 1,
    and the halving prefix of its plain sequence has length exactly r.

    r comes from the bit trick (v2) and is re-derived by literally halving
    until odd; the sequence prefix itself is verified for all m up to
    2^14 and for a deterministic stride above that (full construction of
    every sequence would repeat the convergence sweep).
    """
    t0 = time.perf_counter()
    ce = _Collector()
    evens = 0
    prefix_checked = 0
    for m in range(2, bound + 1, 2):
        evens += 1
        r = v2(m)
        k, literal = m, 0
        while k & 1 == 0:
            k >>= 1
            literal += 1
        if r != literal or k & 1 == 0 or (k << r) != m or r < 1:
            if not ce.add(m=m, r=r, literal=literal, odd_part=k):
                break
        if m <= (1 << 14) or m % 4096 == 0:
            s = col_seq(m)
            prefix_checked += 1
            if s.terms[r] != k or any(t & 1 for t in s.terms[:r]):
                if not ce.add(m=m, r=r, problem="sequence prefix",
                              repro=f"syrtree seq {m} --kind col"):
                    break
    return ce.result("L3.3", f"even m<={bound}",
                     {"evens_checked": evens, "sequence_prefixes_checked": prefix_checked}, t0)


@dataclass
class SweepReport:
    """Aggregate of a convergence sweep over [lo, hi].

    A seed is decided when its sequence literally reaches 1 within the
    step budget; max statistics cover decided seeds only. decided +
    undecided always equals the range size.
    """

    lo: int
    hi: int
    budget: int
    decided: int
    undecided: int
    max_stopping_time: Optional[Tuple[int, int]]  # (steps, seed)
    max_excursion: Optional[Tuple[int, int]]  # (value, seed)
    undecided_seeds: List[int] = field(default_factory=list)  # first few only
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.undecided == 0

    def as_dict(self) -> dict:
        # elapsed and worker count omitted: byte-identical across runs
        return {
            "lo": self.lo,
            "hi": self.hi,
            "budget": self.budget,
            "decided": self.decided,
            "undecided": self.undecided,
            "max_stopping_time": (
                None
                if self.max_stopping_time is None
                else {"steps": self.max_stopping_time[0], "seed": self.max_stopping_time[1]}
            ),
            "max_excursion": (
                None
                if self.max_excursion is None
                else {"value": self.max_excursion[0], "seed": self.max_excursion[1]}
            ),
            "undecided_seeds": self.undecided_seeds,
        }


def _sweep_chunk(args) -> dict:
    """Stats for seeds in [lo, hi]: per-seed plain-step walk, memoized over
    [1, hi]. The memo stores exact totals only, so outcomes are identical
    to walking every seed on its own."""
    lo, hi, budget = args
    steps_c = [-1] * (hi + 1)
    max_c = [0] * (hi + 1)
    steps_c[1] = 0
    max_c[1] = 1
    decided = 0
    best_steps: Optional[Tuple[int, int]] = None
    best_exc: Optional[Tuple[int, int]] = None
    undecided: List[int] = []
    for seed in range(lo, hi + 1):
        path = []
        m = seed
        resolved = True
        while True:
            if m == 1:
                s, mx = 0, 1
                break
            if m <= hi and steps_c[m] >= 0:
                s, mx = steps_c[m], max_c[m]
                break
            if len(path) >= budget:
                resolved = False
                break
            path.append(m)
            m = 3 * m + 1 if m & 1 else m >> 1
        if resolved:
            for v in reversed(path):
                s += 1
                if v > mx:
                    mx = v
                if v <= hi:
                    steps_c[v] = s
                    max_c[v] = mx
        ok = resolved and s <= budget
        if ok:
            decided += 1
            if best_steps is None or s > best_steps[0] or (s == best_steps[0] and seed < best_steps[1]):
                best_steps = (s, seed)
            if best_exc is None or mx > best_exc[0] or (mx == best_exc[0] and seed < best_exc[1]):
                best_exc = (mx, seed)
        elif len(undecided) < MAX_COUNTEREXAMPLES:
            undecided.append(seed)
    return {
        "decided": decided,
        "undecided": (hi - lo + 1) - decided,
        "best_steps": best_steps,
        "best_exc": best_exc,
        "undecided_seeds": undecided,
    }


def _merge_best(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if b[0] > a[0] or (b[0] == a[0] and b[1] < a[1]):
        return b
    return a


def sweep_convergence(
    lo: int,
    hi: int,
    budget: int = 10**5,
    workers: int = 1,
) -> SweepReport:
    """Run every seed in [lo, hi] to 1 (or to the budget) and aggregate.

    Sharding is by contiguous sub-ranges; per-seed results are intrinsic,
    and the merge is associative with explicit tie-breaks (larger stat
    wins, then smaller seed), so the report is identical for any worker
    count or shard layout. At most min(workers, hi-lo+1, cpu count)
    shards run, one process each.
    """
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    if budget < 0 or workers < 0:
        raise ValueError("budget and workers must be >= 0")
    t0 = time.perf_counter()
    n_chunks = min(max(workers, 1), hi - lo + 1, os.cpu_count() or 1)
    size = (hi - lo + 1 + n_chunks - 1) // n_chunks
    chunks = []
    a = lo
    while a <= hi:
        b = min(a + size - 1, hi)
        chunks.append((a, b, budget))
        a = b + 1
    if n_chunks == 1:
        results = [_sweep_chunk(c) for c in chunks]
    else:
        with ProcessPoolExecutor(max_workers=n_chunks) as pool:
            results = list(pool.map(_sweep_chunk, chunks))
    decided = sum(r["decided"] for r in results)
    undecided = sum(r["undecided"] for r in results)
    best_steps = None
    best_exc = None
    undecided_seeds: List[int] = []
    for r in results:
        best_steps = _merge_best(best_steps, r["best_steps"])
        best_exc = _merge_best(best_exc, r["best_exc"])
        undecided_seeds.extend(r["undecided_seeds"])
    return SweepReport(
        lo,
        hi,
        budget,
        decided,
        undecided,
        best_steps,
        best_exc,
        undecided_seeds[:MAX_COUNTEREXAMPLES],
        time.perf_counter() - t0,
    )


# check ID -> (check run at a bound, default bound), in report order. The
# sweep has no such function: it also takes a budget and a worker count,
# so the CLI calls sweep_convergence itself.
CHECKS = {
    "L2.1": (check_partition, 10_000),
    "T2.9": (check_coverage, 10**6),
    "T2.11": (lambda q_max: check_closed_forms(8, q_max), 64),
    "T2.12": (check_connection_coverage, 10_000),
    "T2.15": (check_cycle_freedom, 10**5),
    "L3.3": (check_even_identity, 10**6),
    "sweep": (None, 10**6),
}

SUITE_DEFAULT_BOUNDS = {cid: bound for cid, (_run, bound) in CHECKS.items()}

SUITE_IDS = tuple(CHECKS)


def run_check(check_id: str, bound: Optional[int] = None) -> PropertyCheck:
    """Run one bounded check by ID; bound falls back to the suite default.

    For T2.11 the bound sets the column range q_max (row range stays 8).
    """
    run, default = CHECKS.get(check_id, (None, None))
    if run is None:
        raise ValueError(f"unknown check id {check_id!r}")
    return run(default if bound is None else bound)
