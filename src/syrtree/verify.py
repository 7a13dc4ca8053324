"""Bounded property checks with brute-force oracles, plus range sweeps.

Every check restates one finite, mechanically decidable claim about the
matrices, the connection cells, or the sequences, and verifies it against
an independent route (direct iteration, cell enumeration, literal
halving). A failing check carries up to ten counterexamples, each with a
snippet that re-verifies the single instance in isolation. Nothing here
proves an asymptotic statement: a pass means "holds up to the bound", and
sequence sweeps report seeds that exhaust their step budget as undecided
rather than asserting convergence.

Suite IDs (stable, each addressable from the CLI; all but sweep are checks):

    L2.1   residue-class partition identities and the S-value table
    T2.9   matrix coverage of the odds: bijection and the row>=1 slice
    T2.11  closed forms of entries and connection cells
    T2.12  every column index receives a connection, both branches
    T2.15  no repeated column in a sequence except the trivial tail
    L3.3   unique 2^r(2t+1) form of the evens and the halving prefix
    sweep  convergence statistics over a seed range
"""

# annotations stay strings: typing's cache of List[...] would keep old module copies alive
from __future__ import annotations

import functools
import itertools
import os
import signal
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from .arith import syr, syr_class
from .matrices import child_column, iter_connections, row
# the cores under the names perfbench/spans.py wraps; the checks build valid args
from .arith import _v2 as v2
from .matrices import _entry as entry, _locate as locate
from .sequences import col_seq, walk

MAX_COUNTEREXAMPLES = 10

# the sweep memoizes odd values up to this bound only (one 2-byte array slot
# per odd value, 4 MiB of slots), so its memory does not grow with the
# range's top; no odd value up to it takes over 596 plain steps to 1
MEMO_MAX = 1 << 22

# above its memo window the sweep takes this many Terras steps at once
JUMP_K = 8

SWEEP_BOUND = 10**6  # the sweep's default top seed
SWEEP_BUDGET = 10**5  # the sweep's default step budget per seed

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
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "elapsed"}


class _Collector:
    """Caps counterexample capture and times the check, which makes it first."""

    def __init__(self):
        self.items: List[dict] = []
        self.t0 = time.perf_counter()

    def add(self, **kw) -> bool:
        """Record one counterexample; returns False when full."""
        if len(self.items) < MAX_COUNTEREXAMPLES:
            self.items.append(kw)
        return len(self.items) < MAX_COUNTEREXAMPLES

    def result(self, check_id: str, bound: str, details: Dict[str, int]) -> PropertyCheck:
        """The check's outcome: it passes exactly when nothing was recorded."""
        return PropertyCheck(check_id, bound, not self.items, self.items, details,
                             time.perf_counter() - self.t0)


def table_a_rows(q_max: int = 15) -> List[tuple]:
    """Rows (q, 8q+1, 8q+3, 8q+5, 8q+7, S1, S3, S5, S7)."""
    rows = []
    for q in range(q_max + 1):
        rows.append(
            (q, 8 * q + 1, 8 * q + 3, 8 * q + 5, 8 * q + 7)
            + tuple(syr_class(a, q) for a in (1, 3, 5, 7))
        )
    return rows


def table_b_cells(q_max: int = 15) -> List[tuple]:
    """Defined connection cells (a, b, x, y, m) of iter_connections, x <= 8, y <= q_max.

    a is the parent matrix branch, b the child branch, m the child column
    attaching to parent cell (x, y); cells whose entry is a multiple of 3
    are skipped. Ordered by (a, x, y).
    """
    return [(c.parent_a, c.child_a, c.x, c.y, c.m)
            for parent_a in (1, 5) for c in iter_connections(parent_a, 8, q_max=q_max)]


def check_partition(bound: int = 10_000) -> PropertyCheck:
    """L2.1: the four class identities, image residues, and the S table.

    For t <= bound: S5(4t)=S1(t), S5(4t+1)=S3(t), S5(4t+2)=S5(t),
    S5(4t+3)=S7(t), and the image of any odd is never a multiple of 3
    (so every non-seed term is 6t+1 or 6t+5). Regenerates the S-value
    table for q = 0..15 and compares the fixed reference rows. The scan
    and identities_checked end at the t where the counterexamples fill up.
    """
    ce = _Collector()
    t = -1  # a bound below 0 scans nothing
    for t in range(bound + 1):
        s5 = [syr_class(5, 4 * t + i) for i in range(4)]
        rhs = [syr_class(1, t), syr_class(3, t), syr_class(5, t), syr_class(7, t)]
        for i in range(4):
            if s5[i] != rhs[i]:
                ce.add(
                    t=t,
                    identity=f"S5(4t+{i})",
                    lhs=s5[i],
                    rhs=rhs[i],
                    repro=f"python -c 'from syrtree.arith import syr_class; "
                    f"print(syr_class(5, {4 * t + i}), {rhs[i]})'",
                )
        img = syr(2 * t + 1)
        if img % 3 == 0:
            ce.add(t=t, value=2 * t + 1, image=img, identity="image mod 3")
        if len(ce.items) == MAX_COUNTEREXAMPLES:
            break
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
                     {"identities_checked": 4 * (t + 1), "table_rows": 16})


def check_coverage(bound: int = 10**6) -> PropertyCheck:
    """T2.9: every odd n <= bound sits in exactly one cell, and the cells
    with row p >= 1 are exactly the odds = 5 (mod 8).

    One pass enumerates the cells with value <= bound by running addition
    along each row and marks them; each cell (a, p, q) holding e must give
    locate(e) == (a, p, q), entry(a, p, q) == e and (p >= 1) == (e % 8 == 5).
    A scan of the marks then finds any odd that no cell hit. Counterexamples
    come in enumeration order, and a broken locate shows only as "locate
    disagrees": the round trip and the slice read the enumerated cell.
    """
    ce = _Collector()
    seen = bytearray((bound >> 1) + 1)
    cells = 0
    for a in (1, 5):
        p = 0
        while entry(a, p, 0) <= bound:
            deep = p >= 1
            for q, e in enumerate(row(a, p)):
                if e > bound:
                    break
                cells += 1
                idx = e >> 1  # (e - 1) >> 1 for odd e
                cell = (a, p, q)
                if seen[idx]:
                    ce.add(n=e, problem="hit by two cells", cell=cell)
                seen[idx] = 1
                if locate(e) != cell:
                    ce.add(n=e, problem="locate disagrees", cell=cell,
                           located=tuple(locate(e)), repro=f"syrtree locate {e}")
                if entry(a, p, q) != e:
                    ce.add(n=e, problem="round-trip", cell=cell)
                if deep != (e & 7 == 5):
                    ce.add(n=e, problem="row>=1 slice", p=p)
            p += 1
    odds = (bound + 1) >> 1
    idx = seen.find(0, 0, odds)
    while idx >= 0:
        n = 2 * idx + 1
        if not ce.add(n=n, problem="no cell", repro=f"syrtree locate {n}"):
            odds = idx + 1
            break
        idx = seen.find(0, idx + 1, odds)
    return ce.result("T2.9", f"n<={bound}",
                     {"cells_enumerated": cells, "odds_checked": odds})


def check_closed_forms(q_max: int = 64) -> PropertyCheck:
    """T2.11: for p <= 8 and q <= q_max, closed forms agree with step-by-step counterparts.

    Entries: entry(a, p, q) equals p-fold application of m -> 4m+1 to the
    row-0 value. Connection cells: the closed form equals
    (entry - residue)/6 wherever defined, is undefined exactly where the
    entry residue disagrees, and its numerator is divisible by 9 exactly
    on the defined cells. Also regenerates the reference connection table
    (x <= 8, y <= 15) and compares the fixed anchor cells.
    """
    ce = _Collector()
    entries = 0
    for a in (1, 5):
        for q in range(q_max + 1):
            m = 8 * q + 1 if a == 1 else 4 * q + 3
            for p in range(9):
                entries += 1
                if entry(a, p, q) != m:
                    ce.add(cell=(a, p, q), closed=entry(a, p, q), iterated=m)
                m = 4 * m + 1
    cells = 0
    direct_defined = {(b, a, x, y): m for a, b, x, y, m in table_b_cells(q_max)}
    for child_a in (1, 5):
        for parent_a in (1, 5):
            for x in range(9):
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
    table = set(table_b_cells(15))
    for cell in TABLE_B_ANCHORS:
        if cell in table:
            anchors_ok += 1
        else:
            ce.add(anchor=cell, problem="missing from regenerated table")
    return ce.result("T2.11", f"p<=8,q<={q_max}",
                     {"entries_checked": entries, "cells_checked": cells,
                      "table_anchors": anchors_ok})


def check_connection_coverage(bound: int = 10_000) -> PropertyCheck:
    """T2.12: every column index m <= bound receives a connection in both
    branches.

    Route one enumerates defined cells of both parent matrices until the
    entry values pass 6*bound+5 and marks the child columns hit. Route
    two exhibits a witness per m: the cell holding 6m+a must be a defined
    connection with child column m (by closed form).
    """
    ce = _Collector()
    covered = {1: bytearray(bound + 1), 5: bytearray(bound + 1)}
    cells = 0
    for parent_a in (1, 5):
        for c in iter_connections(parent_a, max_child=bound):
            covered[c.child_a][c.m] = 1
            cells += 1
    witnesses = 0
    for m, child_a in itertools.product(range(bound + 1), (1, 5)):
        if not covered[child_a][m] and not ce.add(m=m, child=child_a,
                                                  problem="no connection found"):
            break
        b, x, y = locate(6 * m + child_a)
        if child_column(child_a, b, x, y) != m and not ce.add(
                m=m, child=child_a, problem="witness mismatch", cell=(b, x, y)):
            break
        witnesses += 1
    return ce.result("T2.12", f"m<={bound}",
                     {"cells_enumerated": cells, "witnesses": witnesses})


def check_cycle_freedom(bound: int = 10**5, max_steps: int = 10**5) -> PropertyCheck:
    """T2.15: a sequence never revisits a column, except the final pair
    landing in the root column, and never repeats a value before 1.

    The final-pair exception is forced: the predecessor of 1 is always an
    entry of column (1, 0), which also holds 1 itself (the trivial cycle;
    sequences may end ...,5,1 or ...,21,1).

    Seeds ascend, and a walk stops at its first term that is an already
    certified seed (Terras' stopping-time idea). The report is still the
    one walking every seed to 1 gives. The walk is a function of the
    current value, and the certified seed's walk to 1 is the suffix the
    full walk would take. Suppose a prefix term equalled a term of that
    suffix. From there the prefix would follow the suffix, so the certified
    walk would meet its own start again, or the prefix would reach 1 before
    it ends, where the walk stops. Both are impossible. So no repeat spans
    the prefix and the suffix, the suffix has none of its own, and the seed
    reaches 1 exactly as many steps later as the certified seed took. A seed
    with a counterexample certifies nothing, so later walks go through it
    in full.
    """
    ce = _Collector()
    # slot s >> 1 holds the steps to 1 of a certified odd seed s <= cap, -1
    # until then, so the list does not grow with bound past MEMO_MAX. 1 is
    # 0 steps from itself: seed 1 keeps that slot, as its walk's one step
    # 1 -> 1 is the trivial cycle
    cap = min(bound, MEMO_MAX)
    certified = [-1] * ((cap >> 1) + 1)
    certified[0] = 0
    seeds = 0
    for seed in range(1, bound + 1, 2):
        seeds += 1
        found, steps = _first_revisit(seed, max_steps, certified)
        if found is None:
            # "seed < cap" is equivalent: only walks of seeds above cap (bound >
            # MEMO_MAX) read the slot of seed == cap, and certifying changes no report
            if 1 < seed <= cap:
                certified[seed >> 1] = steps
        elif not ce.add(seed=seed, **found, repro=f"syrtree seq {seed} --kind syr"):
            break
    return ce.result("T2.15", f"odd seeds<={bound}", {"seeds_checked": seeds})


def _first_revisit(seed: int, max_steps: int,
                   certified: List[int]) -> Tuple[Optional[dict], int]:
    """T2.15 for one seed: (None, its steps to 1), or (what its column walk
    repeats first, -1).

    Checks terms 0..max_steps; a walk still short of 1 after term max_steps
    cannot be certified. Columns are keyed by their connection point 6q+a,
    which no two columns share. The walk stops at the first next term whose
    slot in certified (odd v at v >> 1) holds its steps to 1, as
    check_cycle_freedom argues. Only the seed can repeat as a value first:
    a repeat cur_i == cur_j, 1 <= j < i, has nxt_(i-1) == nxt_(j-1), which
    the column check reported a step earlier.
    """
    cols: Dict[int, int] = {}  # connection point -> index of the term in that column
    cur = seed
    for i, (c, nxt) in enumerate(walk(seed, max_steps + 1)):
        if nxt in cols:
            return {"column": (c[0], c[2]), "first_index": cols[nxt], "index": i}, -1
        cols[nxt] = i
        if i and cur == seed:
            return {"value": cur, "problem": "value repeats"}, -1
        if i >= max_steps:
            break
        slot = nxt >> 1
        if slot < len(certified) and certified[slot] >= 0:
            steps = i + 1 + certified[slot]
            if steps <= max_steps:
                return None, steps
            break  # over budget, and cur (term i < max_steps) is not 1
        cur = nxt
    # every 1 after term 0 is certified in slot 0, so cur is 1 here only for
    # seed 1 at term 0; the walk emits 1 only from the root column (1, 0), so
    # a final 1 shares that column with its predecessor alone: the forced
    # final pair
    if cur == 1:
        return None, 0
    return {"problem": "budget exhausted, cannot certify"}, -1


def check_even_identity(bound: int = 10**6) -> PropertyCheck:
    """L3.3: every even m <= bound is 2^r(2t+1) for exactly one r >= 1,
    and the halving prefix of its plain sequence has length exactly r.

    r comes from the bit trick (v2) and is re-derived by literally halving
    until odd; the sequence prefix itself, built to its r-th plain step
    only, is verified for all m up to 2^14 and for a deterministic stride
    above that.
    """
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
            s = col_seq(m, r)
            prefix_checked += 1
            if s.terms[r] != k or any(t & 1 for t in s.terms[:r]):
                if not ce.add(m=m, r=r, problem="sequence prefix",
                              repro=f"syrtree seq {m} --kind col"):
                    break
    return ce.result("L3.3", f"even m<={bound}",
                     {"evens_checked": evens, "sequence_prefixes_checked": prefix_checked})


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
        doc = PropertyCheck.as_dict(self)  # its fields but elapsed
        for key, name in (("max_stopping_time", "steps"), ("max_excursion", "value")):
            if doc[key] is not None:
                doc[key] = {name: doc[key][0], "seed": doc[key][1]}
        return doc


@functools.cache
def _terras_table() -> tuple:
    """(jump, glides): JUMP_K Terras steps (n -> n/2, odd n -> (3n+1)/2) on
    each class n = 2^JUMP_K*a + b, b < 2^JUMP_K, a >= 1. Built on first use.

    jump is five tuples (p3, steps, d, ua, ub): the steps take n to
    p3[b]*a + d[b] in steps[b] = JUMP_K + c(b) plain steps, p3[b] = 3^c(b)
    for the c(b) odd steps. glides[b] is (A, B, steps, ua, ub) when the
    residue fixes the glide, else None: n reaches the odd value A*a + B < n,
    A even, in steps plain steps. No plain value on the way to either end
    exceeds ua*a + ub.
    """
    size = 1 << JUMP_K
    jump, glides = [], []
    for b in range(size):
        # n = A*a + B; A stays even until the last halving, so B's parity
        # is n's for every a
        A, B, c = size, b, 0
        hi_a, hi_b, glide = A, B, None
        for j in range(JUMP_K):
            # A*a + B < 2^JUMP_K*a + b for every a >= 1, first time only
            if glide is None and B & 1 and A < size and A + B < size + b:
                glide = (A, B, j + c, hi_a, hi_b)
            if B & 1:
                A, B, c = 3 * A, 3 * B + 1, c + 1
                hi_a, hi_b = max(hi_a, A), max(hi_b, B)
            A, B = A >> 1, B >> 1
        jump.append((A, JUMP_K + c, B, hi_a, hi_b))
        glides.append(glide)
    return tuple(zip(*jump)), tuple(glides)


def _memo(cap: int) -> array:
    """A sweep memo of the odd values up to cap, slot v >> 1 for odd v:
    -1 (not known yet) but for 1, which is 0 steps from itself."""
    memo = array("h", [-1]) * ((cap >> 1) + 1)
    memo[0] = 0
    return memo


def _sweep_chunk(lo: int, hi: int, budget: int, memo: Optional[array] = None,
                 record: int = 0) -> SweepReport:
    """The report of the seeds in [lo, hi], in blocks aligned to 2^JUMP_K:
    whole residue classes settled from the memo, the other seeds walked.

    A step from odd m is 3m+1 followed by its halvings, 1 + z plain steps
    whose largest value is 3m+1, so a trajectory's maximum is the seed or
    some 3m+1. Odd values up to cap = min(hi, MEMO_MAX) have memo slots
    that hold their exact plain steps to 1 once known (-1 before), and no
    filled slot's trajectory maximum exceeds the shard's max-excursion
    record. The slots are the 16-bit ints of an array('h'): no odd value
    up to MEMO_MAX = 2^22 takes more than 596 plain steps to 1 (seed
    3732423, as _sweep_chunk(1, 2^22, 10^5) measures), and a store outside
    the type's range raises OverflowError rather than wrap, so a wrong
    kernel fails loudly. A walk fills the slots of its path only when its
    seed is decided: that seed's maximum bounds the path and is counted
    into the record at once. (A walk over budget may pass values above the
    record, so it fills nothing.) So a walk stops at a filled slot, and a
    seed beats the record exactly when its own walk up to that slot does.
    Above max(cap, 2^(JUMP_K+1)) a walk takes JUMP_K Terras steps at once
    through the jump of _terras_table, unless the block's bound on its
    values exceeds the record.

    A block [L, H] of about L/8 seeds inside the memo window first settles
    each class b that has a glide in bulk, against the record R held before
    the block, whose holder is below it: seed n = 2^JUMP_K*a + b takes
    steps + slot(A*a + B), a progression of slots below n, and peaks at
    most at max(ua*a + ub, R). A class is settled only when every slot it
    reads is filled, every result is within the budget and ua*a + ub <= R
    at the block's top a. Then none of its seeds is undecided or beats R,
    and an odd class fills its seeds' own slots, which keeps the invariant.
    The other seeds are walked in ascending order. The stopping-time record
    keeps the largest (steps, -seed), the smaller seed on a tie in any
    order. Only walked seeds can beat the excursion record, in ascending
    order, so a strict > keeps the smaller seed on a tie (a test with
    MEMO_MAX = 1 pins it). Outcomes are identical to walking every seed on
    its own, and a walk stops once it has spent its budget. Settling is only
    a shortcut: a class that could settle but is walked (as one whose
    largest total equals the budget would be under a strict <) gets the
    same decided seeds, steps and exact slot values, and each walk stops by
    its landing slot with values at most ua*a + ub <= R, so it cannot beat
    the record.

    A shard of phase two (_sweep) starts from memo, which phase one
    filled over [lo, MEMO_MAX] and it fills further in place, and from
    record, phase one's max-excursion value R. Every slot phase one filled
    has a trajectory maximum of at most R, so the invariant holds with R
    in place of 0, and slots left at -1 are walked past as before. R is
    held by a phase-one seed, below every seed here, so this shard's own
    max_excursion is a seed that beats R, or None, and the first maximum
    over the shards in order is the one-task report.
    """
    t0 = time.perf_counter()
    cap = min(hi, MEMO_MAX)
    steps_c = _memo(cap) if memo is None else memo
    (p3, jsteps, jd, ua, ub), glides = _terras_table()
    jump_above = max(cap, 2 << JUMP_K)
    size = 1 << JUMP_K
    mask = size - 1
    decided = 0
    best_s, best_seed = -1, 0  # the stopping-time record, none yet
    best_exc: Optional[Tuple[int, int]] = None
    undecided: List[int] = []
    L = lo
    while L <= hi:
        # about L/8 seeds from an aligned L, else up to the next alignment;
        # a top short of a whole 2^JUMP_K makes a block of its own
        H = (L if L & mask else L + (L >> 3)) | mask
        if H > hi:
            H = ((hi + 1) & ~mask) - 1
            if H < L:
                H = hi
        seeds = range(L, H + 1)
        if not L & mask and H & mask == mask and H <= cap:
            # (steps, -seed): the record, then each settled class's first maximum
            found = [(best_s, -best_seed)]
            todo = []
            a0, a1 = L >> JUMP_K, H >> JUMP_K
            for b, glide in enumerate(glides):
                if glide and glide[3] * a1 + glide[4] <= record:
                    h, j, steps = glide[0] >> 1, glide[1] >> 1, glide[2]
                    vals = steps_c[h * a0 + j:h * a1 + j + 1:h]
                    k = max(vals)
                    if -1 not in vals and k + steps <= budget:
                        if b & 1:
                            steps_c[(L + b) >> 1:(H >> 1) + 1:size >> 1] = array(
                                "h", map(steps.__add__, vals))
                        decided += len(vals)
                        found.append((k + steps, -(L + b + (vals.index(k) << JUMP_K))))
                        continue
                todo.append(b)
            best_s, neg = max(found)
            best_seed = -neg
            seeds = (base + off for base in range(L, H + 1, size) for off in todo)
        for seed in seeds:
            z = (seed & -seed).bit_length() - 1
            m = seed >> z
            s = z
            mx = seed
            k = steps_c[m >> 1] if m <= cap else -1
            path = [] if k < 0 else ()  # (odd value in the window, steps to it)
            while k < 0:
                if m <= cap:
                    k = steps_c[m >> 1]
                    if k >= 0:
                        break
                    path.append((m, s))
                if s >= budget:
                    k = -1
                    break
                if m > jump_above:
                    b = m & mask
                    a = m >> JUMP_K
                    if ua[b] * a + ub[b] <= record:
                        m = p3[b] * a + jd[b]
                        z = (m & -m).bit_length()
                        s += jsteps[b] + z - 1
                        m >>= z - 1
                        continue
                t = 3 * m + 1
                if t > mx:
                    mx = t
                z = (t & -t).bit_length()
                s += z
                m = t >> (z - 1)
            if k >= 0 and s + k <= budget:
                s += k
                for v, t in path:
                    steps_c[v >> 1] = s - t
                decided += 1
                if s > best_s or s == best_s and seed < best_seed:
                    best_s, best_seed = s, seed
                if mx > record:
                    best_exc = (mx, seed)
                    record = mx
            elif len(undecided) < MAX_COUNTEREXAMPLES:
                undecided.append(seed)
        L = H + 1
    best_steps = (best_s, best_seed) if best_s >= 0 else None
    return SweepReport(lo, hi, budget, decided, (hi - lo + 1) - decided, best_steps, best_exc,
                       undecided, time.perf_counter() - t0)


def _pool_size(workers: int, tasks: int) -> int:
    """min(max(workers, 1), tasks, CPUs this process may run on)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(max(workers, 1), tasks, cpus)


def _sweep_report(shards: List[SweepReport]) -> SweepReport:
    """Merge the reports of ascending, adjacent shards, in shard order, into
    the report of their union; its elapsed is the sum of the shards' times.
    The first maximum over the shards keeps the smaller seed on a tie."""

    def first_max(bests):
        return max(filter(None, bests), key=lambda best: best[0], default=None)

    return SweepReport(
        shards[0].lo,
        shards[-1].hi,
        shards[0].budget,
        sum(r.decided for r in shards),
        sum(r.undecided for r in shards),
        first_max(r.max_stopping_time for r in shards),
        first_max(r.max_excursion for r in shards),
        [n for r in shards for n in r.undecided_seeds][:MAX_COUNTEREXAMPLES],
        sum(r.elapsed for r in shards),
    )


def _run_tasks(tasks: List[tuple], workers: int) -> list:
    """Results of tasks (function, *args), in task order: each is
    function(*args). A pool sends function by name, so it is one nothing
    rebinds: a CHECKS function or _sweep_chunk, not run_check or
    sweep_convergence, which a tracer may wrap. Tasks are submitted in
    order to _pool_size(workers, len(tasks)) processes, each taking the
    next as it comes free, or run inline when that is 1; a failure or a
    Ctrl-C terminates the workers at once and re-raises. The workers start
    with SIGINT blocked and keep it so: a Ctrl-C interrupts the parent
    alone. (Windows has no signal mask, so there the workers take a SIGINT
    too.)"""
    size = _pool_size(workers, len(tasks))
    if size <= 1:
        return [function(*args) for function, *args in tasks]
    mask = getattr(signal, "pthread_sigmask", None)
    with ProcessPoolExecutor(max_workers=size) as pool:
        try:
            held = mask(signal.SIG_BLOCK, [signal.SIGINT]) if mask else None
            try:
                futures = [pool.submit(*task) for task in tasks]
            finally:  # a SIGINT held meanwhile raises here
                if mask:
                    mask(signal.SIG_SETMASK, held)
            return [future.result() for future in futures]
        except BaseException:
            # what ProcessPoolExecutor.terminate_workers does from Python 3.14;
            # leaving the pool then fails the tasks not done, without waiting
            for proc in list(pool._processes.values()):
                proc.terminate()
            raise


def _sweep(lo: int, hi: int, budget: int, workers: int,
           others: Sequence[tuple] = ()) -> Tuple[SweepReport, list]:
    """The report of the sweep of [lo, hi], and the results of others, tasks
    that follow the sweep's shards in its one _run_tasks call.

    The sweep runs in the k = max(1, P - len(others)) processes others leave
    idle, P = _pool_size(workers, len(others) + hi-lo+1). It is cut only
    above MEMO_MAX: a shard that started inside the memo window would walk
    its seeds from an empty memo. So on k > 1 a range from inside the window
    past it runs phase one, [lo, MEMO_MAX], here before any pool starts, on
    a fresh memo it fills; else a range from inside the window is one shard.
    The rest is cut every ceil(seeds / k) seeds into shards (_sweep_chunk,
    a, b, budget, memo, record), with phase one's memo and max-excursion
    value (None and 0 without one), which a pool pickles to each shard.
    """
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    if budget < 0 or workers < 0:
        raise ValueError("budget and workers must be >= 0")
    k = max(1, _pool_size(workers, len(others) + hi - lo + 1) - len(others))
    reports, memo, record = [], None, 0
    if k > 1 and lo <= MEMO_MAX < hi:  # phase one
        memo = _memo(MEMO_MAX)
        reports.append(_sweep_chunk(lo, MEMO_MAX, budget, memo))
        record = reports[0].max_excursion[0] if reports[0].max_excursion else 0
        lo = MEMO_MAX + 1
    elif lo <= MEMO_MAX:
        k = 1
    size = -(-(hi - lo + 1) // k)
    shards = [(_sweep_chunk, s, min(s + size - 1, hi), budget, memo, record)
              for s in range(lo, hi + 1, size)]
    results = _run_tasks(shards + list(others), workers)
    return _sweep_report(reports + results[:len(shards)]), results[len(shards):]


def sweep_convergence(
    lo: int,
    hi: int,
    budget: int = SWEEP_BUDGET,
    workers: int = 1,
) -> SweepReport:
    """Run every seed in [lo, hi] to 1 (or to the budget) and aggregate.

    Sharding is by contiguous sub-ranges (_sweep) and per-seed results are
    intrinsic. A shard keeps the smaller seed on a tie (_sweep_chunk) and
    shards ascend in task order, so keeping the first maximum over the
    shards does too: the report is identical for any worker count or cut.
    """
    return _sweep(lo, hi, budget, workers)[0]


def run_suite(
    ids: Collection[str],
    bound: Optional[int] = None,
    budget: int = SWEEP_BUDGET,
    workers: int = 1,
) -> Tuple[List[PropertyCheck], Optional[SweepReport]]:
    """Run the checks and the sweep named in ids on one process pool.

    An unknown ID or a bound below 1 raises ValueError before any task
    runs. Each check is one task, and they go in by the descending bound
    each runs at, ties in report order: about longest first (Graham's list
    rule). The sweep of [1, bound or SWEEP_BOUND] goes in ahead of them, on
    the processes they leave free, once any phase one of it is done
    (_sweep). At default bounds the sweep is one task, and on two or more
    processes it starts beside T2.9, which takes a little longer. Returns
    the checks in the order of ids and the merged sweep (None without
    "sweep"): the same reports as run_check and sweep_convergence give one
    by one. A check's elapsed is measured in the process that ran it.
    """
    checks = [cid for cid in ids if cid != "sweep"]
    tasks = [_check_task(cid, bound) for cid in checks]
    order = sorted(range(len(checks)), key=lambda i: -tasks[i][1])
    others = [tasks[i] for i in order]
    if "sweep" in ids:
        sweep, results = _sweep(1, SWEEP_BOUND if bound is None else bound, budget, workers, others)
    else:
        sweep, results = None, _run_tasks(others, workers)
    done = dict(zip(order, results))
    return [done[i] for i in range(len(checks))], sweep


# check ID -> (check run at a bound, default bound), in report order. The
# suite ID "sweep" is no check: the sweep also takes a budget and a worker
# count, so _sweep cuts it into shards itself.
CHECKS = {
    "L2.1": (check_partition, 10_000),
    "T2.9": (check_coverage, 10**6),
    "T2.11": (check_closed_forms, 64),
    "T2.12": (check_connection_coverage, 10_000),
    "T2.15": (check_cycle_freedom, 10**5),
    "L3.3": (check_even_identity, 10**6),
}

SUITE_IDS = (*CHECKS, "sweep")


def _check_task(check_id: str, bound: Optional[int]) -> tuple:
    """The task (check function, bound or its default) of a check by ID."""
    if check_id not in CHECKS:
        raise ValueError(f"unknown check id {check_id!r}")
    run, default = CHECKS[check_id]
    if bound is not None and bound < 1:
        raise ValueError(f"check {check_id}: bound must be >= 1, got {bound}")
    return run, (default if bound is None else bound)


def run_check(check_id: str, bound: Optional[int] = None) -> PropertyCheck:
    """Run one bounded check by ID; bound falls back to the check's default.

    For T2.11 the bound sets the column range q_max (row range stays 8).
    An unknown ID, "sweep" among them, or a bound below 1 raises ValueError.
    """
    run, bound = _check_task(check_id, bound)
    return run(bound)
