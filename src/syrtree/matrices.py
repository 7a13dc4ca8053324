"""Incoming-term matrices over the odd integers and their connection cells.

Two infinite matrices partition the positive odd integers. Row 0 holds
8q+1 (branch a=1) or 4q+3 (branch a=5); each later row applies m -> 4m+1.
Every entry of column (a, q) has the same Syracuse image 6q+a, so a column
behaves as one component whose connection point is that image.

Nothing is materialized: entries come from closed forms,

    entry(1, p, q) = ((6q+1) * 4**(p+1) - 1) / 3
    entry(5, p, q) = ((6q+5) * 4**(p+1) - 2) / 6

and the inverse lookup ``locate`` reads the cell off the 2-bit slots of n
(each lift appends the slot 01) in O(1) big-int operations, with no 3n+1
and no division. The public ``entry`` and ``locate`` check their
arguments and then call their cores, ``_entry`` and ``_locate``; loops that
build their own valid cells or odd terms call the cores directly. The core
``_locate`` gives a plain ``(a, p, q)`` tuple; ``locate`` alone builds the
``Coord``.
"""

import itertools
from typing import Iterator, NamedTuple, Optional, Tuple

from .arith import LOW, LOW_01, _require_odd


class Coord(NamedTuple):
    """Cell coordinate: branch a in {1,5}, row p >= 0, column q >= 0."""

    a: int
    p: int
    q: int


# builds a Coord or ConnectionCell without NamedTuple's Python-level __new__
_tuple = tuple.__new__


def entry(a: int, p: int, q: int) -> int:
    """Value of the matrix cell (a, p, q): the row-0 value lifted p times."""
    if a not in (1, 5):
        raise ValueError(f"branch must be 1 or 5, got {a}")
    if p < 0 or q < 0:
        raise ValueError("p and q must be >= 0")
    return _entry(a, p, q)


def _entry(a: int, p: int, q: int) -> int:
    """entry without the argument checks: arith.lift on the row-0 value."""
    num = (3 * (8 * q + 1 if a == 1 else 4 * q + 3) + 1) * (1 << (2 * p)) - 1
    assert num % 3 == 0
    return num // 3


def row(a: int, p: int) -> Iterator[int]:
    """Entries of row p, q = 0, 1, 2, ..., by running addition (endless)."""
    step = (1 << (2 * p + 2)) * (2 if a == 1 else 1)  # entry delta per column
    return itertools.count(entry(a, p, 0), step)


def locate(n: int) -> Coord:
    """The unique cell holding the odd integer n.

    Row 0 holds 8q+1 = q, 001 and 4q+3 = q, 11 in binary, and m -> 4m+1
    appends the 2-bit slot 01, so the bits of n read, from the top:

        (1, p, q):  q, 0, then p+1 slots 01
        (5, p, q):  q, 11, then p slots 01

    entry(*locate(n)) == n for every odd n >= 1.
    """
    _require_odd(n)
    return _tuple(Coord, _locate(n))


def _locate(n: int) -> Tuple[int, int, int]:
    """locate without the argument check or the Coord, for a positive odd
    int n: the plain triple (a, p, q).

    Row 0 (n != 5 mod 8, three odd n in four) is one test. Otherwise n
    XOR the 01 mask clears n's low 01 slots, and its lowest set bit, bit
    d-1, is bit 2p+2 in branch 1 and bit 2p+1 in branch 5; q is n >> d.
    The mask is the low word, or, when n's low word is all 01 slots, a
    mask at least 2 bits wider than n, which reaches bit 2p+2 of the
    all-01 entries (4^(p+1)-1)/3 = (1, p, 0). Only &, ^, >> and
    bit_length touch n: no 3n+1 and no division.
    """
    if n & 7 != 5:
        return (1, 0, n >> 3) if n & 7 == 1 else (5, 0, n >> 2)
    x = (n & LOW) ^ LOW_01 or n ^ int.from_bytes(b"\x55" * ((n.bit_length() >> 3) + 2), "little")
    d = (x & -x).bit_length()
    return (1 if d & 1 else 5, (d >> 1) - 1, n >> d)


def residue6(n: int) -> int:
    """Class of n mod 6, one of 1, 3, 5 (n odd)."""
    _require_odd(n)
    return n % 6


def child_column(child_a: int, parent_a: int, x: int, q: int) -> Optional[int]:
    """Column of the child component (branch child_a) attaching to the
    parent matrix parent_a at cell (x, q), by closed form.

    With q = 3k + y, y in {0,1,2}:

        parent 1, child 1:  4**(x+1) k + 2((6y+1) 4**x - 1)/9
        parent 1, child 5:  4**(x+1) k + 2((6y+1) 4**x - 4)/9
        parent 5, child 1:  2 4**x k + ((6y+5) 4**x - 2)/9
        parent 5, child 5:  2 4**x k + ((6y+5) 4**x - 8)/9

    The numerator is divisible by 9 exactly when the parent entry is
    = child_a (mod 6); otherwise the cell is undefined and None is
    returned (the entry is a multiple of 3, or feeds the other branch).
    None is a value, not a fault.
    """
    if child_a not in (1, 5) or parent_a not in (1, 5):
        raise ValueError("branches must be 1 or 5")
    if x < 0 or q < 0:
        raise ValueError("x and q must be >= 0")
    k, y = divmod(q, 3)
    four_x = 1 << (2 * x)
    if parent_a == 1:
        num = 2 * ((6 * y + 1) * four_x - (1 if child_a == 1 else 4))
        if num % 9 != 0:
            return None
        return (four_x << 2) * k + num // 9
    num = (6 * y + 5) * four_x - (2 if child_a == 1 else 8)
    if num % 9 != 0:
        return None
    return 2 * four_x * k + num // 9


class ConnectionCell(NamedTuple):
    """A defined connection: child column m attaches to parent (b, y) at row x."""

    child_a: int
    parent_a: int
    x: int
    y: int
    m: int


def iter_connections(
    parent_a: int,
    x_max: Optional[int] = None,
    *,
    q_max: Optional[int] = None,
    max_child: Optional[int] = None,
) -> Iterator[ConnectionCell]:
    """Enumerate defined connection cells of one parent matrix directly.

    Walks entries cell by cell (running addition along each row, no powers)
    and classifies each by residue mod 6; multiples of 3 are skipped, so
    only defined cells are yielded. Bound the sweep by child column value
    (max_child), which also bounds the rows, and/or by row and column index
    (x_max and q_max). Independent of the closed forms in child_column(),
    which it is tested against.
    """
    if max_child is None and (q_max is None or x_max is None):
        raise ValueError("need max_child, or q_max and x_max, to bound the enumeration")
    entry_cap = None if max_child is None else 6 * max_child + 5
    # row x starts at entry(a, x, 0) >= 4**x, past entry_cap from x = its bit length
    for x in range((entry_cap.bit_length() if x_max is None else x_max) + 1):
        for q, e in enumerate(row(parent_a, x)):
            if (q_max is not None and q > q_max) or (entry_cap is not None and e > entry_cap):
                break
            r = e % 6
            if r != 3:  # e <= entry_cap keeps the child column m within max_child
                yield _tuple(ConnectionCell, (r, parent_a, x, q, (e - r) // 6))
        if q == 0:  # row x starts past the cap, and later rows start higher
            return
