"""Incoming-term matrices over the odd integers and their connection cells.

Two infinite matrices partition the positive odd integers. Row 0 holds
8q+1 (branch a=1) or 4q+3 (branch a=5); each later row applies m -> 4m+1.
Every entry of column (a, q) has the same Syracuse image 6q+a, so a column
behaves as one component whose connection point is that image.

Nothing is materialized: entries come from closed forms,

    entry(1, p, q) = ((6q+1) * 4**(p+1) - 1) / 3
    entry(5, p, q) = ((6q+5) * 4**(p+1) - 2) / 6

and the inverse lookup ``locate`` reduces by (m-1)/4 while m = 5 (mod 8),
which is O(log n) and allocation-free.
"""

from typing import Iterator, NamedTuple, Optional

from .arith import _require_odd, lift


class Coord(NamedTuple):
    """Cell coordinate: branch a in {1,5}, row p >= 0, column q >= 0."""

    a: int
    p: int
    q: int


def entry(a: int, p: int, q: int) -> int:
    """Value of the matrix cell (a, p, q): the row-0 value lifted p times."""
    if a not in (1, 5):
        raise ValueError(f"branch must be 1 or 5, got {a}")
    if p < 0 or q < 0:
        raise ValueError("p and q must be >= 0")
    return lift(8 * q + 1 if a == 1 else 4 * q + 3, p)


def row(a: int, p: int) -> Iterator[int]:
    """Entries of row p, q = 0, 1, 2, ..., by running addition (endless)."""
    e = entry(a, p, 0)
    step = (1 << (2 * p + 2)) * (2 if a == 1 else 1)  # entry delta per column
    while True:
        yield e
        e += step


def locate(n: int) -> Coord:
    """The unique cell holding the odd integer n.

    Reduce by (m-1)/4 while m = 5 (mod 8); the remainder class of the
    reduced value then fixes the branch and column:

        m = 1 (mod 8)  ->  (1, p, (m-1)/8)
        m = 3 (mod 4)  ->  (5, p, (m-3)/4)

    entry(*locate(n)) == n for every odd n >= 1.
    """
    _require_odd(n)
    m, p = n, 0
    while m & 7 == 5:
        m = (m - 1) >> 2
        p += 1
    if m & 7 == 1:
        return Coord(1, p, (m - 1) >> 3)
    return Coord(5, p, (m - 3) >> 2)


def syr_via_matrix(n: int) -> int:
    """Syracuse image of n read off its column: 6q + a.

    Agrees with arith.syr(n) for every odd n; the two are computed by
    unrelated routes and cross-checked in the verification suite.
    """
    a, _p, q = locate(n)
    return 6 * q + a


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
    x_max: int,
    *,
    q_max: Optional[int] = None,
    max_child: Optional[int] = None,
) -> Iterator[ConnectionCell]:
    """Enumerate defined connection cells of one parent matrix directly.

    Walks entries cell by cell (running addition along each row, no powers)
    and classifies each by residue mod 6; multiples of 3 are skipped, so
    only defined cells are yielded. Bound the sweep by column index
    (q_max) and/or by child column value (max_child). Independent of the
    closed forms in child_column(), which it is tested against.
    """
    if q_max is None and max_child is None:
        raise ValueError("need q_max or max_child to bound the enumeration")
    entry_cap = None if max_child is None else 6 * max_child + 5
    for x in range(x_max + 1):
        for q, e in enumerate(row(parent_a, x)):
            if (q_max is not None and q > q_max) or (entry_cap is not None and e > entry_cap):
                break
            r = e % 6
            if r != 3:  # e <= entry_cap keeps the child column m within max_child
                yield ConnectionCell(r, parent_a, x, q, (e - r) // 6)
        if q == 0:  # row x starts past the cap, and later rows start higher
            return
