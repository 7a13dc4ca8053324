import pytest

from syrtree.matrices import (
    Coord,
    _locate,
    child_column,
    entry,
    iter_connections,
    locate,
    residue6,
)


def test_entry_examples():
    assert [entry(1, p, 0) for p in range(4)] == [1, 5, 21, 85]
    assert entry(5, 0, 0) == 3
    assert entry(5, 2, 0) == 53
    assert entry(5, 4, 0) == 853
    assert entry(1, 0, 14) == 113


def test_entry_row0():
    for q in range(500):
        assert entry(1, 0, q) == 8 * q + 1
        assert entry(5, 0, q) == 4 * q + 3


def test_entry_rejects_bad_args():
    with pytest.raises(ValueError):
        entry(3, 0, 0)
    with pytest.raises(ValueError):
        entry(1, -1, 0)


def test_locate_examples():
    assert locate(35) == Coord(5, 0, 8)
    assert locate(53) == Coord(5, 2, 0)
    assert locate(5) == Coord(1, 1, 0)
    assert locate(1) == Coord(1, 0, 0)
    assert locate(853) == Coord(5, 4, 0)


def test_all_01_values_are_column_0_of_matrix_1():
    # (4^k-1)/3 is k slots 01, the row-0 value 1 lifted k-1 times; from
    # k = 32 the low word is all 01 slots, and the mask must reach bit 2k
    for k in range(1, 201):
        assert _locate((4**k - 1) // 3) == Coord(1, k - 1, 0)


class NoArithmetic(int):
    """An int on which +, -, *, /, //, % and ** raise."""

    def _refuse(self, *args):
        raise AssertionError("locate did arithmetic on n")

    __add__ = __radd__ = __sub__ = __rsub__ = __neg__ = __pow__ = _refuse
    __mul__ = __rmul__ = __floordiv__ = __rfloordiv__ = _refuse
    __truediv__ = __rtruediv__ = __mod__ = __rmod__ = _refuse


def test_locate_reads_the_cell_off_the_bits_of_n():
    # the model never forms 3n+1 or divides: locate uses &, ^, >> and
    # bit_length on n, so it meets none of NoArithmetic's operators
    for p in (*range(41), 500):
        for a in (1, 5):
            for q in (0, 1, 2**64 + 3):
                n = NoArithmetic(entry(a, p, q))
                assert _locate(n) == locate(n) == (a, p, q)


def test_locate_rejects_even():
    with pytest.raises(ValueError):
        locate(6)


@pytest.mark.parametrize("n", [0, -3, 4, 3.0])
def test_locate_checks_its_argument_before_its_core(n):
    with pytest.raises(ValueError):
        locate(n)


def test_locate_entry_round_trip():
    for n in range(1, 100001, 2):
        assert entry(*locate(n)) == n


def test_entry_locate_round_trip():
    for a in (1, 5):
        for p in range(13):
            for q in range(50):
                n = entry(a, p, q)
                assert locate(n) == Coord(a, p, q)


def test_rows_above_zero_are_5_mod_8():
    for a in (1, 5):
        for p in range(1, 10):
            for q in range(200):
                assert entry(a, p, q) % 8 == 5
    # and conversely every 8t+5 lives in a row >= 1
    for t in range(5000):
        assert locate(8 * t + 5).p >= 1


def test_residue6():
    assert residue6(85) == 1
    assert residue6(21) == 3
    assert residue6(341) == 5
    with pytest.raises(ValueError):
        residue6(4)


def test_child_column_examples():
    assert child_column(1, 1, 3, 0) == 14  # (85 - 1) / 6
    assert child_column(5, 1, 2, 1) == 24  # (149 - 5) / 6
    assert child_column(5, 5, 1, 4) == 12  # (77 - 5) / 6
    assert child_column(1, 5, 0, 4) == 3  # (19 - 1) / 6
    assert child_column(1, 1, 0, 0) == 0  # (1 - 1) / 6


def test_child_column_undefined_cells():
    # entry(5, 0, 0) = 3 is a multiple of 3: no connection either way
    assert child_column(1, 5, 0, 0) is None
    assert child_column(5, 5, 0, 0) is None
    # entry(1, 3, 0) = 85 = 1 (mod 6): only the child-1 cell is defined
    assert child_column(5, 1, 3, 0) is None


def test_child_column_matches_direct_computation():
    for child in (1, 5):
        for parent in (1, 5):
            for x in range(9):
                for q in range(65):
                    n = entry(parent, x, q)
                    direct = (n - child) // 6 if n % 6 == child else None
                    assert child_column(child, parent, x, q) == direct


def test_definedness_iff_residue_match():
    # the 9-divisibility of the closed-form numerator is exactly the
    # residue condition; no silent rounding can occur
    for child in (1, 5):
        for parent in (1, 5):
            for x in range(9):
                for q in range(65):
                    defined = child_column(child, parent, x, q) is not None
                    assert defined == (entry(parent, x, q) % 6 == child)


def test_iter_connections_matches_pointwise():
    got = {
        (c.child_a, c.parent_a, c.x, c.y): c.m
        for pa in (1, 5)
        for c in iter_connections(pa, 6, q_max=40)
    }
    want = {}
    for pa in (1, 5):
        for x in range(7):
            for y in range(41):
                n = entry(pa, x, y)
                r = n % 6
                if r != 3:
                    want[(r, pa, x, y)] = (n - r) // 6
    assert got == want


def test_iter_connections_max_child_bound():
    for c in iter_connections(1, 10, max_child=100):
        assert c.m <= 100
        assert entry(c.parent_a, c.x, c.y) == 6 * c.m + c.child_a
    # max_child alone also bounds the rows
    for pa in (1, 5):
        assert list(iter_connections(pa, max_child=100)) == \
            list(iter_connections(pa, (6 * 100 + 5).bit_length(), max_child=100))


def test_iter_connections_needs_a_bound():
    with pytest.raises(ValueError):
        list(iter_connections(1, 3))
    with pytest.raises(ValueError):  # q_max alone leaves the rows unbounded
        list(iter_connections(1, q_max=5))
