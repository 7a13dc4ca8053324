"""Property tests on big integers, next to the fixed seeds of C5.

Seeds are odd integers of 1 to 10^4 bits, plus the worst-case row entries
(4^(p+1)-1)/3 = entry(1, p, 0), whose locate walks every row down to 0.
The examples are derandomized so that the suite stays reproducible.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syrtree.arith import _v2, syr, v2
from syrtree.matrices import Coord, _entry, _locate, child_column, entry, locate
from syrtree.sequences import collatz_expand, syr_seq_model, syr_seq_oracle

MAX_BITS = 10**4

odd_seeds = st.one_of(
    st.integers(1, MAX_BITS).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1))
    .map(lambda n: n | 1),
    st.integers(0, (MAX_BITS - 2) // 2).map(lambda p: (4 ** (p + 1) - 1) // 3),
)

checked = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@checked
@given(odd_seeds)
def test_entry_of_locate_is_n(n):
    assert entry(*locate(n)) == n


def plain_locate(n):
    """The reduction loop alone, without locate's closed form for deep rows."""
    m, p = n, 0
    while m & 7 == 5:
        m = (m - 1) >> 2
        p += 1
    if m & 7 == 1:
        return Coord(1, p, (m - 1) >> 3)
    return Coord(5, p, (m - 3) >> 2)


@checked
@given(odd_seeds)
def test_locate_equals_the_reduction_loop(n):
    assert locate(n) == plain_locate(n)


@pytest.mark.parametrize("p", [7, 8, 9, 500])
def test_locate_equals_the_reduction_loop_on_deep_rows(p):
    for a in (1, 5):
        for q in (0, 1, 2, 3, 4, 5, 12345, 2**70 + 3):
            n = entry(a, p, q)
            assert locate(n) == plain_locate(n) == (a, p, q)


@checked
@given(odd_seeds)
def test_cores_equal_the_checked_functions(n):
    c = _locate(n)
    assert type(c) is Coord
    assert c == locate(n)
    assert _entry(*c) == entry(*c)


@checked
@given(odd_seeds)
def test_connection_point_of_locate_is_syr(n):
    a, _p, q = locate(n)
    assert 6 * q + a == syr(n)


@settings(checked, max_examples=30)
@given(odd_seeds)
def test_model_equals_oracle(n):
    # a 10^4-bit seed needs tens of thousands of steps to reach 1, so the
    # two are compared on a 300-step prefix
    assert syr_seq_model(n, max_steps=300) == syr_seq_oracle(n, max_steps=300)


@checked
@given(st.integers(1, 200).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1))
       .map(lambda n: n | 1))
def test_collatz_expand_of_oracle_is_plain_iteration(n):
    terms = [n]
    while terms[-1] != 1:
        m = terms[-1]
        terms.append(3 * m + 1 if m & 1 else m >> 1)
    assert collatz_expand(syr_seq_oracle(n)).terms == terms


@checked
@given(st.sampled_from((1, 5)), st.sampled_from((1, 5)), st.integers(0, 2000),
       st.integers(0, 2**64 - 1))
def test_child_column_equals_enumeration(child_a, parent_a, x, q):
    # the cell's entry: the row-0 value (8q+1 in matrix 1, 4q+3 in matrix 5)
    # after x applications of m -> 4m+1
    e = 8 * q + 1 if parent_a == 1 else 4 * q + 3
    for _ in range(x):
        e = 4 * e + 1
    expected = (e - child_a) // 6 if e % 6 == child_a else None
    assert child_column(child_a, parent_a, x, q) == expected


@checked
@given(st.integers(1, 2**3000), st.integers(0, 1000))
def test_v2_core_equals_the_checked_v2(m, k):
    n = m << k  # at most 2^4000, with valuations up to k + v2(m)
    assert _v2(n) == v2(n) >= k
