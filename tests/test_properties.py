"""Property tests on big integers, next to the fixed seeds of C5.

Seeds are odd integers of 1 to 10^4 bits, plus the all-01 entries
(4^(p+1)-1)/3 = entry(1, p, 0), whose 2-bit slots read 01 up to the top
bit, so that the reduction loop walks every row down to 0.
Whole sequences are printed from seeds of up to 4000 bits. The examples
are derandomized so that the suite stays reproducible.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syrtree.arith import _v2, syr, v2
from syrtree.matrices import Coord, _entry, _locate, child_column, entry, locate
from syrtree.sequences import (
    DEFAULT_MAX_STEPS,
    col_seq,
    collatz_expand,
    iter_decimal_strings,
    syr_seq_model,
    syr_seq_oracle,
)

MAX_BITS = 10**4

odd_seeds = st.one_of(
    st.integers(1, MAX_BITS).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1))
    .map(lambda n: n | 1),
    st.integers(0, (MAX_BITS - 2) // 2).map(lambda p: (4 ** (p + 1) - 1) // 3),
)

# a 4000-bit column
BIG_COLUMN = random.Random(4000).getrandbits(4000) | 1 << 3999

checked = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@checked
@given(odd_seeds)
def test_entry_of_locate_is_n(n):
    assert entry(*locate(n)) == n


def plain_locate(n):
    """The literal (m-1)/4 reduction on all of n, one row per step, then
    q from the row-0 value: 8q+1 or 4q+3."""
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


def reference_locate(n):
    """The cell off 3n+1 for rows 8 and deeper: entry's closed forms make
    3n+1 = (6q+1) * 2^(2p+2) in branch 1 and (6q+5) * 2^(2p+1) in branch 5,
    so d = v2(3n+1) gives a and p, and (3n+1) >> d gives q. Rows 0-7 reduce
    (m-1)/4 on all of n, as plain_locate does."""
    m, p = n, 0
    while m & 7 == 5:
        m = (m - 1) >> 2
        p += 1
        if p == 8:
            t = 3 * n + 1
            d = (t & -t).bit_length() - 1
            a = 5 if d & 1 else 1
            return Coord(a, (d - 1) >> 1, ((t >> d) - a) // 6)
    if m & 7 == 1:
        return Coord(1, p, (m - 1) >> 3)
    return Coord(5, p, (m - 3) >> 2)


def reference_syr(n):
    """syr with v2(3n+1) read off all of 3n+1."""
    m = 3 * n + 1
    return m >> ((m & -m).bit_length() - 1)


def assert_kernels_equal_references(n):
    assert _locate(n) == locate(n) == reference_locate(n) == plain_locate(n)
    assert syr(n) == reference_syr(n)


@checked
@given(st.integers(1, 5000).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1))
       .map(lambda n: n | 1))
def test_kernels_equal_the_whole_int_references(n):
    assert_kernels_equal_references(n)


# 3n+1 in reference_locate from row 8; n's low word is all 01 slots from
# row 31 in branch 1 and from row 32 in branch 5
@pytest.mark.parametrize("p", [*range(71), 500, 1000, 2000])
def test_kernels_equal_the_whole_int_references_on_rows(p):
    for a in (1, 5):
        for q in (0, 1, 2, 3, 12345, 2**64 - 1, 2**64, 2**70 + 3, BIG_COLUMN):
            n = entry(a, p, q)
            assert_kernels_equal_references(n)
            assert locate(n) == (a, p, q)


def test_kernels_equal_the_whole_int_references_at_the_word_edge():
    for n in range(2**64 - 99, 2**64 + 100, 2):
        assert_kernels_equal_references(n)
        assert_kernels_equal_references(n << 64 | n)


@pytest.mark.parametrize("k", [1, 63, 64, 65, 200])
def test_syr_of_a_known_valuation(k):
    # 3n+1 == u * 2^k for odd u = 2^k (mod 3), so n is odd and v2(3n+1) == k
    for t in (0, 1, 7, 2**64 + 5, 2**300 + 1):
        u = 6 * t + (1 if k % 2 == 0 else 5)
        n = ((u << k) - 1) // 3
        assert syr(n) == reference_syr(n) == u
        assert _locate(n) == reference_locate(n)


@checked
@given(odd_seeds)
def test_cores_equal_the_checked_functions(n):
    # the core gives a plain (a, p, q) tuple; only locate builds the Coord
    c = _locate(n)
    assert type(c) is tuple
    assert c == locate(n)
    assert type(locate(n)) is Coord
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
@given(st.integers(1, 300).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)),
       st.integers(0, 70), st.integers(-2, 400))
@example(27, 0, 110)  # 27 reaches 1 at plain step 111
@example(27, 0, 111)
@example(27, 3, 113)
@example(27, 3, 114)
@example(1, 400, 399)
def test_col_seq_is_the_plain_iteration_prefix(n, shift, budget):
    # col_seq walks only the odd steps its budget can print
    n <<= shift
    terms = [n]
    while terms[-1] != 1 and len(terms) <= budget:
        m = terms[-1]
        terms.append(3 * m + 1 if m & 1 else m >> 1)
    s = col_seq(n, budget)
    assert (s.terms, s.truncated) == (terms, terms[-1] != 1)


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


SEQ_BITS = 4000

# any parity; the worst-case entries end in one step of a large valuation
seq_seeds = st.one_of(
    st.integers(1, SEQ_BITS).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)),
    st.integers(0, (SEQ_BITS - 2) // 2).map(lambda p: (4 ** (p + 1) - 1) // 3),
)
budgets = st.one_of(st.integers(0, 64), st.just(DEFAULT_MAX_STEPS))
# the drawn examples rarely run a long random seed to 1; test_cli runs
# 4000-bit odd seeds to 1 as both kinds, and this is an even one
BIG_EVEN = (random.Random(SEQ_BITS).getrandbits(SEQ_BITS - 1000) | 1 << (SEQ_BITS - 1001)) << 1000


@settings(checked, max_examples=40)
@given(seq_seeds, st.sampled_from(("col", "syr")), budgets, st.integers(0, 64))
@example(BIG_EVEN, "col", DEFAULT_MAX_STEPS, 0)
def test_decimal_strings_equal_str_on_sequences(n, kind, budget, shift):
    # col seeds are shifted left, which makes an even seed of most of them
    s = col_seq(n << shift, budget) if kind == "col" else syr_seq_model(n | 1, budget)
    assert list(iter_decimal_strings(s.terms)) == list(map(str, s.terms))


@checked
@given(st.integers(1, 600).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)),
       st.integers(0, 200),
       st.lists(st.tuples(st.sampled_from(("insert", "replace", "delete", "3p+1", "p/2")),
                          st.integers(0, 10**6), st.integers(1, 2**600)), max_size=8))
def test_decimal_strings_equal_str_on_broken_chains(n, budget, edits):
    # edits make pairs that match no relation (each restarts the carried
    # value) and relations no generator emits: 3p+1 after an even p, p/2
    # after an odd p (no relation: odd p has no half)
    terms = col_seq(n, budget).terms
    for op, pos, value in edits:
        i = pos % (len(terms) + 1)
        if op == "insert":
            terms.insert(i, value)
        elif op == "3p+1":
            terms.insert(i, 3 * terms[i - 1] + 1 if i else value)
        elif op == "p/2":
            terms.insert(i, terms[i - 1] // 2 or 1 if i else value)
        elif i < len(terms):
            if op == "replace":
                terms[i] = value
            else:
                del terms[i]
    assert list(iter_decimal_strings(terms)) == list(map(str, terms))
