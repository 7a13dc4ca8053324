import random

import pytest

from syrtree.arith import (
    col_step,
    lift,
    odd_part,
    syr,
    syr_class,
    v2,
)


def test_v2_examples():
    assert v2(1) == 0
    assert v2(160) == 5
    assert v2(106) == 1  # 106/2 = 53 is odd
    assert v2(2**40) == 40


def test_v2_rejects_nonpositive():
    with pytest.raises(ValueError):
        v2(0)
    with pytest.raises(ValueError):
        v2(-8)


def test_odd_part():
    assert odd_part(160) == 5
    assert odd_part(7) == 7
    for n in range(1, 2000):
        assert odd_part(n) == n >> v2(n)
        assert odd_part(n) & 1


def test_syr_examples():
    assert syr(1) == 1
    assert syr(3) == 5
    assert syr(35) == 53
    assert syr(5) == 1
    assert syr(21) == 1


def test_syr_rejects_even():
    with pytest.raises(ValueError):
        syr(4)


def test_syr_image_is_odd_and_not_multiple_of_3():
    for n in range(1, 100001, 2):
        m = syr(n)
        assert m & 1
        assert m % 3 != 0


def test_syr_residue_identities():
    # images of the two coarser residue classes are linear in the index
    for q in range(10000):
        assert syr(4 * q + 3) == 6 * q + 5
        assert syr(8 * q + 1) == 6 * q + 1


def test_col_step_examples():
    assert col_step(1) == 4
    assert col_step(35) == 106
    assert col_step(40) == 20


def test_lift_examples():
    assert lift(1) == 5
    assert lift(1, 3) == 85
    assert lift(0, 1) == 1


def test_lift_closed_form_matches_iteration():
    for m in range(0, 10001, 7):
        it = m
        for p in range(11):
            assert lift(m, p) == it
            it = 4 * it + 1


def test_syr_class_table_rows():
    assert tuple(syr_class(a, 0) for a in (1, 3, 5, 7)) == (1, 5, 1, 11)
    assert tuple(syr_class(a, 1) for a in (1, 3, 5, 7)) == (7, 17, 5, 23)
    assert tuple(syr_class(a, 2) for a in (1, 3, 5, 7)) == (13, 29, 1, 35)
    assert tuple(syr_class(a, 3) for a in (1, 3, 5, 7)) == (19, 41, 11, 47)
    assert syr_class(5, 1) == 5
    assert syr_class(1, 2) == 13


def test_partition_identities():
    for t in range(10000):
        assert syr_class(5, 4 * t) == syr_class(1, t)
        assert syr_class(5, 4 * t + 1) == syr_class(3, t)
        assert syr_class(5, 4 * t + 2) == syr_class(5, t)
        assert syr_class(5, 4 * t + 3) == syr_class(7, t)


def test_lift_preserves_syr_image():
    for m in range(1, 2002, 2):
        for p in range(9):
            assert syr(lift(m, p)) == syr(m)


def test_lift_preserves_syr_image_large_random():
    rnd = random.Random(708)
    for _ in range(300):
        m = rnd.randrange(1, 10**18, 2)
        p = rnd.randrange(0, 12)
        assert syr(lift(m, p)) == syr(m)
