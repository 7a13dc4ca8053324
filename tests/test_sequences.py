import random

import pytest

from syrtree.arith import col_step, odd_part
from syrtree.matrices import Coord, entry
from syrtree.sequences import (
    Sequence,
    col_seq,
    collatz_expand,
    stats,
    syr_seq_model,
    syr_seq_oracle,
    to_csv,
    to_json,
    walk,
)
from syrtree.tree import path_to_root

# frozen output of the direct-iteration oracle for seed 27
SYR_27 = [
    27, 41, 31, 47, 71, 107, 161, 121, 91, 137, 103, 155, 233, 175, 263,
    395, 593, 445, 167, 251, 377, 283, 425, 319, 479, 719, 1079, 1619,
    2429, 911, 1367, 2051, 3077, 577, 433, 325, 61, 23, 35, 53, 5, 1,
]


def ref_col_terms(n, cap=10**6):
    # independent plain-step iteration used as the expected value
    terms = [n]
    while terms[-1] != 1 and len(terms) < cap:
        terms.append(col_step(terms[-1]))
    return terms


def test_oracle_examples():
    assert syr_seq_oracle(35).terms == [35, 53, 5, 1]
    assert syr_seq_oracle(1).terms == [1]
    got = syr_seq_oracle(27)
    assert got.terms == SYR_27
    assert got.steps == 41
    assert not got.truncated


def test_model_examples():
    assert syr_seq_model(35).terms == [35, 53, 5, 1]
    assert syr_seq_model(5).terms == [5, 1]
    assert syr_seq_model(9).terms == [9, 7, 11, 17, 13, 5, 1]


def test_model_equals_oracle():
    for n in range(1, 10001, 2):
        assert syr_seq_model(n).terms == syr_seq_oracle(n).terms


def test_model_equals_oracle_large_random():
    rnd = random.Random(1618)
    for _ in range(200):
        n = rnd.randrange(1, 10**18, 2)
        assert syr_seq_model(n).terms == syr_seq_oracle(n).terms


def test_walk_ends():
    assert list(walk(1)) == [(Coord(1, 0, 0), 1)]
    assert list(walk(27, max_steps=0)) == []
    assert list(walk(1, max_steps=0)) == []
    assert [t for _c, t in walk(35)] == [53, 5, 1]


def test_walk_projections_equal_oracle_on_huge_inputs():
    rnd = random.Random(4000)
    seeds = [rnd.getrandbits(4000) | (1 << 3999) | 1, entry(5, 1000, 12345)]
    for n in seeds:
        terms = syr_seq_oracle(n).terms
        assert syr_seq_model(n).terms == terms
        path = path_to_root(n)
        assert not path.exhausted
        assert [t for _c, t in path.steps] == terms[1:]


def test_truncation():
    s = syr_seq_model(27, max_steps=5)
    assert s.truncated
    assert s.terms == SYR_27[:6]
    assert syr_seq_oracle(27, max_steps=5).terms == s.terms
    assert not syr_seq_model(1, max_steps=0).truncated


def test_terms_after_seed_avoid_multiples_of_3():
    for n in range(1, 10001, 2):
        for t in syr_seq_model(n).terms[1:]:
            assert t % 6 in (1, 5)


def test_collatz_expand_examples():
    assert collatz_expand(Sequence(35, [35, 53, 5, 1], False, "syr")).terms == [
        35, 106, 53, 160, 80, 40, 20, 10, 5, 16, 8, 4, 2, 1,
    ]
    assert collatz_expand(Sequence(1, [1], False, "syr")).terms == [1]
    assert collatz_expand(Sequence(13, [13, 5, 1], False, "syr")).terms == [
        13, 40, 20, 10, 5, 16, 8, 4, 2, 1,
    ]


def test_collatz_expand_rejects_truncated():
    with pytest.raises(ValueError):
        collatz_expand(Sequence(27, SYR_27[:3], True, "syr"))


def test_expand_inserts_only_evens_between_odd_anchors():
    for n in (7, 27, 97, 871):
        terms = collatz_expand(syr_seq_oracle(n)).terms
        for prev, cur in zip(terms, terms[1:]):
            assert cur == col_step(prev)
            if prev & 1 and prev != 1:
                assert cur % 2 == 0


def test_col_seq_examples():
    assert col_seq(40).terms == [40, 20, 10, 5, 16, 8, 4, 2, 1]
    assert col_seq(1).terms == [1]
    assert col_seq(64).terms == [64, 32, 16, 8, 4, 2, 1]
    assert col_seq(13).terms == [13, 40, 20, 10, 5, 16, 8, 4, 2, 1]


def test_col_seq_matches_plain_iteration():
    for n in range(1, 2001):
        assert col_seq(n).terms == ref_col_terms(n)


def test_col_seq_odd_subsequence_is_the_syr_sequence():
    for n in range(1, 2002, 2):
        odd_terms = [t for t in col_seq(n).terms if t & 1]
        assert odd_terms == syr_seq_model(n).terms


def test_col_seq_even_continues_as_odd_part():
    for n in range(2, 2001, 2):
        s = col_seq(n)
        r = len(s.terms) - len(col_seq(odd_part(n)).terms)
        assert s.terms[r:] == col_seq(odd_part(n)).terms
        assert all(t % 2 == 0 for t in s.terms[:r])


def test_col_seq_truncation_matches_plain_prefix():
    ref = ref_col_terms(27)
    for budget in (0, 1, 5, 41, 110, 111, 112):
        s = col_seq(27, max_steps=budget)
        assert s.terms == ref[: budget + 1]
        assert s.truncated == (budget < 111)


def test_stats_examples():
    assert stats(col_seq(35)) == (13, 160, 3)
    assert stats(Sequence(1, [1], False, "col")) == (0, 1, 0)
    assert stats(col_seq(27)) == (111, 9232, 41)
    assert stats(syr_seq_model(35)) == (3, 53, 3)


def test_stats_undecided_when_truncated():
    s = col_seq(27, max_steps=10)
    got = stats(s)
    assert got.stopping_time is None
    assert got.max_term == max(s.terms)


def test_to_json_line():
    line = to_json(syr_seq_model(35))
    assert line == (
        '{"kind":"syr","seed":35,"stats":{"max_term":53,"odd_steps":3,'
        '"stopping_time":3},"steps":3,"terms":[35,53,5,1],"truncated":false}'
    )
    assert '"terms"' not in to_json(col_seq(35), include_terms=False)


def test_to_csv():
    got = to_csv([col_seq(35)])
    assert got == (
        "seed,stopping_time,max_term,terms\n"
        "35,13,160,35 106 53 160 80 40 20 10 5 16 8 4 2 1\n"
    )
    trunc = to_csv([col_seq(27, max_steps=3)], include_terms=False)
    assert trunc == "seed,stopping_time,max_term\n27,undecided,124\n"
