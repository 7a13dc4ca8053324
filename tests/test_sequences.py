import csv
import io
import json
import random
import sys
import tracemalloc

import pytest

from syrtree import sequences
from syrtree.arith import col_step, odd_part, v2
from syrtree.matrices import Coord, entry
from syrtree.sequences import (
    Sequence,
    col_seq,
    collatz_expand,
    iter_decimal_strings,
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


@pytest.mark.parametrize("seed", [27, 853, 2**61 - 1, entry(5, 40, 7), entry(1, 300, 2**70 + 3)])
def test_walk_cells_are_plain_triples_of_the_current_term(seed):
    # each cell unpacks as (a, p, q), holds the current term, and its
    # connection point 6q+a is the next term
    cur = seed
    for c, nxt in walk(seed):
        a, p, q = c
        assert type(c) is tuple
        assert entry(a, p, q) == cur
        assert 6 * q + a == nxt
        cur = nxt
    assert cur == 1


def test_walk_and_model_check_the_seed():
    # the walk's steps call the unchecked locate core, so the seed is checked once
    with pytest.raises(ValueError):
        list(walk(2))
    with pytest.raises(ValueError):
        syr_seq_model(4)


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
    # even seeds: budgets on both sides of the halving prefix's length v2(n)
    for n in (27, 96, 2**40, 27 * 2**200):
        ref = ref_col_terms(n)
        r = v2(n)
        budgets = {0, 1, 5, 41, r - 1, r, r + 1, r + 41, len(ref) - 2, len(ref) - 1, len(ref)}
        for budget in sorted(b for b in budgets if b >= 0):
            s = col_seq(n, max_steps=budget)
            assert s.terms == ref[: budget + 1]
            assert s.truncated == (budget < len(ref) - 1)


def plain_stats(s):
    """stats by definition: the first 1, the peak, and the odd terms before
    that 1 counted one by one."""
    stop = s.terms.index(1) if 1 in s.terms else None
    before = s.terms if stop is None else s.terms[:stop]
    return (stop, max(s.terms), len([t for t in before if t % 2 == 1]))


def test_stats_examples():
    assert stats(col_seq(35)) == (13, 160, 3)
    assert stats(Sequence(1, [1], False, "col")) == (0, 1, 0)
    assert stats(col_seq(27)) == (111, 9232, 41)
    assert stats(syr_seq_model(35)) == (3, 53, 3)
    for s in [
        syr_seq_model(27, max_steps=10),  # truncated: the odd count is the term count
        col_seq(27, max_steps=10),
        Sequence(1, [1], False, "col"),
        Sequence(1, [1], False, "syr"),
        # neither kind: odd terms are counted, and only up to the first 1
        Sequence(12, [12, 6, 3, 10, 5, 1, 7, 2], False, "plain"),
    ]:
        assert stats(s) == plain_stats(s), s


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


class Recorder(io.TextIOBase):
    """A text stream that keeps each write apart, or only its length."""

    def __init__(self, keep=True):
        self.writes = []
        self.keep = keep

    def write(self, text):
        self.writes.append(text if self.keep else len(text))
        return len(text)


def streamed(write):
    """What write(out) writes to a text stream."""
    out = Recorder()
    assert write(out) is None
    return "".join(out.writes)


def csv_writer_reference(seqs, include_terms=True):
    """to_csv as csv.writer writes it, the reference for the joined rows."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["seed", "stopping_time", "max_term", "terms"][:4 if include_terms else 3])
    for s in seqs:
        st = stats(s)
        row = [s.seed, "undecided" if st.stopping_time is None else st.stopping_time,
               st.max_term]
        if include_terms:
            row.append(" ".join(str(t) for t in s.terms))
        w.writerow(row)
    return buf.getvalue()


@pytest.mark.parametrize("include_terms", [True, False])
def test_to_csv_matches_csv_writer(include_terms):
    big = random.Random(4000).getrandbits(4000) | (1 << 3999) | 1
    batches = [
        [],
        [syr_seq_model(27)],
        [col_seq(27, max_steps=3)],  # undecided
        [col_seq(1), syr_seq_model(1), col_seq(96), syr_seq_model(big, max_steps=40),
         col_seq(big, max_steps=40)],
    ]
    for seqs in batches:
        assert to_csv(seqs, include_terms) == csv_writer_reference(seqs, include_terms)
        assert streamed(lambda out: to_csv(seqs, include_terms, out=out)) == \
            csv_writer_reference(seqs, include_terms)


def json_dumps_reference(s, include_terms=True):
    """to_json as json.dumps writes it, the reference for the joined line."""
    st = stats(s)
    doc = {"kind": s.kind, "seed": s.seed, "steps": s.steps, "truncated": s.truncated,
           "stats": {"stopping_time": st.stopping_time, "max_term": st.max_term,
                     "odd_steps": st.odd_steps}}
    if include_terms:
        doc["terms"] = s.terms
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("include_terms", [True, False])
def test_to_json_matches_json_dumps(include_terms):
    big = random.Random(4000).getrandbits(4000) | (1 << 3999) | 1
    for s in [syr_seq_model(27), col_seq(27, max_steps=3), col_seq(1), syr_seq_model(1),
              col_seq(96), syr_seq_model(big, max_steps=40), col_seq(big, max_steps=40),
              Sequence(7, [7, 22, 11, 34, 17, 100, 2, 1], False, 'k"\\nd')]:
        assert to_json(s, include_terms) == json_dumps_reference(s, include_terms)
        assert streamed(lambda out: to_json(s, include_terms, out=out)) == \
            json_dumps_reference(s, include_terms)


def test_decimal_strings_of_no_terms():
    assert list(iter_decimal_strings([])) == []


# 640 is the lowest nonzero int/str digit limit; 2^2126 has 640 digits, and
# 10^640 - 1 has 640 while its next term 3 * 10^640 - 2 has 641
@pytest.mark.parametrize("seed, over", [(2**2126, False), (10**640 - 1, True)])
def test_decimal_strings_keep_the_int_str_digit_limit(seed, over):
    s = col_seq(seed)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        if over:
            with pytest.raises(ValueError, match="limit"):
                list(map(str, s.terms))
            with pytest.raises(ValueError, match="limit"):
                list(iter_decimal_strings(s.terms))
            for include_terms in (True, False):
                with pytest.raises(ValueError, match="limit"):
                    to_json(s, include_terms)
                with pytest.raises(ValueError, match="limit"):
                    to_csv([s], include_terms)
                # streamed: not a byte of the JSON line, and of the CSV only
                # the header line, none of the row
                out = io.StringIO()
                with pytest.raises(ValueError, match="limit"):
                    to_json(s, include_terms, out=out)
                assert out.getvalue() == ""
                with pytest.raises(ValueError, match="limit"):
                    to_csv([s], include_terms, out=out)
                assert out.getvalue() == csv_writer_reference([], include_terms)
        else:
            assert list(iter_decimal_strings(s.terms)) == list(map(str, s.terms))
            assert to_json(s) == json_dumps_reference(s)
            assert to_csv([s]) == csv_writer_reference([s])
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("piece", [1, 7, 4096])
def test_documents_are_written_in_pieces_of_about_piece_characters(piece, monkeypatch):
    # a small PIECE cuts the terms at many places; each cut must keep one
    # separator between two terms, and no piece of terms may run past PIECE
    # by more than its last term and separator
    s = col_seq(random.Random(2000).getrandbits(2000) | 1)
    monkeypatch.setattr(sequences, "PIECE", piece)
    longest = len(str(max(s.terms))) + 1
    for sep in (" ", ","):
        pieces = list(sequences.joined_decimals(s.terms, sep))
        assert "".join(pieces) == sep.join(map(str, s.terms))
        assert max(map(len, pieces)) < piece + longest
        assert len(pieces) > len("".join(pieces)) // (piece + longest)
    for write, want in ((lambda out: to_json(s, out=out), json_dumps_reference(s)),
                        (lambda out: to_csv([s], out=out), csv_writer_reference([s]))):
        out = Recorder()
        write(out)
        assert "".join(out.writes) == want
        assert len(out.writes) > len(want) // (piece + longest)


def test_writing_a_document_holds_about_one_piece():
    # the 4000-bit col sequence is 17 MB of decimal text; written to a
    # stream, a document holds about one PIECE (1 MiB) of it at a time
    # (the strings of one piece and their join) rather than all of it
    s = col_seq(random.Random(4000).getrandbits(4000) | (1 << 3999) | 1)
    for write in (lambda out: to_json(s, out=out), lambda out: to_csv([s], out=out)):
        out = Recorder(keep=False)
        tracemalloc.start()
        try:
            write(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(out.writes) > 15 * 2**20
        assert peak < 4 * 2**20
