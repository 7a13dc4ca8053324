"""Sequence generation and expansion.

Two independent generators produce the accelerated (odd-only) sequence:
``syr_seq_oracle`` iterates the step function directly, and
``syr_seq_model`` walks the incoming-term matrices instead (locate the
current term's column, emit its connection point 6q+a). They must agree
term for term; the test suite holds them to that. That column walk,
``walk``, is written once here; ``tree.path_to_root`` and check T2.15
read the same steps.

``collatz_expand`` rebuilds the plain 3n+1 sequence from an odd-only one
by inserting the even intermediates, and ``col_seq`` handles arbitrary
seeds: even seeds are halved down to their odd part first, then continue
as the odd case.

``to_json``, ``to_csv`` and the CLI print terms of any size exactly, in
pieces of about ``PIECE`` characters, so printing costs about what the terms
hold. ``iter_decimal_strings`` gives them every term's decimal form in time
linear in the total length: it converts the first term once and derives
each later string from the one before, where ``str()`` is quadratic.
"""

import decimal
import json
import sys
from dataclasses import dataclass
from decimal import Decimal
from operator import itemgetter
from typing import Iterable, Iterator, List, NamedTuple, Optional, TextIO, Tuple

from .arith import DEFAULT_MAX_STEPS, _require_odd, v2
from .arith import syr as _syr
# the core under the name perfbench/spans.py wraps; walk checks its seed once
from .matrices import _locate as locate


@dataclass
class Sequence:
    """A sequence from seed to the first 1 (or a truncated prefix).

    kind is "syr" for the odd-only (accelerated) sequence and "col" for
    the plain 3n+1 sequence.
    """

    seed: int
    terms: List[int]
    truncated: bool
    kind: str

    @property
    def steps(self) -> int:
        return len(self.terms) - 1


def walk(n: int, max_steps: int = DEFAULT_MAX_STEPS) -> Iterator[Tuple[Tuple[int, int, int], int]]:
    """The column walk: locate the current term's cell, emit its connection
    point 6q+a as the next term.

    Yields (cell of the current term as a plain (a, p, q) tuple, next term)
    once per step and never divides. Stops after yielding 1 (so walk(1)
    yields the one step 1 -> 1) or after max_steps steps.
    """
    _require_odd(n)
    for _ in range(max_steps):
        a, _p, q = c = locate(n)
        n = 6 * q + a
        yield c, n
        if n == 1:
            return


def syr_seq_oracle(n: int, max_steps: int = DEFAULT_MAX_STEPS) -> Sequence:
    """Reference generator: direct iteration of the accelerated step."""
    _require_odd(n)
    terms = [n]
    while terms[-1] != 1 and len(terms) - 1 < max_steps:
        terms.append(_syr(terms[-1]))
    return Sequence(n, terms, terms[-1] != 1, "syr")


def syr_seq_model(n: int, max_steps: int = DEFAULT_MAX_STEPS) -> Sequence:
    """Model-driven generator: next term is the column connection point.

    Never divides: each step of the column walk locates the current term
    in the matrices and reads off 6q+a. Output equals syr_seq_oracle term
    for term.
    """
    terms = [n]
    if n != 1:
        terms.extend(map(itemgetter(1), walk(n, max_steps)))
    return Sequence(n, terms, terms[-1] != 1, "syr")


def _expand_terms(odd_terms: List[int]) -> List[int]:
    # between consecutive odd terms insert 3n+1 and its halvings
    out: List[int] = []
    for i in range(len(odd_terms) - 1):
        n, nxt = odd_terms[i], odd_terms[i + 1]
        out.append(n)
        m = 3 * n + 1
        while m != nxt:
            out.append(m)
            m >>= 1
    out.append(odd_terms[-1])
    return out


def collatz_expand(s: Sequence) -> Sequence:
    """Expand an odd-only sequence into the full plain sequence.

    Between consecutive odd terms the even intermediates 3n+1, (3n+1)/2,
    ... are inserted; nothing follows the final 1 (the 1-4-2-1 cycle is
    not unrolled). Truncated input is rejected: the expansion of an open
    tail would be unspecified.
    """
    if s.truncated:
        raise ValueError("cannot expand a truncated sequence")
    return Sequence(s.seed, _expand_terms(s.terms), False, "col")


def col_seq(n: int, max_steps: int = DEFAULT_MAX_STEPS) -> Sequence:
    """Plain 3n+1 sequence for any positive seed, via the model generator.

    Even seeds are halved down to their odd part (the even-input path),
    then the odd case continues; odd seeds expand syr_seq_model directly.
    Budget counts plain steps; exceeding it truncates, never raises.

    With 2^r the largest power of 2 dividing n, the odd walk takes at most
    k = max(max_steps - r + 1, 0) // 2 steps. Each odd step puts two plain
    terms or more before the next odd term: the odd term and 3n+1. So a
    walk cut at k steps gives r + 2k + 1 >= max_steps + 1 plain terms, a
    prefix of the whole sequence, and the whole sequence has r + 2k + 3 >
    max_steps + 1 terms or more. Either way the kept terms and the
    truncated flag are those of the whole sequence.
    """
    keep = max(max_steps, 0) + 1  # a negative budget acts as 0, as in the other generators
    r = v2(n)
    s = syr_seq_model(n >> r, max(max_steps - r + 1, 0) // 2)
    terms = [n >> i for i in range(min(r, keep))] + _expand_terms(s.terms)
    return Sequence(n, terms[:keep], s.truncated or len(terms) > keep, "col")


class SeqStats(NamedTuple):
    """stopping_time is None when the sequence never reached 1 (undecided)."""

    stopping_time: Optional[int]
    max_term: int
    odd_steps: int


def stats(s) -> SeqStats:
    """Stopping time (index of the first 1), peak term, and the count of odd
    terms before the first 1. Every term of a "syr" sequence is odd, so its
    count is that index, or the term count when no 1 was reached."""
    terms = s.terms
    try:
        stop = upto = terms.index(1)
    except ValueError:
        stop, upto = None, len(terms)
    odd = upto if s.kind == "syr" else len([t for t in terms[:upto] if t & 1])
    return SeqStats(stop, max(terms), odd)


# every operation in this context gives its exact result or raises
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow,
           decimal.Inexact, decimal.Rounded])


def iter_decimal_strings(terms: Iterable[int]) -> Iterator[str]:
    """The decimal strings of positive integer terms, map(str, terms), in
    time linear in their total length.

    The first term is converted once. Each later term t is carried as a
    Decimal derived from the previous term p's Decimal d by the relation
    the ints themselves satisfy, tested exactly on the ints:
    t == (3p+1)/2^z for some z >= 0 gives (d*3+1)//2^z, t == p/2 gives
    d//2, and any other pair restarts from Decimal(t). Proof that each
    string is str(t), by induction along the terms: if d == p, the
    operation applied to d is the one that maps p to t. Its quotient is an
    integer, so integer division gives it whole, and the exact context
    gives every result exactly or raises; so the new d == t. A restart is
    exact outright. Every d is an integer with exponent 0, which prints as
    its plain digits, and libmpdec does each operation and each str() in
    time linear in the term's length.

    Like str(), this raises ValueError at a term with more digits than a
    nonzero sys.get_int_max_str_digits().
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    # the context by name: a generator paused in localcontext() leaves it set
    div, add, mul, one, two, three = (_EXACT.divide_int, _EXACT.add, _EXACT.multiply,
                                      Decimal(1), Decimal(2), Decimal(3))
    p = d = None
    for t in terms:
        if p is None:
            d = Decimal(t)
        elif p & 1 == 0 and t << 1 == p:
            d = div(d, two)
        else:
            m = 3 * p + 1
            z = m.bit_length() - t.bit_length()
            if z >= 0 and t << z == m:
                d = add(mul(d, three), one)
                if z:
                    d = div(d, 1 << z)
            else:
                d = Decimal(t)
        s = str(d)
        if limit and len(s) > limit:
            raise ValueError(f"Exceeds the limit ({limit} digits) for integer string "
                             "conversion; use sys.set_int_max_str_digits() to increase the limit")
        yield s
        p = t


PIECE = 1 << 20  # characters per piece of a document written to a stream


def joined_decimals(terms: Iterable[int], sep: str) -> Iterator[str]:
    """sep.join(iter_decimal_strings(terms)) in pieces of about PIECE characters:
    a piece ends with the first term that takes it to PIECE."""
    buf, size = [], 0
    for s in iter_decimal_strings(terms):
        buf.append(s)
        size += len(s) + 1
        if size >= PIECE:
            yield sep.join(buf)
            buf, size = [""], 0  # so the next piece opens with sep
    yield sep.join(buf)


def _json_pieces(s, include_terms: bool) -> Iterator[str]:
    st = stats(s)
    stop = "null" if st.stopping_time is None else str(st.stopping_time)
    # str(max_term) is the longest string: an over-limit term raises here
    yield "".join(['{"kind":', json.dumps(s.kind), ',"seed":', str(s.seed),
                   ',"stats":{"max_term":', str(st.max_term), ',"odd_steps":',
                   str(st.odd_steps), ',"stopping_time":', stop, '},"steps":', str(s.steps)])
    if include_terms:
        yield ',"terms":['
        yield from joined_decimals(s.terms, ",")
        yield "]"
    yield ',"truncated":' + json.dumps(s.truncated) + "}"


def to_json(s, include_terms: bool = True, out: Optional[TextIO] = None) -> Optional[str]:
    """One JSON line per sequence, as json.dumps writes it with sorted keys
    and no spaces; the key order is fixed for golden files. Returned without
    out; with out, written there in pieces of about PIECE characters and None
    returned. A term over the int/str digit limit raises ValueError, as str()
    would, before any piece is written.
    """
    pieces = _json_pieces(s, include_terms)
    return "".join(pieces) if out is None else out.writelines(pieces)


CSV_FIELDS = ["seed", "stopping_time", "max_term", "terms"]


def _csv_pieces(seqs, include_terms: bool) -> Iterator[str]:
    yield ",".join(CSV_FIELDS if include_terms else CSV_FIELDS[:-1]) + "\n"
    for s in seqs:
        st = stats(s)
        stop = "undecided" if st.stopping_time is None else str(st.stopping_time)
        yield ",".join([str(s.seed), stop, str(st.max_term)])
        if include_terms:
            yield ","
            yield from joined_decimals(s.terms, " ")
        yield "\n"


def to_csv(seqs, include_terms: bool = True, out: Optional[TextIO] = None) -> Optional[str]:
    """CSV with one row per sequence: seed, stopping_time, max_term[, terms].

    Returned or written as to_json, raising before any piece of a row with an
    over-limit term. No field needs csv's quoting, being digits, spaces or
    "undecided", and csv.writer would copy a long terms field char by char.
    """
    pieces = _csv_pieces(seqs, include_terms)
    return "".join(pieces) if out is None else out.writelines(pieces)
