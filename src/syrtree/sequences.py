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
"""

import csv
import io
import json
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Tuple

from .arith import DEFAULT_MAX_STEPS, _require_odd, _require_positive
from .arith import syr as _syr
from .matrices import Coord, locate


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


def walk(n: int, max_steps: int = DEFAULT_MAX_STEPS) -> Iterator[Tuple[Coord, int]]:
    """The column walk: locate the current term's cell, emit its connection
    point 6q+a as the next term.

    Yields (cell of the current term, next term) once per step and never
    divides. Stops after yielding 1 (so walk(1) yields the one step 1 -> 1)
    or after max_steps steps.
    """
    _require_odd(n)
    for _ in range(max_steps):
        c = locate(n)
        n = 6 * c.q + c.a
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
        terms.extend(t for _c, t in walk(n, max_steps))
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
    """
    _require_positive(n)
    prefix = [n]
    m = n
    while m & 1 == 0:
        if len(prefix) - 1 >= max_steps:
            return Sequence(n, prefix, True, "col")
        m >>= 1
        prefix.append(m)
    if m == 1:
        return Sequence(n, prefix, False, "col")
    remaining = max_steps - (len(prefix) - 1)
    if remaining <= 0:
        return Sequence(n, prefix, True, "col")
    s = syr_seq_model(m, remaining)
    terms = prefix[:-1] + _expand_terms(s.terms)
    truncated = s.truncated
    if len(terms) - 1 > max_steps:
        terms = terms[: max_steps + 1]
        truncated = True
    return Sequence(n, terms, truncated, "col")


class SeqStats(NamedTuple):
    """stopping_time is None when the sequence never reached 1 (undecided)."""

    stopping_time: Optional[int]
    max_term: int
    odd_steps: int


def stats(s) -> SeqStats:
    """Stopping time (index of the first 1), peak term, and odd-term count."""
    terms = s.terms
    stop = terms.index(1) if 1 in terms else None
    upto = stop if stop is not None else len(terms)
    odd = sum(1 for t in terms[:upto] if t & 1)
    return SeqStats(stop, max(terms), odd)


def to_json(s, include_terms: bool = True) -> str:
    """One JSON line per sequence; key order is fixed for golden files."""
    st = stats(s)
    doc = {
        "kind": s.kind,
        "seed": s.seed,
        "steps": s.steps,
        "truncated": s.truncated,
        "stats": {
            "stopping_time": st.stopping_time,
            "max_term": st.max_term,
            "odd_steps": st.odd_steps,
        },
    }
    if include_terms:
        doc["terms"] = s.terms
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


CSV_FIELDS = ["seed", "stopping_time", "max_term", "terms"]


def to_csv(seqs, include_terms: bool = True) -> str:
    """CSV with one row per sequence: seed, stopping_time, max_term[, terms]."""
    buf = io.StringIO()
    fields = CSV_FIELDS if include_terms else CSV_FIELDS[:-1]
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(fields)
    for s in seqs:
        st = stats(s)
        stop = "undecided" if st.stopping_time is None else st.stopping_time
        row = [s.seed, stop, st.max_term]
        if include_terms:
            row.append(" ".join(str(t) for t in s.terms))
        w.writerow(row)
    return buf.getvalue()
