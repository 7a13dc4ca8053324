"""Exact arithmetic kernel for 3n+1 sequences.

All functions work on plain Python ints, so every result is exact at any
magnitude. The column map ``lift`` uses a cleared-denominator closed
form; divisibility by 3 is asserted at each use, never assumed.
"""

DEFAULT_MAX_STEPS = 100_000

# the low machine word: trailing-bit reads on a big int mask it off first,
# so they cost one small int instead of a copy of the whole number
LOW = (1 << 64) - 1
# the low word with every 2-bit slot 01: m -> 4m+1 appends one such slot
LOW_01 = 0x5555_5555_5555_5555


def _require_positive(n):
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"expected a positive integer, got {n!r}")


def _require_odd(n):
    _require_positive(n)
    if n & 1 == 0:
        raise ValueError(f"expected an odd integer, got {n}")


def v2(n: int) -> int:
    """2-adic valuation: the largest d with 2**d dividing n."""
    _require_positive(n)
    return _v2(n)


def _v2(n: int) -> int:
    """v2 without the argument check, for callers that pass n >= 1."""
    return (n & -n).bit_length() - 1


def odd_part(n: int) -> int:
    """n with all factors of 2 removed."""
    _require_positive(n)
    return n >> ((n & -n).bit_length() - 1)


def syr(n: int) -> int:
    """One accelerated step: the odd part of 3n+1 (n odd), with v2(3n+1)
    read off the low 64 bits, or off all of 3n+1 when those are zero."""
    _require_odd(n)
    m = 3 * n + 1
    w = m if m <= LOW else (m & LOW or m)
    return m >> ((w & -w).bit_length() - 1)


def col_step(n: int) -> int:
    """One plain step: 3n+1 for odd n, n/2 for even n."""
    _require_positive(n)
    return 3 * n + 1 if n & 1 else n >> 1


def lift(m: int, p: int = 1) -> int:
    """Apply m -> 4m+1 p times, via ((3m+1)*4**p - 1)/3.

    lift preserves the Syracuse image: syr(lift(m, p)) == syr(m) for odd m.
    """
    if m < 0 or p < 0:
        raise ValueError("lift needs m >= 0 and p >= 0")
    num = (3 * m + 1) * (1 << (2 * p)) - 1
    assert num % 3 == 0
    return num // 3


def syr_class(a: int, t: int) -> int:
    """Syracuse image of the residue-class member 8t+a, a in {1,3,5,7}."""
    if a not in (1, 3, 5, 7):
        raise ValueError(f"class must be 1, 3, 5 or 7, got {a}")
    if t < 0:
        raise ValueError("t must be >= 0")
    return syr(8 * t + a)
