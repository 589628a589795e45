"""Addresses, digit expansions and the counting combinatorics.

Greedy expansions of reals in powers of the contraction ratio, the
address-to-point map, the rewriting system that canonicalizes words at
multinacci ratios, and the integer sequences that count regions, holes
and unique addresses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ResourceLimit
from .exact import as_scalar, compare
from .geometry import translation_vector, validate_word

__all__ = [
    "CountingSeq",
    "Expansion",
    "canonical_word",
    "count_unique_addresses",
    "edge_address",
    "gf_series_check",
    "greedy_expansion",
    "h_sequence",
    "p_sequence",
    "point_from_address",
    "series_coefficients",
    "u_sequence",
    "unique_address_counts",
]


@dataclass(frozen=True)
class Expansion:
    """Digits a_1..a_N of x in powers lam^1..lam^N."""

    lam: object
    x: object
    digits: tuple
    tail_convention: bool = False

    def partial_sum(self, upto=None):
        lam = self.lam
        acc = lam * 0
        pw = lam * 0 + 1
        stop = len(self.digits) if upto is None else upto
        for k in range(stop):
            pw = pw * lam
            if self.digits[k]:
                acc = acc + pw
        return acc


def greedy_expansion(lam, x, depth, tail_convention=False):
    """Greedy 0/1 digits of x in powers of lam, largest-first.

    With ``tail_convention`` the terminating expansion of 1 is replaced by
    its periodic form: digits (a_1..a_{N-1}, 0) repeating, which sums to 1
    again whenever the raw expansion of 1 terminates (multinacci ratios).
    The replacement is exact only for x = 1 and is never applied elsewhere.
    """
    lam = as_scalar(lam)
    x = as_scalar(x)
    if not (compare(lam, Fraction(1, 2)) > 0 and compare(lam, 1) < 0):
        raise DomainError("greedy expansion needs lam in (1/2, 1)")
    if compare(x, 0) < 0 or compare(x, 1) > 0:
        raise DomainError("x must lie in [0, 1]")
    if not isinstance(depth, int) or depth < 1:
        raise DomainError("depth must be an integer >= 1")
    digits = []
    partial = lam * 0
    pw = lam * 0 + 1
    terminated_at = None
    for k in range(1, depth + 1):
        pw = pw * lam
        cand = partial + pw
        s = compare(cand, x)
        if s <= 0:
            digits.append(1)
            partial = cand
            if terminated_at is None and s == 0:
                terminated_at = k
        else:
            digits.append(0)
    if tail_convention and terminated_at and compare(x, 1) == 0:
        block = tuple(digits[: terminated_at - 1]) + (0,)
        digits = [block[k % len(block)] for k in range(depth)]
    return Expansion(lam=lam, x=x, digits=tuple(digits), tail_convention=tail_convention)


def point_from_address(word, lam, d=2):
    """Image of the simplex barycenter under the composed map of ``word``."""
    word = validate_word(word, d)
    if len(word) < 1:
        raise DomainError("address must have at least one digit")
    t, lam_n = translation_vector(word, lam, d)
    center = Fraction(1, d + 1)
    return tuple(tj + lam_n * center for tj in t)


def edge_address(x, lam, depth, edge=(0, 1), d=2):
    """A word whose region tracks the edge point x*p_i + (1-x)*p_j.

    Greedy expansion of x in the weights (1-lam)*lam^k; digit k picks f_i
    when the weight is taken and f_j otherwise.  Needs lam >= 1/2 so the
    greedy tail always covers the remainder.
    """
    lam = as_scalar(lam)
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise DomainError("edge coordinate must lie in [0, 1]")
    if compare(lam, Fraction(1, 2)) < 0:
        raise DomainError("edge addressing needs lam >= 1/2")
    i, j = edge
    one_minus = 1 - lam
    partial = lam * 0
    pw = lam * 0 + 1
    word = []
    for _ in range(depth):
        cand = partial + one_minus * pw
        if compare(cand, x) <= 0:
            word.append(i)
            partial = cand
        else:
            word.append(j)
        pw = pw * lam
    return validate_word(word, d)


# ----------------------------------------------------------------------
# rewriting


def canonical_word(word, m):
    """Normal form under the oriented rule i j^m -> j i^m for i > j.

    Each application strictly lowers the word lexicographically, so the
    loop terminates; equality of normal forms is verified against exact
    matrix equality in the tests rather than assumed confluent.
    """
    if m < 2:
        raise DomainError("rewriting needs m >= 2")
    w = list(word)
    changed = True
    while changed:
        changed = False
        for pos in range(len(w) - m):
            i, j = w[pos], w[pos + 1]
            if i > j and all(w[pos + 1 + t] == j for t in range(m)):
                w[pos] = j
                for t in range(m):
                    w[pos + 1 + t] = i
                changed = True
                break
    return tuple(w)


# ----------------------------------------------------------------------
# counting sequences


@dataclass(frozen=True)
class CountingSeq:
    kind: str
    values: tuple
    m: int = None

    def __getitem__(self, k):
        return self.values[k]

    def __len__(self):
        return len(self.values)


def u_sequence(n_max):
    """Distinct level-n pieces at the golden ratio: 1, 3, 9, then
    u_n = 3 u_{n-1} - 3 u_{n-3}."""
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    vals = [1, 3, 9]
    while len(vals) <= n_max:
        vals.append(3 * vals[-1] - 3 * vals[-3])
    return CountingSeq(kind="u", values=tuple(vals[: n_max + 1]))


def _check_counts(m, k_max):
    if not isinstance(m, int) or m < 2:
        raise DomainError("m must be >= 2 and an integer")
    if not isinstance(k_max, int) or k_max < 0:
        raise DomainError("k_max must be >= 0 and an integer")


def _hexagon_counts(m, k_max):
    """h_0..h_k_max of the recurrence: zero below index m, then 3, then
    h_k = 2*(h_{k-m+1} + ... + h_{k-1})."""
    vals = [0] * min(m, k_max + 1)
    if k_max >= m:
        vals.append(3)
    for k in range(m + 1, k_max + 1):
        vals.append(2 * sum(vals[k - m + 1 : k]))
    return vals


def h_sequence(m, k_max):
    """Carrier-piece counts of the infinite-IFS decomposition, for ints
    m >= 2 and k_max >= 0: the hexagon counts of ``_hexagon_counts`` for
    m >= 3.  At m = 2 the pieces are trapezia instead, indexed by level:
    the count at level n >= 1 is 3 * 2^(n-1)."""
    _check_counts(m, k_max)
    if m == 2:
        vals = [0] + [3 * 2 ** (n - 1) for n in range(1, k_max + 1)]
        return CountingSeq(kind="h", values=tuple(vals), m=2)
    return CountingSeq(kind="h", values=tuple(_hexagon_counts(m, k_max)), m=m)


def p_sequence(m, k_max):
    """Triangle-piece counts indexed by contraction exponent, for ints
    m >= 2 and k_max >= 0: zero below m, p_m = p_{m+1} = 3, then
    p_k = h_{k-m} + 3*(h_{k-m+1} + ... + h_{k-2}) with the h of
    ``_hexagon_counts``.  At m = 2 that h is 3 * 2^(k-2) from k = 2, so
    p doubles from p_4 = 3 on."""
    _check_counts(m, k_max)
    h = _hexagon_counts(m, k_max)
    vals = []
    for k in range(k_max + 1):
        if k < m:
            vals.append(0)
        elif k <= m + 1:
            vals.append(3)
        else:
            vals.append(h[k - m] + 3 * sum(h[k - m + 1 : k - 1]))
    return CountingSeq(kind="p", values=tuple(vals), m=m)


def series_coefficients(numerator, denominator, k_max):
    """Taylor coefficients of numerator/denominator, exact.

    Requires denominator[0] != 0; rational arithmetic throughout, returned
    as Fractions reduced to ints when integral.
    """
    if not denominator or denominator[0] == 0:
        raise DomainError("denominator must have a nonzero constant term")
    coeffs = []
    for k in range(k_max + 1):
        acc = Fraction(numerator[k]) if k < len(numerator) else Fraction(0)
        for j in range(1, min(k, len(denominator) - 1) + 1):
            acc -= denominator[j] * coeffs[k - j]
        acc /= denominator[0]
        coeffs.append(acc)
    return [int(c) if c.denominator == 1 else c for c in coeffs]


def gf_series_check(m, k_max):
    """Do the closed-form generating functions reproduce the recurrences?

    Q(t) = 3 t^m (1 - t) / (1 - 3t + 2t^m) against h, and
    P(t) = 3 t^m (1 - 2t + t^(m+1)) / (1 - 3t + 2t^m) against p.
    """
    if m < 3:
        raise DomainError("generating functions cover m >= 3 only")
    den = [1, -3] + [0] * (m - 2) + [2]
    q_num = [0] * m + [3, -3]
    p_num = [0] * m + [3, -6] + [0] * (m - 1) + [3]
    q_coeffs = series_coefficients(q_num, den, k_max)
    p_coeffs = series_coefficients(p_num, den, k_max)
    h = h_sequence(m, k_max).values
    p = p_sequence(m, k_max).values
    return list(h) == q_coeffs and list(p) == p_coeffs


# Longest word length count_unique_addresses accepts.  The counts have
# about n bits and each step adds them, so the work grows as n^2: n = 10^5
# took 1.4 to 2.5 s of CPU for m = 2 to 30 on a shared 2-core x86 host.
UNIQUE_COUNT_CAP = 10**5


def unique_address_counts(m, n):
    """Yield count_unique_addresses(m, k) for k = 1 .. n in one pass.

    Length-k words over three symbols with no factor i j^m (i != j) are
    exactly those whose non-initial runs stay shorter than m: count =
    3 * sum_{l<k} B(l) with B the run-composition count
    B(l) = 2*(B(l-1) + ... + B(l-m+1)), B(0) = 1.  The last m - 1 values
    of B are kept with their running sum.
    """
    if not isinstance(m, int) or m < 2:
        raise DomainError("m must be an integer >= 2")
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > UNIQUE_COUNT_CAP:
        raise ResourceLimit("n=%d exceeds the counting cap %d"
                            % (n, UNIQUE_COUNT_CAP))
    window = deque([1])
    window_sum = total = 1
    for _ in range(n):
        yield 3 * total
        b = 2 * window_sum
        window.append(b)
        window_sum += b
        if len(window) == m:
            window_sum -= window.popleft()
        total += b


def count_unique_addresses(m, n):
    """Length-n words over three symbols with no factor i j^m (i != j)."""
    for count in unique_address_counts(m, n):
        pass
    return count
