"""Signed power sums, separation bounds and converse witnesses.

The central quantity is the smallest nonzero modulus of sum(s_k theta^k)
over coefficient vectors s in {0, +-1}, found by branch and bound over the
coefficients in order of decreasing weight.  Floats steer the pruning with
a margin that covers their rounding; every surviving candidate is valued
by an integer dot product and compared exactly, so the reported minimum
and witness are exact for the given degree bound.  The same search runs
the small-difference gap check at ratios below one.  Converse witnesses
for the failure of the hole pattern at non-multinacci ratios come from the
greedy expansion of 1.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import DomainError, ResourceLimit
from .exact import (
    AlgebraicNumber,
    LinearCombination,
    as_scalar,
    compare,
    compare_values,
    isolate_root,
    lambda_star,
    multinacci,
    poly_trim,
    scalar_sign,
)
from .words import greedy_expansion

__all__ = [
    "ConverseWitness",
    "NotFound",
    "SeparationReport",
    "SignedPolyValue",
    "converse_inequalities_hold",
    "converse_witness",
    "ell_upper",
    "erdos_joo_gap_check",
    "gap_property_holds",
    "golden_ratio",
    "is_multinacci_reciprocal",
    "min_abs_signed_sum",
    "multinacci_reciprocal",
    "near_multinacci",
    "pisot_number",
    "separation_bound_check",
]

# Branch nodes plus visited half-table entries (each an exact leaf
# evaluation) allowed before the branch and bound gives up.
DEFAULT_NODE_CAP = 5_000_000

# Least slack added to the float pruning test; candidates this close to
# the incumbent survive to the exact comparison.  ``prune_margin`` raises it
# where the float rounding could exceed it.
PRUNE_MARGIN = 1e-6


# ----------------------------------------------------------------------
# named bases


def multinacci_reciprocal(m):
    """1/omega_m: the root in (3/2, 2) of x^m = x^(m-1) + ... + x + 1."""
    if not isinstance(m, int) or m < 2:
        raise DomainError("multinacci index must be an integer >= 2")
    return isolate_root([-1] * m + [1], (Fraction(3, 2), Fraction(2)))


def golden_ratio():
    """The golden ratio, reciprocal of the first multinacci ratio."""
    return multinacci_reciprocal(2)


_PISOT_POLYS = (
    ([-1, -1, 0, 1], (Fraction(1), Fraction(3, 2))),
    ([-1, 0, 0, -1, 1], (Fraction(1), Fraction(3, 2))),
    ([-1, 0, 1, -1, -1, 1], (Fraction(5, 4), Fraction(3, 2))),
    ([-1, 0, -1, 1], (Fraction(5, 4), Fraction(3, 2))),
)


def pisot_number(index):
    """The index-th smallest Pisot number, index in 1..4.

    1: x^3 = x + 1 (~1.3247)      2: x^4 = x^3 + 1 (~1.3803)
    3: x^5 = x^4 + x^3 - x^2 + 1 (~1.4433)   4: x^3 = x^2 + 1 (~1.4656)
    """
    if index not in (1, 2, 3, 4):
        raise DomainError("pisot_number index must be 1..4")
    coeffs, window = _PISOT_POLYS[index - 1]
    return isolate_root(coeffs, window)


# ----------------------------------------------------------------------
# multinacci proximity checks

# Largest multinacci index the proximity checks look for.  Beyond it the
# ratios crowd against 1/2 closer than the isolating width and the
# distinction stops being meaningful.
MULTINACCI_MAX = 30

_MULTINACCI_CACHE = {}


def _multinacci_interval(m):
    if m not in _MULTINACCI_CACHE:
        w = multinacci(m)
        _MULTINACCI_CACHE[m] = w.interval
    return _MULTINACCI_CACHE[m]


def near_multinacci(lam):
    """The m <= MULTINACCI_MAX whose omega_m isolating interval contains
    lam, else None."""
    lam = _rational_ratio(lam)
    if not Fraction(1, 2) < lam < Fraction(3, 4):
        return None
    for m in range(2, MULTINACCI_MAX + 1):
        lo, hi = _multinacci_interval(m)
        if lo <= lam <= hi:
            return m
        if hi < lam:
            # omega_m decreases with m; once below lam it stays below.
            return None
    return None


def is_multinacci_reciprocal(theta):
    """Is theta exactly (algebraic input) or nearly (rational input) some
    1/omega_m?  Returns the matching m or None."""
    if isinstance(theta, AlgebraicNumber):
        for m in range(2, MULTINACCI_MAX + 1):
            if list(theta.poly) == [-1] * m + [1]:
                return m
        return None
    inv = 1 / _rational_ratio(theta)
    return near_multinacci(inv)


# ----------------------------------------------------------------------
# branch and bound over signed power sums


@dataclass(frozen=True)
class SignedPolyValue:
    """A nonzero signed power sum: coefficients s_0..s_n and exact value.

    Trailing zero coefficients are trimmed, so len(coeffs) - 1 is the true
    degree of the witness.  ``min_abs_signed_sum`` stores the absolute
    value |sum(s_k base^k)| in ``value``, which is therefore positive.
    """

    coeffs: tuple
    value: object


def prune_margin(total_weight, n_max):
    """Slack of the float pruning tests of a search over degrees <= n_max
    whose float weights w_k ~ |base^k| sum to ``total_weight``.

    With u = 2^-53 and W = total_weight + n_max + 1:
    - each w_k is within u*base^k + 1e-17*max(1, base^k) of its exact
      value (a ``_settle`` float of a combination, or a correctly rounded
      Fraction), and 1e-17 < 0.1*u, so the weights of one test are off
      by at most 1.1*u*W, and so is the float of the incumbent;
    - the prefix, tail and table sums add at most n_max + 1 weights
      between them, so their rounding error is below (n_max + 2)*u*W;
    - the final subtraction or addition and the sum incumbent + margin
      round once each, under 2*u*W.
    Hence a pruning test is off by less than (n_max + 7)*u*W, and taking
    2^-52 = 2u with n_max + 8 covers the (1 + O(n*u)) factors dropped.
    So a test that fires discards only candidates whose exact modulus
    exceeds the incumbent's, and exact ties still reach the tie rule.
    """
    bound = (n_max + 8) * 2.0**-52 * (total_weight + n_max + 1)
    return max(PRUNE_MARGIN, bound)


def min_abs_signed_sum(base, n_max, node_cap=DEFAULT_NODE_CAP):
    """Exact minimum of |sum(s_k base^k)|, s in {0,+-1}^(n_max+1) nonzero.

    Branches over coefficients in decreasing weight order with the first
    nonzero forced positive (sign symmetry), prunes a prefix P when
    |P| - sum(remaining weights) clears the incumbent, and completes each
    surviving prefix against the float sums of every digit patch of the
    low-weight half, sorted and kept with the base-3 index of their
    patch.  Only completions within the float margin of the incumbent
    are visited; each has its patch decoded from the index and its exact
    value taken as an integer dot product (numerators over base^n_max's
    denominator at a rational base, coordinates of one combination at an
    algebraic one), then settled by exact sign and comparison.  Ties go
    to the witness of least degree, then the lexicographically smallest
    coefficient tuple.  Returns (float bound, SignedPolyValue); raises
    ResourceLimit with the incumbent attached when ``node_cap`` runs out:
    every branch node and every table entry visited counts against it.
    """
    if not isinstance(n_max, int) or n_max < 1:
        raise DomainError("n_max must be an integer >= 1")
    base = as_scalar(base)
    if scalar_sign(base) <= 0:
        raise DomainError("base must be positive")
    if isinstance(base, Fraction) and base == 1:
        raise DomainError("base 1 admits no nonzero minimum structure")
    search = _SignedSumSearch(base, n_max, node_cap)
    search.descend(0, 0.0, False)
    return search.best_abs_f, search.incumbent()


class _SignedSumSearch:
    """One run of the branch and bound behind ``min_abs_signed_sum``.

    The state lives on the instance rather than in nested closures: a
    recursive closure refers to itself through its cell, which would leave
    every call's powers and half-table behind as cyclic garbage.

    A leaf's value is a dot product of its coefficients with precomputed
    columns.  At a rational base p/q the column holds the numerators
    p^k q^(n_max-k) over the common denominator q^n_max, so leaves are
    signed and compared as ints.  At an algebraic base column i holds
    coordinate i of every reduced power (ints when the base's polynomial
    is monic), and the dot products are the coordinates of the one
    ``LinearCombination`` whose sign is settled.
    """

    def __init__(self, base, n_max, node_cap):
        powers = [base * 0 + 1]
        for _ in range(n_max):
            powers.append(powers[-1] * base)
        self.fweights = fweights = [float(p) for p in powers]
        self.order = order = sorted(range(n_max + 1), key=lambda k: -fweights[k])
        self.tails = tails = [0.0] * (n_max + 2)
        for pos in range(n_max, -1, -1):
            tails[pos] = tails[pos + 1] + fweights[order[pos]]
        self.margin = prune_margin(tails[0], n_max)

        if isinstance(base, Fraction):
            p, q = base.numerator, base.denominator
            self.alg = None
            self.numerators = [p**k * q ** (n_max - k) for k in range(n_max + 1)]
            self.denominator = q**n_max
        else:
            self.alg = base.alg
            self.denominator = None
            self.columns = tuple(zip(*(pw.coeffs for pw in powers)))
            self.int_columns = all(
                type(c) is int for col in self.columns for c in col
            )

        # Positions split into a branched prefix and a tabulated low half.
        # Half-table entry i is the patch _decode_patch(i, table_len); only
        # its float sum is kept, in sorted order next to i.  The sort is
        # stable, so equal sums stay in the order of the patches.
        self.table_len = table_len = min(12, max(1, (n_max + 2) // 2))
        self.boundary = boundary = n_max + 1 - table_len
        sums = [0.0]
        for pos in range(boundary, n_max + 1):
            w = fweights[order[pos]]
            sums = [s + d * w for s in sums for d in (-1, 0, 1)]
        ranked = sorted(range(len(sums)), key=sums.__getitem__)
        self.tsums = array("d", [sums[i] for i in ranked])
        self.tindex = array("l", ranked)

        self.node_cap = node_cap
        self.nodes = 0
        self.coeffs = [0] * (n_max + 1)
        self.best = self.best_val = self.best_abs_f = self.best_coeffs = None

    def incumbent(self):
        if self.best_coeffs is None:
            return None
        return SignedPolyValue(coeffs=self.best_coeffs, value=self.best_val)

    def exact_value(self, coeffs):
        """sum(coeffs[k] base^k): an int over ``denominator`` at a rational
        base, a LinearCombination at an algebraic one."""
        if self.alg is None:
            return sum(map(mul, coeffs, self.numerators))
        if self.int_columns:
            vec = [sum(map(mul, coeffs, col)) for col in self.columns]
        else:
            # Only the powers that occur are summed, so a coordinate is a
            # Fraction exactly when it is in the term-by-term sum, and the
            # fixed-point screen, which takes int coordinates only, settles
            # the same leaves.
            vec = [sum(c * s for c, s in zip(col, coeffs) if s)
                   for col in self.columns]
        return LinearCombination(self.alg, vec)

    def consider(self, coeffs):
        value = self.exact_value(coeffs)
        sgn = scalar_sign(value)
        if sgn == 0:
            return
        abs_val = value if sgn > 0 else -value
        cmp = -1 if self.best is None else compare(abs_val, self.best)
        if cmp < 0:
            self.best = abs_val
            self.best_val = (abs_val if self.denominator is None
                             else Fraction(abs_val, self.denominator))
            self.best_abs_f = float(self.best_val)
            self.best_coeffs = tuple(poly_trim(coeffs))
        elif cmp == 0:
            cand = tuple(poly_trim(coeffs))
            if (len(cand), cand) < (len(self.best_coeffs), self.best_coeffs):
                self.best_coeffs = cand

    def check_budget(self, spent=1):
        self.nodes += spent
        if self.nodes > self.node_cap:
            err = ResourceLimit("signed-sum search exceeded %d nodes"
                                % self.node_cap)
            err.best = self.incumbent()
            raise err

    def apply_patch(self, index, any_nonzero):
        patch = _decode_patch(index, self.table_len)
        # Sign symmetry: with an all-zero prefix the patch must open with +1.
        if not any_nonzero:
            lead = next((d for d in patch if d), 0)
            if lead <= 0:
                return
        coeffs, order, boundary = self.coeffs, self.order, self.boundary
        for off, d in enumerate(patch):
            coeffs[order[boundary + off]] = d
        self.consider(coeffs)
        for off in range(len(patch)):
            coeffs[order[boundary + off]] = 0

    def finish(self, partial, any_nonzero):
        # Walk table entries outward from -partial until the float distance
        # clears the incumbent plus margin; every visited entry is checked
        # exactly, so near-ties and true ties all reach consider().  Each
        # visited entry is one unit of the node budget, counted locally and
        # charged on the way out; the entry past the budget returns before
        # its evaluation, and the charge then raises.
        tsums = self.tsums
        idx = bisect.bisect_left(tsums, -partial)
        left, right = idx - 1, idx
        room = self.node_cap - self.nodes
        visited = 0
        try:
            while True:
                dl = abs(partial + tsums[left]) if left >= 0 else None
                dr = abs(partial + tsums[right]) if right < len(tsums) else None
                if dl is None and dr is None:
                    return
                if dr is None or (dl is not None and dl <= dr):
                    pick, left = left, left - 1
                    dist = dl
                else:
                    pick, right = right, right + 1
                    dist = dr
                if self.best_abs_f is not None and dist > self.best_abs_f + self.margin:
                    return
                visited += 1
                if visited > room:
                    return
                self.apply_patch(self.tindex[pick], any_nonzero)
        finally:
            self.check_budget(visited)

    def descend(self, pos, partial, any_nonzero):
        self.check_budget()
        if pos == self.boundary:
            self.finish(partial, any_nonzero)
            return
        if (
            self.best_abs_f is not None
            and abs(partial) - self.tails[pos] > self.best_abs_f + self.margin
        ):
            return
        k = self.order[pos]
        w = self.fweights[k]
        digits = (0, 1) if not any_nonzero else (-1, 0, 1)
        for s in sorted(digits, key=lambda s: abs(partial + s * w)):
            self.coeffs[k] = s
            self.descend(pos + 1, partial + s * w, any_nonzero or s != 0)
        self.coeffs[k] = 0


def _decode_patch(index, length):
    """Digits d_0..d_(length-1) in {-1, 0, 1} of half-table entry ``index``:
    the base-3 digits of the index, most significant first, less one."""
    patch = [0] * length
    for off in range(length - 1, -1, -1):
        index, r = divmod(index, 3)
        patch[off] = r - 1
    return tuple(patch)


def ell_upper(theta, n_max, node_cap=DEFAULT_NODE_CAP):
    """Degree-bounded minimum of |sum(s_k theta^k)| with its witness.

    This is an upper bound for the infimum over all degrees; it is exact
    as a minimum over degrees <= n_max but is never the certified infimum.
    """
    theta_s = as_scalar(theta)
    if compare(theta_s, 1) <= 0:
        raise DomainError("theta must exceed 1")
    return min_abs_signed_sum(theta_s, n_max, node_cap=node_cap)


@dataclass(frozen=True)
class SeparationReport:
    """ell_upper versus the 2/(2+theta) ceiling at one truncation degree."""

    theta_float: float
    n_max: int
    min_abs: float
    witness: SignedPolyValue
    bound: float
    certified: bool
    multinacci_reciprocal: int

    def as_json_dict(self):
        return {
            "theta": self.theta_float,
            "n_max": self.n_max,
            "min_abs": self.min_abs,
            "witness_coeffs": list(self.witness.coeffs),
            "bound_2_over_2_plus_theta": self.bound,
            "certified": self.certified,
            "multinacci_reciprocal": self.multinacci_reciprocal,
        }


def separation_bound_check(theta, n_max, node_cap=DEFAULT_NODE_CAP):
    """Check the degree-bounded minimum against the 2/(2+theta) ceiling.

    The ceiling only applies when 1/theta is not multinacci; a multinacci
    reciprocal is flagged and reported uncertified.  Certification compares
    (2 + theta) * |witness| < 2 exactly.
    """
    theta_s = as_scalar(theta)
    if compare(theta_s, Fraction(3, 2)) <= 0 or compare(theta_s, 2) >= 0:
        raise DomainError("separation check expects theta in (3/2, 2)")
    m = is_multinacci_reciprocal(theta)
    min_abs, witness = ell_upper(theta_s, n_max, node_cap=node_cap)
    bound = 2.0 / (2.0 + float(theta_s))
    if m is not None:
        certified = False
    else:
        certified = compare((2 + theta_s) * witness.value, 2) < 0
    return SeparationReport(
        theta_float=float(theta_s),
        n_max=n_max,
        min_abs=min_abs,
        witness=witness,
        bound=bound,
        certified=certified,
        multinacci_reciprocal=m if m is not None else 0,
    )


# ----------------------------------------------------------------------
# small-difference gap property at ratios below one


def gap_property_holds(lam, n, node_cap=DEFAULT_NODE_CAP):
    """Is every nonzero |sum(d_k lam^k)|, d in {0,+-1}^(n+1), >= lam^(n+1)?

    Equivalent to the pairwise form over 0/1 vectors a, a' of length n+1:
    any two distinct values of sum(a_k lam^k) differ by at least lam^(n+1).
    Searching difference vectors directly avoids enumerating the 4^(n+1)
    pairs.
    """
    lam_s = as_scalar(lam)
    if scalar_sign(lam_s) <= 0 or compare(lam_s, 1) >= 0:
        raise DomainError("ratio must lie in (0, 1)")
    _, witness = min_abs_signed_sum(lam_s, n, node_cap=node_cap)
    return compare(witness.value, lam_s ** (n + 1)) >= 0


def erdos_joo_gap_check(m, n):
    """gap_property_holds at omega_m, with the small-case preconditions."""
    if not isinstance(m, int) or not 2 <= m <= 5:
        raise DomainError("m must be an integer in 2..5")
    if not isinstance(n, int) or not 1 <= n <= 12:
        raise DomainError("n must be an integer in 1..12")
    return gap_property_holds(multinacci(m), n)


# ----------------------------------------------------------------------
# converse witnesses from the greedy expansion of 1


@dataclass(frozen=True)
class ConverseWitness:
    """Digits a_1..a_(n-1) and position n satisfying both inequalities."""

    n: int
    digits: tuple


@dataclass(frozen=True)
class NotFound:
    """No witness produced; reason says why the search does not apply."""

    reason: str


def converse_inequalities_hold(lam, n, digits):
    """Exact check of the two-sided pinch at position n:

        (2 lam - 1) lam^n < (1 - lam) (1 - sum a_k lam^k) < (1 - lam) lam^n

    written division-free; digits are a_1..a_(n-1).
    """
    lam = _rational_ratio(lam)
    if len(digits) != n - 1:
        raise DomainError("need exactly n-1 digits")
    rest = 1 - sum(a * lam ** (k + 1) for k, a in enumerate(digits))
    if not rest < lam**n:
        return False
    return (2 * lam - 1) * lam**n < (1 - lam) * rest


def _rational_ratio(lam):
    if isinstance(lam, float):
        raise DomainError("exact ratio required, got a float")
    try:
        return Fraction(lam)
    except (TypeError, ValueError):
        raise DomainError("converse witness search needs a rational ratio") from None


def converse_witness(lam, n_max):
    """A digit witness that the hole pattern fails at a rational ratio.

    Three regimes inside (1/2, 2/3): below the first multinacci ratio the
    greedy expansion of 1 is scanned for a position with a_n = 0 and
    a_(n+1) = 1 whose prefix passes the exact pinch; between it and the
    radial threshold the fixed witness n = 2, digits (1,) works; from the
    threshold on there is no such witness and NotFound says so.  Ratios
    inside a multinacci isolating interval are rejected.
    """
    lam = _rational_ratio(lam)
    if not isinstance(n_max, int) or n_max < 2:
        raise DomainError("n_max must be an integer >= 2")
    if not (Fraction(1, 2) < lam < Fraction(2, 3)):
        raise DomainError("witness search expects a ratio in (1/2, 2/3)")
    m = near_multinacci(lam)
    if m is not None:
        raise DomainError(
            "ratio sits in the isolating interval of the index-%d ratio" % m
        )
    w2 = multinacci(2)
    if compare_values(lam, w2) > 0:
        star = lambda_star()
        if compare_values(lam, star) >= 0:
            return NotFound(reason="radial regime")
        witness = ConverseWitness(n=2, digits=(1,))
        assert converse_inequalities_hold(lam, witness.n, witness.digits)
        return witness
    expansion = greedy_expansion(lam, Fraction(1), n_max + 1)
    digits = expansion.digits
    for n in range(2, n_max + 1):
        if digits[n - 1] == 0 and digits[n] == 1:
            prefix = tuple(digits[: n - 1])
            if converse_inequalities_hold(lam, n, prefix):
                return ConverseWitness(n=n, digits=prefix)
    return NotFound(reason="no verified position within depth %d" % n_max)
