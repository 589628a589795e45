"""Signed power sums, separation bounds and converse witnesses.

The central quantity is the smallest nonzero modulus of sum(s_k theta^k)
over coefficient vectors s in {0, +-1}, found by branch and bound over the
coefficients in order of decreasing weight.  Floats steer the pruning with
a margin that covers their rounding; every surviving candidate is an exact
integer vector, and each distinct one is settled by exact sign and compare
unless it is the incumbent's vector up to sign, which ties with it, so the
reported minimum and witness are exact for the given degree bound.
The same search runs the small-difference gap check at ratios below one.
Converse witnesses for the failure of the hole pattern at non-multinacci
ratios come from the greedy expansion of 1.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain
from operator import itemgetter

from .errors import DomainError, ResourceLimit
from .exact import (
    AlgebraicNumber,
    LinearCombination,
    VectorFrame,
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

# Branch nodes plus visited table entries (each one distinct leaf vector)
# allowed before the branch and bound gives up.
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

# Largest multinacci index the proximity checks look for.  It caps the work
# (a first ``near_multinacci`` call just above 1/2 builds 29 bases, about
# 0.02 s with Python 3.11 on a shared 2-core host), not resolution: omega_30
# is 2.3e-10 above 1/2, its interval 8.9e-16 wide.
MULTINACCI_MAX = 30


@cache
def _multinacci_interval(m):
    return multinacci(m).interval


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
    1/omega_m?  Returns the matching m or None.

    A ``LinearCombination`` equal to its base's generator reads as that
    base number.  Any other combination raises DomainError: it may be a
    multinacci reciprocal written on another basis (1 + omega_2 is the
    golden ratio), which None would let the ceiling certify.
    """
    if isinstance(theta, LinearCombination):
        if theta != theta.alg.as_scalar():
            raise DomainError("multinacci test needs a rational, an AlgebraicNumber "
                              "or the generator combination of one")
        theta = theta.alg
    if isinstance(theta, AlgebraicNumber):
        m = len(theta.poly) - 1
        if 2 <= m <= MULTINACCI_MAX and theta.poly == (-1,) * m + (1,):
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
    - the prefix and tail sums and an entry's table sum (its own patch's
      weights) add at most n_max + 1 weights between them, so their
      rounding error is below (n_max + 2)*u*W;
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
    surviving prefix from a table of the low-weight half: one entry per
    distinct exact vector of a digit patch, holding the patch the tie rule
    prefers, sorted by float sum.  Vectors are packed ints and each table
    degree is one pass over whole columns.  When no two patches share a
    vector, one table serves both kinds of prefix: the all-zero prefix
    walks it past the patches led by -1, which are not visits.  At a
    rational base p/q with max(p, q) > 2 that always holds: if
    sum(e_k (p/q)^k) = 0 with every |e_k| <= 2, and a and b are the least
    and greatest k with e_k != 0, multiplying by q^b/p^a leaves every term
    but e_a q^(b-a) a multiple of p, so p | e_a, and likewise q | e_b.
    There the table is float sums and patch codes only, with no dedup,
    and a visited entry's vector is rebuilt from its code.  Entries
    within the float margin of the incumbent are visited; a leaf (prefix
    plus entry vector) is evaluated exactly unless it is zero, which is
    skipped, or the incumbent's vector up to sign, which ties with it.
    Ties go to the least degree, then the lexicographically smallest
    coefficients, signed so that the top one is positive.  Returns (float
    bound, SignedPolyValue); raises ResourceLimit with the incumbent
    attached when ``node_cap`` (at least 1) runs out: every branch node and
    every visited entry (one distinct leaf vector) counts.
    """
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
        raise DomainError("n_max must be an integer >= 1")
    if not isinstance(node_cap, int) or isinstance(node_cap, bool) or node_cap < 1:
        raise DomainError("node_cap must be an integer >= 1")
    base = as_scalar(base)
    if scalar_sign(base) <= 0:
        raise DomainError("base must be positive")
    if base == 1:
        raise DomainError("base 1 admits no nonzero minimum structure")
    search = _SignedSumSearch(base, n_max, node_cap)
    search.descend(0, 0.0, search.origin, False)
    return search.best_abs_f, search.incumbent()


def _pick(table, rows):
    return tuple(map(itemgetter(*rows), table))


def _sorted(table, key):
    return _pick(table, sorted(range(len(table[0])), key=key))


def _first_per_vector(table):
    """The rows of a (sums, vectors, codes) table whose vector is new."""
    vecs = table[1]
    first = dict(zip(reversed(vecs), range(len(vecs) - 1, -1, -1)))
    return table if len(first) == len(vecs) else _pick(table, sorted(first.values()))


class _PatchVectors(Sequence):
    """The vector column of a table of codes: row i's vector is the sum of
    the patch's digits times the ``steps``, one per table degree."""

    def __init__(self, codes, steps):
        self.codes, self.steps = codes, steps

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, row):
        code, vec = self.codes[row], 0
        for step in self.steps:
            d = (code + 1) % 3 - 1
            vec, code = vec + d * step, (code - d) // 3
        return vec


class _SignedSumSearch:
    """One run of the branch and bound behind ``min_abs_signed_sum``.

    The state lives on the instance rather than in nested closures: a
    recursive closure refers to itself through its cell, which would leave
    every call's powers and tables behind as cyclic garbage.

    A vector is one packed int of a ``VectorFrame`` over the powers (at a
    rational base p/q the numerator over q^n_max).  Prefixes start at the
    packed zero ``origin``; powers and table entries are ``frame.delta``
    displacements, so a child is one int add, a dedup hashes ints, a zero
    leaf is ``origin``, the incumbent's vector and its negation
    ``2 * origin - leaf`` are its ties, and ``value`` unpacks a leaf only to
    settle any other.  A table has columns of float sums, displacements and
    codes sum(d_i 3^i), whose balanced-ternary digits are the patch's from
    the lowest table degree up.  Each degree maps the whole columns to the
    rows' patches with digit -1, 0 and +1, interleaved, so above one the
    degrees 0..t-1 are enumerated lexicographically from d_0.
    A nonzero prefix fixes the witness's degree, so the tie rule takes the
    first patch of a vector, and a later digit never reorders two partial
    patches with equal vectors: each stage keeps its first patch per vector.
    The all-zero prefix has a table of the patches whose top nonzero digit
    is +1, by top degree first: each stage's ``up`` rows, in turn.  Below
    one the table holds the top degrees, so a nonzero prefix ranks a patch
    by its top degree, then by its top digit with -1 first (the sign flip
    turns the prefix's lowest digit from +1 into -1), then by its digits
    from the lowest: its table is the zero row followed, degree by degree,
    by the negated ``up`` rows and the ``up`` rows, first patch per vector.
    If no two of the 3^t patches share a vector, the +1-led ones are the
    full table's rows of code > 0, with the same floats, and ``lead`` is
    None: the all-zero prefix walks the full table past the other rows.
    At a rational base other than 2 and 1/2 no two patches share a value
    (see ``min_abs_signed_sum``), so the stages keep every row without a
    dedup pass and carry sums and codes only; the displacement column is a
    ``_PatchVectors`` that decodes a row's code when ``finish`` visits it.
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
        self.node_cap, self.nodes = node_cap, 0
        self.coeffs = [0] * (n_max + 1)
        self.best = self.best_val = self.best_key = None
        self.best_leaves = ()
        self.best_abs_f = math.inf

        self.frame = frame = VectorFrame(base, powers)
        self.alg, self.origin = frame.alg, frame.pack((0,) * frame.deg)
        self.vectors = [frame.delta(frame.vector(p)) for p in powers]

        self.boundary = n_max + 1 - min(9, (n_max + 2) // 2)
        self.degrees = degrees = sorted(order[self.boundary:])
        digit_vectors = [self.vectors[k] for k in degrees]
        # No two patches share a value at p/q with max(p, q) > 2.
        shared = self.alg is not None or max(base.numerator, base.denominator) <= 2
        first = _first_per_vector if shared else (lambda table: table)
        full, ups = ([0.0], [0], [0]) if shared else ([0.0], [0]), []
        for j, k in enumerate(degrees):
            steps = (fweights[k], digit_vectors[j], 3**j) if shared else (fweights[k], 3**j)
            up = [[x + step for x in column] for step, column in zip(steps, full)]
            ups.append(up)
            if degrees[0] != 0 and j == len(degrees) - 1:
                # Below one: the last stage is the up rows in tie-rule order.
                full = first(tuple(
                    [zero, *chain.from_iterable(chain((-x for x in up), up) for up in column)]
                    for zero, column in zip((0.0, 0, 0), zip(*ups))))
                break
            stage = []
            for step, column, column_up in zip(steps, full, up):
                out = [None] * (3 * len(column))
                out[0::3], out[1::3], out[2::3] = [x - step for x in column], column, column_up
                stage.append(out)
            full = first(stage)
        self.lead = None
        if len(full[0]) < 3 ** len(degrees):
            lead = _first_per_vector(tuple([*chain.from_iterable(column)] for column in zip(*ups)))
            self.lead = _sorted(lead, lead[0].__getitem__)
        self.full = _sorted(full, full[0].__getitem__)
        if not shared:
            sums, codes = self.full
            self.full = (sums, _PatchVectors(codes, digit_vectors), codes)

    def incumbent(self):
        if self.best_key is None:
            return None
        return SignedPolyValue(coeffs=self.best_key[1], value=self.best_val)

    def tie_key(self, code):
        """Tie key (length, coefficients) of the current prefix completed by
        the patch of ``code``, signed so that its top coefficient is +1."""
        coeffs = list(self.coeffs)
        for k in self.degrees:
            d = (code + 1) % 3 - 1
            coeffs[k], code = d, (code - d) // 3
        cand = poly_trim(coeffs)
        return len(cand), tuple(s if cand[-1] > 0 else -s for s in cand)

    def value(self, leaf):
        """The exact value of a packed leaf; at a rational base its numerator."""
        vec = self.frame.unpack(leaf)
        return vec[0] if self.alg is None else self.frame.scalar(vec)

    def consider(self, leaf, code):
        # The incumbent's vector or its negation has the incumbent's modulus.
        if leaf in self.best_leaves:
            self.best_key = min(self.best_key, self.tie_key(code))
            return
        value = self.value(leaf)
        # finish passes nonzero vectors only, and those never settle to sign 0
        abs_val = value if scalar_sign(value) > 0 else -value
        cmp = -1 if self.best is None else compare(abs_val, self.best)
        if cmp < 0:
            self.best = abs_val
            self.best_leaves = (leaf, 2 * self.origin - leaf)
            self.best_val = (abs_val if self.alg is not None
                             else Fraction(abs_val, self.frame.den))
            self.best_abs_f = float(self.best_val)
            self.best_key = self.tie_key(code)
        elif cmp == 0:
            self.best_key = min(self.best_key, self.tie_key(code))

    def check_budget(self):
        self.nodes += 1
        if self.nodes > self.node_cap:
            raise ResourceLimit("signed-sum search exceeded %d nodes" % self.node_cap,
                                best=self.incumbent())

    def finish(self, partial, prefix, any_nonzero):
        # Walk table entries outward from -partial until the float distance
        # clears the incumbent plus margin; every visited entry is checked
        # exactly, so near-ties and true ties all reach consider().  Each
        # visited entry is charged to the node budget before its evaluation.
        # Without a lead table the zero prefix passes code <= 0 rows, uncharged.
        skip = not any_nonzero and self.lead is None
        tsums, vectors, codes = self.full if any_nonzero or skip else self.lead
        idx = bisect.bisect_left(tsums, -partial)
        left, right = idx - 1, idx
        while True:
            dl = abs(partial + tsums[left]) if left >= 0 else None
            dr = abs(partial + tsums[right]) if right < len(tsums) else None
            if dl is None and dr is None:
                return
            if dr is None or (dl is not None and dl <= dr):
                pick, left, dist = left, left - 1, dl
            else:
                pick, right, dist = right, right + 1, dr
            if dist > self.best_abs_f + self.margin:
                return
            if skip and codes[pick] <= 0:
                continue
            self.check_budget()
            leaf = prefix + vectors[pick]
            if leaf != self.origin:
                self.consider(leaf, codes[pick])

    def descend(self, pos, partial, prefix, any_nonzero):
        self.check_budget()
        if pos == self.boundary:
            self.finish(partial, prefix, any_nonzero)
            return
        if abs(partial) - self.tails[pos] > self.best_abs_f + self.margin:
            return
        k = self.order[pos]
        w = self.fweights[k]
        if any_nonzero:
            # The digits by |partial + s*w|, ties in digit order (-1, 0, 1).
            low, mid, high = abs(partial - w), abs(partial), abs(partial + w)
            if mid < low:
                digits = (1, 0, -1) if high < mid else (0, 1, -1) if high < low else (0, -1, 1)
            else:
                digits = (1, -1, 0) if high < low else (-1, 1, 0) if high < mid else (-1, 0, 1)
        else:
            digits = (0, 1)  # partial is 0.0 and w >= 0, so 0 comes first
        for s in digits:
            self.coeffs[k] = s
            self.descend(pos + 1, partial + s * w, prefix + s * self.vectors[k],
                         any_nonzero or s != 0)
        self.coeffs[k] = 0


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

    @classmethod
    def of(cls, theta, n_max, found, m, certify=False):
        """The report of ``found``, ell_upper's (min_abs, witness) at
        ``theta``, whose multinacci test gave ``m``.  With ``certify`` and
        no multinacci reciprocal, it is certified when (2 + theta) *
        |witness| < 2 exactly."""
        theta_s = as_scalar(theta)
        min_abs, witness = found
        bound = 2.0 / (2.0 + float(theta_s))
        certified = certify and m is None and compare((2 + theta_s) * witness.value, 2) < 0
        return cls(theta_float=float(theta_s), n_max=n_max, min_abs=min_abs,
                   witness=witness, bound=bound, certified=certified,
                   multinacci_reciprocal=m or 0)

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
    reciprocal is flagged and reported uncertified.
    """
    theta_s = as_scalar(theta)
    if compare(theta_s, Fraction(3, 2)) <= 0 or compare(theta_s, 2) >= 0:
        raise DomainError("separation check expects theta in (3/2, 2)")
    m = is_multinacci_reciprocal(theta)
    found = ell_upper(theta_s, n_max, node_cap=node_cap)
    return SeparationReport.of(theta_s, n_max, found, m, certify=True)


# ----------------------------------------------------------------------
# small-difference gap property at ratios below one


def gap_property_holds(lam, n):
    """Is every nonzero |sum(d_k lam^k)|, d in {0,+-1}^(n+1), >= lam^(n+1)?

    Equivalent to the pairwise form over 0/1 vectors a, a' of length n+1:
    any two distinct values of sum(a_k lam^k) differ by at least lam^(n+1).
    Searching difference vectors directly avoids enumerating the 4^(n+1)
    pairs.
    """
    lam_s = as_scalar(lam)
    if scalar_sign(lam_s) <= 0 or compare(lam_s, 1) >= 0:
        raise DomainError("ratio must lie in (0, 1)")
    _, witness = min_abs_signed_sum(lam_s, n)
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
    if lam > _multinacci_interval(2)[1]:  # lam is outside omega_2's interval
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
