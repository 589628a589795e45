"""Exact arithmetic for the algebraic numbers the gasket constructions live on.

Everything here is rational-interval based: an algebraic number is an integer
polynomial plus an isolating interval with rational endpoints, and derived
quantities are integer (or rational) combinations of its powers.

A ``VectorFrame`` writes the scalars of one base as integer vectors over one
denominator and gives each a certified integer image lo <= unit * value <= hi,
read off midpoint-radius fixed-point images of the base's powers.  Every
sign, ceiling and float of a combination is settled in ``_settle``: first on
the image a frame of denominator 1 gives it, then on interval Horner
enclosures (unit 1) of a shrinking isolating interval.  The same deciders
read both kinds of bounds, and the level loops ask them of their frames'
images.  No float ever feeds back into a comparison.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import DomainError, MultipleRootsError, NoRootError, PrecisionExhausted

__all__ = [
    "AlgebraicNumber",
    "LinearCombination",
    "VectorFrame",
    "as_scalar",
    "compare",
    "compare_values",
    "gasket_dimension",
    "image_below",
    "image_ceil",
    "isolate_root",
    "lambda_star",
    "multinacci",
    "scalar_ceil",
    "scalar_sign",
    "sierpinski_dimension",
    "sigma",
    "smallest_positive_root",
    "tau",
    "uniqueness_dimension",
]

# Refinement rounds allowed before a sign, ceiling or float query gives up.
MAX_REFINE_ROUNDS = 256

# Isolating width at which power images settle the level loops without Horner rounds.
DEFAULT_TOL = Fraction(1, 10**15)

# Fraction bits of the fixed-point images of a base number's powers, from
# which every ``VectorFrame`` image is read.
FIXED_BITS = 96


# ----------------------------------------------------------------------
# dense univariate polynomials, ascending coefficient order


def poly_trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_deriv(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:]


def poly_divmod(num, den):
    den = poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    num = [Fraction(c) for c in num]
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    lead = Fraction(den[-1])
    while len(poly_trim(num)) >= len(den):
        num = poly_trim(num)
        shift = len(num) - len(den)
        f = num[-1] / lead
        q[shift] = f
        for i, c in enumerate(den):
            num[shift + i] -= f * c
    return poly_trim(q), poly_trim(num)


def _poly_gcd(a, b):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, poly_trim(r)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def squarefree_part(coeffs):
    g = _poly_gcd(coeffs, poly_deriv(coeffs))
    if len(g) <= 1:
        return poly_trim(coeffs)
    q, _ = poly_divmod(coeffs, g)
    return q


def _primitive_int(coeffs):
    """Clear denominators and content; leading coefficient made positive."""
    dens = [Fraction(c).denominator for c in coeffs]
    scale = math.lcm(*dens) if dens else 1
    ints = [int(Fraction(c) * scale) for c in coeffs]
    ints = poly_trim(ints)
    if not ints:
        return []
    g = math.gcd(*(abs(c) for c in ints))
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def sturm_chain(coeffs):
    chain = [poly_trim([Fraction(c) for c in coeffs])]
    d = poly_trim(poly_deriv(chain[0]))
    if d:
        chain.append(d)
        while True:
            _, r = poly_divmod(chain[-2], chain[-1])
            r = poly_trim(r)
            if not r:
                break
            chain.append([-c for c in r])
    return chain


def _variations(chain, x):
    signs = []
    for p in chain:
        v = poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _root_windows(chain, lo, hi):
    """Windows (a, b), left to right, each holding exactly one root of
    chain[0] in (lo, hi); neither lo nor hi may be a root.

    A window holding several roots is halved, its midpoint moved towards
    the left end while it is a root, so no window ends on a root.
    """
    stack = [(lo, hi, _variations(chain, lo), _variations(chain, hi))]
    while stack:
        a, b, va, vb = stack.pop()
        if va - vb == 1:
            yield a, b
        elif va - vb > 1:
            mid = (a + b) / 2
            while poly_eval(chain[0], mid) == 0:
                mid = (a + 2 * mid) / 3
            vm = _variations(chain, mid)
            stack.append((mid, b, vm, vb))
            stack.append((a, mid, va, vm))


def _rational_roots(sf, chain):
    """All rational roots of a squarefree primitive integer polynomial,
    ascending; ``chain`` is its Sturm chain.

    A root p/q in lowest terms has q <= |lead|, and two such fractions lie
    at least 1/lead^2 apart, so once a window around a root is narrower
    than 1/(2 lead^2) the one candidate is the closest fraction to its
    midpoint with denominator at most |lead|.
    """
    lead = abs(sf[-1])
    # Cauchy's bound: every real root lies strictly inside (-bound, bound).
    bound = 1 + Fraction(max(abs(c) for c in sf[:-1]), lead)
    width = Fraction(1, 2 * lead * lead)
    roots = []
    for a, b in _root_windows(chain, -bound, bound):
        sign_a = poly_eval(sf, a) > 0
        while b - a >= width:
            mid = (a + b) / 2
            v = poly_eval(sf, mid)
            if v == 0:
                a = b = mid
            elif (v > 0) == sign_a:
                a = mid
            else:
                b = mid
        cand = ((a + b) / 2).limit_denominator(lead)
        if a <= cand <= b and poly_eval(sf, cand) == 0:
            roots.append(cand)
    return roots


# ----------------------------------------------------------------------


class _RationalRoot(DomainError):
    """The root an AlgebraicNumber was asked for is rational."""

    def __init__(self, root, lo, hi):
        super().__init__("the root in (%s, %s) is the rational %s; use a Fraction"
                         % (lo, hi, root))
        self.root = root


class AlgebraicNumber:
    """A real algebraic irrational: integer polynomial + isolating interval.

    The stored interval always contains exactly one root of the stored
    polynomial and shrinks monotonically as signs get decided.  A rational
    is always a Fraction: a rational root in the interval is rejected with
    ``DomainError``, and every other rational root is divided out of the
    stored polynomial.
    """

    __slots__ = ("poly", "_lo", "_hi", "_sign_lo", "_gen", "_images")

    def __init__(self, coeffs, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if not lo < hi:
            raise DomainError("empty isolating interval")
        ints = _primitive_int([Fraction(c) for c in coeffs])
        if len(ints) < 2:
            raise DomainError("constant polynomial has no roots")
        sf = _primitive_int(squarefree_part(ints))
        if poly_eval(sf, lo) == 0 or poly_eval(sf, hi) == 0:
            raise ValueError("interval endpoint is a root")
        chain = sturm_chain(sf)
        n = _variations(chain, lo) - _variations(chain, hi)
        if n == 0:
            raise NoRootError("no root in (%s, %s)" % (lo, hi))
        if n > 1:
            raise MultipleRootsError("%d roots in (%s, %s)" % (n, lo, hi))
        for r in _rational_roots(sf, chain):
            if lo < r < hi:
                raise _RationalRoot(r, lo, hi)
            q, _ = poly_divmod(sf, [-r.numerator, r.denominator])
            sf = _primitive_int(q)
        self.poly = tuple(sf)
        self._lo, self._hi = lo, hi
        self._sign_lo = 1 if poly_eval(self.poly, lo) > 0 else -1
        self._gen = 0
        self._images = None
        self.refine_to(DEFAULT_TOL)

    # -- interval state

    @property
    def interval(self):
        return self._lo, self._hi

    @property
    def generation(self):
        return self._gen

    def refine(self):
        mid = (self._lo + self._hi) / 2
        if (1 if poly_eval(self.poly, mid) > 0 else -1) == self._sign_lo:
            self._lo = mid
        else:
            self._hi = mid
        self._gen += 1
        self._images = None

    def refine_to(self, width):
        width = Fraction(width)
        while self._hi - self._lo > width:
            self.refine()

    def midpoint(self):
        return (self._lo + self._hi) / 2

    def power_images(self):
        """(mid, rad): 2^(FIXED_BITS+1) x^k is within rad[k] of mid[k] on the
        isolating interval, k below the degree.  Every frame on this number
        and the screen of ``_settle`` share them until the next ``refine``
        (a cached frame would refer back to the number, a cycle outliving it)."""
        if self._images is None:
            lo, hi = self._lo, self._hi
            mid, rad = [], []
            for k in range(len(self.poly) - 1):
                ends = (lo**k, hi**k, 0) if k and lo < 0 < hi else (lo**k, hi**k)
                a = math.floor(min(ends) * 2**FIXED_BITS)
                b = math.ceil(max(ends) * 2**FIXED_BITS)
                mid.append(a + b)
                rad.append(b - a)
            self._images = tuple(mid), tuple(rad)
        return self._images

    # -- conversions

    def combination(self, coeffs):
        return LinearCombination(self, coeffs)

    def as_scalar(self):
        return LinearCombination(self, (0, 1))

    def __float__(self):
        return float(self.as_scalar())

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.poly):
            if c:
                terms.append(f"{c}*x^{k}" if k else f"{c}")
        return "AlgebraicNumber(%s ~ %.12g)" % (" + ".join(terms), self.midpoint())


def _interval_eval(coeffs, lo, hi):
    """Enclose poly(x) for x in [lo, hi] by interval Horner."""
    vlo = vhi = Fraction(coeffs[-1]) if coeffs else Fraction(0)
    for c in reversed(coeffs[:-1]):
        p1, p2, p3, p4 = vlo * lo, vlo * hi, vhi * lo, vhi * hi
        vlo = min(p1, p2, p3, p4) + c
        vhi = max(p1, p2, p3, p4) + c
    return vlo, vhi


class LinearCombination:
    """A value sum(c_k * alpha^k) reduced modulo alpha's defining polynomial.

    Immutable and hashable; arithmetic between combinations requires the same
    base number (object identity).  Rationals and ints mix freely.  Equality
    is exact equality of the reduced coefficients.  There are no ordering
    operators: order is ``compare`` (or ``scalar_sign``), and every sign,
    ceiling and float is settled in ``_settle``.  The repr shows the midpoint
    of the current enclosure and never refines the base.
    """

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg, coeffs):
        self.alg = alg
        deg = len(alg.poly) - 1
        c = list(coeffs) + [0] * max(0, deg - len(coeffs))
        if len(c) > deg:
            c = self._reduce(c, alg.poly, deg)
        self.coeffs = tuple(c)

    @staticmethod
    def _reduce(c, poly, deg):
        lead = poly[-1]
        for k in range(len(c) - 1, deg - 1, -1):
            f = c[k] if lead == 1 else Fraction(c[k], lead)
            if f:
                for i in range(deg):
                    c[k - deg + i] -= f * poly[i]
            c[k] = 0
        return c[:deg]

    # -- helpers

    def _coerce(self, other):
        if isinstance(other, LinearCombination):
            if other.alg is not self.alg:
                raise TypeError("combinations over different base numbers")
            return other
        if isinstance(other, (int, Fraction)):
            return LinearCombination(self.alg, (other,))
        return None

    # -- arithmetic

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LinearCombination(self.alg, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return LinearCombination(self.alg, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LinearCombination(self.alg, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LinearCombination(self.alg, tuple(c * other for c in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        prod = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return LinearCombination(self.alg, prod)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = LinearCombination(self.alg, (1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- sign, equality and float

    def sign(self):
        return _settle(self, _sign_of, "sign")

    def enclosure(self):
        """Rational bounds on the value by interval Horner."""
        lo, hi = self.alg.interval
        return _interval_eval(self.coeffs, lo, hi)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((id(self.alg), self.coeffs))

    def __float__(self):
        return _settle(self, _float_of, "float", screen=False)

    def __repr__(self):
        lo, hi = self.enclosure()
        return "LinearCombination(%s ~ %.12g)" % (list(self.coeffs), (lo + hi) / 2)


class VectorFrame:
    """Exact scalars on one base as integer vectors over one denominator.

    At a rational base a scalar is one integer numerator over ``den``.  At
    an algebraic base alpha of degree ``deg`` it is a vector c of ``deg``
    ints with value sum(c_k alpha^k) / den.  A flat tuple holds several
    scalars, ``deg`` entries each, so sums are vector adds and equality is
    tuple equality.  Each scalar has one certified integer image
    lo <= unit * value <= hi: exact at a rational base (``unit = den``),
    and at an algebraic one the midpoint-radius dot product with the
    fixed-point powers of alpha (``unit = 2^(FIXED_BITS+1) * den``).
    """

    __slots__ = ("alg", "deg", "den", "unit", "_mid", "_rad", "_memo")

    def __init__(self, lam, values=()):
        """The frame of ``lam`` (a Fraction or a LinearCombination) whose
        denominator clears every scalar in ``values``."""
        if isinstance(lam, LinearCombination):
            self.alg = lam.alg
            self._mid, self._rad = self.alg.power_images()
            self.deg = len(self._mid)
            self._memo = {}
            scale = 2 << FIXED_BITS
            coeffs = [c for v in values for c in v.coeffs]
        else:
            self.alg = None
            self.deg = 1
            scale = 1
            coeffs = values
        self.den = math.lcm(*(c.denominator for c in coeffs))
        self.unit = scale * self.den

    def vector(self, x):
        """The vector of an exact scalar whose denominator ``den`` clears."""
        coeffs = (x,) if self.alg is None else x.coeffs
        return tuple(c.numerator * (self.den // c.denominator) for c in coeffs)

    def scalar(self, vec):
        """The exact scalar of one vector: a Fraction or a LinearCombination."""
        den = self.den
        if self.alg is None:
            return Fraction(vec[0], den)
        return LinearCombination(
            self.alg, vec if den == 1 else [Fraction(c, den) for c in vec]
        )

    def scalars(self, vec):
        """The exact scalars of a flat vector."""
        deg = self.deg
        return tuple(self.scalar(vec[i:i + deg]) for i in range(0, len(vec), deg))

    def images(self, vec):
        """The (lo, hi) image of every scalar of a flat vector."""
        if self.alg is None:
            return tuple(zip(vec, vec))
        # Region bounds repeat across a level set (54 distinct vectors in
        # the 5,187 bounds of levels 0..7 at omega_2), so images are kept
        # once per distinct vector and shared.
        deg = self.deg
        return tuple(self._image(vec[i:i + deg]) for i in range(0, len(vec), deg))

    def _image(self, c):
        image = self._memo.get(c)
        if image is None:
            image = self._memo[c] = _dot_image(c, self._mid, self._rad)
        return image


def _dot_image(c, mid, rad):
    """(lo, hi) with lo <= 2^(FIXED_BITS+1) * sum(c_k x^k) <= hi, midpoint-radius."""
    m = sum(map(mul, c, mid))
    r = sum(map(mul, map(abs, c), rad))
    return m - r, m + r


def _settle(v, decide, what, screen=True):
    """``decide(lo, hi, unit)`` on the first bounds lo <= unit * v <= hi
    that settle it (it returns None while they are too wide).

    With ``screen``, an int vector is first asked on the certified image a
    frame of denominator 1 gives it.  Only when that has no answer do the
    rounds run: each asks the interval Horner enclosure (unit 1) and, when
    unsettled, bisects the isolating interval.  Nothing else refines for a
    question about a combination.
    """
    if screen and all(type(c) is int for c in v.coeffs):
        lo, hi = _dot_image(v.coeffs, *v.alg.power_images())
        answer = decide(lo, hi, 2 << FIXED_BITS)
        if answer is not None:
            return answer
    for _ in range(MAX_REFINE_ROUNDS):
        answer = decide(*v.enclosure(), 1)
        if answer is not None:
            return answer
        v.alg.refine()
    raise PrecisionExhausted(
        "%s of %r undecided after %d rounds" % (what, v.coeffs, MAX_REFINE_ROUNDS)
    )


def _sign_of(lo, hi, unit):
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    if lo == hi:
        # A point enclosure is the exact value, here zero.
        return 0
    return None


def _float_of(lo, hi, unit):
    if (hi - lo) * 10**17 < max(unit, abs(lo)):
        return float((lo + hi) / (2 * unit))
    return None


def image_ceil(lo, hi, unit):
    """(ceil(x), whether x is not an integer) from lo <= unit * x <= hi,
    or None when the bounds straddle the answer."""
    c = -(-lo // unit)
    top = c * unit
    if hi < top:
        return c, True
    if lo == hi == top:
        return c, False
    return None


def image_below(lo, hi, bound):
    """Whether x < bound from lo <= x <= hi, or None when undecided."""
    if hi < bound:
        return True
    if lo >= bound:
        return False
    return None


def compare(a, b):
    """Exact trichotomy for combinations over one base number: -1, 0 or +1."""
    return scalar_sign(a - b)


def compare_values(a, b):
    """Exact trichotomy of two values that may live on different defining
    polynomials.  Two distinct AlgebraicNumbers are separated by refining
    their intervals; every other pair is ``compare`` of ``as_scalar``s."""
    if not (isinstance(a, AlgebraicNumber) and isinstance(b, AlgebraicNumber)) or a is b:
        return compare(as_scalar(a), as_scalar(b))
    # Equal values over different polynomials never separate by refinement;
    # a root of gcd(a.poly, b.poly) inside the interval overlap is forced to
    # be the unique root of each, certifying equality.
    g = _primitive_int(_poly_gcd(list(a.poly), list(b.poly)))
    chain = sturm_chain(g) if len(g) > 1 else None
    for _ in range(MAX_REFINE_ROUNDS):
        alo, ahi = a.interval
        blo, bhi = b.interval
        if ahi <= blo:
            return -1
        if bhi <= alo:
            return 1
        lo, hi = max(alo, blo), min(ahi, bhi)
        # g is squarefree, as both polynomials are; an overlap ending on
        # one of its roots waits for the next round.
        if chain is not None and poly_eval(g, lo) and poly_eval(g, hi):
            n = _variations(chain, lo) - _variations(chain, hi)
            if n == 1:
                return 0
            if n == 0:
                chain = None  # no common root here, refinement must separate
        if ahi - alo >= bhi - blo:
            a.refine()
        else:
            b.refine()
    raise PrecisionExhausted("could not separate %r from %r" % (a, b))


# ----------------------------------------------------------------------
# scalar helpers shared by the geometric modules


def as_scalar(lam):
    """Coerce a contraction-ratio argument to an exact scalar.

    AlgebraicNumber becomes the generator combination; rationals pass
    through.  Floats are rejected: use a Fraction for decimal input.
    """
    if isinstance(lam, AlgebraicNumber):
        return lam.as_scalar()
    if isinstance(lam, LinearCombination):
        return lam
    if isinstance(lam, (int, Fraction)):
        return Fraction(lam)
    raise TypeError("exact scalar required, got %r" % type(lam).__name__)


def scalar_sign(v):
    if isinstance(v, LinearCombination):
        return v.sign()
    return (v > 0) - (v < 0)


def scalar_ceil(v):
    if isinstance(v, LinearCombination):
        return _settle(v, image_ceil, "ceiling")[0]
    return math.ceil(v)


# ----------------------------------------------------------------------
# named roots


def isolate_root(coeffs, interval):
    """The unique simple root of an integer polynomial in an interval.

    The interval must bracket exactly one root with a sign change across its
    endpoints.  A rational root comes back as a Fraction, any other as an
    AlgebraicNumber whose interval has width at most ``DEFAULT_TOL``.
    """
    lo, hi = interval
    try:
        return AlgebraicNumber(coeffs, lo, hi)
    except _RationalRoot as exc:
        return exc.root


def smallest_positive_root(coeffs, window_hi=Fraction(1)):
    """The smallest root in (0, window_hi), as ``isolate_root`` returns it;
    raises NoRootError if there is none."""
    window_hi = Fraction(window_hi)
    ints = _primitive_int([Fraction(c) for c in coeffs])
    sf = _primitive_int(squarefree_part(ints))
    if poly_eval(sf, 0) == 0 or poly_eval(sf, window_hi) == 0:
        raise DomainError("window endpoint is a root; shrink the window")
    for window in _root_windows(sturm_chain(sf), Fraction(0), window_hi):
        return isolate_root(sf, window)
    raise NoRootError("no root in (0, %s)" % (window_hi,))


def multinacci(m):
    """The contraction ratio at which the m-fold overlap identities hold:
    the unique positive root of x^m + ... + x = 1, in (1/2, 2/3)."""
    if not isinstance(m, int) or m < 2:
        raise DomainError("multinacci index must be an integer >= 2")
    coeffs = [-1] + [1] * m
    return isolate_root(coeffs, (Fraction(1, 2), Fraction(3, 4)))


def tau(m, d=2):
    """Similarity-dimension base for the d-simplex gasket: the smallest
    positive root of (d(d+1)/2) t^(m+1) - (d+1) t + 1."""
    if not isinstance(m, int) or m < 2:
        raise DomainError("m must be an integer >= 2")
    if not isinstance(d, int) or d < 2:
        raise DomainError("d must be an integer >= 2")
    lead = d * (d + 1) // 2
    coeffs = [1, -(d + 1)] + [0] * (m - 1) + [lead]
    return smallest_positive_root(coeffs)


def sigma(m):
    """Growth base of the unique-address subsystem: the smallest positive
    root of 2 t^m - 3 t + 1 (the Fraction 1/2 when m = 2)."""
    if not isinstance(m, int) or m < 2:
        raise DomainError("m must be an integer >= 2")
    coeffs = [1, -3] + [0] * (m - 2) + [2]
    return smallest_positive_root(coeffs, window_hi=Fraction(15, 16))


def lambda_star():
    """Boundary of the radial-hole regime: the real root of
    2 x^3 - 2 x^2 + 2 x - 1."""
    return isolate_root([-1, 2, -2, 2], (Fraction(1, 2), Fraction(3, 4)))


# ----------------------------------------------------------------------
# dimension formulas


def gasket_dimension(m, d=2):
    """log tau(m, d) / log multinacci(m), as a float."""
    t = tau(m, d)
    w = multinacci(m)
    return math.log(float(t)) / math.log(float(w))


def uniqueness_dimension(m):
    """log sigma(m) / log multinacci(m): dimension of the set of points
    with a unique address."""
    s = sigma(m)
    w = multinacci(m)
    return math.log(float(s)) / math.log(float(w))


def sierpinski_dimension(d, lam):
    """Similarity dimension log(d+1)/(-log lam) of the totally disconnected
    or just-touching regime; requires 0 < lam <= 1/2, decided exactly."""
    lam = as_scalar(lam)
    if scalar_sign(lam) <= 0 or compare(lam, Fraction(1, 2)) > 0:
        raise DomainError("separation requires 0 < lam <= 1/2")
    return math.log(d + 1) / (-math.log(float(lam)))
