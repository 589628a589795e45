"""Exact arithmetic for the algebraic numbers the gasket constructions live on.

An algebraic number is an integer polynomial plus an isolating interval
(lo/den, hi/den): integer numerators over one denominator, which each
bisection doubles.  Derived quantities are integer (or rational)
combinations of its powers.  Every kernel runs on integers and gives a
bound as (lo, hi, unit), meaning lo <= unit * value <= hi: polynomial signs,
Sturm chains by pseudo-remainders with positive multipliers, and interval
Horner enclosures whose unit is a power of den.  A ``VectorFrame`` packs
integer vectors into one int of biased lanes, so one int add of a
``delta`` moves every lane, and reads the images, of unit 2^(FIXED_BITS+1)
* its denominator, off midpoint-radius fixed-point images of the base's
powers.  Every sign, ceiling and float of a combination is settled in
``_settle``: first on the image of its numerators over their lcm, then on
Horner enclosures of a shrinking interval.  The same deciders read any
unit, and no float ever feeds back into a comparison.
"""

from __future__ import annotations

import math
import sys
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

# An int hashes modulo the Mersenne prime 2^_HASH_BITS - 1 (61 bits on
# 64-bit builds).
_HASH_BITS = sys.hash_info.modulus.bit_length()


# ----------------------------------------------------------------------
# dense univariate integer polynomials, ascending coefficient order


def poly_trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_deriv(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:]


def _sign_at(poly, p, q=1):
    """The sign of poly(p/q) for q > 0: that of sum(c_k p^k q^(deg-k))."""
    acc, qk = 0, 1
    for c in reversed(poly):
        acc = acc * p + c * qk
        qk *= q
    return (acc > 0) - (acc < 0)


def _primitive_int(coeffs):
    """Clear denominators and content; leading coefficient made positive."""
    coeffs = [Fraction(c) for c in coeffs]
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = poly_trim(c.numerator * (scale // c.denominator) for c in coeffs)
    g = math.gcd(*ints)
    if ints and ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _pseudo_divmod(a, b):
    """(q, r) with m a = q b + r, m > 0 and deg r < deg b, for integer
    polynomials; r is divided by its content.  Each step scales by
    |lead(b)| before it cancels a leading term, so q and r are positive
    multiples of the Fraction quotient and remainder: every sign is kept."""
    a, q = list(a), [0] * max(0, len(a) - len(b) + 1)
    m, s = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(a) >= len(b):
        f, shift = s * a[-1], len(a) - len(b)
        a, q = [m * c for c in a], [m * c for c in q]
        q[shift] += f
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a = poly_trim(a)
    g = math.gcd(*a) or 1
    return q, [c // g for c in a]


def _poly_gcd(a, b):
    """The primitive gcd, leading coefficient positive."""
    a, b = _primitive_int(a), _primitive_int(b)
    while b:
        a, b = b, _pseudo_divmod(a, b)[1]
    return _primitive_int(a)


def squarefree_part(coeffs):
    """The primitive squarefree part of a rational polynomial."""
    coeffs = _primitive_int(coeffs)
    g = _poly_gcd(coeffs, poly_deriv(coeffs))
    return _primitive_int(_pseudo_divmod(coeffs, g)[0]) if len(g) > 1 else coeffs


def sturm_chain(coeffs):
    """Positive multiples of the Sturm chain of an integer polynomial."""
    chain = [poly_trim(coeffs)]
    d = poly_trim(poly_deriv(chain[0]))
    if d:
        chain.append(d)
        while True:
            _, r = _pseudo_divmod(chain[-2], chain[-1])
            if not r:
                break
            chain.append([-c for c in r])
    return chain


def _variations(chain, p, q=1):
    """Sign variations of the chain at p/q, q > 0."""
    signs = [s for s in (_sign_at(poly, p, q) for poly in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _root_windows(chain, lo, hi, den):
    """Windows (a, b, den), left to right, each with exactly one root of
    chain[0] in (a/den, b/den), inside (lo/den, hi/den); neither lo nor hi
    may be a root.

    A window holding several roots is halved, its midpoint moved towards
    the left end while it is a root, so no window ends on a root.
    """
    stack = [(lo, hi, den, _variations(chain, lo, den), _variations(chain, hi, den))]
    while stack:
        a, b, den, va, vb = stack.pop()
        if va - vb == 1:
            yield a, b, den
        elif va - vb > 1:
            a, b, mid, den = 2 * a, 2 * b, a + b, 2 * den
            while not _sign_at(chain[0], mid, den):
                a, b, mid, den = 3 * a, 3 * b, a + 2 * mid, 3 * den
            vm = _variations(chain, mid, den)
            stack.append((mid, b, den, vm, vb))
            stack.append((a, mid, den, va, vm))


def _rational_roots(sf, chain):
    """All rational roots of a squarefree primitive integer polynomial,
    ascending; ``chain`` is its Sturm chain.

    A root p/q in lowest terms has q <= |lead|, and two such fractions lie
    at least 1/lead^2 apart, so once a window around a root is narrower
    than 1/(2 lead^2) the one candidate is the closest fraction to its
    midpoint with denominator at most |lead|.
    """
    lead = abs(sf[-1])
    # Cauchy's bound: every real root lies strictly inside +-bound / lead.
    bound = lead + max(abs(c) for c in sf[:-1])
    roots = []
    for lo, hi, den in _root_windows(chain, -bound, bound, lead):
        sign_lo = _sign_at(sf, lo, den)
        while (hi - lo) * 2 * lead * lead >= den:
            mid, lo, hi, den = lo + hi, 2 * lo, 2 * hi, 2 * den
            s = _sign_at(sf, mid, den)
            if s == 0:
                lo = hi = mid
            elif s == sign_lo:
                lo = mid
            else:
                hi = mid
        cand = Fraction(lo + hi, 2 * den).limit_denominator(lead)
        p, q = cand.numerator, cand.denominator
        if lo * q <= p * den <= hi * q and _sign_at(sf, p, q) == 0:
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

    __slots__ = ("poly", "_lo", "_hi", "_den", "_sign_lo", "_gen", "_images")

    def __init__(self, coeffs, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if not lo < hi:
            raise DomainError("empty isolating interval")
        ints = _primitive_int(coeffs)
        if len(ints) < 2:
            raise DomainError("constant polynomial has no roots")
        sf = squarefree_part(ints)
        self._isolate(sf, sturm_chain(sf), lo, hi)

    def _isolate(self, sf, chain, lo, hi):
        """Set up the root in (lo, hi) of the primitive squarefree ``sf``,
        whose Sturm chain is ``chain``."""
        den = math.lcm(lo.denominator, hi.denominator)
        ilo, ihi = (x.numerator * (den // x.denominator) for x in (lo, hi))
        if not (_sign_at(sf, ilo, den) and _sign_at(sf, ihi, den)):
            raise DomainError("interval endpoint is a root")
        n = _variations(chain, ilo, den) - _variations(chain, ihi, den)
        if n == 0:
            raise NoRootError("no root in (%s, %s)" % (lo, hi))
        if n > 1:
            raise MultipleRootsError("%d roots in (%s, %s)" % (n, lo, hi))
        for r in _rational_roots(sf, chain):
            if lo < r < hi:
                raise _RationalRoot(r, lo, hi)
            sf = _primitive_int(_pseudo_divmod(sf, [-r.numerator, r.denominator])[0])
        self.poly = tuple(sf)
        self._lo, self._hi, self._den = ilo, ihi, den
        self._sign_lo = _sign_at(self.poly, ilo, den)
        self._gen = 0
        self._images = None
        self.refine_to(DEFAULT_TOL)

    # -- interval state

    @property
    def interval(self):
        return Fraction(self._lo, self._den), Fraction(self._hi, self._den)

    @property
    def generation(self):
        return self._gen

    def refine(self):
        lo, hi = self._lo, self._hi
        mid = lo + hi
        self._den *= 2
        # The polynomial has no rational root, so the sign at mid is +-1.
        if _sign_at(self.poly, mid, self._den) == self._sign_lo:
            self._lo, self._hi = mid, 2 * hi
        else:
            self._lo, self._hi = 2 * lo, mid
        self._gen += 1
        self._images = None

    def refine_to(self, width):
        width = Fraction(width)
        p, q = width.numerator, width.denominator
        while (self._hi - self._lo) * q > p * self._den:
            self.refine()

    def midpoint(self):
        return Fraction(self._lo + self._hi, 2 * self._den)

    def power_images(self):
        """(mid, rad): 2^(FIXED_BITS+1) x^k is within rad[k] of mid[k] on the
        isolating interval, k below the degree.  Every frame on this number
        and the screen of ``_settle`` share them until the next ``refine``
        (a cached frame would refer back to the number, a cycle outliving it).
        Each end is a shift and a floor division of lo^k or hi^k by den^k."""
        if self._images is None:
            lo, hi = self._lo, self._hi
            straddle = lo < 0 < hi
            mid, rad = [], []
            lo_k = hi_k = den_k = 1
            for k in range(len(self.poly) - 1):
                ends = (lo_k, hi_k, 0) if k and straddle else (lo_k, hi_k)
                a = (min(ends) << FIXED_BITS) // den_k
                b = -((-max(ends) << FIXED_BITS) // den_k)
                mid.append(a + b)
                rad.append(b - a)
                lo_k, hi_k, den_k = lo_k * lo, hi_k * hi, den_k * self._den
            self._images = tuple(mid), tuple(rad)
        return self._images

    # -- conversions

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


def _horner_image(coeffs, lo, hi, den):
    """(vlo, vhi, unit) with vlo <= unit * sum(c_k x^k) <= vhi for x in
    [lo/den, hi/den], by interval Horner on integers.  Each bound is the
    one Fraction interval Horner gives, times ``unit``."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (scale // c.denominator) for c in coeffs]
    vlo = vhi = ints[-1]
    step = 1
    for c in reversed(ints[:-1]):
        if lo >= 0:
            # x >= 0: each end of v * x is one product.
            a = vlo * (lo if vlo >= 0 else hi)
            b = vhi * (hi if vhi >= 0 else lo)
        else:
            ps = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
            a, b = min(ps), max(ps)
        step *= den
        vlo, vhi = a + c * step, b + c * step
    return vlo, vhi, step * scale


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
        """(lo, hi, unit) with lo <= unit * value <= hi by interval Horner
        on the isolating interval."""
        alg = self.alg
        return _horner_image(self.coeffs, alg._lo, alg._hi, alg._den)

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
        lo, hi, unit = self.enclosure()
        return "LinearCombination(%s ~ %.12g)" % (list(self.coeffs), (lo + hi) / (2 * unit))


class VectorFrame:
    """Exact scalars on one base as integer vectors over one denominator,
    packed into one int.

    At a rational base a scalar is one integer numerator over ``den``.  At
    an algebraic base alpha of degree ``deg`` it is a vector c of ``deg``
    ints with value sum(c_k alpha^k) / den.  A flat vector of several
    scalars, ``deg`` entries each, packs into one int: entry i in lane i,
    from bit i*width on, biased by 2^(width-1).  The width is set from the
    largest sum the frame's ``values`` can reach, per lane the sum of their
    entries' magnitudes, so adding the ``delta`` of a sum moves every lane
    without a carry, and equal scalars have equal lane groups; a width
    that is a multiple of the bits of the int hash modulus gains one bit,
    so that packed ints keep distinct hashes.  Each
    scalar has one certified integer image lo <= unit * value <= hi: exact
    at a rational base (``unit = den``), and at an algebraic one the
    midpoint-radius dot product with the fixed-point powers of alpha
    (``unit = 2^(FIXED_BITS+1) * den``).
    """

    __slots__ = ("alg", "deg", "den", "unit", "width", "span", "_mid", "_rad")

    def __init__(self, lam, values=()):
        """The frame of ``lam`` (a Fraction or a LinearCombination) whose
        denominator clears every scalar in ``values`` and whose lanes hold
        any sum of them."""
        if isinstance(lam, LinearCombination):
            self.alg = lam.alg
            self._mid, self._rad = self.alg.power_images()
            self.deg = len(self._mid)
            scale = 2 << FIXED_BITS
            coeffs = [c for v in values for c in v.coeffs]
        else:
            self.alg = None
            self.deg = 1
            scale = 1
            coeffs = values
        self.den = math.lcm(*(c.denominator for c in coeffs))
        self.unit = scale * self.den
        reach = max((sum(map(abs, lane)) for lane in zip(*map(self.vector, values))),
                    default=0)
        width = reach.bit_length() + 1
        # Modulo 2^_HASH_BITS - 1 a shift by a multiple of _HASH_BITS is the
        # identity, so lanes of such a width would hash to their sum, which
        # every region of a level shares (its bounds sum to 1 - lam^n).
        self.width = width + (width % _HASH_BITS == 0)
        self.span = self.deg * self.width

    def vector(self, x):
        """The vector of an exact scalar whose denominator ``den`` clears."""
        coeffs = (x,) if self.alg is None else x.coeffs
        return tuple(c.numerator * (self.den // c.denominator) for c in coeffs)

    def pack(self, vec):
        """The int of a flat vector, one biased lane per entry."""
        width = self.width
        bias = 1 << (width - 1)
        if any(abs(c) >= bias for c in vec):
            raise OverflowError("%r overflows lanes of %d bits" % (vec, width))
        return sum((c + bias) << (i * width) for i, c in enumerate(vec))

    def delta(self, vec, at=0):
        """``pack(vec)`` less its lanes' bias, moved to scalar ``at`` on."""
        return (self.pack(vec) - self.pack((0,) * len(vec))) << (at * self.span)

    def unpack(self, packed):
        """The flat vector of a packed int.  Its top lane holds at least 1,
        so the bit length gives the number of lanes."""
        width = self.width
        bias, mask = 1 << (width - 1), (1 << width) - 1
        return tuple((packed >> i & mask) - bias
                     for i in range(0, packed.bit_length(), width))

    def lanes(self, packed, j):
        """The lane group of scalar j of a packed vector, as one int."""
        return packed >> (j * self.span) & ((1 << self.span) - 1)

    def scalar(self, vec):
        """The exact scalar of one vector: a Fraction or a LinearCombination."""
        den = self.den
        if self.alg is None:
            return Fraction(vec[0], den)
        return LinearCombination(self.alg, [Fraction(c, den) for c in vec] if den > 1 else vec)

    def scalars(self, vec):
        """The exact scalars of a flat vector."""
        deg = self.deg
        return tuple(self.scalar(vec[i:i + deg]) for i in range(0, len(vec), deg))

    def images(self, vec):
        """The (lo, hi) image of every scalar of a flat vector."""
        if self.alg is None:
            return tuple(zip(vec, vec))
        deg, mid, rad = self.deg, self._mid, self._rad
        return tuple(_dot_image(vec[i:i + deg], mid, rad) for i in range(0, len(vec), deg))


def _dot_image(c, mid, rad):
    """(lo, hi) with lo <= 2^(FIXED_BITS+1) * sum(c_k x^k) <= hi, midpoint-radius."""
    m = sum(map(mul, c, mid))
    r = sum(map(mul, map(abs, c), rad))
    return m - r, m + r


def _settle(v, decide, what, screen=True):
    """``decide(lo, hi, unit)`` on the first bounds lo <= unit * v <= hi
    that settle it (it returns None while they are too wide).

    With ``screen``, the vector is first asked on the certified image of
    its integer numerators over their lcm den (unit den * 2^(FIXED_BITS+1)).
    Only when that has no answer do the rounds run: each asks the interval
    Horner enclosure and, when unsettled, bisects the isolating interval.
    Nothing else refines for a question about a combination.
    """
    if screen:
        den = math.lcm(*(c.denominator for c in v.coeffs))
        coeffs = [c.numerator * (den // c.denominator) for c in v.coeffs]
        lo, hi = _dot_image(coeffs, *v.alg.power_images())
        answer = decide(lo, hi, den << (FIXED_BITS + 1))
        if answer is not None:
            return answer
    for _ in range(MAX_REFINE_ROUNDS):
        answer = decide(*v.enclosure())
        if answer is not None:
            return answer
        v.alg.refine()
    raise PrecisionExhausted("%s of %r undecided after %d rounds"
                             % (what, v.coeffs, MAX_REFINE_ROUNDS))


def _sign_of(lo, hi, unit):
    # A point enclosure is the exact value, so lo == hi decides a zero too.
    if lo > 0 or hi < 0 or lo == hi:
        return (lo > 0) - (hi < 0)
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
    g = _poly_gcd(a.poly, b.poly)
    chain = sturm_chain(g) if len(g) > 1 else None
    for _ in range(MAX_REFINE_ROUNDS):
        # Both intervals over the denominator a._den * b._den.
        alo, ahi = a._lo * b._den, a._hi * b._den
        blo, bhi = b._lo * a._den, b._hi * a._den
        if ahi <= blo:
            return -1
        if bhi <= alo:
            return 1
        lo, hi, den = max(alo, blo), min(ahi, bhi), a._den * b._den
        # g is squarefree, as both polynomials are; an overlap ending on
        # one of its roots waits for the next round.
        if chain is not None and _sign_at(g, lo, den) and _sign_at(g, hi, den):
            n = _variations(chain, lo, den) - _variations(chain, hi, den)
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
    """(ceil(v), whether v is not an integer), as ``image_ceil`` answers."""
    if isinstance(v, LinearCombination):
        return _settle(v, image_ceil, "ceiling")
    c = math.ceil(v)
    return c, c != v


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
    sf = squarefree_part(coeffs)
    p, q = window_hi.numerator, window_hi.denominator
    if not (_sign_at(sf, 0) and _sign_at(sf, p, q)):
        raise DomainError("window endpoint is a root; shrink the window")
    chain = sturm_chain(sf)
    for a, b, den in _root_windows(chain, 0, p, q):
        # The window's number reuses sf and its chain.
        root = AlgebraicNumber.__new__(AlgebraicNumber)
        try:
            root._isolate(sf, chain, Fraction(a, den), Fraction(b, den))
        except _RationalRoot as exc:
            return exc.root
        return root
    raise NoRootError("no root in (0, %s)" % (window_hi,))


def multinacci(m):
    """The contraction ratio at which the m-fold overlap identities hold:
    the unique positive root of x^m + ... + x = 1, in (1/2, 2/3)."""
    if not isinstance(m, int) or m < 2:
        raise DomainError("multinacci index must be an integer >= 2")
    return isolate_root([-1] + [1] * m, (Fraction(1, 2), Fraction(3, 4)))


def tau(m, d=2):
    """Similarity-dimension base for the d-simplex gasket: the smallest
    positive root of (d(d+1)/2) t^(m+1) - (d+1) t + 1."""
    if not isinstance(m, int) or m < 2:
        raise DomainError("m must be an integer >= 2")
    if not isinstance(d, int) or d < 2:
        raise DomainError("d must be an integer >= 2")
    return smallest_positive_root([1, -(d + 1)] + [0] * (m - 1) + [d * (d + 1) // 2])


def sigma(m):
    """Growth base of the unique-address subsystem: the smallest positive
    root of 2 t^m - 3 t + 1 (the Fraction 1/2 when m = 2)."""
    if not isinstance(m, int) or m < 2:
        raise DomainError("m must be an integer >= 2")
    return smallest_positive_root([1, -3] + [0] * (m - 2) + [2], window_hi=Fraction(15, 16))


def lambda_star():
    """Boundary of the radial-hole regime: the real root of
    2 x^3 - 2 x^2 + 2 x - 1."""
    return isolate_root([-1, 2, -2, 2], (Fraction(1, 2), Fraction(3, 4)))


# ----------------------------------------------------------------------
# dimension formulas


def gasket_dimension(m, d=2):
    """log tau(m, d) / log multinacci(m), as a float."""
    return math.log(float(tau(m, d))) / math.log(float(multinacci(m)))


def uniqueness_dimension(m):
    """log sigma(m) / log multinacci(m): dimension of the set of points
    with a unique address."""
    return math.log(float(sigma(m))) / math.log(float(multinacci(m)))


def sierpinski_dimension(d, lam):
    """Similarity dimension log(d+1)/(-log lam) of the totally disconnected
    or just-touching regime, for an int d >= 1 and 0 < lam <= 1/2 (exact)."""
    if not isinstance(d, int) or d < 1:
        raise DomainError("simplex dimension must be a positive integer")
    lam = as_scalar(lam)
    if scalar_sign(lam) <= 0 or compare(lam, Fraction(1, 2)) > 0:
        raise DomainError("separation requires 0 < lam <= 1/2")
    return math.log(d + 1) / (-math.log(float(lam)))
