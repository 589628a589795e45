"""Barycentric geometry of the simplex IFS.

The maps f_i(x) = lam*x + (1-lam)*p_i act on barycentric coordinates as
(d+1)x(d+1) column-stochastic matrices.  A composed map f_w for a word w
has the closed form lam^n * I + t * 1^T where the translation vector t
depends only on which positions of w carry which digit.  Corner regions
(images of the simplex) are cut out by lower bounds, candidate holes by
strict upper bounds; everything here stays in exact scalars.  Every region
is a view over one packed bound vector, an int, of an ``exact.VectorFrame``
(one per level set, or a region's own), unpacked to exact bounds or to the
frame's certified integer images only when asked; hole tests, and the
ranking of bounds in the hole sweep, decide each bound on those images
with one decider, ``_bound_below``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .exact import VectorFrame, as_scalar, compare, scalar_sign

__all__ = [
    "CornerRegion",
    "HoleRegion",
    "Similitude",
    "apply_map",
    "barycenter",
    "compose_word",
    "feasible_point",
    "generator_matrix",
    "hole_meets_region",
    "hole_region",
    "image_region",
    "intersection_bounds",
    "region_feasible_point",
    "regions_intersect",
    "scalar_max",
    "validate_word",
    "vertex",
]


def validate_word(word, d):
    word = tuple(word)
    for digit in word:
        if not isinstance(digit, int) or not 0 <= digit <= d:
            raise DomainError("word digit %r outside alphabet 0..%d" % (digit, d))
    return word


def vertex(i, d=2):
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(d + 1))


def barycenter(d=2):
    return tuple(Fraction(1, d + 1) for _ in range(d + 1))


def scalar_max(a, b):
    return a if compare(a, b) >= 0 else b


def _powers(lam, n):
    out = [lam**0]
    for _ in range(n):
        out.append(out[-1] * lam)
    return out


def translation_vector(word, lam, d=2):
    """t_j = (1-lam) * sum of lam^k over positions k where word[k] == j."""
    word = validate_word(word, d)
    lam = as_scalar(lam)
    pw = _powers(lam, len(word))
    one_minus = 1 - lam
    t = tuple(
        one_minus * sum(p for p, digit in zip(pw, word) if digit == j)
        for j in range(d + 1)
    )
    return t, pw[len(word)]


@dataclass(frozen=True)
class Similitude:
    """A composed map: its matrix and the word that produced it."""

    word: tuple
    matrix: tuple

    @property
    def d(self):
        return len(self.matrix) - 1


def generator_matrix(i, lam, d=2):
    if not isinstance(i, int) or not 0 <= i <= d:
        raise DomainError("generator index %r outside 0..%d" % (i, d))
    return compose_word((i,), lam, d)


def compose_word(word, lam, d=2):
    """Closed-form matrix of f_w: lam^n on the diagonal plus the constant
    row pattern t_j.  Equals the product of the generator matrices."""
    t, lam_n = translation_vector(word, lam, d)
    rows = []
    for j in range(d + 1):
        rows.append(tuple(t[j] + lam_n if c == j else t[j] + 0 for c in range(d + 1)))
    return Similitude(word=validate_word(word, d), matrix=tuple(rows))


def apply_map(sim, point):
    if len(point) != len(sim.matrix):
        raise DomainError("point dimension does not match matrix")
    return tuple(
        sum(row[c] * point[c] for c in range(len(point))) for row in sim.matrix
    )


class _Bounds:
    """The bound vector of a region: a view over one packed vector ``vec``
    of a ``VectorFrame``, unpacked to exact ``bounds`` or to images on
    first use, unless its maker knows the images."""

    __slots__ = ("_bounds", "level", "word", "frame", "vec", "_image")

    def __init__(self, frame, vec, level, word, image=None):
        self._bounds = None
        self.frame, self.vec, self.level, self.word = frame, vec, level, word
        self._image = image

    @property
    def bounds(self):
        if self._bounds is None:
            self._bounds = self.frame.scalars(self.frame.unpack(self.vec))
        return self._bounds

    def image(self):
        """The frame's (lo, hi) images of the bounds."""
        if self._image is None:
            self._image = self.frame.images(self.frame.unpack(self.vec))
        return self._image


class CornerRegion(_Bounds):
    """Closed sub-simplex {x_j >= L_j}: the image f_w(simplex).

    Never empty: the bounds always sum to 1 - lam^n < 1.  Equality and
    hashing go through the exact bound vector, which is what makes word
    deduplication at multinacci ratios work.
    """

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, CornerRegion):
            return NotImplemented
        return self.bounds == other.bounds

    def __hash__(self):
        return hash(self.bounds)

    def __repr__(self):
        return "CornerRegion(bounds=%r, level=%r, word=%r)" % (
            self.bounds, self.level, self.word)


class HoleRegion(_Bounds):
    """Open inverted sub-simplex {x_j < U_j for all j} within the simplex.

    Infeasible bound vectors (sum(U) <= 1) are all the same empty set and
    compare equal regardless of their bounds.  Whoever makes a hole knows
    whether it is empty, and says so with ``empty``.
    """

    __slots__ = ("_empty",)

    def __init__(self, frame, vec, level, word, image=None, empty=False):
        super().__init__(frame, vec, level, word, image)
        self._empty = empty

    def is_empty(self):
        return self._empty

    def __eq__(self, other):
        if not isinstance(other, HoleRegion):
            return NotImplemented
        empty = self._empty
        return empty == other._empty and (empty or self.bounds == other.bounds)

    def __hash__(self):
        return hash("empty-hole") if self._empty else hash(self.bounds)

    def __repr__(self):
        tag = " empty" if self.is_empty() else ""
        return "HoleRegion(level=%r%s)" % (self.level, tag)


def _packed(frame, bounds):
    """The packed vector of exact bounds whose denominators ``frame`` clears."""
    return frame.pack(tuple(c for x in bounds for c in frame.vector(x)))


def image_region(word, lam, d=2):
    """f_w(simplex) as lower bounds; the empty word gives the full simplex."""
    word, lam = validate_word(word, d), as_scalar(lam)
    t, _ = translation_vector(word, lam, d)
    frame = VectorFrame(lam, t)
    return CornerRegion(frame, _packed(frame, t), len(word), word)


def hole_region(word, lam, d=2):
    """f_w(H_0) as strict upper bounds U_j = L_j + (1-lam)*lam^n, empty when
    sum(U) <= 1."""
    word, lam = validate_word(word, d), as_scalar(lam)
    t, lam_n = translation_vector(word, lam, d)
    width = (1 - lam) * lam_n
    bounds = tuple(x + width for x in t)
    frame = VectorFrame(lam, bounds)
    return HoleRegion(frame, _packed(frame, bounds), len(word), word,
                      empty=compare(sum(bounds), 1) <= 0)


def intersection_bounds(a, b):
    return tuple(scalar_max(x, y) for x, y in zip(a.bounds, b.bounds))


def regions_intersect(a, b):
    """Closed regions meet iff the componentwise max bounds are feasible."""
    return compare(sum(intersection_bounds(a, b)), 1) <= 0


def hole_meets_region(h, r):
    """Does the open set {x_j < U_j} meet the closed set {x_j >= L_j}
    inside the simplex?

    Feasibility of {L_j <= x_j < U_j, sum x_j = 1}: every lower bound must
    sit strictly below its upper bound, the lower bounds must leave room
    (sum <= 1) and the upper bounds must overshoot (sum > 1).  The maker of
    a hole knows whether it overshoots, a level region's bounds sum to
    1 - lam^k < 1 and ``_one_frame`` checks any other corner, so only
    L_j < U_j is left, decided bound by bound by ``_bound_below``.
    """
    if h.frame is not r.frame:
        h, r = _one_frame(h, r)
    frame = r.frame
    return all(_bound_below(frame, r.vec, h.vec, j, lower, upper)
               for j, (lower, upper) in enumerate(zip(r.image(), h.image()))
               ) and not h.is_empty()


def _bound_below(frame, x, y, j, lower, upper):
    """Whether scalar j of the packed vector ``x``, of image ``lower``, lies
    below scalar j of ``y``, of image ``upper``, both on ``frame``.  The
    images decide first; equal lane groups are a tie, which fails, and
    only images that straddle take the exact compare."""
    if lower[1] < upper[0]:
        return True
    if lower[0] >= upper[1]:
        return False
    x, y = frame.lanes(x, j), frame.lanes(y, j)
    return x != y and compare(frame.scalar(frame.unpack(x)),
                              frame.scalar(frame.unpack(y))) < 0


def _one_frame(h, r):
    """A hole and a corner on two frames, put on one that clears both.  A
    corner without room (sum(L) > 1) meets no hole: it carries an empty one."""
    if h.frame.alg is not r.frame.alg:
        raise TypeError("regions over different base numbers")
    frame = VectorFrame(r.bounds[0], h.bounds + r.bounds)
    empty = h.is_empty() or compare(sum(r.bounds), 1) > 0
    return (HoleRegion(frame, _packed(frame, h.bounds), h.level, h.word, empty=empty),
            CornerRegion(frame, _packed(frame, r.bounds), r.level, r.word))


def region_feasible_point(a, b):
    """An exact point in the intersection of two corner regions.

    The componentwise max plus an even spread of the leftover mass stays
    inside both regions; raises DomainError when they are disjoint.
    """
    m = intersection_bounds(a, b)
    rem = 1 - sum(m)
    if scalar_sign(rem) < 0:
        raise DomainError("regions are disjoint")
    share = Fraction(1, len(m))
    return tuple(x + rem * share for x in m)


def feasible_point(h, r):
    """An exact point in hole-minus-nothing: {L_j <= x_j < U_j, sum = 1}.

    Distributes the leftover mass R = 1 - sum(L) among the slack intervals
    g_j = U_j - L_j, staying strictly below each U_j.  Works without any
    field division: a dyadic shrink factor 1 - 2^-B is pushed up until the
    capped slacks can absorb R.  Raises DomainError on empty intersection.
    """
    if not hole_meets_region(h, r):
        raise DomainError("hole and region do not intersect")
    lower = r.bounds
    upper = h.bounds
    gaps = [u - l for l, u in zip(lower, upper)]
    rem = 1 - sum(lower)
    total_g = sum(gaps)
    # sum(g) > rem holds by feasibility; find B with (1 - 2^-B) sum(g) >= rem.
    shrink = Fraction(1, 2)
    while compare(total_g * (1 - shrink), rem) < 0:
        shrink = shrink / 2
    point = []
    for g in gaps:
        cap = g * (1 - shrink)
        take = rem if compare(rem, cap) <= 0 else cap
        point.append(take)
        rem = rem - take
    assert scalar_sign(rem) == 0
    return tuple(l + s for l, s in zip(lower, point))
