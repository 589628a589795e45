"""Root isolation and exact comparisons, checked against float bisection.

The oracle here is deliberately dumb: plain float bisection on the defining
polynomial, no interval arithmetic, no Sturm chains.  Exact results must
land within float distance of it, and the frozen constants below were
produced by that oracle.
"""

import copy
import gc
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goldengasket.errors import (
    DomainError,
    MultipleRootsError,
    NoRootError,
    PrecisionExhausted,
)
from goldengasket import exact, separation
from goldengasket.exact import (
    AlgebraicNumber,
    LinearCombination,
    VectorFrame,
    compare,
    compare_values,
    gasket_dimension,
    image_ceil,
    isolate_root,
    lambda_star,
    multinacci,
    scalar_ceil,
    sierpinski_dimension,
    sigma,
    smallest_positive_root,
    squarefree_part,
    tau,
    uniqueness_dimension,
)
from goldengasket.separation import ell_upper, multinacci_reciprocal, pisot_number


def bisect_root(f, lo, hi, steps=200):
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(steps):
        mid = (lo + hi) / 2
        fm = f(mid)
        if fm == 0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return (lo + hi) / 2


def multinacci_oracle(m):
    return bisect_root(lambda x: sum(x**k for k in range(1, m + 1)) - 1, 0.4, 0.9)


def tau_oracle(m, d):
    lead = d * (d + 1) / 2

    def f(t):
        return lead * t ** (m + 1) - (d + 1) * t + 1

    # First sign change from the left is the smallest root; scan for it
    # because some (m, d) have two roots below 1/2.
    prev = 0.0
    step = 1e-3
    x = step
    while f(x) > 0:
        prev, x = x, x + step
    return bisect_root(f, prev if prev else step / 2, x)


# Frozen oracle outputs.
OMEGA = {
    2: 0.6180339887498949,
    3: 0.5436890126920764,
    4: 0.5187900636758842,
    5: 0.508660391642004,
    6: 0.5041382583616554,
    7: 0.5020170551781655,
    8: 0.5009941779228899,
    9: 0.5004931182865522,
}
DIMENSIONS = {
    (2, 2): 1.930635450822427,
    (3, 2): 1.732183836421082,
}
UNIQ_DIM = {2: 1.4404200904125566, 3: 1.649309236596394}
LAMBDA_STAR = 0.6477988712610424


@pytest.mark.parametrize("m", range(2, 10))
def test_multinacci_matches_bisection(m):
    assert abs(float(multinacci(m)) - multinacci_oracle(m)) < 1e-13


def test_multinacci_frozen_floats():
    for m, x in OMEGA.items():
        assert abs(float(multinacci(m)) - x) < 1e-14


def test_multinacci_rejects_bad_index():
    with pytest.raises(DomainError):
        multinacci(1)
    with pytest.raises(DomainError):
        multinacci("2")


@pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (5, 2), (2, 3), (2, 4), (2, 6), (4, 5)])
def test_tau_matches_bisection(m, d):
    assert abs(float(tau(m, d)) - tau_oracle(m, d)) < 1e-9


def test_tau2_closed_form():
    # (2/sqrt(3)) cos(7 pi / 18) solves 3t^3 - 3t + 1 = 0.
    closed = (2 / math.sqrt(3)) * math.cos(7 * math.pi / 18)
    assert abs(float(tau(2)) - closed) < 1e-12


def test_sigma2_is_exactly_one_half():
    assert compare_values(sigma(2), Fraction(1, 2)) == 0
    assert type(sigma(2)) is Fraction


def test_sigma3_closed_form():
    s = sigma(3)
    assert abs(float(s) - (math.sqrt(3) - 1) / 2) < 1e-14
    # It satisfies the deflated quadratic 2t^2 + 2t - 1 = 0.
    c = s.as_scalar()
    assert (2 * c * c + 2 * c - 1).sign() == 0


@pytest.mark.parametrize("m", range(2, 13))
def test_ordering_chain(m):
    t, s, w = tau(m), sigma(m), multinacci(m)
    third = Fraction(1, 3)
    two_thirds = Fraction(2, 3)
    assert compare_values(third, t) < 0
    assert compare_values(t, s) < 0
    assert compare_values(s, w) < 0
    assert compare_values(w, two_thirds) < 0


def test_dimension_freezes():
    for (m, d), v in DIMENSIONS.items():
        assert abs(gasket_dimension(m, d) - v) < 1e-12
    for m, v in UNIQ_DIM.items():
        assert abs(uniqueness_dimension(m) - v) < 1e-12
    assert abs(sierpinski_dimension(2, Fraction(1, 2)) - math.log(3) / math.log(2)) < 1e-15


def test_dimension_bounds():
    for m in range(2, 8):
        assert 1 < uniqueness_dimension(m) < gasket_dimension(m, 2) < 2


def test_lambda_star_value():
    star = lambda_star()
    assert abs(float(star) - LAMBDA_STAR) < 1e-12
    c = star.as_scalar()
    assert (2 * c**3 - 2 * c**2 + 2 * c - 1).sign() == 0


def test_sierpinski_dimension_domain():
    with pytest.raises(DomainError):
        sierpinski_dimension(2, Fraction(3, 5))
    # d is a positive int, as for the level builders.
    for d, lam in ((0, Fraction(1, 2)), (2.5, Fraction(1, 3)), (-1, Fraction(1, 2))):
        with pytest.raises(DomainError, match="simplex dimension"):
            sierpinski_dimension(d, lam)


def test_sierpinski_dimension_decides_one_half_exactly():
    # 1/2 + 10^-20 is 0.5 as a float; the bound is decided exactly.
    for lam in (Fraction(1, 2) + Fraction(1, 10**20), 0, Fraction(-1, 3)):
        with pytest.raises(DomainError):
            sierpinski_dimension(2, lam)
    for lam in ("1/2", 0.5):
        with pytest.raises(TypeError):
            sierpinski_dimension(2, lam)
    t = tau(2)
    assert sierpinski_dimension(3, t) == math.log(4) / -math.log(float(t))


def test_precision_exhausted_on_masked_zero():
    # (x^2 - 2)(x^2 - x - 1): the window isolates sqrt(2), and the
    # combination x^2 - 2 is exactly zero without reducing to the zero
    # vector, so no amount of refinement can decide its sign.
    alg = AlgebraicNumber([2, 2, -3, -1, 1], Fraction(14, 10), Fraction(29, 20))
    combo = alg.as_scalar() ** 2 - 2
    with pytest.raises(PrecisionExhausted):
        combo.sign()


def test_precision_exhausted_on_masked_integer_ceiling():
    # Over the same sqrt(2) window, x^2 + 1 equals 3 without reducing to a
    # constant, so its enclosure straddles 3 at every refinement.
    alg = AlgebraicNumber([2, 2, -3, -1, 1], Fraction(14, 10), Fraction(29, 20))
    with pytest.raises(PrecisionExhausted, match="ceiling.*256 rounds"):
        scalar_ceil(alg.as_scalar() ** 2 + 1)


def test_compare_values_equality_across_polynomials():
    # (x^2 + x - 1)(x^2 - 3) shares the golden-ratio root with the
    # multinacci quadratic but is a different defining polynomial.
    # The gcd's one root in the interval overlap is each side's root, so
    # equality is certified without refining either side.
    a = isolate_root([3, -3, -4, 1, 1], (Fraction(1, 2), Fraction(3, 4)))
    w = multinacci(2)
    generations = a.generation, w.generation
    assert compare_values(a, w) == 0
    assert compare_values(w, a) == 0
    assert (a.generation, w.generation) == generations


def test_compare_values_orderings():
    w2, w3 = multinacci(2), multinacci(3)
    assert compare_values(w3, w2) == -1
    assert compare_values(w2, w3) == 1
    assert compare_values(w2, Fraction(618, 1000)) == 1
    assert compare_values(Fraction(619, 1000), w2) == 1
    assert compare_values(w2, w2) == 0
    # a rational at an endpoint of the isolating interval is never equal
    lo, hi = w2.interval
    assert compare_values(w2, lo) == 1
    assert compare_values(w2, hi) == -1


def _order_and_generation(order, pair):
    """``order`` on a fresh copy of a pair: its verdict and the generation
    each base is left at."""
    a, b = pair()
    verdict = order(a, b)
    return verdict, [x.generation for x in (a, b) if isinstance(x, AlgebraicNumber)]


def _as_scalars(order):
    return lambda a, b: order(exact.as_scalar(a), exact.as_scalar(b))


@pytest.mark.parametrize("pair", [
    # ω₂ = 0.61803398874989484820...: 5e-17 below it needs refinement.
    lambda: (Fraction(6180339887498948, 10**16), multinacci(2)),
    lambda: (multinacci(2), Fraction(6180339887498949, 10**16)),
    lambda: (1, lambda_star()),
    lambda: (lambda_star(), 0),
    lambda: (Fraction(3, 5), Fraction(5, 8)),
    lambda: (multinacci(2),) * 2,
], ids=["fraction-omega", "omega-fraction", "int-star", "star-int", "fractions", "same"])
def test_compare_values_is_compare_on_one_base(pair):
    got = _order_and_generation(compare_values, pair)
    assert got == _order_and_generation(_as_scalars(compare), pair)
    if got[1]:
        # Swapping the sides negates the vector, its image and its Horner
        # enclosure, so the same rounds run and the sign flips.
        flipped = _order_and_generation(lambda a, b: -compare_values(b, a), pair)
        assert flipped == got


def test_compare_values_orders_two_bases_of_one_ratio():
    # Two separate multinacci(2) objects are two bases: compare refuses
    # them, and compare_values certifies their equality by the gcd.
    a, b = multinacci(2), multinacci(2)
    with pytest.raises(TypeError, match="different base numbers"):
        compare(a.as_scalar(), b.as_scalar())
    generations = a.generation, b.generation
    assert compare_values(a, b) == 0
    assert (a.generation, b.generation) == generations


@pytest.mark.parametrize("bad", [0.5, "1/2"])
def test_compare_values_rejects_floats_and_strings(bad):
    with pytest.raises(TypeError):
        compare_values(bad, multinacci(2))
    with pytest.raises(TypeError):
        compare_values(Fraction(1, 2), bad)


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _shifted_golden(factor):
    """(x^2 + x - 1)(factor) and the same with x^2 + x - 1 moved right by
    10^-20, each with its root in (1/2, 3/4): two roots closer than the
    fresh isolating width, over polynomials that share ``factor``."""
    e = Fraction(1, 10**20)
    golden = [-1, 1, 1]
    shifted = [e * e - e - 1, 1 - 2 * e, 1]
    window = (Fraction(1, 2), Fraction(3, 4))
    return (isolate_root(_times(golden, factor), window),
            isolate_root(_times(shifted, factor), window))


@pytest.mark.parametrize("factor", [[1], [-2, 0, 1]], ids=["coprime", "common-factor"])
def test_compare_values_refines_both_sides_to_separate(factor):
    # The fresh intervals overlap, so the loop bisects the wider side until
    # they part.  With the common factor x^2 - 2 the gcd has no root in the
    # overlap, which drops the equality certificate for plain refinement.
    a, b = _shifted_golden(factor)
    start = a.generation, b.generation
    assert compare_values(a, b) == -1
    assert a.generation > start[0] and b.generation > start[1]
    a, b = _shifted_golden(factor)
    assert compare_values(b, a) == 1


def test_squarefree_part_drops_repeated_factors():
    # (x - 1)^2 (x + 2) -> (x - 1)(x + 2)
    assert squarefree_part([2, -3, 0, 1]) == [-2, 1, 1]
    # a root given by the square of its polynomial is stored squarefree
    w = AlgebraicNumber([1, -2, -1, 2, 1], Fraction(1, 2), Fraction(3, 4))
    assert w.poly == (-1, 1, 1)
    assert compare_values(w, multinacci(2)) == 0


def test_multiple_roots_rejected():
    with pytest.raises(MultipleRootsError):
        AlgebraicNumber([2, -3, 1], Fraction(1, 2), Fraction(5, 2))


def test_smallest_positive_root_cases():
    with pytest.raises(NoRootError):
        smallest_positive_root([1, 0, 1])
    r = smallest_positive_root([1, -3, 2], window_hi=Fraction(9, 10))
    assert compare_values(r, Fraction(1, 2)) == 0
    assert type(r) is Fraction and r == Fraction(1, 2)
    r = isolate_root([-1, 2], (0, 1))
    assert type(r) is Fraction and r == Fraction(1, 2)


def test_smallest_positive_root_builds_its_chain_once(monkeypatch):
    calls = {"squarefree_part": 0, "sturm_chain": 0}

    def counted(name):
        fn = getattr(exact, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(exact, name, counted(name))
    for m in range(2, 31):
        tau(m)
    assert calls == {"squarefree_part": 29, "sturm_chain": 29}


@pytest.mark.parametrize("make,coeffs,window_hi", [
    *((lambda m=m: tau(m), [1, -3] + [0] * (m - 1) + [3], 1) for m in (2, 3, 7, 30)),
    (lambda: tau(4, 3), [1, -4, 0, 0, 0, 6], 1),
    *((lambda m=m: sigma(m), [1, -3] + [0] * (m - 2) + [2], Fraction(15, 16))
      for m in (3, 5, 30)),
], ids=["tau2", "tau3", "tau7", "tau30", "tau4-d3", "sigma3", "sigma5", "sigma30"])
def test_smallest_positive_root_is_the_isolated_window_root(make, coeffs, window_hi):
    # The number built on the reused chain is the one isolate_root gives on
    # the first Sturm window, down to its interval and generation.
    sf = squarefree_part(coeffs)
    hi = Fraction(window_hi)
    a, b, den = next(exact._root_windows(exact.sturm_chain(sf), 0,
                                         hi.numerator, hi.denominator))
    expected = isolate_root(sf, (Fraction(a, den), Fraction(b, den)))
    root = make()
    assert root.poly == expected.poly
    assert root.interval == expected.interval
    assert root.generation == expected.generation


def test_rational_roots_divided_out():
    # (x - 2)(x^2 - x - 1) around the golden ratio: the stored polynomial
    # loses the rational factor, so c^2 - c - 1 reduces to the zero vector.
    a = AlgebraicNumber([2, 1, -3, 1], Fraction(3, 2), Fraction(7, 4))
    assert a.poly == (-1, -1, 1)
    c = a.as_scalar()
    assert (c * c - c - 1).sign() == 0


def test_rational_roots_found_at_any_coefficient_size():
    # End coefficients above 10^6 have too many divisors to try, but the
    # root is still found: alone, beside x + 7, and beside x^2 - x - 1.
    for coeffs in ([-1000003, 1000033], [-7000021, 6000228, 1000033]):
        r = isolate_root(coeffs, (0, 2))
        assert type(r) is Fraction and r == Fraction(1000003, 1000033)
    a = AlgebraicNumber([1000003, -30, -2000036, 1000033],
                        Fraction(3, 2), Fraction(7, 4))
    assert a.poly == (-1, -1, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=10**12).flatmap(
    lambda q: st.tuples(st.integers(min_value=1, max_value=q - 1), st.just(q))))
def test_rational_root_of_golden_cubic(pq):
    # (q x - p)(x^2 - x - 1): the root p/q comes back exact, and the golden
    # ratio's stored polynomial has the rational factor divided out.
    p, q = pq
    coeffs = [p, p - q, -(p + q), q]
    r = isolate_root(coeffs, (0, 1))
    assert type(r) is Fraction and r == Fraction(p, q)
    assert AlgebraicNumber(coeffs, Fraction(3, 2), Fraction(7, 4)).poly == (-1, -1, 1)


def test_rational_root_rejected():
    with pytest.raises(DomainError):
        AlgebraicNumber([-1, 2], 0, 1)


@pytest.mark.parametrize("call,error,match", [
    (lambda: AlgebraicNumber([-2, -1, 1], 2, 3), DomainError, "endpoint is a root"),
    (lambda: isolate_root([-2, -1, 1], (Fraction(3, 2), 2)), DomainError,
     "endpoint is a root"),
    (lambda: AlgebraicNumber([-2, 0, 1], 2, 1), DomainError, "empty isolating interval"),
    (lambda: AlgebraicNumber([5], 0, 1), DomainError, "constant polynomial"),
    (lambda: AlgebraicNumber([-2, 0, 1], 2, 3), NoRootError, "no root"),
    (lambda: smallest_positive_root([-1, 1]), DomainError, "window endpoint is a root"),
    (lambda: tau(1), DomainError, "m must be"),
    (lambda: tau(2, 1), DomainError, "d must be"),
    (lambda: sigma(1), DomainError, "m must be"),
], ids=["endpoint-root", "isolate-endpoint-root", "empty-interval", "constant",
        "no-root", "window-endpoint-root", "tau-m", "tau-d", "sigma-m"])
def test_root_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


small_coeffs = st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(small_coeffs, small_coeffs)
def test_combination_ring_matches_floats(a, b):
    w = multinacci(2)
    fa = sum(c * float(w) ** k for k, c in enumerate(a))
    fb = sum(c * float(w) ** k for k, c in enumerate(b))
    A, B = LinearCombination(w, a), LinearCombination(w, b)
    assert abs(float(A + B) - (fa + fb)) < 1e-9
    assert abs(float(A * B) - fa * fb) < 1e-9
    assert abs(float(A - B) - (fa - fb)) < 1e-9


@settings(max_examples=150, deadline=None)
@given(small_coeffs, small_coeffs)
def test_exact_sign_agrees_with_clear_floats(a, b):
    w = multinacci(2)
    fa = sum(c * float(w) ** k for k, c in enumerate(a))
    fb = sum(c * float(w) ** k for k, c in enumerate(b))
    if abs(fa - fb) < 1e-6:
        return
    got = compare(LinearCombination(w, a), LinearCombination(w, b))
    assert got == (1 if fa > fb else -1)


# ----------------------------------------------------------------------
# the frame image that screens exact._settle against the interval rounds


def _screen_pair(make, *args):
    """The base at its default isolating width and a deep-refined copy."""
    deep = make(*args)
    deep.refine_to(Fraction(1, 10**60))
    return make(*args), deep


SCREEN_BASES = [_screen_pair(multinacci, m) for m in (2, 3, 4)] + [
    _screen_pair(pisot_number, i) for i in (1, 3)
] + [
    # The non-monic bases: lambda*, and the root of 2x^2 - 2x - 1, whose
    # reduced powers carry Fraction coordinates.
    _screen_pair(lambda_star),
    _screen_pair(isolate_root, [-1, -2, 2], (Fraction(1), Fraction(3, 2))),
]


def _screened(base, coeffs):
    """(sign, ceiling) that the screen alone gives at the base's current
    interval, each None where it defers.  The screen is the first bound
    ``_settle`` asks, and it is the image of a frame that clears the
    vector: its integer numerators over their lcm."""
    v = LinearCombination(base, coeffs)
    asked = []
    exact._settle(v, lambda *bound: asked.append(bound) or 0, "probe")
    frame = VectorFrame(base.as_scalar(), [v])
    (lo, hi), = frame.images(frame.vector(v))
    assert asked == [(lo, hi, frame.unit)]
    ceil = image_ceil(lo, hi, frame.unit)
    return exact._sign_of(lo, hi, frame.unit), None if ceil is None else ceil[0]


def _exact(deep, coeffs):
    """(sign, ceiling) from the interval rounds alone, on the deep copy."""
    v = LinearCombination(deep, coeffs)
    return (exact._settle(v, exact._sign_of, "sign", screen=False),
            exact._settle(v, image_ceil, "ceiling", screen=False)[0])


def _check_screen(index, coeffs):
    base, deep = SCREEN_BASES[index]
    sign, ceil = _screened(base, coeffs)
    want_sign, want_ceil = _exact(deep, coeffs)
    assert sign in (None, want_sign)
    assert ceil in (None, want_ceil)
    return sign, ceil


screen_coeff = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-10**18, max_value=10**18),
    st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**6),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=len(SCREEN_BASES) - 1),
       st.lists(screen_coeff, min_size=5, max_size=5))
def test_fixed_screen_never_contradicts_exact_path(index, coeffs):
    base, deep = SCREEN_BASES[index]
    degree = len(base.poly) - 1
    coeffs = coeffs[:degree]
    if not any(coeffs[1:]):
        coeffs[-1] = 1
    _check_screen(index, coeffs)
    # The cached power images bracket every power of a point of the
    # interval.
    x = deep.midpoint()
    for k, (mid, rad) in enumerate(zip(*base.power_images())):
        assert abs(x**k * 2 ** (exact.FIXED_BITS + 1) - mid) <= rad


def test_fixed_screen_defers_near_zero():
    """(F_(n-1), -F_n) is +-omega_2^n.  From n = 40 on, F_n times the
    1e-15 isolating width exceeds omega_2^n, so the screen must defer on
    the sign, and on the ceilings of k +- omega_2^n, which sit just off an
    integer.  The same holds for the pair over 3, screened on its
    numerators, and for k +- omega_2^n / 3."""
    base, deep = SCREEN_BASES[0]
    w = deep.as_scalar()
    fib = [0, 1]
    while len(fib) < 82:
        fib.append(fib[-1] + fib[-2])
    for n in range(2, 81):
        pair = (fib[n - 1], -fib[n])
        assert LinearCombination(deep, pair) in (w**n, -(w**n))
        for coeffs in (pair, tuple(Fraction(c, 3) for c in pair)):
            sign, _ = _check_screen(0, coeffs)
            if n >= 40:
                assert sign is None
            for k in (-3, 0, 1, 7):
                for s in (1, -1):
                    _, ceil = _check_screen(0, (k + s * coeffs[0], s * coeffs[1]))
                    if n >= 40:
                        assert ceil is None


@pytest.mark.parametrize("make,index", [(multinacci, 2), (pisot_number, 1)])
def test_constant_vectors_settle_without_refining(make, index):
    """An int constant's frame image and a Fraction constant's interval
    Horner enclosure are both its point, so the sign, ceiling and float of
    a constant vector never refine the base."""
    base = make(index)
    generation = base.generation
    for c in (0, 3, -2, Fraction(0), Fraction(4, 2), Fraction(7, 3), Fraction(-1, 2)):
        v = LinearCombination(base, (c,))
        assert v.sign() == (c > 0) - (c < 0)
        assert scalar_ceil(v)[0] == math.ceil(c)
        assert float(v) == float(c)
    assert base.generation == generation


@pytest.mark.parametrize("make", [lambda: multinacci(2), lambda_star],
                         ids=["omega2", "lambda-star"])
def test_scalar_ceil_answers_like_image_ceil(make):
    """(ceil(x), whether x is not an integer) on every scalar kind: ints,
    Fractions at and next to integers, constant combinations, and
    k +- lam^60, which no image at the default width settles.  The
    reference is compare."""
    alg = make()
    tiny = alg.as_scalar() ** 60
    near = [Fraction(k) + e for k in (-2, 0, 1, 5)
            for e in (0, Fraction(1, 10**30), -Fraction(1, 10**30))]
    values = [-2, 0, 7] + near + [LinearCombination(alg, (x,)) for x in near]
    values += [k + s * tiny for k in (-2, 0, 1, 5) for s in (1, -1)]
    for x in values:
        c, fractional = scalar_ceil(x)
        assert type(c) is int
        assert compare(x, c) <= 0 < compare(x, c - 1)
        assert fractional == (compare(x, c) != 0)


def test_discarded_base_is_freed_without_a_collection():
    # The screen's power images are cached on the number.  A cached object
    # that referred back to it would form a cycle, keeping every discarded
    # base alive until the next collection.
    gc.collect()
    gc.disable()
    try:
        w = multinacci(2)
        assert compare(w.as_scalar(), 1) == -1
        assert VectorFrame(w.as_scalar(), [w.as_scalar()]).deg == 2
        del w
        assert gc.collect() == 0
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# one path per question: floats through _settle, order through compare


def _named_constants():
    yield from (multinacci(m) for m in range(2, 31))
    yield from (multinacci_reciprocal(m) for m in range(2, 31))
    yield lambda_star()
    yield from (pisot_number(i) for i in range(1, 5))
    yield from (tau(m) for m in range(2, 31))
    yield from (sigma(m) for m in range(3, 21))


def _midpoint_float(x):
    """The float rule AlgebraicNumber once had of its own: the midpoint of
    the isolating interval once it is at most 10^-17 wide, taken on a copy
    so that ``x`` is not refined."""
    old = copy.deepcopy(x)
    old.refine_to(Fraction(1, 10**17))
    return float(old.midpoint())


def test_float_of_named_constants_keeps_the_midpoint_double():
    for x in _named_constants():
        assert isinstance(x, AlgebraicNumber)
        want = _midpoint_float(x)
        assert float(x) == want, x


@pytest.mark.parametrize("make,index", [(multinacci_reciprocal, 2),
                                        (multinacci_reciprocal, 3),
                                        (pisot_number, 1), (pisot_number, 4)])
def test_float_after_a_search_keeps_the_midpoint_double(make, index):
    theta = make(index)
    for degree in (4, 8, 12):
        ell_upper(theta, degree)
        want = _midpoint_float(theta)
        assert float(theta) == want


def test_repr_never_refines():
    w = multinacci(2)
    generation = w.generation
    assert repr(w) == "AlgebraicNumber(-1 + 1*x^1 + 1*x^2 ~ 0.61803398875)"
    v = w.as_scalar() * 3 + Fraction(1, 2)
    assert repr(v) == "LinearCombination([Fraction(1, 2), 3] ~ 2.35410196625)"
    assert w.generation == generation


@pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
def test_combinations_order_only_through_compare(op):
    v = multinacci(2).as_scalar()
    for other in (1, Fraction(1, 2), v):
        with pytest.raises(TypeError):
            op(v, other)
        with pytest.raises(TypeError):
            op(other, v)
    assert compare(v, Fraction(1, 2)) == 1 and compare(v, 1) == -1


# ----------------------------------------------------------------------
# the integer kernels against the Fraction arithmetic they replace
#
# The reference below is the rational-arithmetic form of each kernel:
# Horner on Fractions, the four-product interval Horner, powers of the
# rational interval ends, Sturm chains by Fraction polynomial division and
# bisection at the Fraction midpoint.  The kernels must give the same
# rationals, so every decision, interval and float stays the same.


def _ref_eval(poly, x):
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _ref_sign(poly, x):
    v = _ref_eval(poly, x)
    return (v > 0) - (v < 0)


def _ref_horner(coeffs, lo, hi):
    vlo = vhi = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        ps = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(ps) + c, max(ps) + c
    return vlo, vhi


def _ref_power_images(lo, hi, deg):
    mid, rad = [], []
    for k in range(deg):
        ends = (lo**k, hi**k, 0) if k and lo < 0 < hi else (lo**k, hi**k)
        a = math.floor(min(ends) * 2**exact.FIXED_BITS)
        b = math.ceil(max(ends) * 2**exact.FIXED_BITS)
        mid.append(a + b)
        rad.append(b - a)
    return tuple(mid), tuple(rad)


def _ref_divmod(num, den):
    num = [Fraction(c) for c in num]
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    while len(exact.poly_trim(num)) >= len(den):
        num = exact.poly_trim(num)
        shift = len(num) - len(den)
        q[shift] = f = num[-1] / den[-1]
        for i, c in enumerate(den):
            num[shift + i] -= f * c
    return exact.poly_trim(q), exact.poly_trim(num)


def _ref_sturm_chain(poly):
    chain = [[Fraction(c) for c in exact.poly_trim(poly)]]
    d = exact.poly_trim(exact.poly_deriv(chain[0]))
    if d:
        chain.append(d)
        while True:
            r = _ref_divmod(chain[-2], chain[-1])[1]
            if not r:
                break
            chain.append([-c for c in r])
    return chain


def _ref_variations(chain, x):
    signs = [s for s in (_ref_sign(p, x) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


int_polys = st.lists(st.integers(-60, 60), min_size=1, max_size=7)
points = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@settings(max_examples=300, deadline=None)
@given(int_polys, points, st.booleans())
def test_sign_at_matches_fraction_horner(poly, x, make_root):
    if make_root:
        # x is then an exact root, whatever the sign of x
        poly = _times(poly, [-x.numerator, x.denominator])
    want = _ref_sign(poly, x)
    assert exact._sign_at(poly, x.numerator, x.denominator) == want
    if make_root:
        assert want == 0
    # unreduced: the same point over a larger denominator
    assert exact._sign_at(poly, 7 * x.numerator, 7 * x.denominator) == want


horner_coeffs = st.lists(st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 1000)),
), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(horner_coeffs, st.integers(-10**9, 10**9), st.integers(1, 10**9),
       st.integers(1, 10**9))
def test_horner_image_bounds_are_the_fraction_bounds(coeffs, lo, width, den):
    # lo ranges over both signs, so intervals with lo < 0 < hi occur
    hi = lo + width
    vlo, vhi, unit = exact._horner_image(coeffs, lo, hi, den)
    assert unit > 0
    assert (Fraction(vlo, unit), Fraction(vhi, unit)) == _ref_horner(
        coeffs, Fraction(lo, den), Fraction(hi, den))


def test_horner_image_straddling_zero():
    for coeffs in ([1, -2, 3], [Fraction(-1, 3), 5, -7, Fraction(2, 9)], [4]):
        for lo, hi, den in ((-3, 5, 4), (-1, 1, 1), (-7, 0, 3), (0, 9, 8)):
            vlo, vhi, unit = exact._horner_image(coeffs, lo, hi, den)
            assert (Fraction(vlo, unit), Fraction(vhi, unit)) == _ref_horner(
                coeffs, Fraction(lo, den), Fraction(hi, den))


def _at_interval(x, lo, hi, den):
    """A copy of ``x`` whose stored interval is (lo/den, hi/den)."""
    y = copy.deepcopy(x)
    y._lo, y._hi, y._den, y._images = lo, hi, den, None
    return y


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**12, 10**12), st.integers(1, 10**12), st.integers(1, 10**12))
def test_power_images_are_the_fraction_images(lo, width, den):
    base = pisot_number(3)
    y = _at_interval(base, lo, lo + width, den)
    assert y.power_images() == _ref_power_images(
        Fraction(lo, den), Fraction(lo + width, den), len(base.poly) - 1)


@settings(max_examples=200, deadline=None)
@given(int_polys, st.lists(points, min_size=1, max_size=4), st.booleans())
# a remainder two degrees down under a negative leading coefficient: an odd
# number of steps, so the multiplier must be |lead|^k, not lead^k
@example([-3, 0, 3, 0, 0, 2], [Fraction(1, 2)], False)
def test_sturm_variations_match_the_fraction_chain(poly, xs, repeated):
    if repeated:
        poly = _times(poly, poly)
    if not exact.poly_trim(poly):
        return
    chain, ref = exact.sturm_chain(poly), _ref_sturm_chain(poly)
    assert len(chain) == len(ref)
    for p, r in zip(chain, ref):
        # each member a positive multiple of the Fraction one
        assert p[-1] / r[-1] > 0 and [c * r[-1] for c in p] == [p[-1] * c for c in r]
    for x in xs + [Fraction(0), Fraction(-1), Fraction(1)]:
        got = exact._variations(chain, x.numerator, x.denominator)
        assert got == _ref_variations(ref, x)


def _ref_gcd(a, b):
    a, b = exact.poly_trim(a), exact.poly_trim(b)
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return a


@settings(max_examples=150, deadline=None)
@given(int_polys, int_polys)
def test_squarefree_part_and_gcd_match_fraction_division(a, b):
    if not exact.poly_trim(a) or not exact.poly_trim(b):
        return
    square = _times(_times(a, a), b)
    assert exact._poly_gcd(square, b) == exact._primitive_int(_ref_gcd(square, b))
    g = _ref_gcd(square, exact.poly_deriv(square))
    want = _ref_divmod(square, g)[0] if len(g) > 1 else square
    assert squarefree_part(square) == exact._primitive_int(want)


def _ref_bisect(poly, lo, hi):
    mid = (lo + hi) / 2
    if (_ref_sign(poly, mid) > 0) == (_ref_sign(poly, lo) > 0):
        return mid, hi
    return lo, mid


def _ref_fresh(poly, lo, hi):
    """The interval and generation the Fraction bisection leaves at the
    default isolating width."""
    gen = 0
    while hi - lo > exact.DEFAULT_TOL:
        lo, hi = _ref_bisect(poly, lo, hi)
        gen += 1
    return lo, hi, gen


SEQUENCE_BASES = [
    ("golden", lambda: multinacci_reciprocal(2), (Fraction(3, 2), Fraction(2))),
] + [
    ("pisot%d" % i, lambda i=i: pisot_number(i), window)
    for i, (_, window) in enumerate(separation._PISOT_POLYS, 1)
] + [
    ("omega%d" % m, lambda m=m: multinacci(m), (Fraction(1, 2), Fraction(3, 4)))
    for m in range(2, 7)
] + [
    ("lambda-star", lambda_star, (Fraction(1, 2), Fraction(3, 4))),
    ("nonmonic", lambda: isolate_root([-1, -2, 2], (Fraction(1), Fraction(3, 2))),
     (Fraction(1), Fraction(3, 2))),
]


@pytest.mark.parametrize("make,window", [b[1:] for b in SEQUENCE_BASES],
                         ids=[b[0] for b in SEQUENCE_BASES])
def test_refine_sequence_matches_fraction_bisection(make, window):
    x = make()
    lo, hi, gen = _ref_fresh(x.poly, *window)
    assert (x.interval, x.generation) == ((lo, hi), gen)
    for _ in range(60):
        x.refine()
        lo, hi = _ref_bisect(x.poly, lo, hi)
        gen += 1
        assert (x.interval, x.generation) == ((lo, hi), gen)
        assert x.midpoint() == (lo + hi) / 2
        assert x.power_images() == _ref_power_images(lo, hi, len(x.poly) - 1)
        v = LinearCombination(x, [Fraction(1, 3), -2, 5][:len(x.poly) - 1])
        vlo, vhi, unit = v.enclosure()
        assert (Fraction(vlo, unit), Fraction(vhi, unit)) == _ref_horner(v.coeffs, lo, hi)
