"""Region calculus against stepwise matrix products and Monte-Carlo hits.

Two oracles: the similitude matrices are rebuilt here by multiplying
generator matrices one digit at a time (no closed form), and region
predicates are checked against uniform random sampling of the simplex
with an exact feasibility fallback when sampling is too coarse to see a
thin intersection.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldengasket.errors import DomainError
from goldengasket.exact import VectorFrame, compare, lambda_star, multinacci
from goldengasket.geometry import (
    apply_map,
    barycenter,
    compose_word,
    feasible_point,
    generator_matrix,
    hole_meets_region,
    hole_region,
    image_region,
    intersection_bounds,
    region_feasible_point,
    regions_intersect,
    translation_vector,
    validate_word,
    vertex,
)


def oracle_generator(i, lam, d=2):
    # f_i(x) = lam*x + (1-lam)*e_i acting on columns summing to 1.
    return [
        [lam * (1 if r == c else 0) + (1 - lam) * (1 if r == i else 0)
         for c in range(d + 1)]
        for r in range(d + 1)
    ]


def oracle_matmul(a, b):
    n = len(a)
    return [
        [sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)]
        for r in range(n)
    ]


def oracle_compose(word, lam, d=2):
    acc = [[Fraction(1 if r == c else 0) for c in range(d + 1)] for r in range(d + 1)]
    for digit in word:
        acc = oracle_matmul(acc, oracle_generator(digit, lam, d))
    return acc


rational_lam = st.fractions(min_value=Fraction(51, 100), max_value=Fraction(74, 100))
words = st.lists(st.integers(min_value=0, max_value=2), max_size=6).map(tuple)


@settings(max_examples=120, deadline=None)
@given(rational_lam, words)
def test_compose_word_matches_stepwise_product(lam, word):
    got = compose_word(word, lam).matrix
    want = oracle_compose(word, lam)
    assert all(
        got[r][c] == want[r][c] for r in range(3) for c in range(3)
    )


def test_compose_word_exact_at_golden_ratio():
    w = multinacci(2)
    lam = w.as_scalar()
    for word in ((), (0,), (2, 1), (0, 1, 1), (1, 0, 0), (2, 0, 1, 2)):
        got = compose_word(word, w).matrix
        want = oracle_compose(word, lam)
        for r in range(3):
            for c in range(3):
                assert compare(got[r][c], want[r][c]) == 0


@settings(max_examples=120, deadline=None)
@given(rational_lam, words, st.integers(min_value=0, max_value=2))
def test_translation_append_recurrence(lam, word, digit):
    t, lam_n = translation_vector(word, lam)
    t2, lam_n2 = translation_vector(word + (digit,), lam)
    bump = (1 - lam) * lam ** len(word)
    for j in range(3):
        assert t2[j] == t[j] + (bump if j == digit else 0)
    assert lam_n2 == lam_n * lam
    assert sum(t) == 1 - lam_n


def test_generator_fixes_its_vertex():
    lam = Fraction(3, 5)
    for i in range(3):
        sim = generator_matrix(i, lam)
        assert apply_map(sim, vertex(i)) == vertex(i)


def test_apply_map_preserves_mass():
    lam = Fraction(5, 8)
    sim = compose_word((0, 2, 1), lam)
    img = apply_map(sim, barycenter())
    assert sum(img) == 1


def test_image_region_examples():
    lam = Fraction(3, 5)
    assert image_region((), lam).bounds == (0, 0, 0)
    assert image_region((0,), lam).bounds == (Fraction(2, 5), 0, 0)
    t = image_region((0, 1), lam).bounds
    assert t == (Fraction(2, 5), Fraction(2, 5) * Fraction(3, 5), 0)


def test_hole_bounds_offset_from_region():
    lam = Fraction(3, 5)
    for word in ((), (0,), (1, 2), (0, 1, 2)):
        r = image_region(word, lam)
        h = hole_region(word, lam)
        width = (1 - lam) * lam ** len(word)
        assert all(u == l + width for l, u in zip(r.bounds, h.bounds))


def _on_other_frame(region):
    """The region's bounds as a view labelled (9, 9) on a frame that also
    clears 1/7: other integers, the same set."""
    frame = VectorFrame(region.bounds[0], region.bounds + (Fraction(1, 7),))
    assert frame.den != region.frame.den
    vec = frame.pack(tuple(c for x in region.bounds for c in frame.vector(x)))
    view = type(region)(frame, vec, 2, (9, 9))
    assert view.vec != region.vec
    return view


def test_hole_emptiness_threshold():
    # sum(U) = 1 + lam^n (2 - 3 lam): positive below 2/3, zero at it.
    assert not hole_region((0, 1), Fraction(3, 5)).is_empty()
    assert hole_region((0, 1), Fraction(2, 3)).is_empty()
    assert hole_region((), Fraction(7, 10)).is_empty()
    assert hole_region((2,), multinacci(3)).is_empty() is False


def test_empty_holes_compare_equal():
    a = hole_region((0,), Fraction(7, 10))
    b = hole_region((1, 2), Fraction(7, 10))
    assert a == b and hash(a) == hash(b)


def test_nonempty_holes_compare_by_bounds():
    lam = Fraction(3, 5)
    a = hole_region((0, 1), lam)
    assert not a.is_empty()
    b = _on_other_frame(a)  # word is a label
    assert a == b and hash(a) == hash(b)
    assert a != hole_region((1, 0), lam)
    assert a != hole_region((0, 1), Fraction(2, 3))  # empty there
    # coincident words give one hole at the golden ratio
    w = multinacci(2)
    h = hole_region((1, 0, 0), w)
    assert not h.is_empty()
    assert h == hole_region((0, 1, 1), w) and h != hole_region((0, 1, 0), w)


def test_word_identity_at_golden_ratio():
    # f_1 f_0 f_0 and f_0 f_1 f_1 coincide when lam^2 + lam = 1.
    w = multinacci(2)
    assert image_region((1, 0, 0), w) == image_region((0, 1, 1), w)
    assert compose_word((1, 0, 0), w).matrix == compose_word((0, 1, 1), w).matrix
    lam = Fraction(3, 5)
    assert image_region((1, 0, 0), lam) != image_region((0, 1, 1), lam)


def test_overlap_identity():
    # f_0(S) meets f_1(S) exactly in f_0 f_1^m(S) at the index-m ratio.
    for m in range(2, 7):
        w = multinacci(m)
        a = image_region((0,), w)
        b = image_region((1,), w)
        overlap = intersection_bounds(a, b)
        expected = image_region((0,) + (1,) * m, w).bounds
        assert all(compare(x, y) == 0 for x, y in zip(overlap, expected))


def test_disjoint_deep_corners():
    lam = Fraction(51, 100)
    a = image_region((0, 0), lam)
    b = image_region((1, 1), lam)
    assert not regions_intersect(a, b)
    with pytest.raises(DomainError):
        region_feasible_point(a, b)


def test_validate_word_rejects_bad_digits():
    with pytest.raises(DomainError):
        validate_word((0, 3), 2)
    with pytest.raises(DomainError):
        validate_word((0, "1"), 2)


@pytest.mark.parametrize("call,match", [
    (lambda: generator_matrix(3, Fraction(1, 2)), "generator index 3 outside"),
    (lambda: apply_map(compose_word((0,), Fraction(1, 2)), (1, 0)), "point dimension"),
    (lambda: feasible_point(hole_region((0,), Fraction(3, 5)),
                            image_region((1, 1, 1), Fraction(3, 5))), "do not intersect"),
], ids=["generator-index", "point-dimension", "disjoint-hole"])
def test_map_and_point_refusals(call, match):
    with pytest.raises(DomainError, match=match):
        call()


def _random_pairs(rng, count, max_len=5):
    for _ in range(count):
        wa = tuple(rng.randrange(3) for _ in range(rng.randrange(max_len + 1)))
        wb = tuple(rng.randrange(3) for _ in range(rng.randrange(max_len + 1)))
        yield wa, wb


LAMBDAS = [multinacci(2), Fraction(11, 20), Fraction(3, 5), Fraction(13, 20)]


@pytest.mark.parametrize("lam", LAMBDAS, ids=["omega2", "0.55", "0.60", "0.65"])
def test_region_intersection_against_sampling(lam):
    rng = random.Random(90210)
    pts = np.random.default_rng(4).dirichlet((1, 1, 1), size=10_000)
    for wa, wb in _random_pairs(rng, 125):
        a = image_region(wa, lam)
        b = image_region(wb, lam)
        la = np.array([float(x) for x in a.bounds])
        lb = np.array([float(x) for x in b.bounds])
        hit = bool(((pts >= la) & (pts >= lb)).all(axis=1).any())
        pred = regions_intersect(a, b)
        if hit:
            assert pred, "sampled a common point the predicate rejects"
        elif pred:
            # Too thin for sampling: an exact witness point must exist.
            p = region_feasible_point(a, b)
            assert sum(p) == 1
            assert all(compare(x, l) >= 0 for x, l in zip(p, a.bounds))
            assert all(compare(x, l) >= 0 for x, l in zip(p, b.bounds))


@pytest.mark.parametrize("lam", LAMBDAS, ids=["omega2", "0.55", "0.60", "0.65"])
def test_hole_predicate_against_sampling(lam):
    rng = random.Random(31337)
    pts = np.random.default_rng(7).dirichlet((1, 1, 1), size=10_000)
    for wh, wr in _random_pairs(rng, 125):
        h = hole_region(wh, lam)
        r = image_region(wr, lam)
        uh = np.array([float(x) for x in h.bounds])
        lr = np.array([float(x) for x in r.bounds])
        hit = bool(((pts < uh) & (pts >= lr)).all(axis=1).any())
        pred = hole_meets_region(h, r)
        if hit:
            assert pred, "sampled a hole point the predicate rejects"
        elif pred:
            p = feasible_point(h, r)
            assert sum(p) == 1
            assert all(compare(x, l) >= 0 for x, l in zip(p, r.bounds))
            assert all(compare(x, u) < 0 for x, u in zip(p, h.bounds))


def test_corner_region_equality_is_by_bounds():
    lam = Fraction(3, 5)
    a = image_region((0, 1), lam)
    b = _on_other_frame(a)  # word is a label
    assert a == b and hash(a) == hash(b)
    # The hash is kept once taken, and stays the exact bounds' hash.
    assert hash(a) == hash(a) == hash(a.bounds)


def reference_meets(h, r):
    """The exact rule: all L_j < U_j, sum(L) <= 1 and sum(U) > 1."""
    lower, upper = r.bounds, h.bounds
    return (
        all(compare(l, u) < 0 for l, u in zip(lower, upper))
        and compare(sum(lower), 1) <= 0
        and compare(sum(upper), 1) > 0
    )


# At -1/2 a corner of odd level has no room: its bounds sum to 1 + 2^-n.
REFERENCE_LAMBDAS = [Fraction(3, 5), Fraction(13, 20), multinacci(2), multinacci(3),
                     lambda_star(), Fraction(-1, 2)]


@pytest.mark.parametrize("lam", REFERENCE_LAMBDAS,
                         ids=["0.60", "0.65", "omega2", "omega3", "lambda-star", "-0.50"])
def test_hole_predicate_matches_exact_rule(lam):
    rng = random.Random(2718)
    verdicts = set()
    for wh, wr in _random_pairs(rng, 200, max_len=6):
        h, r = hole_region(wh, lam), image_region(wr, lam)
        verdict = hole_meets_region(h, r)
        assert verdict == reference_meets(h, r), (wh, wr)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_lambda_star_frames_are_not_integral():
    # lambda* is a root of the non-monic 2x^3 - 2x^2 + 2x - 1.
    assert image_region((0, 1, 2), lambda_star()).frame.den > 1


def test_regions_over_two_bases_are_refused():
    w = multinacci(2)
    for lam in (Fraction(3, 5), multinacci(2)):
        with pytest.raises(TypeError):
            hole_meets_region(hole_region((0,), w), image_region((1,), lam))
        with pytest.raises(TypeError):
            hole_meets_region(hole_region((0,), lam), image_region((1,), w))
