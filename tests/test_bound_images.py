"""Bound images against the exact path, and the level loops against a
generic-scalar reference.

Region bounds live in the loops as integer vectors of one ``VectorFrame``;
every decision taken on their certified images (a ceiling, the integrality
of r*L, the ceiling of the grid's two-deficient corner test, L_j < U_j)
must be the answer of the exact ``LinearCombination``/``Fraction`` path
whenever the image gives one.  The near-integer vectors +-lam^n + k,
n <= 80, sit within the images' rounding slack of the answer, so a screen
that drops the slack claims wrong answers on them.

The reference at the end is the level-set algorithm on exact scalars:
regions as tuples of exact bounds, a DFS with exact compares for the holes,
and the cell criterion of the barycentric grid with exact ceilings.  The
stamped grid kernel of ``estimate_area`` is checked against its cell
counts, and once more with every image decision forced to the exact
fallback, and its bit grid against slice writes of the same runs.
"""

from collections import Counter, defaultdict
from fractions import Fraction
from operator import add
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goldengasket import attractor, geometry
from goldengasket.attractor import (
    ConsistentUpTo,
    Violation,
    build_level,
    check_total_self_similarity,
    classify_holes,
    estimate_area,
)
from goldengasket.errors import PrecisionExhausted, ResourceLimit
from goldengasket.exact import (
    AlgebraicNumber,
    VectorFrame,
    as_scalar,
    compare,
    image_ceil,
    isolate_root,
    lambda_star,
    multinacci,
    scalar_ceil,
)
from goldengasket.geometry import CornerRegion, HoleRegion, hole_meets_region

BASES = {
    "omega2": multinacci(2),
    "omega3": multinacci(3),
    "omega4": multinacci(4),
    "lambda-star": lambda_star(),
    # The root of x^3 - x^2 + 2x - 1 between omega_3 and omega_2: since
    # lam + lam^2 + lam^4 = 1, the words (0,1,1,1,1) and (1,0,0,1,0) give
    # one level-5 region, and holes are violated from n = 3 on.
    "lambda0": isolate_root([-1, 1, 1, 0, 1], (Fraction(1, 2), Fraction(2, 3))),
    "59/100": Fraction(59, 100),
    "13/20": Fraction(13, 20),
}
MAX_POWER = 80


def _frame(name):
    lam = as_scalar(BASES[name])
    powers = [lam**0]
    for _ in range(MAX_POWER):
        powers.append(powers[-1] * lam)
    # Lanes wide enough for the pairs below: two powers, an integer up to
    # 4 and a random vector.
    return VectorFrame(lam, powers * 2 + [powers[0] * 4]), powers


FRAMES = {name: _frame(name) for name in BASES}


def _near(draw, powers):
    """+-lam^n + k, within lam^n of an integer."""
    sign = draw(st.sampled_from([1, -1]))
    n = draw(st.integers(0, MAX_POWER))
    return sign * powers[n] + draw(st.integers(-3, 3))


@st.composite
def scalars(draw, name):
    """A vector of the frame of ``name`` and its exact scalar: +-lam^n + k
    (near an integer for large n), an integer, or a random vector."""
    frame, powers = FRAMES[name]
    kind = draw(st.sampled_from(["near", "integer", "random"]))
    if kind == "random":
        vec = tuple(draw(st.lists(st.integers(-10**6, 10**6),
                                  min_size=frame.deg, max_size=frame.deg)))
        return vec, frame.scalar(vec)
    if kind == "integer":
        x = powers[0] * draw(st.integers(-3, 3))
    else:
        x = _near(draw, powers)
    return frame.vector(x), x


@st.composite
def pairs(draw, kind):
    """Two scalars of one frame, the second chosen near the first
    ("gap": x + lam^n, x - lam^n or x itself) or near an integer less the
    first ("sum": x + y = +-lam^n + k)."""
    name = draw(st.sampled_from(sorted(BASES)))
    frame, powers = FRAMES[name]
    vec, x = draw(scalars(name))
    if kind == "gap":
        delta = draw(st.sampled_from([0, 1, -1])) * powers[
            draw(st.integers(0, MAX_POWER))]
        y = x + delta
    else:
        y = _near(draw, powers) - x
    return name, (vec, x), (frame.vector(y), y)


def _image(frame, vec):
    return frame.images(vec)[0]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(BASES)).flatmap(
    lambda name: st.tuples(st.just(name), scalars(name))), st.integers(1, 300))
def test_ceiling_and_integrality_images_agree_with_exact(case, r):
    name, (vec, x) = case
    frame = FRAMES[name][0]
    lo, hi = _image(frame, vec)
    decided = image_ceil(r * lo, r * hi, frame.unit)
    if decided is None:
        assert frame.alg is not None and any(vec[1:])
        return
    rx = r * x
    c, _ = scalar_ceil(rx)
    assert decided == (c, compare(rx, c) != 0)


@settings(max_examples=300, deadline=None)
@given(pairs("sum"), st.integers(1, 300), st.integers(-1, 1))
def test_corner_compare_images_agree_with_exact(case, r, shift):
    # The grid's corner test asks whether an integer k lies below r (x + y),
    # which is k < E for E the ceiling read off the image of the summed
    # vector.  Near-integer sums put k at and beside the tie.
    name, (a, x), (b, y) = case
    frame = FRAMES[name][0]
    lo, hi = _image(frame, tuple(map(add, a, b)))
    decided = image_ceil(r * lo, r * hi, frame.unit)
    total = r * x + r * y
    e, _ = scalar_ceil(total)
    if decided is not None:
        assert decided[0] == e
    k = e - 1 + shift
    assert (k < e) == (compare(total, k) > 0)


@settings(max_examples=300, deadline=None)
@given(pairs("gap"))
def test_lower_below_upper_agrees_with_exact(case):
    name, (a, x), (b, y) = case
    frame = FRAMES[name][0]
    # d = 0: one bound each, so the view test is exactly L < U.
    hole = HoleRegion(frame, frame.pack(b), 0, ())
    region = CornerRegion(frame, frame.pack(a), 0, ())
    assert hole_meets_region(hole, region) == (compare(x, y) < 0)


@settings(max_examples=300, deadline=None)
@given(pairs("gap"))
def test_moved_bound_test_agrees_with_exact(case):
    # Below the root the sweep decides L_b < U_b for the one bound b a
    # child raised as a compare of the two lane groups' ranks.
    name, (a, x), (b, y) = case
    frame = FRAMES[name][0]
    lower, upper = frame.pack(a), frame.pack(b)
    _, ranks = attractor._rank(frame, [lower, upper])
    assert (ranks[lower] < ranks[upper]) == (compare(x, y) < 0)


@pytest.mark.parametrize("name", sorted(BASES))
def test_images_decide_constants_and_ties_without_the_exact_path(name, monkeypatch):
    frame, powers = FRAMES[name]

    def no_exact(*args):
        raise AssertionError("an exact compare was reached")

    monkeypatch.setattr(geometry, "compare", no_exact)
    monkeypatch.setattr(attractor, "compare", no_exact)
    for k in (-2, 0, 3):
        lo, hi = _image(frame, frame.vector(powers[0] * k))
        assert image_ceil(7 * lo, 7 * hi, frame.unit) == (7 * k, False)
    for n in (1, 5, 30):
        vec = frame.vector(powers[n])
        view = CornerRegion(frame, frame.pack(vec), 0, ())
        hole = HoleRegion(frame, frame.pack(vec), 0, ())
        assert not hole_meets_region(hole, view)
    # In increasing order, each value twice: a tie is one lane group.
    values = [powers[0] * -2, powers[0] * 0, powers[30], powers[5], powers[1], powers[0] * 3]
    groups = [frame.pack(frame.vector(x)) for x in values]
    _, ranks = attractor._rank(frame, groups[::-1] + groups)
    assert [ranks[g] for g in groups] == list(range(len(values)))


RANKED = ["omega2", "omega3", "lambda0", "lambda-star", "59/100", "13/20"]


@st.composite
def value_sets(draw):
    """Values of one frame: zero, and per drawn scalar x also x itself
    again and x +- lam^k, whose images straddle x's for large k."""
    name = draw(st.sampled_from(RANKED))
    powers = FRAMES[name][1]
    values = [powers[0] * 0]
    for _ in range(draw(st.integers(1, 4))):
        x = draw(scalars(name))[1]
        step = powers[draw(st.integers(0, MAX_POWER))]
        values += [x, x + step, x - step, x]
    return name, values


def _rank_checked(name, values):
    """``_rank`` of the values' lane groups, checked against the exact
    order; returns how many exact compares it took, each on a straddle."""
    frame = FRAMES[name][0]
    groups = [frame.pack(frame.vector(x)) for x in values]
    straddles = []

    def straddle(x, y):
        (xlo, xhi), (ylo, yhi) = _image(frame, frame.vector(x)), _image(frame, frame.vector(y))
        assert xhi >= ylo and xlo < yhi and frame.vector(x) != frame.vector(y)
        straddles.append((x, y))
        return compare(x, y)

    with mock.patch.object(geometry, "compare", straddle):
        images, ranks = attractor._rank(frame, groups)
    assert set(ranks) == set(groups) and all(images[g] == _image(frame, frame.unpack(g))
                                              for g in groups)
    # Ranks are the sorted positions of the distinct lane groups.
    assert sorted(ranks.values()) == list(range(len(set(groups))))
    for g, x in zip(groups, values):
        for h, y in zip(groups, values):
            assert (ranks[g] > ranks[h]) - (ranks[g] < ranks[h]) == compare(x, y)
    return len(straddles)


@settings(max_examples=100, deadline=None)
@given(value_sets())
def test_ranks_follow_the_exact_order(case):
    _rank_checked(*case)


@pytest.mark.parametrize("name,straddles", [
    ("omega2", True), ("omega3", True), ("lambda0", True),
    ("lambda-star", False), ("59/100", False), ("13/20", False),
])
def test_ranks_compare_only_straddling_images(name, straddles):
    # At omega_m and lambda0 the vector of lam^80 is large, so its image
    # straddles 0 and 1 - lam^80's straddles 1.  At lambda-star the powers'
    # vectors stay small and the images separate; a rational's are exact.
    powers = FRAMES[name][1]
    one, tiny = powers[0], powers[MAX_POWER]
    compares = _rank_checked(name, [one * 0, tiny, -tiny, one, one - tiny, one + tiny, tiny])
    assert (compares > 0) == straddles


def test_integer_valued_vector_reaches_the_exact_path():
    # At the root phi of (x^2 - 2)(x^2 - x - 1) near the golden ratio the
    # polynomial is reducible, so phi^2 - phi is the integer 1 although its
    # vector is not constant: no image may decide it.
    phi = AlgebraicNumber([2, 2, -3, -1, 1], Fraction(3, 2), Fraction(17, 10))
    lam = phi.as_scalar()
    frame = VectorFrame(lam, [lam])
    one = (0, -1, 1, 0)
    lo, hi = _image(frame, one)
    assert image_ceil(lo, hi, frame.unit) is None
    with pytest.raises(PrecisionExhausted):
        scalar_ceil(frame.scalar(one))
    hole = HoleRegion(frame, frame.pack((1, 0, 0, 0)), 0, ())
    with pytest.raises(PrecisionExhausted):
        hole_meets_region(hole, CornerRegion(frame, frame.pack(one), 0, ()))


# ----------------------------------------------------------------------
# generic-scalar reference


def ref_levels(lam, d, depth):
    """Levels 0..depth as lists of (bounds, word), deduplicated by exact
    bounds in word order of first appearance, with the steps used."""
    zero = lam - lam
    levels = [[((zero,) * (d + 1), ())]]
    steps = []
    step = 1 - lam
    for _ in range(depth):
        index = {}
        for bounds, word in levels[-1]:
            for digit in range(d + 1):
                child = tuple(b + step if j == digit else b
                              for j, b in enumerate(bounds))
                index.setdefault(child, word + (digit,))
        levels.append(list(index.items()))
        steps.append(step)
        step = step * lam
    return levels, steps


def ref_meets(upper, lower):
    return (all(compare(l, u) < 0 for l, u in zip(lower, upper))
            and compare(sum(lower), 1) <= 0 and compare(sum(upper), 1) > 0)


def ref_classify(lam, d, n):
    """(candidate words, genuine words, violations as word pairs)."""
    levels, steps = ref_levels(lam, d, n + 1)
    known = [dict(level) for level in levels]
    candidates = []
    genuine = []
    violations = []
    for bounds, word in levels[n]:
        upper = tuple(b + steps[n] for b in bounds)
        if compare(sum(upper), 1) <= 0:
            continue
        candidates.append(word)
        hits = []
        stack = [(0, levels[0][0][0])]
        while stack:
            k, lower = stack.pop()
            if not ref_meets(upper, lower):
                continue
            if k == n + 1:
                hits.append(known[k][lower])
                continue
            stack.extend(
                (k + 1, tuple(b + steps[k] if j == digit else b
                              for j, b in enumerate(lower)))
                for digit in range(d + 1)
            )
        if hits:
            # a region reached by two words is one hit
            violations.extend((word, hit) for hit in sorted(set(hits)))
        else:
            genuine.append(word)
    return candidates, genuine, violations


def _cells(r, total):
    i, j = np.meshgrid(np.arange(r), np.arange(r), indexing="ij")
    keep = i + j <= total
    i, j = i[keep], j[keep]
    return i, j, total - i - j


def ref_area(lam, n, r):
    """Cell counts (lo, hi) of the level-n set on the r-grid: a cell counts
    toward lo when one region contains it and toward hi when it meets one
    open region with positive area."""
    up = _cells(r, r - 1)
    down = _cells(r, r - 2)
    up_lo = np.zeros(len(up[0]), bool)
    up_hi = np.zeros(len(up[0]), bool)
    dn_lo = np.zeros(len(down[0]), bool)
    dn_hi = np.zeros(len(down[0]), bool)
    levels, _ = ref_levels(lam, 2, n)
    for bounds, _ in levels[n]:
        rl = [r * b for b in bounds]
        ceil = [scalar_ceil(x)[0] for x in rl]
        floor = [c - (compare(x, c) != 0) for x, c in zip(rl, ceil)]
        up_lo |= np.all([up[t] >= ceil[t] for t in range(3)], axis=0)
        dn_lo |= np.all([down[t] >= ceil[t] for t in range(3)], axis=0)
        dn_hi |= np.all([down[t] >= floor[t] for t in range(3)], axis=0)
        # An upward cell with idx >= floor meets the open region unless
        # exactly two coordinates a, b sit below their ceilings and
        # r (L_a + L_b) >= C_a + C_b - 1.
        short = np.array([up[t] < ceil[t] for t in range(3)])
        meets = np.all([up[t] >= floor[t] for t in range(3)], axis=0)
        for a, b, t in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            if compare(rl[a] + rl[b], ceil[a] + ceil[b] - 1) >= 0:
                meets &= ~(short[a] & short[b] & ~short[t])
        up_hi |= meets
    cells = r * r
    return (Fraction(int(up_lo.sum() + dn_lo.sum()), cells),
            Fraction(int(up_hi.sum() + dn_hi.sum()), cells))


REFERENCE_CASES = [
    ("omega2", 5), ("omega3", 5), ("omega4", 5), ("lambda-star", 4),
    ("59/100", 5), ("13/20", 5), ("lambda0", 6),
]


@pytest.mark.parametrize("name,n_max", REFERENCE_CASES,
                         ids=[c[0] for c in REFERENCE_CASES])
def test_level_loops_match_the_generic_scalar_reference(name, n_max):
    base = BASES[name]
    lam = as_scalar(base)
    levels, _ = ref_levels(lam, 2, n_max)
    for n in range(n_max + 1):
        level = build_level(base, 2, n)
        assert [r.word for r in level.regions] == [w for _, w in levels[n]]
        assert [r.bounds for r in level.regions] == [b for b, _ in levels[n]]

        report = classify_holes(base, 2, n)
        candidates, genuine, violations = ref_classify(lam, 2, n)
        assert [h.word for h in report.candidates] == candidates
        assert [h.word for h in report.genuine] == genuine
        assert [(h.word, r.word) for h, r in report.violations] == violations

        assert estimate_area(base, 2, n, 64) == ref_area(lam, n, 64)


@pytest.mark.parametrize("base", [BASES["omega2"], Fraction(3, 5)],
                         ids=["omega2", "3/5"])
def test_descent_matches_the_reference_in_three_dimensions(base):
    # At d = 3 a child's last digit, the one bound the descent tests below
    # the root, ranges over 0..3.
    lam = as_scalar(base)
    for n in range(4):
        report = classify_holes(base, 3, n)
        candidates, genuine, violations = ref_classify(lam, 3, n)
        assert [h.word for h in report.candidates] == candidates
        assert [h.word for h in report.genuine] == genuine
        assert [(h.word, r.word) for h, r in report.violations] == violations


SCAN_BASES = {
    "lambda0": lambda: isolate_root([-1, 1, 1, 0, 1], (Fraction(1, 2), Fraction(2, 3))),
    "lambda-star": lambda_star,
    "omega2": lambda: multinacci(2),
    "omega3": lambda: multinacci(3),
    "omega4": lambda: multinacci(4),
}


@pytest.mark.parametrize("name", list(SCAN_BASES))
def test_scan_on_one_tree_matches_per_level_classification(name):
    # The scan classifies every level on one tree; classifying each level
    # on its own build, as classify_holes does, must give the same first
    # violation and leave lambda refined exactly as far.
    n_max = 6
    alone = SCAN_BASES[name]()
    expected = ConsistentUpTo(n_max=n_max)
    for n in range(n_max + 1):
        report = classify_holes(alone, 2, n)
        if report.violations:
            expected = Violation(word=report.violations[0][0].word, level=n)
            break
    shared = SCAN_BASES[name]()
    assert check_total_self_similarity(shared, 2, n_max) == expected
    assert shared.generation == alone.generation
    # The multinacci ratios are consistent; lambda0 and lambda* are not.
    assert name.startswith("omega") == (expected == ConsistentUpTo(n_max=n_max))


def test_scan_returns_an_early_violation_below_the_word_cap():
    # Level 4 is within 3^5 words: the violation at n = 3 comes back
    # although level 21 of n_max = 20 would be far over the cap.
    verdict = check_total_self_similarity(Fraction(59, 100), 2, 20, max_words=3**5)
    assert verdict == Violation(word=(0, 1, 1), level=3)
    with pytest.raises(ResourceLimit, match="729 words at level 6 exceed the cap 243"):
        check_total_self_similarity(multinacci(2), 2, 20, max_words=3**5)


# Ratios p/q with q <= 70, and dyadic ones, at which r L_j is an integer
# whenever 2^(kn) divides r.  At a rational ratio two coordinates never tie
# in the corner test: for each prime l of q the l-adic valuation of q^n L_j
# is set by the last digit position of j alone, so of two fractional r L_a,
# r L_b the one of lower valuation keeps r (L_a + L_b) fractional.
GRID_RATIOS = st.one_of(
    st.integers(2, 70).flatmap(
        lambda q: st.builds(Fraction, st.integers(1, q - 1), st.just(q))),
    st.integers(1, 6).flatmap(
        lambda k: st.builds(Fraction, st.integers(1, 2**k - 1), st.just(2**k))),
    st.sampled_from([Fraction(1, 2), Fraction(2, 3)]),
)


@settings(max_examples=40, deadline=None)
@given(GRID_RATIOS, st.integers(0, 6),
       st.one_of(st.integers(64, 300), st.sampled_from([64, 128, 243, 256])))
@example(Fraction(1, 2), 6, 64)     # every region exactly one cell
@example(Fraction(2, 3), 5, 243)    # every r L_j an integer
@example(Fraction(1, 3), 6, 300)    # sub-cell regions, T < 0
@example(Fraction(3, 4), 4, 96)     # two-deficient corner cells
def test_grid_kernel_matches_the_reference_at_rationals(lam, n, r):
    assert estimate_area(lam, 2, n, r) == ref_area(lam, n, r)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_grid_kernel_matches_the_reference_at_multinacci_ratios(m):
    base = multinacci(m)
    lam = as_scalar(base)
    for n in range(8):
        assert estimate_area(base, 2, n, 256) == ref_area(lam, n, 256)


@pytest.mark.parametrize("make,n,r", [(lambda: multinacci(2), 6, 97),
                                      (lambda_star, 4, 128)],
                         ids=["omega2", "lambda-star"])
def test_grid_kernel_exact_fallbacks_give_the_same_bracket(make, n, r, monkeypatch):
    expected = estimate_area(make(), 2, n, r)
    calls = {"ceil": 0, "compare": 0, "coordinate": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(attractor, "image_ceil", lambda *args: None)
    monkeypatch.setattr(attractor, "scalar_ceil",
                        counted("ceil", attractor.scalar_ceil))
    monkeypatch.setattr(attractor, "compare", counted("compare", attractor.compare))
    monkeypatch.setattr(attractor._Coordinates, "__missing__",
                        counted("coordinate", attractor._Coordinates.__missing__))
    assert estimate_area(make(), 2, n, r) == expected
    # Two ceilings per distinct coordinate, C and the E of its corner test;
    # the ceiling of C also says whether it is an integer.  The range check
    # of lam is the only compare: the corner tests themselves compare ints.
    assert calls["ceil"] > 0
    assert calls["ceil"] == 2 * calls["coordinate"]
    assert calls["compare"] == 1


def test_exact_corner_tie_is_not_below():
    # r L_a = lam + s and r L_b = 5 - lam are both fractional, and their
    # gaps sum to -1 + s for s = shift * lam^60.  With L_c = 1 - lam^n -
    # L_a - L_b the corner test g_a + g_b < -1 reads T + 1 < E_c, where
    # r (L_c + lam^n) = r - 5 - s: at the exact tie (s = 0) the corner cell
    # touches the region in one point and is not below.
    lam = as_scalar(multinacci(2))
    r, n = 100, 6
    tail = lam**n
    for shift in (0, 1, -1):
        la = (lam + shift * lam**60) * Fraction(1, r)
        lb = Fraction(5, r) - lam * Fraction(1, r)
        values = [la, lb, 1 - tail - la - lb, tail]
        frame = VectorFrame(lam, values)
        coordinates = attractor._Coordinates(frame, r, frame.vector(tail))
        a, b, c = (coordinates[frame.pack(frame.vector(x))] for x in values[:3])
        assert (a[:2], b[:2]) == ((1, True), (5, True))
        t = r - a[0] - b[0] - c[0]
        below = t + 1 < c[2]
        assert below == (compare(r * la + r * lb, a[0] + b[0] - 1) < 0) == (shift < 0)


def _stamps(level, r):
    """The (runs, origins) pairs of a level on the r-grid, one per run of
    its sorted codes."""
    return [(attractor._stamp(key, 2 * r), [code - base for code in codes])
            for key, base, codes in attractor._stamp_origins(level, r)]


def _tuple_key_origins(level, r):
    """The origin C_0 * 2r + 2 C_1 of every region per stamp key, gathered
    region by region under a tuple key: the reference for the summed
    codes of ``_stamp_origins``."""
    frame, vecs = level.regions.frame, level.regions.vecs
    span = frame.span
    mask = (1 << span) - 1
    coordinates = attractor._Coordinates(frame, r, frame.vector(level.lam ** level.n))
    origins = defaultdict(list)
    for vec in vecs:
        a = coordinates[vec & mask]
        b = coordinates[vec >> span & mask]
        c = coordinates[vec >> 2 * span]
        t = r - a[0] - b[0] - c[0]
        key = (
            t, a[1], b[1], c[1],
            t >= -1 and a[1] and b[1] and t + 1 < c[2],
            t >= -1 and a[1] and c[1] and t + 1 < b[2],
            t >= -1 and b[1] and c[1] and t + 1 < a[2],
        )
        origins[key].append(a[0] * 2 * r + 2 * b[0])
    return origins


LAYOUT_CASES = [
    ("omega2", multinacci(2), 9, 248),
    ("omega2", multinacci(2), 4, 97),
    ("omega3", multinacci(3), 7, 263),
    ("lambda-star", lambda_star(), 6, 64),
    ("35/59", Fraction(35, 59), 8, 256),
    ("1/2", Fraction(1, 2), 6, 64),
    ("2/3", Fraction(2, 3), 5, 243),
    ("1/3", Fraction(1, 3), 6, 300),
    ("3/4", Fraction(3, 4), 4, 96),
]


@pytest.mark.parametrize("name,base,n,r", LAYOUT_CASES,
                         ids=["%s-%d-%d" % (c[0], c[2], c[3]) for c in LAYOUT_CASES])
def test_every_stamp_run_lies_in_its_own_row_of_the_grid(name, base, n, r):
    # One int holds a side of the bit grid, so a run that spilled into the
    # next row, or off either end, would be counted without a trace.
    stride = 2 * r
    runs = 0
    for stamp, origins in _stamps(build_level(base, 2, n), r):
        for side, start, stop in stamp:
            # The bit grid's bias covers one row and one column before.
            assert start >= -stride - 2
            for origin in origins:
                first, last = origin + start, origin + stop - 1
                assert 0 <= first <= last < r * stride
                assert first // stride == last // stride
                runs += 1
    assert runs > 0


# Shallow levels on the coarsest grid and a fine one reach the widest
# fields: at n = 0 every E_j = r, which needs every bit of its field, and
# T = r.  With 1/2 a level-7 region at r = 64 has C_0 = r, so its origin
# 2r^2 needs every bit of the origin field; 1/3 at n = 6, r = 300 has T < 0.
GATHER_CASES = LAYOUT_CASES + [
    (name, base, n, r)
    for name, base in [("1/2", Fraction(1, 2)), ("2/3", Fraction(2, 3)),
                       ("3/4", Fraction(3, 4)), ("9/10", Fraction(9, 10)),
                       ("omega3", multinacci(3)), ("lambda-star", lambda_star())]
    for n in (0, 1) for r in (64, 2048)
] + [("1/2", Fraction(1, 2), 7, 64)]


@pytest.mark.parametrize("name,base,n,r", GATHER_CASES,
                         ids=["%s-%d-%d" % (c[0], c[2], c[3]) for c in GATHER_CASES])
def test_summed_codes_gather_the_origins_of_the_tuple_keys(name, base, n, r):
    # A field too narrow carries into the next one up: a region lands on a
    # wrong key, or its origin is read off short.
    level = build_level(base, 2, n)
    gathered = defaultdict(Counter)
    for key, offset, codes in attractor._stamp_origins(level, r):
        origins = [code - offset for code in codes]
        assert origins == sorted(origins)
        gathered[key].update(origins)
    want = _tuple_key_origins(level, r)
    assert gathered.keys() == want.keys()
    for key, origins in want.items():
        assert gathered[key] == Counter(origins), key


WRITER_CASES = [
    ("omega2", multinacci(2), 9, 248),
    ("omega3", multinacci(3), 7, 97),
    ("lambda-star", lambda_star(), 6, 128),
    ("35/59", Fraction(35, 59), 8, 256),
    ("1/3", Fraction(1, 3), 6, 300),
]


def _slice_counts(stamps, r):
    """(contained, meeting) counts of the cells that the ``(runs,
    origins)`` pairs cover, each region's runs written as slices into one
    byte a cell."""
    cells = bytearray(2 * r * r), bytearray(2 * r * r)
    for runs, origins in stamps:
        for origin in origins:
            for side, start, stop in runs:
                cells[side][origin + start:origin + stop] = b"\1" * (stop - start)
    return cells[0].count(1), cells[1].count(1)


@pytest.mark.parametrize("name,base,n_max,r", WRITER_CASES, ids=[c[0] for c in WRITER_CASES])
def test_bit_grid_counts_the_cells_its_runs_cover(name, base, n_max, r):
    for n in range(n_max + 1):
        level = build_level(base, 2, n)
        assert attractor._grid_counts(level, r) == _slice_counts(_stamps(level, r), r)


@pytest.mark.parametrize("r,n_max", [(1021, 3), (2048, 1)])
@pytest.mark.parametrize("base", [multinacci(2), Fraction(3, 5)], ids=["omega2", "3/5"])
def test_grid_matches_the_reference_at_fine_resolutions(base, r, n_max):
    # Runs here are up to 2r cells long, far beyond a machine word.  Each
    # run is a few whole-grid int operations, about 0.1 ms apiece at
    # r = 2048, and the shallow levels have a thousand runs or more per
    # key, so r = 2048 stops at level 1.
    lam = as_scalar(base)
    for n in range(n_max + 1):
        assert estimate_area(base, 2, n, r) == ref_area(lam, n, r)


# ----------------------------------------------------------------------
# packed lanes


def _level_frame(base, depth):
    """The frame ``_levels`` makes for ``depth`` levels, and its steps."""
    lam = as_scalar(base)
    steps = [(1 - lam) * lam**k for k in range(depth)]
    return VectorFrame(lam, steps), steps


LANE_BASES = {
    "omega2": multinacci(2),
    "omega3": multinacci(3),
    "lambda-star": lambda_star(),
    "1000003/1700021": Fraction(1000003, 1700021),
}


@pytest.mark.parametrize("name", sorted(LANE_BASES))
@pytest.mark.parametrize("d,n", [(2, 0), (2, 6), (3, 5)])
def test_pack_round_trips_at_the_extreme_lane_values(name, d, n):
    # The hole of the word j^n has bound j = every step of positions
    # 0..n-1 plus the hole width, the step of position n, and the width on
    # every other bound: the largest sums a level frame's lanes take.
    frame, steps = _level_frame(LANE_BASES[name], n + 1)
    zero = frame.pack((0,) * ((d + 1) * frame.deg))
    width = tuple(frame.vector(steps[n]))
    total = tuple(frame.vector(sum(steps[1:], steps[0])))
    for sign in (1, -1):
        for j in range(d + 1):
            bounds = [width] * (d + 1)
            bounds[j] = total
            vec = tuple(sign * c for b in bounds for c in b)
            packed = frame.pack(vec)
            assert frame.unpack(packed) == vec
            for i in range(d + 1):
                part = vec[i * frame.deg:(i + 1) * frame.deg]
                assert frame.lanes(packed, i) == frame.pack(part)
            # The same vector as the level loops make it: one add of a
            # step's delta per digit, its packed vector less the bias of
            # its lanes, shifted to the digit's bound.
            made = zero
            for k, step in enumerate(steps):
                step_vec = frame.vector(sign * step)
                raw = frame.pack(step_vec) - frame.pack((0,) * frame.deg)
                for i in range(d + 1) if k == n else (j,):
                    assert frame.delta(step_vec, i) == raw << (i * frame.span)
                    made += frame.delta(step_vec, i)
            assert made == packed
            assert frame.images(frame.unpack(made)) == frame.images(vec)
    # A lane holds magnitudes below 2^(width - 1) and no more.
    top = 1 << (frame.width - 1)
    assert max(map(abs, total)) < top
    frame.pack((top - 1, 1 - top))
    with pytest.raises(OverflowError):
        frame.pack((0, top))


LANE_CASES = [
    ("omega2-d3", multinacci(2), 3, 5),
    ("omega3-d3", multinacci(3), 3, 4),
    ("omega3", multinacci(3), 2, 6),
    ("lambda-star", lambda_star(), 2, 5),
    ("1000003/1700021", Fraction(1000003, 1700021), 2, 5),
]


@pytest.mark.parametrize("name,base,d,n", LANE_CASES, ids=[c[0] for c in LANE_CASES])
def test_packed_level_loops_match_the_reference_where_lanes_are_wide(name, base, d, n):
    # Negative coefficients (omega_3, lambda*), a denominator above 1
    # (lambda*), lanes of more than 80 bits (a rational with a seven-digit
    # denominator) and four bounds a region (d = 3).
    lam = as_scalar(base)
    levels, _ = ref_levels(lam, d, n)
    level = build_level(base, d, n)
    assert [r.word for r in level.regions] == [w for _, w in levels[n]]
    assert [r.bounds for r in level.regions] == [b for b, _ in levels[n]]
    if name == "1000003/1700021":
        assert level.regions[0].frame.width > 80
    report = classify_holes(base, d, n - 1)
    candidates, genuine, violations = ref_classify(lam, d, n - 1)
    assert [h.word for h in report.candidates] == candidates
    assert [h.word for h in report.genuine] == genuine
    assert [(h.word, r.word) for h, r in report.violations] == violations
    if d == 2:
        assert estimate_area(base, 2, n, 64) == ref_area(lam, n, 64)


@pytest.mark.parametrize("lam,depth", [(Fraction(40, 61), 10), (Fraction(16, 31), 12),
                                       (Fraction(13, 24), 13)])
def test_packed_vectors_of_a_level_hash_apart(lam, depth):
    # These frames want 61-bit lanes.  An int hashes modulo 2^61 - 1 on
    # 64-bit builds, where a 61-bit lane shift is the identity, so each
    # vector would hash to its lanes' sum, which all regions of a level
    # share, and the dedup dict in _levels would go quadratic.
    for k, (frame, vecs, _, _) in enumerate(attractor._levels(lam, 2, depth)):
        assert len(set(map(hash, vecs))) == len(vecs)
        if k == 6:
            break
