"""Level sets, hole verdicts, and measured views against closed forms.

Area oracles used here: with full self-similarity the level-n normalized
area is 1 - (2-3L)^2 * sum_{k<n} c_k L^(2k) with c_k the distinct-piece
count at level k; past the golden ratio only the three extreme holes per
level survive, giving c_0 = 1 and c_k = 3.  Both are evaluated exactly
and must land inside the grid brackets.
"""

import math
import tracemalloc
import xml.dom.minidom
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest

from goldengasket import attractor
from goldengasket.attractor import (
    ConsistentUpTo,
    Violation,
    box_dimension_estimate,
    build_level,
    check_total_self_similarity,
    classify_holes,
    estimate_area,
    render_svg,
    RenderOptions,
)
from goldengasket.errors import DomainError, PrecisionExhausted, ResourceLimit
from goldengasket.exact import (
    AlgebraicNumber,
    as_scalar,
    compare,
    isolate_root,
    lambda_star,
    multinacci,
    tau,
)
from goldengasket.geometry import CornerRegion, HoleRegion, hole_region
from goldengasket.words import u_sequence

W2 = multinacci(2)
W3 = multinacci(3)
W4 = multinacci(4)
# Root of x^3 - x^2 + 2x - 1 between omega_3 and omega_2, where words merge
# (lam + lam^2 + lam^4 = 1) and holes are violated.
LAM0 = isolate_root([-1, 1, 1, 0, 1], (Fraction(1, 2), Fraction(2, 3)))


# ----------------------------------------------------------------------
# level sets

def test_dedup_counts_match_piece_sequence():
    u = u_sequence(7)
    for n in range(8):
        level = build_level(W2, 2, n)
        assert len(level) == u[n]
        assert level.n == n and level.d == 2


@pytest.mark.parametrize("lam", [Fraction(59, 100), Fraction(33, 50)])
def test_no_coincidences_at_generic_rationals(lam):
    for n in range(6):
        assert len(build_level(lam, 2, n)) == 3**n


def test_level_regions_dominate_parents():
    # Kept words extend kept words, and bounds only grow along the way.
    parents = {r.word: r for r in build_level(W2, 2, 3).regions}
    for child in build_level(W2, 2, 4).regions:
        parent = parents[child.word[:3]]
        assert all(compare(c, p) >= 0 for c, p in zip(child.bounds, parent.bounds))


@pytest.mark.parametrize("lam,depth", [(W2, 7), (LAM0, 6)],
                         ids=["omega2", "lambda0"])
def test_levels_hang_each_region_under_its_maker(lam, depth):
    levels = list(attractor._levels(as_scalar(lam), 2, depth))
    assert levels[0][2] is None and levels[0][3] is None
    merged = False
    for k, ((_, parents, _, _), (frame, vecs, starts, digits)) in enumerate(
            zip(levels, levels[1:])):
        # The makers' ranges cover the level once, in order.
        assert len(starts) == len(parents) + 1
        assert starts[0] == 0 and starts[-1] == len(vecs) == len(digits)
        makers = build_level(lam, 2, k).regions
        regions = build_level(lam, 2, k + 1).regions
        assert [reg.bounds for reg in regions] == [
            frame.scalars(frame.unpack(vec)) for vec in vecs]
        for maker, a, b in zip(makers, starts, starts[1:]):
            assert a <= b
            assert [reg.word for reg in regions[a:b]] == [
                maker.word + (digit,) for digit in digits[a:b]]
            merged |= b - a < 3
    assert merged


@pytest.mark.parametrize("lam,d,depth", [
    (W2, 2, 7), (LAM0, 2, 6), (lambda_star(), 2, 6), (Fraction(3, 5), 2, 5), (W2, 3, 4),
], ids=["omega2", "lambda0", "lambda-star", "0.60", "omega2-d3"])
def test_levels_list_their_regions_in_word_order(lam, d, depth):
    # classify_holes sweeps the tree a level at a time and reports each
    # candidate's violations in the order level n+1 lists its regions.
    for k in range(depth + 1):
        words = [reg.word for reg in build_level(lam, d, k).regions]
        assert words == sorted(words)


def counted_views(monkeypatch):
    """A list that collects each CornerRegion view made from here on."""
    made = []
    init = CornerRegion.__init__

    def counted(self, frame, vec, level, word, image=None):
        made.append(word)
        init(self, frame, vec, level, word, image)

    monkeypatch.setattr(CornerRegion, "__init__", counted)
    return made


def test_area_and_counts_make_no_views(monkeypatch):
    made = counted_views(monkeypatch)
    estimate_area(W2, 2, 8, 64)
    box_dimension_estimate(W2, 2, 8)
    level = build_level(W2, 2, 9)
    assert len(level.regions) == len(level) == 6777
    assert made == []


def test_level_regions_are_made_once_on_first_read(monkeypatch):
    made = counted_views(monkeypatch)
    level = build_level(W2, 2, 6)
    first = list(level.regions)
    assert len(made) == len(level) == len(first)
    assert list(level.regions) == first
    assert all(a is b for a, b in zip(level.regions, first))
    assert level.regions[-1] is first[-1] and len(made) == len(level)
    assert [reg.level for reg in first] == [6] * len(level)
    # Level sets compare and hash by their regions' exact bounds.
    assert build_level(W2, 2, 3) == build_level(W2, 2, 3)
    assert hash(build_level(W2, 2, 3)) == hash(build_level(W2, 2, 3))
    assert build_level(W2, 2, 3) != build_level(Fraction(3, 5), 2, 3)


def test_growth_ratio_tracks_reciprocal_root():
    a7 = len(build_level(W2, 2, 7))
    a8 = len(build_level(W2, 2, 8))
    target = 1 / float(tau(2, 2).as_scalar())
    assert abs(a8 / a7 - target) / target < 0.10


def test_build_level_validation():
    with pytest.raises(DomainError):
        build_level(Fraction(0), 2, 2)
    with pytest.raises(DomainError):
        build_level(Fraction(3, 5), 2, -1)
    with pytest.raises(DomainError):
        build_level(Fraction(3, 5), 0, 2)


@pytest.mark.parametrize("call,match", [
    (lambda: classify_holes(Fraction(3, 5), True, True), "simplex dimension"),
    (lambda: classify_holes(Fraction(3, 5), 2, True), "level must be"),
    (lambda: build_level(Fraction(3, 5), 2, False), "level must be"),
    (lambda: check_total_self_similarity(Fraction(3, 5), True, 4), "simplex dimension"),
    (lambda: box_dimension_estimate(Fraction(3, 5), True, 4), "simplex dimension"),
], ids=["holes", "holes-level", "level", "selfsim", "boxdim"])
def test_bool_sizes_are_refused(call, match):
    # bool is an int: True would run as 1 and come back in the report.
    with pytest.raises(DomainError, match=match):
        call()


def test_word_cap_limits_enumeration(monkeypatch):
    assert len(build_level(W2, 2, 5, max_words=243)) == 162
    with pytest.raises(ResourceLimit):
        classify_holes(W2, 2, 4, max_words=100)
    # the cap is a parameter only: the environment is never read
    monkeypatch.setenv("GASKET_MAX_WORDS", "100")
    assert len(build_level(W2, 2, 5)) == 162


@pytest.mark.parametrize("call", [
    lambda cap: build_level(Fraction(3, 5), 2, 2, max_words=cap),
    lambda cap: classify_holes(Fraction(3, 5), 2, 2, max_words=cap),
    lambda cap: check_total_self_similarity(Fraction(3, 5), 2, 2, max_words=cap),
    lambda cap: check_total_self_similarity(Fraction(3, 5), 1, 2, max_words=cap),
    lambda cap: estimate_area(Fraction(3, 5), n=2, max_words=cap),
    lambda cap: box_dimension_estimate(Fraction(3, 5), n=4, max_words=cap),
], ids=["level", "holes", "selfsim", "selfsim-d1", "area", "boxdim"])
def test_word_cap_below_one_is_refused_as_a_domain_error(call):
    # The CLI rejects --max-words below 1 as a usage error; the library
    # refuses the same caps as bad input, not as a level too large.
    for cap in (0, -5):
        with pytest.raises(DomainError, match="max_words must be >= 1"):
            call(cap)


@pytest.mark.xfail(strict=True, raises=(AssertionError, PrecisionExhausted),
                   reason="a base on a reducible polynomial keeps equal values apart "
                          "(ROADMAP item 11)")
def test_reducible_polynomial_gives_the_minimal_polynomial_verdicts():
    # omega_2 isolated on (x^2 + x - 1)(x^2 - 3): equal values have
    # different reduced coefficients, so dedup keeps them apart and the
    # sign of a zero combination never settles.
    w = AlgebraicNumber([3, -3, -4, 1, 1], Fraction(1, 2), Fraction(3, 4))
    assert len(build_level(w, 2, 3)) == len(build_level(W2, 2, 3)) == 24
    assert len(build_level(w, 2, 7)) == len(build_level(W2, 2, 7)) == 1053
    got, want = classify_holes(w, 2, 3), classify_holes(W2, 2, 3)
    assert [h.word for h in got.genuine] == [h.word for h in want.genuine]


# ----------------------------------------------------------------------
# holes

def test_holes_all_genuine_at_golden_ratio():
    rep = classify_holes(W2, 2, 2)
    assert len(rep.candidates) == 9
    assert rep.genuine == rep.candidates
    assert rep.violations == ()


def test_holes_violated_past_golden_ratio():
    rep = classify_holes(Fraction(59, 100), 2, 3)
    assert len(rep.candidates) == 27
    assert len(rep.genuine) == 21
    assert len(rep.violations) == 6
    assert rep.violating_holes()[0].word == (0, 1, 1)
    assert set(rep.genuine) | {h for h, _ in rep.violations} == set(rep.candidates)


@pytest.mark.parametrize("lam,tests,violations",
                         [(W2, 1773, 0), (LAM0, 3112, 270)],
                         ids=["omega2", "lambda0"])
def test_classify_holes_tests_each_pair_once(lam, tests, violations, swept_pairs):
    # Every (hole, region) pair the sweep decides is decided once: the
    # root's full test, then each child's rank compare in _descend.  Only
    # one hole per orbit of the vertex permutations is swept, so the other
    # members' pairs are not decided but permuted.
    rep = classify_holes(lam, 2, 6)
    assert len(swept_pairs) == len(set(swept_pairs)) == tests
    pairs = [(h.word, r.word) for h, r in rep.violations]
    assert len(pairs) == len(set(pairs)) == violations


@pytest.mark.parametrize("lam,n", [(LAM0, 6), (Fraction(40, 61), 5), (Fraction(59, 100), 4)],
                         ids=["lambda0", "40-61", "0.59"])
def test_hole_report_lists_pairs_in_word_order(lam, n):
    rep = classify_holes(lam, 2, n)
    pairs = [(h.word, r.word) for h, r in rep.violations]
    assert pairs and pairs == sorted(pairs)
    violating = set(rep.violating_holes())
    assert [h for h in rep.candidates if h not in violating] == list(rep.genuine)
    assert [h for h in rep.candidates if h in violating] == list(rep.violating_holes())


def _classify_unreduced(lam, d, n, tree, words):
    """The hole sweep that sends every candidate down the region tree,
    kept as the reference of the sweep over one hole per orbit."""
    frame = tree[0][0]
    span, mask = frame.span, (1 << frame.span) - 1
    width = frame.delta(frame.vector((1 - lam) * lam**n) * (d + 1))
    tops = [vec + width for vec in tree[n][1]]
    uppers = [tuple(top >> j * span & mask for j in range(d + 1)) for top in tops]
    levels = tree[1:n + 2]
    raised = (vec >> b * span & mask
              for _, vecs, _, digits in levels for vec, b in zip(vecs, digits))
    images, ranks = attractor._rank(frame, chain(*uppers, raised))
    holes = [HoleRegion(frame, top, n, word, tuple(map(images.get, groups)))
             for top, word, groups in zip(tops, words, uppers)]
    root = CornerRegion(frame, tree[0][1][0], 0, ())
    ups = [tuple(map(ranks.get, groups)) for groups in uppers]
    pairs = [(h, 0) for h, hole in enumerate(holes) if attractor.hole_meets_region(hole, root)]
    for _, vecs, made, digits in levels:
        low = [ranks[vec >> b * span & mask] for vec, b in zip(vecs, digits)]
        pairs = attractor._descend(pairs, made, low, digits, ups)
    deeper = attractor._words([tree[n + 1][2:]], words) if pairs else ()
    views = {c: CornerRegion(frame, tree[n + 1][1][c], n + 1, deeper[c])
             for c in {c for _, c in pairs}}
    hit = {h for h, _ in pairs}
    return attractor.HoleReport(
        n=n, candidates=tuple(holes),
        genuine=tuple(hole for h, hole in enumerate(holes) if h not in hit),
        violations=tuple((holes[h], views[c]) for h, c in pairs))


def report_words(rep):
    return ([h.word for h in rep.candidates], [h.word for h in rep.genuine],
            [(h.word, r.word) for h, r in rep.violations])


def orbits(holes):
    """The number of holes in each orbit of the vertex permutations, keyed
    by the multiset of a hole's exact upper bounds."""
    return Counter(frozenset(Counter(h.bounds).items()) for h in holes)


@pytest.mark.parametrize("lam,d,n", [
    (W2, 2, 6), (W3, 2, 6), (W4, 2, 6), (LAM0, 2, 6), (lambda_star(), 2, 5),
    (Fraction(40, 61), 2, 6), (Fraction(37, 57), 2, 6), (Fraction(59, 100), 2, 5),
    (W2, 3, 4), (Fraction(3, 5), 3, 3),
], ids=["omega2", "omega3", "omega4", "lambda0", "lambda-star", "40-61", "37-57", "0.59",
        "omega2-d3", "0.60-d3"])
def test_orbit_sweep_matches_the_unreduced_sweep(lam, d, n, monkeypatch):
    # Same candidates, genuine holes and violations, pairs in the same
    # order, and the same first violation in the self-similarity scan.
    got = classify_holes(lam, d, n)
    verdict = check_total_self_similarity(lam, d, n)
    monkeypatch.setattr(attractor, "_classify", _classify_unreduced)
    want = classify_holes(lam, d, n)
    assert report_words(got) == report_words(want)
    assert got == want
    assert verdict == check_total_self_similarity(lam, d, n)


@pytest.mark.parametrize("lam,d,n,sizes,violating", [
    (W2, 2, 0, {1}, set()),
    (W2, 2, 6, {3, 6}, set()),
    (Fraction(40, 61), 2, 6, {3, 6}, {6}),
    (Fraction(3, 5), 2, 4, {3, 6}, {6}),
    (W2, 3, 0, {1}, set()),
    (W2, 3, 4, {4, 12, 24}, set()),
    (Fraction(3, 5), 3, 4, {4, 12, 24}, {12, 24}),
], ids=["omega2-n0", "omega2", "40-61", "0.60", "omega2-d3-n0", "omega2-d3", "0.60-d3"])
def test_orbit_sweep_at_every_orbit_size(lam, d, n, sizes, violating, monkeypatch):
    # Level 0 has one hole, fixed by every permutation.  The hole of the
    # word 0^n is fixed by the swap of the other vertices: its orbit has
    # d + 1 members, and bounds that repeat match either way.  A violating
    # orbit of 12 at d = 3 permutes its regions past a repeated bound.
    got = classify_holes(lam, d, n)
    size = orbits(got.candidates)
    assert set(size.values()) == sizes
    assert {size[key] for key in orbits(got.violating_holes())} == violating
    if n:
        radial = hole_region((0,) * n, lam, d)
        assert size[frozenset(Counter(radial.bounds).items())] == d + 1
    monkeypatch.setattr(attractor, "_classify", _classify_unreduced)
    want = classify_holes(lam, d, n)
    assert report_words(got) == report_words(want)
    assert got == want


def test_hole_sweep_makes_views_only_for_its_report(monkeypatch):
    made = counted_views(monkeypatch)
    rep = classify_holes(Fraction(40, 61), 2, 6)
    regions = [r for _, r in rep.violations]
    # The root's view, then one per violating region, which its pairs share.
    assert len(regions) == 2982
    assert made[0] == () and len(made) - 1 == len({id(r) for r in regions}) == 1566
    assert len({r.word for r in regions}) == 1566
    assert len(rep.violating_holes()) == 726


@pytest.mark.parametrize("lam,d,n", [
    (W2, 2, 4), (lambda_star(), 2, 3), (Fraction(59, 100), 2, 3),
    (Fraction(13, 20), 2, 3), (W2, 3, 2), (Fraction(3, 5), 3, 2),
], ids=["omega2", "lambda-star", "0.59", "0.65", "omega2-d3", "0.60-d3"])
def test_candidates_are_nonempty_holes(lam, d, n):
    # hole_meets_region trusts a candidate to be non-empty without a test.
    rep = classify_holes(lam, d, n)
    assert len(rep.candidates) > 0
    for h in rep.candidates:
        assert not h.is_empty()
        assert compare(sum(h.bounds), 1) > 0


def test_holes_empty_past_two_thirds(monkeypatch):
    # At lam >= d/(d+1) the central hole is empty, which one compare
    # decides before any level is built; in the scan's window that is
    # d = 1.  The word cap is still checked first.
    def no_levels(*args):
        raise AssertionError("a level was built")

    monkeypatch.setattr(attractor, "_levels", no_levels)
    rep = classify_holes(Fraction(7, 10), 2, 11)
    assert rep.candidates == () and rep.genuine == () and rep.violations == ()
    assert check_total_self_similarity(Fraction(3, 5), 1, 18) == ConsistentUpTo(n_max=18)
    with pytest.raises(ResourceLimit, match="^10460353203 words at level 21 exceed the cap 4782969$"):
        classify_holes(Fraction(7, 10), 2, 20)
    with pytest.raises(ResourceLimit, match="^1024 words at level 10 exceed the cap 1000$"):
        check_total_self_similarity(Fraction(3, 5), 1, 18, max_words=1000)


def test_hole_report_json_shape():
    rep = classify_holes(Fraction(59, 100), 2, 3)
    d = rep.as_json_dict(0.59)
    assert d["lambda"] == 0.59 and d["n"] == 3
    assert len(d["candidates"]) == 27
    assert all(set(v) == {"hole_word", "region_word"} for v in d["violations"])


def test_self_similarity_verdicts():
    assert check_total_self_similarity(Fraction(59, 100), 2, 6) == Violation(
        word=(0, 1, 1), level=3
    )
    assert check_total_self_similarity(W3, 2, 5) == ConsistentUpTo(n_max=5)
    assert check_total_self_similarity(W2, 2, 5) == ConsistentUpTo(n_max=5)


@pytest.mark.parametrize("lam", [Fraction(59, 100), Fraction(13, 20), Fraction(40, 61)],
                         ids=str)
def test_violations_propagate_upward(lam):
    # f_i is injective, so if hole w meets region v at level n, hole (i,)+w
    # meets region (i,)+v at level n+1.  The levels with violations are
    # therefore all those from the first one on, and that first level is
    # the one check_total_self_similarity reports.  A rational never merges
    # words, so every word names its own region.
    reports = [classify_holes(lam, 2, n) for n in range(7)]
    pairs = [{(h.word, r.word) for h, r in rep.violations} for rep in reports]
    for n in range(6):
        for w, v in pairs[n]:
            for i in range(3):
                assert ((i,) + w, (i,) + v) in pairs[n + 1]
    violating = [n for n in range(7) if pairs[n]]
    first = violating[0]
    assert violating == list(range(first, 7))
    verdict = check_total_self_similarity(lam, 2, 6)
    assert verdict == Violation(word=reports[first].violations[0][0].word, level=first)


def test_self_similarity_window():
    with pytest.raises(DomainError):
        check_total_self_similarity(Fraction(1, 2), 2, 3)
    with pytest.raises(DomainError):
        check_total_self_similarity(Fraction(7, 10), 2, 3)


# ----------------------------------------------------------------------
# area brackets

def mu_self_similar(lam, counts, n):
    lam = as_scalar(lam)
    acc = lam * 0
    pw = lam * 0 + 1
    for k in range(n):
        acc = acc + counts[k] * pw
        pw = pw * lam * lam
    return 1 - (2 - 3 * lam) ** 2 * acc


@pytest.mark.parametrize("n,r", [(2, 96), (4, 96), (4, 256), (6, 256)])
def test_area_bracket_at_golden_ratio(n, r):
    lo, hi = estimate_area(W2, 2, n, r)
    mu = mu_self_similar(W2, u_sequence(max(n - 1, 0)).values, n)
    assert compare(mu, lo) >= 0
    assert compare(mu, hi) <= 0


@pytest.mark.parametrize("n,r", [(2, 96), (4, 128)])
def test_area_bracket_past_golden_ratio(n, r):
    lam = Fraction(13, 20)
    lo, hi = estimate_area(lam, 2, n, r)
    mu = mu_self_similar(lam, (1,) + (3,) * max(n - 1, 0), n)
    assert lo <= mu <= hi


def test_area_bracket_tightens_with_resolution():
    lo96, hi96 = estimate_area(W2, 2, 4, 96)
    lo256, hi256 = estimate_area(W2, 2, 4, 256)
    assert hi256 - lo256 < hi96 - lo96


def test_area_monotone_in_level():
    prev = None
    for n in range(5):
        cur = estimate_area(W2, 2, n, 96)
        if prev is not None:
            assert cur[0] <= prev[0] and cur[1] <= prev[1]
        prev = cur


def test_area_exact_on_aligned_grid():
    # Non-overlapping tiling plus power-of-two pitch: both counts exact.
    for n, r in [(2, 64), (3, 64), (4, 128)]:
        lo, hi = estimate_area(Fraction(1, 2), 2, n, r)
        assert lo == hi == Fraction(3, 4) ** n


def test_area_full_simplex_without_holes():
    assert estimate_area(Fraction(7, 10), 2, 3, 64) == (1, 1)
    lo, hi = estimate_area(Fraction(2, 3), 2, 2, 96)
    assert hi == 1 and lo >= Fraction(766, 768)


def test_area_grid_memory_peak():
    # The grid holds one int code per region, sorted in place, and one run's
    # codes at a time: a warm call peaks near 2.5 MB here, against 2.24 MB
    # with origins gathered into one int array per key.
    estimate_area(W2, 2, 10, 256)
    tracemalloc.start()
    try:
        estimate_area(W2, 2, 10, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.8 * 10**6


def test_area_validation():
    with pytest.raises(DomainError):
        estimate_area(W2, 3, 2, 96)
    with pytest.raises(DomainError):
        estimate_area(W2, 2, 2, 32)
    with pytest.raises(DomainError):
        estimate_area(W2, 2, 2, 96.0)


# ----------------------------------------------------------------------
# box dimension

def test_box_dimension_exact_at_half():
    got = box_dimension_estimate(Fraction(1, 2), n=6)
    assert abs(got - math.log(3) / math.log(2)) < 1e-12


def test_box_dimension_frozen_slopes():
    assert abs(box_dimension_estimate(W2, n=8) - 1.956463940694707) < 1e-9
    assert abs(box_dimension_estimate(W3, n=8) - 1.736067540917485) < 1e-9


def test_box_dimension_validation():
    with pytest.raises(DomainError):
        box_dimension_estimate(W2, n=8, delta_range=[0.1])
    with pytest.raises(DomainError):
        box_dimension_estimate(W2, n=4, delta_range=[0.9, 0.0001])
    with pytest.raises(DomainError):
        # both scales round to the same cylinder level
        box_dimension_estimate(W2, n=8, delta_range=[0.23, 0.24])


@pytest.mark.parametrize("call,match", [
    (lambda: box_dimension_estimate(W2, n=8, delta_range=[0.5, 1.5]),
     "scales must lie in"),
    (lambda: render_svg(W2, d=3, n=2, path="unwritten.svg"), "planar case"),
], ids=["scale-above-one", "render-d3"])
def test_box_and_render_refusals(call, match, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(DomainError, match=match):
        call()
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# rendering

def test_render_deterministic(tmp_path):
    a = render_svg(W2, n=4, path=str(tmp_path / "a.svg"))
    b = render_svg(W2, n=4, path=str(tmp_path / "b.svg"))
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_render_is_wellformed_svg(tmp_path):
    out = render_svg(W2, n=3, path=str(tmp_path / "g.svg"))
    doc = xml.dom.minidom.parse(out)
    assert doc.documentElement.tagName == "svg"
    paths = doc.getElementsByTagName("path")
    assert len(paths) >= len(build_level(W2, 2, 3))


def test_render_overlays_add_paths(tmp_path):
    plain = render_svg(W2, n=3, path=str(tmp_path / "p.svg"))
    fancy = render_svg(
        W2,
        n=3,
        path=str(tmp_path / "f.svg"),
        options=RenderOptions(radial_holes=True, overlap_regions=True),
    )
    n_plain = xml.dom.minidom.parse(plain).getElementsByTagName("path").length
    n_fancy = xml.dom.minidom.parse(fancy).getElementsByTagName("path").length
    assert n_fancy > n_plain
