"""Addressing, rewriting, and counting, checked against brute force.

The counting oracles here enumerate all 3^n words and filter by the
forbidden-factor patterns directly; the library recurrences must agree.
Rewriting is checked against exact matrix equality rather than trusting
confluence of the rule.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldengasket import exact, words
from goldengasket.errors import DomainError, ResourceLimit
from goldengasket.exact import as_scalar, compare, multinacci, sigma
from goldengasket.geometry import image_region, vertex
from goldengasket.words import (
    UNIQUE_COUNT_CAP,
    canonical_word,
    count_unique_addresses,
    edge_address,
    gf_series_check,
    greedy_expansion,
    h_sequence,
    p_sequence,
    point_from_address,
    series_coefficients,
    u_sequence,
    unique_address_counts,
)
from goldengasket.words import _hexagon_counts


# ----------------------------------------------------------------------
# greedy expansions

rational_lam = st.fractions(min_value=Fraction(51, 100), max_value=Fraction(74, 100))
unit_x = st.fractions(min_value=0, max_value=1)


@settings(max_examples=150, deadline=None)
@given(rational_lam, unit_x)
def test_greedy_partial_sums_never_overshoot(lam, x):
    exp = greedy_expansion(lam, x, 12)
    partial = Fraction(0)
    pw = Fraction(1)
    for digit in exp.digits:
        pw *= lam
        if digit:
            partial += pw
            assert partial <= x
        else:
            # Greedy maximality: a refused power would have overshot.
            assert partial + pw > x
    assert exp.partial_sum() == partial


def test_greedy_rejects_bad_inputs():
    with pytest.raises(DomainError):
        greedy_expansion(Fraction(2, 5), Fraction(1, 2), 5)
    with pytest.raises(DomainError):
        greedy_expansion(Fraction(3, 5), Fraction(6, 5), 5)


def test_tail_convention_periodic_tails():
    w2 = multinacci(2)
    exp = greedy_expansion(w2, 1, 8, tail_convention=True)
    assert exp.digits == (1, 0, 1, 0, 1, 0, 1, 0)
    w3 = multinacci(3)
    exp = greedy_expansion(w3, 1, 9, tail_convention=True)
    assert exp.digits == (1, 1, 0, 1, 1, 0, 1, 1, 0)


@pytest.mark.parametrize("tail,calls", [(False, 16), (True, 17)])
def test_greedy_asks_one_compare_per_digit(tail, calls, monkeypatch):
    # Four range checks, then one compare per digit: the digit that ends
    # the expansion of 1 (at k = 2 for omega_2) reads that compare's sign,
    # and the tail convention asks once more whether x is 1.
    asked = []

    def spy(a, b):
        asked.append((a, b))
        return compare(a, b)

    monkeypatch.setattr(words, "compare", spy)
    exp = greedy_expansion(multinacci(2), 1, 12, tail_convention=tail)
    assert len(asked) == calls
    assert exp.digits == ((1, 0) * 6 if tail else (1, 1) + (0,) * 10)


def test_tail_convention_sums_back_to_one():
    w2 = multinacci(2)
    lam = w2.as_scalar()
    exp = greedy_expansion(w2, 1, 10, tail_convention=True)
    gap = 1 - exp.partial_sum()
    assert compare(gap, 0) > 0
    assert compare(gap, lam ** 10) <= 0


def test_partial_sum_prefix():
    exp = greedy_expansion(Fraction(3, 5), Fraction(4, 5), 6)
    full = exp.partial_sum()
    head = exp.partial_sum(upto=3)
    assert head <= full


# ----------------------------------------------------------------------
# addresses and edge tracking

def test_point_from_address_frozen():
    assert point_from_address((0, 1), Fraction(1, 2)) == (
        Fraction(7, 12),
        Fraction(1, 3),
        Fraction(1, 12),
    )


def test_point_from_address_needs_digits():
    with pytest.raises(DomainError):
        point_from_address((), Fraction(3, 5))


def test_point_from_address_stays_in_word_region():
    lam = Fraction(3, 5)
    for word in ((0,), (1, 2), (2, 0, 1)):
        p = point_from_address(word, lam)
        bounds = image_region(word, lam).bounds
        assert sum(p) == 1
        assert all(pj >= lj for pj, lj in zip(p, bounds))


@pytest.mark.parametrize("lam", [Fraction(3, 5), multinacci(2)], ids=["0.6", "omega2"])
@pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(17, 23), Fraction(1)])
def test_edge_address_region_contains_edge_point(lam, x):
    word = edge_address(x, lam, 8)
    assert set(word) <= {0, 1}
    e = (x, 1 - x, Fraction(0))
    for ej, lj in zip(e, image_region(word, lam).bounds):
        assert compare(ej, lj) >= 0


def test_edge_address_other_edge():
    word = edge_address(Fraction(1, 2), Fraction(3, 5), 6, edge=(2, 0))
    assert set(word) <= {0, 2}
    e = (Fraction(1, 2), Fraction(0), Fraction(1, 2))
    for ej, lj in zip(e, image_region(word, Fraction(3, 5)).bounds):
        assert compare(ej, lj) >= 0


def test_edge_address_domain_errors():
    with pytest.raises(DomainError):
        edge_address(Fraction(3, 2), Fraction(3, 5), 4)
    with pytest.raises(DomainError):
        edge_address(Fraction(1, 2), Fraction(2, 5), 4)


def test_vertex_address_is_constant_word():
    assert edge_address(Fraction(1), Fraction(3, 5), 5) == (0,) * 5
    assert edge_address(Fraction(0), Fraction(3, 5), 5) == (1,) * 5


# ----------------------------------------------------------------------
# rewriting vs exact matrix equality

def all_words(n):
    if n == 0:
        yield ()
        return
    for w in all_words(n - 1):
        for d in range(3):
            yield w + (d,)


def has_descending_factor(word, m):
    for pos in range(len(word) - m):
        i, j = word[pos], word[pos + 1]
        if i > j and all(word[pos + 1 + t] == j for t in range(m)):
            return True
    return False


@pytest.mark.parametrize("m", [2, 3])
def test_rewriting_is_sound(m):
    # Rewriting never changes the composed map.
    w = multinacci(m)
    for n in range(1, 6):
        for word in all_words(n):
            form = canonical_word(word, m)
            assert not has_descending_factor(form, m)
            assert image_region(form, w) == image_region(word, w)


@pytest.mark.parametrize("m", [2, 3])
def test_region_class_counts(m):
    # Normal forms can only overcount the geometric classes: the oriented
    # rule is terminating but not confluent (first split at depth 5).
    w = multinacci(m)
    for n in range(1, 7):
        regions = {image_region(word, w) for word in all_words(n)}
        forms = {canonical_word(word, m) for word in all_words(n)}
        assert len(regions) <= len(forms)
        if n <= 4:
            assert len(regions) == len(forms)
        if m == 2:
            assert len(regions) == u_sequence(n)[n]


def test_rewriting_not_confluent_at_depth_five():
    # Same map, two irreducible forms; joinable only through ascending
    # applications of the unoriented identity.
    w = multinacci(2)
    a, b = (1, 2, 0, 2, 2), (2, 1, 0, 1, 1)
    assert canonical_word(a, 2) != canonical_word(b, 2)
    assert image_region(a, w) == image_region(b, w)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), max_size=10).map(tuple),
       st.integers(min_value=2, max_value=4))
def test_canonical_word_idempotent(word, m):
    once = canonical_word(word, m)
    assert canonical_word(once, m) == once
    assert not has_descending_factor(once, m)


def test_canonical_word_rejects_small_m():
    with pytest.raises(DomainError):
        canonical_word((0, 1), 1)


# ----------------------------------------------------------------------
# counting sequences

def has_any_switch_run(word, m):
    # factor i j^m with i != j, either orientation
    for pos in range(len(word) - m):
        i, j = word[pos], word[pos + 1]
        if i != j and all(word[pos + 1 + t] == j for t in range(m)):
            return True
    return False


@pytest.mark.parametrize("m", [2, 3, 4])
def test_count_unique_addresses_brute(m):
    for n in range(1, 9):
        brute = sum(1 for w in all_words(n) if not has_any_switch_run(w, m))
        assert count_unique_addresses(m, n) == brute


@pytest.mark.parametrize("m", [2, 3, 5])
def test_unique_address_counts_in_one_pass(m):
    # Against the B recurrence summed afresh for every n.
    expected = []
    for n in range(1, 81):
        b = [1]
        for l in range(1, n):
            b.append(2 * sum(b[max(0, l - (m - 1)):l]))
        expected.append(3 * sum(b))
    assert list(unique_address_counts(m, 80)) == expected
    assert [count_unique_addresses(m, n) for n in (1, 2, 80)] == [
        expected[0], expected[1], expected[79]]


@pytest.mark.parametrize("m", range(2, 11))
def test_unique_address_counts_grow_by_sigmas_polynomial(m, monkeypatch):
    # c_n = 3 c_(n-1) - 2 c_(n-m), from n = m + 1 on.  Its reversed
    # polynomial 1 - 3t + 2t^m is the one sigma(m) isolates a root of, so
    # the unique-address growth and the piece counts' denominator share
    # sigma.
    recurrence = {1: 3, m: -2}
    counts = [None, *unique_address_counts(m, 60)]
    for n in range(m + 1, 61):
        assert counts[n] == sum(a * counts[n - i] for i, a in recurrence.items()), n
    reversed_poly = [1] + [-recurrence.get(i, 0) for i in range(1, m + 1)]
    asked = []
    isolate = exact.smallest_positive_root
    monkeypatch.setattr(exact, "smallest_positive_root",
                        lambda coeffs, *args, **kw: asked.append(coeffs) or isolate(coeffs, *args, **kw))
    root = as_scalar(sigma(m))
    assert asked == [reversed_poly]
    assert sum(c * root**k for k, c in enumerate(reversed_poly)) == 0


def test_unique_address_count_limits():
    # The cap is checked before any counting, so one past it fails at once.
    assert UNIQUE_COUNT_CAP == 10**5
    with pytest.raises(ResourceLimit):
        count_unique_addresses(30, UNIQUE_COUNT_CAP + 1)
    # A non-integer m is no run length; it must not be rounded to one.
    with pytest.raises(DomainError):
        count_unique_addresses(2.5, 6)


def test_unique_address_growth_rates():
    counts2 = [count_unique_addresses(2, n) for n in range(1, 17)]
    r2 = counts2[-1] / counts2[-2]
    assert abs(r2 - 2.0) < 0.05
    counts3 = [count_unique_addresses(3, n) for n in range(1, 19)]
    r3 = counts3[-1] / counts3[-2]
    assert abs(r3 - (1 + math.sqrt(3))) / (1 + math.sqrt(3)) < 0.03


def test_u_sequence_brute_at_golden_ratio():
    # Values already pinned geometrically above; spot-check the recurrence
    # seeds and one deeper term.
    u = u_sequence(8)
    assert u.values[:4] == (1, 3, 9, 24)
    assert u[6] == 3 * u[5] - 3 * u[3]


def test_h_sequence_frozen():
    assert h_sequence(3, 8).values == (0, 0, 0, 3, 6, 18, 48, 132, 360)
    assert h_sequence(2, 6).values == (0, 3, 6, 12, 24, 48, 96)


def test_h_sequence_at_two_is_indexed_one_step_ahead():
    # At m = 2 h_sequence counts by level; the h that p_sequence(2) sums is
    # indexed by contraction exponent, one step behind.
    for k in range(41):
        h = h_sequence(2, k).values
        assert len(h) == k + 1
        for i in range(k + 1):
            assert h[i] == _hexagon_counts(2, k + 1)[i + 1], (k, i)


def test_p_sequence_frozen():
    assert p_sequence(3, 8).values == (0, 0, 0, 3, 3, 9, 21, 60, 162)
    assert p_sequence(2, 8).values == (0, 0, 3, 3, 3, 6, 12, 24, 48)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_generating_functions_reproduce_recurrences(m):
    assert gf_series_check(m, 30)


def test_p_sequence_at_two_is_its_generating_function():
    # P(t) = 3t^2 + 3t^3 + 3t^4 / (1 - 2t) = (3t^2 - 3t^3 - 3t^4) / (1 - 2t),
    # the m = 2 case that gf_series_check leaves out.
    want = series_coefficients([0, 0, 3, -3, -3], [1, -2], 40)
    assert list(p_sequence(2, 40).values) == want


def test_gf_check_excludes_trapezoid_case():
    with pytest.raises(DomainError):
        gf_series_check(2, 10)


def test_series_coefficients_geometric():
    assert series_coefficients([1], [1, -1], 6) == [1] * 7
    assert series_coefficients([0, 1], [1, -1, -1], 8) == [0, 1, 1, 2, 3, 5, 8, 13, 21]
    with pytest.raises(DomainError):
        series_coefficients([1], [0, 1], 3)


def test_sequence_domain_errors():
    with pytest.raises(DomainError):
        u_sequence(-1)
    with pytest.raises(DomainError):
        h_sequence(1, 5)
    with pytest.raises(DomainError):
        p_sequence(5, -1)
    with pytest.raises(DomainError):
        count_unique_addresses(2, 0)


@pytest.mark.parametrize("call,match", [
    (lambda: h_sequence(3, -1), "k_max must be >= 0"),
    (lambda: p_sequence(1, 3), "m must be >= 2"),
    (lambda: h_sequence(2.5, 4), "m must be >= 2 and an integer"),
    (lambda: p_sequence(Fraction(3), 4), "m must be >= 2 and an integer"),
    (lambda: h_sequence(3, 4.0), "k_max must be >= 0 and an integer"),
    (lambda: p_sequence(2, "8"), "k_max must be >= 0 and an integer"),
], ids=["h-negative-k", "p-small-m", "h-float-m", "p-fraction-m",
        "h-float-k", "p-str-k"])
def test_sequence_refusals(call, match):
    with pytest.raises(DomainError, match=match):
        call()


def test_vertices_are_unit_masses():
    for i in range(3):
        v = vertex(i)
        assert sum(v) == 1 and v[i] == 1
