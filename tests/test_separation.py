"""Signed power sums and hole-failure witnesses against brute force.

The oracle enumerates every coefficient vector in {-1,0,1}^(n+1), skips
exact zeros, canonicalizes sign by the highest-degree coefficient, and
minimizes by exact value then (length, lexicographic) on the trimmed
tuple.  The search must reproduce both the minimum and the witness.
"""

import gc
import operator
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goldengasket import exact
from goldengasket.attractor import classify_holes
from goldengasket.errors import DomainError, ResourceLimit
from goldengasket.exact import (
    LinearCombination,
    as_scalar,
    compare,
    compare_values,
    isolate_root,
    lambda_star,
    multinacci,
    scalar_sign,
)
from goldengasket.separation import (
    DEFAULT_NODE_CAP,
    MULTINACCI_MAX,
    PRUNE_MARGIN,
    ConverseWitness,
    NotFound,
    SignedPolyValue,
    converse_inequalities_hold,
    converse_witness,
    ell_upper,
    erdos_joo_gap_check,
    gap_property_holds,
    golden_ratio,
    is_multinacci_reciprocal,
    min_abs_signed_sum,
    multinacci_reciprocal,
    pisot_number,
    prune_margin,
    separation_bound_check,
)
from goldengasket.separation import _SignedSumSearch, _multinacci_interval
from goldengasket.cli import parse_theta_token
from goldengasket.attractor import check_total_self_similarity, Violation


def brute_min(base, n_max):
    """Exhaustive reference for min_abs_signed_sum."""
    base = as_scalar(base)
    powers = [base * 0 + 1]
    for _ in range(n_max):
        powers.append(powers[-1] * base)
    best_abs = best_key = None
    for vec in product((-1, 0, 1), repeat=n_max + 1):
        if not any(vec):
            continue
        value = base * 0
        for k, s in enumerate(vec):
            if s:
                value = value + powers[k] if s > 0 else value - powers[k]
        sgn = scalar_sign(value)
        if sgn == 0:
            continue
        abs_val = value if sgn > 0 else -value
        key = tie_key(vec)
        cmp = -1 if best_abs is None else compare(abs_val, best_abs)
        if cmp < 0 or (cmp == 0 and key < best_key):
            best_abs, best_key = abs_val, key
    return best_abs, best_key[1]


def tie_key(coeffs):
    """(length, coefficients) of a nonzero vector trimmed of trailing zeros
    and signed so that its top coefficient is positive: the tie rule takes
    the least."""
    trimmed = list(coeffs)
    while trimmed[-1] == 0:
        trimmed.pop()
    if trimmed[-1] < 0:
        trimmed = [-s for s in trimmed]
    return len(trimmed), tuple(trimmed)


# The root (1 + sqrt 3)/2 of 2x^2 - 2x - 1: its reduced powers carry
# Fraction coordinates, which the fixed-point screen reads over their lcm.
NONMONIC = isolate_root([-1, -2, 2], (Fraction(1), Fraction(3, 2)))

# The last three lie below one, where the table holds the top degrees;
# lambda*, the root of 2x^3 - 2x^2 + 2x - 1, is the non-monic one there,
# so its negated rows carry Fraction coordinates.
BASES = [
    ("golden", golden_ratio()),
    ("tribonacci", multinacci_reciprocal(3)),
    ("pisot1", pisot_number(1)),
    ("nonmonic", NONMONIC),
    ("rational", Fraction(9, 5)),
    ("omega2", multinacci(2)),
    ("rational-below", Fraction(3, 5)),
    ("lambda-star", lambda_star()),
]


@pytest.mark.parametrize("name,base", BASES, ids=[b[0] for b in BASES])
def test_search_matches_brute_force(name, base):
    for n_max in (1, 3, 5, 6, 8):
        want_abs, want_coeffs = brute_min(base, n_max)
        got_f, got = min_abs_signed_sum(as_scalar(base), n_max)
        assert got.coeffs == want_coeffs
        got_abs = got.value if scalar_sign(got.value) > 0 else -got.value
        assert compare(got_abs, want_abs) == 0
        assert abs(got_f - float(want_abs)) < 1e-12


LEAF_BASES = {
    "golden": golden_ratio(),
    "pisot3": pisot_number(3),
    "nonmonic": NONMONIC,
    "9/5": Fraction(9, 5),
    "3/5": Fraction(3, 5),
}


# The defining polynomials of golden and pisot3, shifted or not, and the
# zero vector: their leaves are exactly zero.
LEAF_ZEROS = {
    ("golden", (-1, -1, 1)),
    ("golden", (0, -1, -1, 1, 0)),
    ("pisot3", (-1, 0, 1, -1, -1, 1)),
    ("3/5", (0, 0, 0)),
}


def term_by_term(base, digits):
    """sum(s_k base^k) added up one power at a time."""
    value = base * 0
    power = base * 0 + 1
    for s in digits:
        if s:
            value = value + power if s > 0 else value - power
        power = power * base
    return value


def balanced_ternary(code, length):
    """Digits d_0..d_(length-1) in {-1, 0, 1} with code = sum(d_i 3^i)."""
    digits = []
    for _ in range(length):
        d = (code + 1) % 3 - 1
        digits.append(d)
        code = (code - d) // 3
    assert code == 0
    return digits


def vector_of(search, base, digits):
    """The exact vector of sum(digits[k] base^k), added term by term: an
    int numerator over search.frame.den at a rational base."""
    value = term_by_term(base, digits)
    if isinstance(base, Fraction):
        numerator = value * search.frame.den
        assert numerator.denominator == 1
        return int(numerator)
    return value.coeffs


def unpacked(search, packed):
    """The vector of a packed point, read through the search's own
    unpacking: an int at a rational base, the coordinate tuple at an
    algebraic one.  A table entry is a displacement, read at ``origin``."""
    value = search.value(packed)
    return value if search.alg is None else value.coeffs


def packed_prefix(search, digits):
    """A prefix's packed point, added one power at a time from ``origin``
    as the descent adds it."""
    vec = search.origin
    for k in search.order:
        vec += digits[k] * search.vectors[k]
    return vec


def lead_table(search):
    """The table that completes the all-zero prefix: the lead table, or with
    one table the full table's rows of code > 0."""
    if search.lead is not None:
        return search.lead
    rows = [i for i, code in enumerate(search.full[2]) if code > 0]
    return tuple([column[i] for i in rows] for column in search.full)


def table_patch(search, code):
    """The full coefficient vector of a table entry's patch."""
    coeffs = [0] * len(search.coeffs)
    for k, d in zip(search.degrees, balanced_ternary(code, len(search.degrees))):
        coeffs[k] = d
    return coeffs


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(LEAF_BASES)),
    digits=st.lists(st.sampled_from((-1, 0, 1)), min_size=2, max_size=14),
)
@example(name="golden", digits=[-1, -1, 1])
@example(name="golden", digits=[0, -1, -1, 1, 0])
@example(name="pisot3", digits=[-1, 0, 1, -1, -1, 1])
@example(name="3/5", digits=[0, 0, 0])
@example(name="nonmonic", digits=[1, -1, -1, -1, 0, 1])
def test_integer_leaf_matches_term_by_term_sum(name, digits):
    # The leaf of a prefix and a patch is the prefix's point plus the
    # displacement of the table entry holding the patch's vector.  It must
    # equal the term-by-term sum of the prefix with the entry's own patch.
    # The prefix is summed over the powers that occur only, as the search
    # sums it.
    base = as_scalar(LEAF_BASES[name])
    search = _SignedSumSearch(base, len(digits) - 1, DEFAULT_NODE_CAP)
    prefix = [0 if k in search.degrees else d for k, d in enumerate(digits)]
    patch = [d if k in search.degrees else 0 for k, d in enumerate(digits)]
    _, vectors, codes = search.full
    row = [unpacked(search, search.origin + v) for v in vectors].index(
        vector_of(search, base, patch))
    kept = table_patch(search, codes[row])
    search.coeffs[:] = prefix
    assert unpacked(search, packed_prefix(search, prefix)) == vector_of(search, base, prefix)
    leaf = packed_prefix(search, prefix) + vectors[row]
    value = search.value(leaf)
    want = term_by_term(base, [a + b for a, b in zip(prefix, kept)])
    if isinstance(base, Fraction):
        assert type(value) is int
        assert Fraction(value, search.frame.den) == want
    else:
        assert isinstance(value, LinearCombination)
        assert value.coeffs == want.coeffs
    assert scalar_sign(value) == scalar_sign(term_by_term(base, digits))
    if (name, tuple(digits)) in LEAF_ZEROS:
        assert leaf == search.origin


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6])
def test_half_tables_keep_the_tie_rule_patch_of_each_vector(length):
    # Against all 3^length patches: each table has one entry per distinct
    # vector, and that entry's patch is the one of least tie key among the
    # patches with its vector.  The full table completes a nonzero prefix,
    # led by +1 as the search's sign symmetry makes it; the lead table holds
    # the patches whose top nonzero digit is +1 and completes the zero one.
    n_max = 2 * length - 1
    for name, base in BASES:
        base = as_scalar(base)
        search = _SignedSumSearch(base, n_max, DEFAULT_NODE_CAP)
        assert len(search.degrees) == length, name
        lead_prefix = [0] * (n_max + 1)
        prefix = list(lead_prefix)
        prefix[search.order[search.boundary - 1]] = -1
        prefix[search.order[0]] = 1
        for table, start in ((search.full, prefix), (lead_table(search), lead_prefix)):
            best = {}
            for digits in product((-1, 0, 1), repeat=length):
                nonzero = [d for d in digits if d]
                if start is lead_prefix and nonzero[-1:] != [1]:
                    continue
                patch = [0] * (n_max + 1)
                for k, d in zip(search.degrees, digits):
                    patch[k] = d
                vec = vector_of(search, base, patch)
                key = tie_key([a + b for a, b in zip(start, patch)])
                best[vec] = min(best.get(vec, key), key)
            _, vectors, codes = table
            assert len(vectors) == len(best), name
            for packed, code in zip(vectors, codes):
                vec = unpacked(search, search.origin + packed)
                patch = table_patch(search, code)
                assert vector_of(search, base, patch) == vec, name
                assert tie_key([a + b for a, b in zip(start, patch)]) == best[vec], name


@pytest.mark.parametrize("base,n_max", [(Fraction(3, 5), 20), (multinacci(2), 16)],
                         ids=["3/5", "omega2"])
def test_tables_are_built_without_tie_key(base, n_max, monkeypatch):
    # The build order carries the tie rule on both sides of one, so only
    # ``consider`` ranks patches by ``tie_key``.
    calls = []
    rank = _SignedSumSearch.tie_key
    monkeypatch.setattr(_SignedSumSearch, "tie_key",
                        lambda self, code: calls.append(code) or rank(self, code))
    _SignedSumSearch(as_scalar(base), n_max, DEFAULT_NODE_CAP)
    assert len(calls) == 0


def reference_tables(base, n_max):
    """The (full, lead) half-tables as the search built them with a tuple
    of coordinates per vector (the int numerator over q^n_max at a rational
    base), one row at a time, always with a lead table."""
    powers = [base * 0 + 1]
    for _ in range(n_max):
        powers.append(powers[-1] * base)
    fweights = [float(p) for p in powers]
    order = sorted(range(n_max + 1), key=lambda k: -fweights[k])
    degrees = sorted(order[n_max + 1 - min(9, (n_max + 2) // 2):])
    if isinstance(base, Fraction):
        add, zero = operator.add, 0
        vectors = [int(p * base.denominator**n_max) for p in powers]
    else:
        add, zero = (lambda u, v: tuple(map(operator.add, u, v))), (0,) * len(powers[0].coeffs)
        vectors = [p.coeffs for p in powers]
    negated = [-v if isinstance(base, Fraction) else (-p).coeffs
               for v, p in zip(vectors, powers)]

    def pick(table, rows):
        return tuple([column[i] for i in rows] for column in table)

    def first_per_vector(table):
        first = {}
        for i, vec in enumerate(table[1]):
            first.setdefault(vec, i)
        return pick(table, list(first.values()))

    def by_tie_key(table, lead_digit):
        def key(i):
            coeffs = [lead_digit] + [0] * n_max
            for k, d in zip(degrees, balanced_ternary(table[2][i], len(degrees))):
                coeffs[k] = d
            return tie_key(coeffs)
        return pick(table, sorted(range(len(table[0])), key=key))

    full, lead = ([0.0], [zero], [0]), ([], [], [])
    for j, k in enumerate(degrees):
        w, col, ncol, unit = fweights[k], vectors[k], negated[k], 3**j
        sums, vecs, codes = full
        lead[0].extend([f + w for f in sums])
        lead[1].extend([add(v, col) for v in vecs])
        lead[2].extend([c + unit for c in codes])
        full = ([x for f in sums for x in (f - w, f, f + w)],
                [x for v in vecs for x in (add(v, ncol), v, add(v, col))],
                [x for c in codes for x in (c - unit, c, c + unit)])
        if degrees[0] == 0:
            full = first_per_vector(full)
    if degrees[0] != 0:
        full = first_per_vector(by_tie_key(full, 1))
        lead = by_tie_key(lead, 0)
    lead = first_per_vector(lead)
    return tuple(pick(t, sorted(range(len(t[0])), key=t[0].__getitem__)) for t in (full, lead))


def types_of(column):
    """The type of every entry of a column, per coordinate for tuples."""
    return [tuple(map(type, x)) if isinstance(x, tuple) else type(x) for x in column]


TABLE_BASES = {
    "golden": golden_ratio(),
    **{"pisot%d" % i: pisot_number(i) for i in range(1, 5)},
    "omega-inv3": multinacci_reciprocal(3),
    "40/23": Fraction(40, 23),
    "9/5": Fraction(9, 5),
    "3/5": Fraction(3, 5),
    "nonmonic": NONMONIC,
    "2": Fraction(2),
    "1/2": Fraction(1, 2),
}


@pytest.mark.parametrize("name", sorted(TABLE_BASES))
def test_packed_tables_match_the_reference_builder(name):
    # Column by column after unpacking, with their types: the
    # packed whole-column build keeps every entry and its order, and a base
    # with one table has as its code > 0 rows exactly the lead table.
    base = as_scalar(TABLE_BASES[name])
    for n_max in range(1, 21):
        search = _SignedSumSearch(base, n_max, DEFAULT_NODE_CAP)
        want_full, want_lead = reference_tables(base, n_max)
        assert (search.lead is None) == (len(want_full[0]) == 3 ** len(search.degrees))
        for got, want in ((search.full, want_full), (lead_table(search), want_lead)):
            sums, vectors, codes = got
            vecs = [unpacked(search, search.origin + v) for v in vectors]
            for column, want_column in zip((sums, vecs, codes), want):
                assert list(column) == want_column, (name, n_max)
                # At the non-monic base an unpacked vector has Fraction
                # coordinates over frame.den where the reference may have
                # ints; the screen reads both alike.
                if column is not vecs or name != "nonmonic":
                    assert types_of(column) == types_of(want_column), (name, n_max)


@pytest.mark.parametrize("base,collides", [(Fraction(2), True), (Fraction(1, 2), True),
                                           (Fraction(3, 2), False)], ids=["2", "1/2", "3/2"])
def test_rational_bases_with_colliding_patches_match_brute_force(base, collides):
    # At 2 and 1/2 distinct patches share a vector (1 + 0*2 = -1 + 1*2), so
    # the all-zero prefix needs its own table; 3/2 is a control with one.
    for n_max in range(1, 9):
        search = _SignedSumSearch(base, n_max, DEFAULT_NODE_CAP)
        assert (search.lead is not None) == (collides and len(search.degrees) > 1)
        want_abs, want_coeffs = brute_min(base, n_max)
        got_f, got = min_abs_signed_sum(base, n_max)
        assert got.coeffs == want_coeffs
        assert abs(got.value) == want_abs
        assert got_f == float(want_abs)
        if base < 1:
            assert gap_property_holds(base, n_max) == (want_abs >= base ** (n_max + 1))


def test_rational_search_memory_peak():
    # The 3^9 entries of the table at degree 20 are kept as columns of
    # floats and ints, with no container object per entry, and serve the
    # all-zero prefix too: 9/5 has no two patches of one vector.
    assert _SignedSumSearch(Fraction(9, 5), 20, DEFAULT_NODE_CAP).lead is None
    tracemalloc.start()
    try:
        min_abs_signed_sum(Fraction(9, 5), 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_algebraic_search_memory_peak():
    # One packed int per table vector, not a tuple of coordinates: the
    # search at pisot:3, degree 15 peaks near 1.0 MiB, against 1.5 MiB with
    # tuple vectors.
    tracemalloc.start()
    try:
        min_abs_signed_sum(pisot_number(3), 15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20


def test_hole_sweep_memory_peak():
    # The sweep keeps the levels _levels yields and makes words for level n
    # only (level n+1's too when there are violations, and omega_2 has
    # none): a warm call peaks near 7.3 MB, against 9.4 MB with a word list
    # per level.
    w2 = multinacci(2)
    classify_holes(w2, 2, 9)
    tracemalloc.start()
    try:
        classify_holes(w2, 2, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 9 * 10**6


def test_search_matches_brute_force_deeper_pisot():
    base = pisot_number(3)
    want_abs, want_coeffs = brute_min(base, 4)
    got_f, got = min_abs_signed_sum(base.as_scalar(), 4)
    assert got.coeffs == want_coeffs
    got_abs = got.value if scalar_sign(got.value) > 0 else -got.value
    assert compare(got_abs, want_abs) == 0


def test_golden_minimum_is_theta_minus_one():
    theta = golden_ratio().as_scalar()
    got_f, got = min_abs_signed_sum(theta, 12)
    assert got.coeffs == (-1, 1)
    assert compare(got.value + 1, theta) == 0


def test_minimum_monotone_in_degree():
    base = pisot_number(1).as_scalar()
    floats = [min_abs_signed_sum(base, n)[0] for n in (6, 10, 14)]
    assert floats[0] >= floats[1] >= floats[2]


def test_pisot_bounds_at_degree_sixteen():
    targets = {1: (0.060085, 0.07), 2: (0.018929, 0.02),
               3: (0.006365, 0.01), 4: (0.147899, 0.16)}
    for idx, (frozen, ceiling) in targets.items():
        got_f, _ = min_abs_signed_sum(pisot_number(idx).as_scalar(), 16)
        assert abs(got_f - frozen) < 1e-5
        assert got_f <= ceiling


def test_pisot_index_range():
    with pytest.raises(DomainError):
        pisot_number(0)
    with pytest.raises(DomainError):
        pisot_number(5)


def test_node_cap_carries_best_so_far():
    # The first incumbent appears after 9 branch nodes and 2 visited table
    # entries: the lead table's entry nearest zero is the zero vector of
    # x^3 - x - 1, skipped, and the next one is the incumbent.
    base = pisot_number(1).as_scalar()
    with pytest.raises(ResourceLimit) as info:
        min_abs_signed_sum(base, 16, node_cap=200)
    assert isinstance(info.value.best, SignedPolyValue)
    with pytest.raises(ResourceLimit) as info:
        min_abs_signed_sum(base, 16, node_cap=3)
    assert info.value.best is None


def test_node_cap_counts_leaf_evaluations():
    # pisot:1 at degree 12 branches through 334 nodes and visits 175 table
    # entries, each a distinct leaf vector: the cap bounds both.
    base = pisot_number(1).as_scalar()
    min_abs_signed_sum(base, 12, node_cap=334 + 175)
    with pytest.raises(ResourceLimit) as info:
        min_abs_signed_sum(base, 12, node_cap=334 + 174)
    assert isinstance(info.value.best, SignedPolyValue)
    with pytest.raises(ResourceLimit):
        min_abs_signed_sum(base, 12, node_cap=400)


class ReferenceSearch(_SignedSumSearch):
    """The search with every leaf's sign settled exactly: a value equal to
    the incumbent's is a tie, any other is compared.  A node orders its
    digits by a stable sort."""

    def consider(self, leaf, code):
        value = self.value(leaf)
        abs_val = value if scalar_sign(value) > 0 else -value
        if self.best is None:
            cmp = -1
        elif abs_val == self.best:
            cmp = 0
        else:
            cmp = compare(abs_val, self.best)
        if cmp < 0:
            self.best = abs_val
            self.best_val = (abs_val if self.alg is not None
                             else Fraction(abs_val, self.frame.den))
            self.best_abs_f = float(self.best_val)
            self.best_key = self.tie_key(code)
        elif cmp == 0:
            self.best_key = min(self.best_key, self.tie_key(code))

    def descend(self, pos, partial, prefix, any_nonzero):
        self.check_budget()
        if pos == self.boundary:
            self.finish(partial, prefix, any_nonzero)
            return
        if abs(partial) - self.tails[pos] > self.best_abs_f + self.margin:
            return
        k = self.order[pos]
        w = self.fweights[k]
        digits = (0, 1) if not any_nonzero else (-1, 0, 1)
        for s in sorted(digits, key=lambda s: abs(partial + s * w)):
            self.coeffs[k] = s
            self.descend(pos + 1, partial + s * w, prefix + s * self.vectors[k],
                         any_nonzero or s != 0)
        self.coeffs[k] = 0


def finished_search(search_class, make_base, n_max):
    """The search's final state, and its base's refinement generation."""
    base = as_scalar(make_base())
    search = search_class(base, n_max, DEFAULT_NODE_CAP)
    search.descend(0, 0.0, search.origin, False)
    if isinstance(base, Fraction):
        value, generation = search.best_val, None
    else:  # combinations over distinct base objects compare by coefficients
        value, generation = search.best_val.coeffs, base.alg.generation
    return search.best_key, value, search.best_abs_f, search.nodes, generation


# Fresh bases for each search, so that each starts from the same interval.
DIFFERENTIAL_BASES = {
    "golden": golden_ratio,
    **{"pisot%d" % i: (lambda i=i: pisot_number(i)) for i in range(1, 5)},
    "tribonacci": lambda: multinacci_reciprocal(3),
    "nonmonic": lambda: isolate_root([-1, -2, 2], (Fraction(1), Fraction(3, 2))),
    "omega2": lambda: multinacci(2),
    "3/5": lambda: Fraction(3, 5),
    "40/23": lambda: Fraction(40, 23),
    # Both reach nodes with 0 < partial < w/2, whose digits go (0, 1, -1):
    # there the order sets the node count, from degree 12 and 13 on.
    "lambda-star": lambda_star,
    "11/7": lambda: Fraction(11, 7),
}


@pytest.mark.parametrize("make_base", DIFFERENTIAL_BASES.values(),
                         ids=DIFFERENTIAL_BASES.keys())
def test_search_matches_the_reference_search(make_base):
    # Same witness, value, float bound and node count, and the base refined
    # exactly as far as the reference refines it.
    for n_max in range(1, 15):
        want = finished_search(ReferenceSearch, make_base, n_max)
        assert finished_search(_SignedSumSearch, make_base, n_max) == want, n_max


@pytest.mark.parametrize("base", [pisot_number(1), Fraction(9, 5), multinacci(2)],
                         ids=["pisot1", "rational", "omega2"])
def test_search_leaves_no_cyclic_garbage(base):
    # A finished search is freed by reference counting alone; cycles would
    # keep its powers and tables alive until the next collection.
    gc.collect()
    gc.disable()
    try:
        min_abs_signed_sum(base, 12)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("theta", [golden_ratio(), pisot_number(1),
                                   multinacci_reciprocal(3), NONMONIC],
                         ids=["golden", "pisot1", "tribonacci", "nonmonic"])
def test_search_settles_no_zero_vector(theta, monkeypatch):
    # Zero leaves are skipped, and a tie with the incumbent's own vector is
    # settled by vector equality, so no sign question is ever about zero.
    settled = []
    settle = exact._settle

    def spy(v, *args, **kwargs):
        settled.append(v.coeffs)
        return settle(v, *args, **kwargs)

    monkeypatch.setattr(exact, "_settle", spy)
    ell_upper(theta, 14)
    assert settled
    assert all(any(coeffs) for coeffs in settled)


def test_ell_upper_rejects_small_theta():
    with pytest.raises(DomainError):
        ell_upper(Fraction(1, 2), 6)


# ----------------------------------------------------------------------
# separation report

def test_report_golden_flagged_uncertified():
    # Golden as a number and as its generator combination.
    for theta in (golden_ratio(), golden_ratio().as_scalar()):
        rep = separation_bound_check(theta, 12)
        assert rep.multinacci_reciprocal == 2
        assert not rep.certified
        assert rep.witness.coeffs == (-1, 1)
    d = rep.as_json_dict()
    assert set(d) == {
        "theta", "n_max", "min_abs", "witness_coeffs",
        "bound_2_over_2_plus_theta", "certified", "multinacci_reciprocal",
    }
    assert d["witness_coeffs"] == [-1, 1]


def test_report_certifies_generic_rational():
    rep = separation_bound_check(Fraction(9, 5), 8)
    assert rep.multinacci_reciprocal == 0
    assert rep.certified
    # exact certification: (2 + theta) * min < 2
    assert (2 + Fraction(9, 5)) * Fraction(rep.min_abs).limit_denominator(10**12) < 2


def test_report_window():
    with pytest.raises(DomainError):
        separation_bound_check(Fraction(7, 5), 8)
    with pytest.raises(DomainError):
        separation_bound_check(Fraction(21, 10), 8)


def test_multinacci_reciprocal_certified_exactly():
    for m, coeffs in [(2, (-1, 1)), (3, (-1, -1, 1)), (4, (-1, -1, -1, 1))]:
        theta = multinacci_reciprocal(m)
        _, got = min_abs_signed_sum(theta.as_scalar(), 10)
        assert got.coeffs == coeffs
        # witness value times the ratio collapses to 1: reciprocal pair
        assert compare(got.value * theta.as_scalar(), 1) == 0


# ----------------------------------------------------------------------
# gap property

def test_gap_property_at_multinacci():
    assert gap_property_holds(multinacci(2).as_scalar(), 8)
    assert gap_property_holds(multinacci(3).as_scalar(), 8)


def test_gap_fails_at_generic_ratio():
    assert not gap_property_holds(Fraction(3, 5), 3)
    assert not gap_property_holds(Fraction(3, 5), 5)


def test_gap_equality_is_attained():
    # From position m-1 on, the minimum equals lam^(n+1) exactly.
    for m, n in [(2, 3), (2, 5), (3, 2), (3, 4)]:
        lam = multinacci(m).as_scalar()
        _, res = min_abs_signed_sum(lam, n)
        abs_val = res.value if scalar_sign(res.value) > 0 else -res.value
        assert compare(abs_val, lam ** (n + 1)) == 0


def test_gap_strict_below_equality_threshold():
    lam = multinacci(3).as_scalar()
    _, res = min_abs_signed_sum(lam, 1)
    abs_val = res.value if scalar_sign(res.value) > 0 else -res.value
    assert compare(abs_val, lam**2) > 0


@pytest.mark.parametrize("m,n", [(2, 10), (3, 8), (4, 6), (5, 5)])
def test_erdos_joo_style_gap(m, n):
    assert erdos_joo_gap_check(m, n)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_gap_verdicts_over_the_checked_range(m):
    # The exact minimum at omega_m is lam^(n+1) from n = m - 1 on and above
    # it before, so the gap property holds at every n the check accepts.
    lam = multinacci(m).as_scalar()
    for n in range(1, 13):
        _, res = min_abs_signed_sum(lam, n)
        abs_val = res.value if scalar_sign(res.value) > 0 else -res.value
        assert compare(abs_val, lam ** (n + 1)) == (0 if n >= m - 1 else 1)
        assert erdos_joo_gap_check(m, n)


def test_erdos_joo_range():
    with pytest.raises(DomainError):
        erdos_joo_gap_check(6, 3)
    with pytest.raises(DomainError):
        erdos_joo_gap_check(2, 13)


# ----------------------------------------------------------------------
# converse witnesses

def pinch_reference(lam, n, digits):
    # independent restatement with divisions
    rest = 1 - sum(a * lam ** (k + 1) for k, a in enumerate(digits))
    lo = (2 * lam - 1) * lam**n / (1 - lam)
    return lo < rest < lam**n


CASES = [
    (Fraction(59, 100), 5, (1, 1, 0, 0)),
    (Fraction(3, 5), 6, (1, 1, 0, 0, 0)),
    (Fraction(63, 100), 2, (1,)),
]


@pytest.mark.parametrize("lam,n,digits", CASES, ids=["0.59", "0.60", "0.63"])
def test_converse_witness_examples(lam, n, digits):
    got = converse_witness(lam, 12)
    assert got == ConverseWitness(n=n, digits=digits)
    assert converse_inequalities_hold(lam, n, digits)
    assert pinch_reference(lam, n, digits)


def test_converse_radial_regime():
    got = converse_witness(Fraction(131, 200), 12)
    assert isinstance(got, NotFound)
    assert "radial" in got.reason


def test_converse_rejects_multinacci_neighborhood():
    with pytest.raises(DomainError):
        converse_witness(Fraction(6180339887498949, 10**16), 8)


def test_converse_rejects_floats_and_window():
    with pytest.raises(DomainError):
        converse_witness(0.59, 8)
    with pytest.raises(DomainError):
        converse_witness(Fraction(2, 5), 8)
    with pytest.raises(DomainError):
        converse_witness(Fraction(59, 100), 1)


@pytest.mark.parametrize("call,match", [
    (lambda: min_abs_signed_sum(golden_ratio(), 0), "n_max must be an integer >= 1"),
    (lambda: min_abs_signed_sum(Fraction(-3, 2), 4), "base must be positive"),
    (lambda: min_abs_signed_sum(Fraction(1), 4), "base 1 admits no nonzero minimum"),
    (lambda: min_abs_signed_sum(LinearCombination(multinacci(3), (1,)), 4),
     "base 1 admits no nonzero minimum"),
    (lambda: gap_property_holds(Fraction(3, 2), 4), "ratio must lie in"),
    (lambda: multinacci_reciprocal(1), "multinacci index"),
    (lambda: converse_witness(multinacci(2).as_scalar(), 5), "needs a rational ratio"),
    # The CLI rejects --node-cap below 1 as a usage error; the search
    # refuses it as bad input, not as a budget run out.
    (lambda: min_abs_signed_sum(golden_ratio(), 4, node_cap=0), "node_cap must be >= 1"),
    (lambda: ell_upper(Fraction(9, 5), 4, node_cap=-3), "node_cap must be >= 1"),
], ids=["n-max", "negative-base", "base-one", "base-one-combination", "gap-ratio", "multinacci-index",
        "converse-algebraic", "node-cap-zero", "node-cap-negative"])
def test_search_refusals(call, match):
    with pytest.raises(DomainError, match=match):
        call()


def test_converse_regime_edges_follow_exact_order():
    # Just outside omega_2's cached interval on either side, the n = 2
    # witness is taken exactly when lam > omega_2 by the exact compare.
    lo, hi = _multinacci_interval(2)
    for lam in (hi + Fraction(1, 10**18), lo - Fraction(1, 10**18)):
        fixed = converse_witness(lam, 4) == ConverseWitness(n=2, digits=(1,))
        assert fixed == (compare_values(lam, multinacci(2)) > 0)


@pytest.mark.parametrize("lam", [Fraction(59, 100), Fraction(61, 100)])
def test_converse_witness_builds_no_base_when_warm(lam, monkeypatch):
    # Below omega_2 neither regime test needs a base once the omega
    # intervals are cached.
    converse_witness(lam, 12)

    def refuse(self, *args):
        pytest.fail("converse_witness built a base %r" % (args,))

    monkeypatch.setattr(exact.AlgebraicNumber, "__init__", refuse)
    assert isinstance(converse_witness(lam, 12), ConverseWitness)


def test_is_multinacci_reciprocal():
    for m in (2, 3, 5, MULTINACCI_MAX):
        assert is_multinacci_reciprocal(multinacci_reciprocal(m)) == m
    assert is_multinacci_reciprocal(multinacci_reciprocal(MULTINACCI_MAX + 1)) is None
    for index in range(1, 5):
        assert is_multinacci_reciprocal(pisot_number(index)) is None
    # A combination reads as its base only when it is the generator.
    for m in (2, 3, 5):
        assert is_multinacci_reciprocal(multinacci_reciprocal(m).as_scalar()) == m
    for index in range(1, 5):
        assert is_multinacci_reciprocal(pisot_number(index).as_scalar()) is None
    # 1 + omega_2 is the golden ratio on omega_2's basis.
    with pytest.raises(DomainError):
        is_multinacci_reciprocal(1 + multinacci(2).as_scalar())


def test_pinch_needs_matching_digit_count():
    with pytest.raises(DomainError):
        converse_inequalities_hold(Fraction(59, 100), 5, (1, 1))


def test_pinch_rejects_early_positions():
    # n = 2 overshoots the right inequality, n = 3 the left one; n = 4
    # would pass the pinch but is filtered out by the digit-pattern gate
    # (the greedy expansion of 1 at 0.59 has a_5 = 0, not 1).
    lam = Fraction(59, 100)
    digits = converse_witness(lam, 12).digits
    for n in (2, 3):
        assert not converse_inequalities_hold(lam, n, digits[: n - 1])
    assert converse_inequalities_hold(lam, 4, digits[:3])


def test_witness_implies_hole_violation():
    # A verified pinch forces a hole failure at or before that depth.
    for lam in (Fraction(59, 100), Fraction(3, 5), Fraction(63, 100)):
        wit = converse_witness(lam, 12)
        verdict = check_total_self_similarity(lam, 2, wit.n)
        assert isinstance(verdict, Violation)
        assert verdict.level <= wit.n


def _weight_sum(theta, n_max):
    """The float weight total that min_abs_signed_sum prunes with."""
    base = as_scalar(theta)
    return sum(sorted((float(base**k) for k in range(n_max + 1)), reverse=True))


def test_prune_margin_covers_float_rounding(monkeypatch):
    # Near base 2 the pruning sums reach 1e9 at degree 30, and their
    # rounding can exceed the fixed margin.
    assert prune_margin(_weight_sum(Fraction(19, 10), 30), 30) > 1e-6
    # Every ell job of the benchmark keeps the fixed margin, so its search
    # visits the same leaves as before.  The seeded rational base is drawn
    # below 1.9, and the weight total grows with the base.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import make_jobs

    cases = {("rational:19/10", 20)}
    for seed in range(10):
        for job in make_jobs("ell-pisot", seed):
            cases.add((job.argv[job.argv.index("--theta") + 1],
                       int(job.argv[job.argv.index("--degree") + 1])))
    assert len(cases) > 7
    for token, degree in sorted(cases):
        total = _weight_sum(parse_theta_token(token), degree)
        assert prune_margin(total, degree) == PRUNE_MARGIN, token
