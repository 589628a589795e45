"""End-to-end acceptance gate: one criterion per test, one verdict line each.

Each test prints ``criterion NN: PASS/FAIL`` with the measured numbers
before asserting, so a failing criterion still reports what was computed.
Criteria that compare against published table entries use those entries
frozen here; everything else is checked against this package's own exact
arithmetic or brute force.  Where exact arithmetic proves a published entry
wrong, the entry stays frozen as printed and an erratum sits next to it,
each with its reason; the verdict line shows both.
"""

import math
import time
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

from goldengasket.attractor import (
    box_dimension_estimate,
    check_total_self_similarity,
    classify_holes,
    estimate_area,
    Violation,
)
from goldengasket.exact import (
    as_scalar,
    compare,
    compare_values,
    gasket_dimension,
    multinacci,
    scalar_sign,
    sierpinski_dimension,
    sigma,
    tau,
)
from goldengasket.geometry import image_region, intersection_bounds
from goldengasket.separation import (
    converse_witness,
    ell_upper,
    min_abs_signed_sum,
    multinacci_reciprocal,
    pisot_number,
)
from goldengasket.words import (
    count_unique_addresses,
    gf_series_check,
    u_sequence,
)


def verdict(num, ok, detail):
    print("criterion %02d: %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    return ok


TABLE1 = {
    2: (0.61803, 1.93063),
    3: (0.54369, 1.73219),
    4: (0.51879, 1.65411),
    5: (0.50866, 1.61900),
    6: (0.50414, 1.60201),
    7: (0.50202, 1.59356),
    8: (0.50099, 1.58930),
    9: (0.50049, 1.58715),
}

TABLE2 = {
    2: (1.93, 1.73, 1.65, 1.62, 1.60, 1.583),
    3: (2.61, 2.23, 2.10, 2.05, 2.02, 1.999),
    4: (3.13, 2.61, 2.45, 2.38, 2.35, 2.322),
    5: (3.54, 2.92, 2.72, 2.65, 2.62, 2.585),
    6: (3.89, 3.18, 2.96, 2.88, 2.84, 2.807),
}

# (d, m) -> corrected entry.  The published d=5, m=4 cell reads 2.72, but
# log tau / log omega_4, with tau the smallest positive root of
# 15t^5 - 6t + 1, is 2.72731 (a plain float bisection of that polynomial
# agrees), and `gasket table2` prints 2.73.  Every other m-column entry is
# the exact value rounded to two places; 2.72 alone is a truncation.
TABLE2_ERRATA = {(5, 4): 2.73}


def test_criterion_01_multinacci_dimension_table():
    t0 = time.time()
    bad = []
    for m, (om_print, dim_print) in TABLE1.items():
        om = float(multinacci(m).as_scalar())
        dim = gasket_dimension(m)
        if abs(om - om_print) > 1.5e-5 or abs(dim - dim_print) > 1.5e-5:
            bad.append((m, om, dim))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 1.0
    assert verdict(1, ok, "mismatches=%r elapsed=%.2fs" % (bad, elapsed))


def test_criterion_02_dimension_grid():
    t0 = time.time()
    bad = []
    fixed = []
    for d, row in TABLE2.items():
        for i, m in enumerate(range(2, 7)):
            got = gasket_dimension(m, d)
            want = TABLE2_ERRATA.get((d, m), row[i])
            if abs(got - want) > 0.005:
                bad.append((d, m, round(got, 5), want))
            if (d, m) in TABLE2_ERRATA:
                # an erratum fixes one last-place misprint and nothing else
                one_ulp = abs(Fraction(str(want)) - Fraction(str(row[i]))) == Fraction(1, 100)
                if not (one_ulp and abs(got - row[i]) > 0.005):
                    bad.append((d, m, "stale erratum", row[i], want))
                fixed.append("published %s -> %s (exact %.5f)" % (row[i], want, got))
        half = sierpinski_dimension(d, Fraction(1, 2))
        if abs(half - row[5]) > 0.005:
            bad.append((d, "half", round(half, 5), row[5]))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 1.0
    assert verdict(
        2,
        ok,
        "entries off by >0.005: %r errata: %s elapsed=%.2fs"
        % (bad, "; ".join(fixed), elapsed),
    )


def test_criterion_03_closed_forms():
    tau2 = float(tau(2, 2).as_scalar())
    closed = (2 / math.sqrt(3)) * math.cos(7 * math.pi / 18)
    sigma2_exact = compare(as_scalar(sigma(2)), Fraction(1, 2)) == 0
    ok = abs(tau2 - closed) < 1e-12 and sigma2_exact
    assert verdict(3, ok, "|tau2-closed|=%.2e sigma2==1/2: %s" % (abs(tau2 - closed), sigma2_exact))


def test_criterion_04_threshold_ordering():
    bad = []
    for m in range(2, 13):
        t, s, w = tau(m, 2), sigma(m), multinacci(m)
        chain = (
            compare_values(Fraction(1, 3), t) < 0
            and compare_values(t, s) < 0
            and compare_values(s, w) < 0
            and compare_values(w, Fraction(2, 3)) < 0
        )
        if not chain:
            bad.append(m)
    assert verdict(4, not bad, "ordering failures at m=%r" % bad)


def test_criterion_05_self_similarity_at_multinacci():
    t0 = time.time()
    worst = None
    for m in (2, 3, 4):
        w = multinacci(m)
        for n in range(8):
            rep = classify_holes(w, 2, n)
            if rep.violations:
                worst = (m, n, len(rep.violations))
    elapsed = time.time() - t0
    ok = worst is None and elapsed < 120
    assert verdict(5, ok, "violations=%r elapsed=%.1fs" % (worst, elapsed))


def test_criterion_06_overlap_identity():
    bad = []
    for m in range(2, 7):
        w = multinacci(m)
        overlap = intersection_bounds(image_region((0,), w), image_region((1,), w))
        expected = image_region((0,) + (1,) * m, w).bounds
        if not all(compare(a, b) == 0 for a, b in zip(overlap, expected)):
            bad.append(m)
    assert verdict(6, not bad, "identity failures at m=%r" % bad)


def test_criterion_07_converse_at_059():
    lam = Fraction(59, 100)
    wit = converse_witness(lam, 10)
    found = hasattr(wit, "n") and wit.n <= 10
    geom = check_total_self_similarity(lam, 2, 10)
    violated = isinstance(geom, Violation)
    level = geom.level if violated else None
    ok = found and violated
    assert verdict(7, ok, "witness=%r first geometric violation at level %r" % (wit, level))


def test_criterion_08_radial_regime_at_065():
    lam = Fraction(13, 20)
    stray = []
    for n in range(7):
        rep = classify_holes(lam, 2, n)
        stray.extend(h.word for h in rep.genuine if len(set(h.word)) > 1)
    lo, _ = estimate_area(lam, 2, 10, 256)
    ok = not stray and lo > Fraction(1, 4)
    assert verdict(8, ok, "non-radial holes=%r area lower(10)=%.4f" % (stray[:3], float(lo)))


def level_measures(lam, n_max):
    """Exact normalized areas mu_0..mu_{n_max} of the level-n sets at the
    golden ratio: mu_n = 1 - (2-3L)^2 * sum_{k<n} u_k L^(2k), the closed form
    tests/test_attractor.py checks the grid brackets against."""
    lam = as_scalar(lam)
    u = u_sequence(n_max).values
    acc = lam * 0
    pw = lam * 0 + 1
    mus = [lam * 0 + 1]
    for k in range(n_max):
        acc = acc + u[k] * pw
        pw = pw * lam * lam
        mus.append(1 - (2 - 3 * lam) ** 2 * acc)
    return mus


def test_criterion_09_measure_zero_evidence():
    # The published evidence is upper(12) < 0.5 at r=256.  No sound bracket
    # can give that: the exact mu_12 is 0.68907, and mu_n first drops below
    # 1/2 at n = 22.  Measure zero is shown instead by the brackets holding
    # mu_n, by mu_n decreasing, and by mu_n -> 0 exactly.
    target = Fraction(1, 2)
    w2 = multinacci(2)
    om = as_scalar(w2)
    mus = level_measures(w2, 30)
    uppers = []
    lower12 = None
    bracketed = True
    for n in range(4, 13):
        lo, hi = estimate_area(w2, 2, n, 256)
        uppers.append(float(hi))
        bracketed = bracketed and compare(lo, mus[n]) <= 0 and compare(mus[n], hi) <= 0
        if n == 12:
            lower12 = float(lo)
    monotone = all(a >= b for a, b in zip(uppers, uppers[1:]))
    decreasing = all(compare(b, a) < 0 for a, b in zip(mus, mus[1:]))
    # sum u_k x^k = 1/(1 - 3x + 3x^3), whose denominator is tau(2, 2)'s
    # polynomial: the series converges at x = om^2 < 39/100 < tau(2, 2), and
    # the limit 1 - (2-3om)^2 / (1 - 3om^2 + 3om^6) is 0 by an exact identity.
    to_zero = (
        compare(om * om, Fraction(39, 100)) < 0
        and compare_values(Fraction(39, 100), tau(2, 2)) < 0
        and compare((2 - 3 * om) ** 2, 1 - 3 * om**2 + 3 * om**6) == 0
    )
    first_below = next(n for n, mu in enumerate(mus) if compare(mu, target) < 0)
    ok = monotone and bracketed and decreasing and to_zero
    assert verdict(
        9,
        ok,
        "uppers(4..12)=%s monotone=%s upper(12)=%.4f lower(12)=%.4f "
        "mu(12)=%.5f bracketed(4..12)=%s mu decreasing=%s mu->0=%s "
        "published target<0.5 first holds at n=%d"
        % (
            ["%.4f" % u for u in uppers],
            monotone,
            uppers[-1],
            lower12,
            float(mus[12]),
            bracketed,
            decreasing,
            to_zero,
            first_below,
        ),
    )


def test_criterion_10_box_dimension_estimates():
    w2 = multinacci(2)
    t0 = time.time()
    got_w2 = box_dimension_estimate(
        w2, n=10, delta_range=[float(w2.as_scalar()) ** k for k in range(3, 11)]
    )
    t_w2 = time.time() - t0
    t0 = time.time()
    got_half = box_dimension_estimate(
        Fraction(1, 2), n=10, delta_range=[0.5**k for k in range(3, 11)]
    )
    t_half = time.time() - t0
    ok = (
        abs(got_w2 - 1.93) <= 0.05
        and abs(got_half - 1.585) <= 0.05
        and t_w2 < 120
        and t_half < 120
    )
    assert verdict(
        10,
        ok,
        "golden=%.4f (%.1fs) half=%.4f (%.1fs)" % (got_w2, t_w2, got_half, t_half),
    )


def test_criterion_11_counting_consistency():
    w2 = multinacci(2)
    u = u_sequence(7)
    bad = []
    for n in range(8):
        rep = classify_holes(w2, 2, n)
        if len(rep.genuine) != u[n]:
            bad.append((n, len(rep.genuine), u[n]))
    series_ok = all(gf_series_check(m, 30) for m in range(3, 7))
    ok = not bad and series_ok
    assert verdict(11, ok, "hole-count mismatches=%r series ok=%s" % (bad, series_ok))


def test_criterion_12_uniqueness_growth():
    c2 = [count_unique_addresses(2, n) for n in range(1, 16)]
    r2 = c2[-1] / c2[-2]
    c3 = [count_unique_addresses(3, n) for n in range(1, 16)]
    r3 = c3[-1] / c3[-2]
    target3 = 1 / float(as_scalar(sigma(3)))
    ok = abs(r2 - 2.0) <= 0.05 and abs(r3 - target3) / target3 <= 0.03
    assert verdict(12, ok, "ratio(m=2)=%.6f ratio(m=3)=%.6f target=%.6f" % (r2, r3, target3))


def brute_min_rational(base, n_max):
    # Each sum(s_k base^k) is the integer sum(s_k p^k q^(n_max-k)) over
    # the common denominator q^n_max, so the enumeration runs on ints.
    p, q = base.numerator, base.denominator
    nums = [p**k * q ** (n_max - k) for k in range(n_max + 1)]
    best = None
    best_coeffs = None
    for vec in product((-1, 0, 1), repeat=n_max + 1):
        if not any(vec):
            continue
        v = sum(map(mul, vec, nums))
        if v == 0:
            continue
        a = -v if v < 0 else v
        t = list(vec)
        while t and t[-1] == 0:
            t.pop()
        if t[-1] < 0:
            t = [-s for s in t]
        t = tuple(t)
        if best is None or a < best or (a == best and (len(t), t) < (len(best_coeffs), best_coeffs)):
            best, best_coeffs = a, t
    return Fraction(best, q**n_max), best_coeffs


def test_criterion_13_separation_constant():
    exact_ok = []
    for m in (2, 3, 4):
        ts = as_scalar(multinacci_reciprocal(m))
        _, wit = ell_upper(ts, 14)
        abs_val = wit.value if scalar_sign(wit.value) > 0 else -wit.value
        # |minimum| equals the contraction ratio: value * theta == 1 exactly
        exact_ok.append(compare(abs_val * ts, 1) == 0)
    ceilings = (0.07, 0.02, 0.01, 0.16)
    pisot_vals = []
    pisot_ok = []
    for idx, ceiling in zip(range(1, 5), ceilings):
        f, _ = ell_upper(as_scalar(pisot_number(idx)), 16)
        pisot_vals.append(f)
        pisot_ok.append(f <= ceiling)
    base = Fraction(9, 5)
    want_abs, want_coeffs = brute_min_rational(base, 10)
    got_f, got = ell_upper(base, 10)
    brute_ok = got.coeffs == want_coeffs and abs(got_f - float(want_abs)) < 1e-12
    ok = all(exact_ok) and all(pisot_ok) and brute_ok
    assert verdict(
        13,
        ok,
        "multinacci exact=%r pisot16=%s within %r brute@10 match=%s"
        % (exact_ok, ["%.6f" % v for v in pisot_vals], list(ceilings), brute_ok),
    )


def test_criterion_14_ceiling_spot_checks():
    bad = []
    for p, q in ((17, 10), (9, 5), (19, 10)):
        theta = Fraction(p, q)
        _, wit = ell_upper(theta, 14)
        abs_val = abs(wit.value)
        if not (2 + theta) * abs_val < 2:
            bad.append((p, q, float(abs_val)))
    assert verdict(14, not bad, "ceiling failures=%r" % bad)
