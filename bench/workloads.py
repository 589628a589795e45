"""Seeded job lists for the four benchmark workloads and their output checks.

A job is one ``gasket`` command line.  The seed draws every free input: the
rationals (from a fixed denominator band, each kept clear of the multinacci
ratios), the rational ``ell`` base and the ``area`` resolutions.  Inputs are
drawn from narrow windows so that the amount of work, and with it the
timings, barely depends on the seed.  The program only ever receives the
generated tokens; nothing here imports it.

Checks never compare against the published numbers of acceptance criteria
02 and 09, which the exact values contradict.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

# Denominator bands of the seeded ratios and of the seeded ell base.
RATIO_DENOMINATORS = range(53, 62)
BASE_DENOMINATORS = range(17, 24)


def _bisect(f, lo, hi):
    for _ in range(200):
        mid = (lo + hi) / 2
        if (f(mid) > 0) == (f(hi) > 0):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


# omega_m solves x + ... + x^m = 1; lambda* solves 2x^3 - 2x^2 + 2x - 1 = 0.
OMEGA = {
    m: _bisect(lambda x, m=m: sum(x**k for k in range(1, m + 1)) - 1, 0.5, 0.75)
    for m in range(2, 31)
}
LAMBDA_STAR = _bisect(lambda x: 2 * x**3 - 2 * x**2 + 2 * x - 1, 0.5, 0.75)

# A ratio this close to some omega_m could fall inside its isolating interval.
CLEARANCE = 1e-6


@dataclass(frozen=True)
class Job:
    """One command line, the exit code it must give and how to check it."""

    argv: tuple
    kind: str
    expect_rc: int


def _draw(rng, lo, hi, denominators):
    """A reduced p/q in the open window (lo, hi), q from the band."""
    pool = [
        Fraction(p, q)
        for q in denominators
        for p in range(math.floor(lo * q), math.ceil(hi * q) + 1)
        if math.gcd(p, q) == 1 and lo < p / q < hi
        and all(abs(p / q - w) > CLEARANCE for w in OMEGA.values())
    ]
    return rng.choice(pool)


def _token(kind, value):
    return "%s:%d/%d" % (kind, value.numerator, value.denominator)


def _area(lam, n, r):
    return Job(("area", "--lambda", lam, "-n", str(n), "--resolution", str(r)),
               "area", 0)


def _area_omega(rng):
    # Deduplication is heavy at omega_2 and light at omega_3.
    return [
        _area("omega:2", 9, rng.randint(248, 264)),
        _area("omega:3", 7, rng.randint(248, 264)),
    ]


def _holes_omega(rng):
    # Every candidate hole is genuine at the multinacci ratios.
    return [
        Job(("holes", "--lambda", "omega:2", "-n", "6"), "holes_genuine", 0),
        Job(("holes", "--lambda", "omega:3", "-n", "5"), "holes_genuine", 0),
        Job(("holes", "--lambda", "omega:4", "-n", "5"), "holes_genuine", 0),
        Job(("selfsim", "--lambda", "omega:4", "-n", "4"), "selfsim_consistent", 0),
    ]


def _ell_pisot(rng):
    base = _draw(rng, 1.6, 1.9, BASE_DENOMINATORS)
    jobs = [Job(("ell", "--theta", "golden", "--degree", "16"), "ell", 0)]
    jobs += [
        Job(("ell", "--theta", "pisot:%d" % i, "--degree", "15"), "ell", 0)
        for i in range(1, 5)
    ]
    jobs.append(Job(("ell", "--theta", "omega-inv:3", "--degree", "16"), "ell", 0))
    jobs.append(Job(("ell", "--theta", _token("rational", base), "--degree", "20"),
                    "ell", 0))
    return jobs


def _rational_window(rng):
    # Between omega_3 and omega_2, between omega_4 and omega_3, and above
    # lambda* where the radial holes are hit.
    upper = _token("rational", _draw(rng, 0.57, 0.60, RATIO_DENOMINATORS))
    lower = _token("rational", _draw(rng, 0.525, 0.54, RATIO_DENOMINATORS))
    radial = _token("rational", _draw(rng, LAMBDA_STAR + 0.005, 0.663,
                                      RATIO_DENOMINATORS))
    return [
        _area(upper, 8, rng.randint(248, 264)),
        _area(lower, 8, rng.randint(248, 264)),
        Job(("holes", "--lambda", radial, "-n", "6"), "holes_violated", 2),
        Job(("selfsim", "--lambda", upper, "-n", "10"), "selfsim_violated", 2),
        Job(("witness", "--lambda", upper), "witness", 0),
    ]


WORKLOADS = {
    "area-omega": _area_omega,
    "holes-omega": _holes_omega,
    "ell-pisot": _ell_pisot,
    "rational-window": _rational_window,
}


def make_jobs(workload, seed):
    """The job list of one workload; the same seed gives the same jobs."""
    return WORKLOADS[workload](random.Random("%s/%d" % (workload, seed)))


def digest(stdout):
    return hashlib.sha256(stdout.encode()).hexdigest()


# ----------------------------------------------------------------------
# output checks: each returns None when the output is right, else a reason


def _option(job, flag):
    return job.argv[job.argv.index(flag) + 1]


def _ratio(token):
    p, _, q = token.partition(":")[2].partition("/")
    return Fraction(int(p), int(q))


def _check_area(job, doc):
    lower, upper = Fraction(doc["lower_exact"]), Fraction(doc["upper_exact"])
    if not 0 <= lower <= upper <= 1:
        return "area bracket [%s, %s] is not ordered inside [0, 1]" % (lower, upper)
    if doc["n"] != int(_option(job, "-n")):
        return "area echoes n=%r" % doc["n"]
    if doc["resolution"] != int(_option(job, "--resolution")):
        return "area echoes resolution=%r" % doc["resolution"]
    return None


def _check_holes_genuine(job, doc):
    if not doc["candidates"] or doc["violations"]:
        return "expected candidates and no violations"
    if doc["genuine"] != doc["candidates"]:
        return "genuine holes differ from the candidates at a multinacci ratio"
    return None


def _check_holes_violated(job, doc):
    violating = {tuple(v["hole_word"]) for v in doc["violations"]}
    genuine = {tuple(w) for w in doc["genuine"]}
    if not violating:
        return "expected violations above lambda*"
    if violating & genuine or violating | genuine != {tuple(w) for w in doc["candidates"]}:
        return "genuine and violating holes do not partition the candidates"
    return None


def _check_selfsim_consistent(job, doc):
    if doc.get("consistent_up_to") != int(_option(job, "-n")):
        return "expected consistency up to the requested level"
    return None


def _check_selfsim_violated(job, doc):
    violation = doc.get("violation")
    if violation is None or not 0 <= violation["level"] <= int(_option(job, "-n")):
        return "expected a violation within the requested levels"
    return None


def _check_ell(job, doc):
    if not any(doc["witness_coeffs"]) or not doc["min_abs"] > 0:
        return "expected a nonzero witness with a positive minimum"
    value = abs(sum(s * doc["theta"] ** k for k, s in enumerate(doc["witness_coeffs"])))
    if abs(value - doc["min_abs"]) > 1e-8:
        return "the witness does not attain the reported minimum"
    if doc["n_max"] != int(_option(job, "--degree")):
        return "ell echoes n_max=%r" % doc["n_max"]
    theta = _option(job, "--theta")
    m = 2 if theta == "golden" else (
        int(theta.partition(":")[2]) if theta.startswith("omega-inv:") else None)
    if m is not None and (doc["multinacci_reciprocal"] != m or doc["certified"]):
        return "a multinacci reciprocal must be flagged and left uncertified"
    return None


def _check_witness(job, doc):
    lam = _ratio(_option(job, "--lambda"))
    n, digits = doc["n"], doc["digits"]
    if len(digits) != n - 1:
        return "witness needs n-1 digits"
    rest = 1 - sum(a * lam ** (k + 1) for k, a in enumerate(digits))
    if not (2 * lam - 1) * lam**n < (1 - lam) * rest < (1 - lam) * lam**n:
        return "witness digits fail the exact pinch inequalities"
    return None


def check(job, rc, stdout, expected=None):
    """None when the job's output is right, else what is wrong with it.

    ``expected`` is the recorded (exit code, stdout digest) pair, when the
    seed has one; the invariants are checked in every case.
    """
    if expected is not None and [rc, digest(stdout)] != list(expected):
        return "exit code or output differs from the recorded run"
    if rc != job.expect_rc:
        return "exit code %r, expected %d" % (rc, job.expect_rc)
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    return _CHECKS[job.kind](job, doc)


_CHECKS = {
    "area": _check_area,
    "holes_genuine": _check_holes_genuine,
    "holes_violated": _check_holes_violated,
    "selfsim_consistent": _check_selfsim_consistent,
    "selfsim_violated": _check_selfsim_violated,
    "ell": _check_ell,
    "witness": _check_witness,
}
