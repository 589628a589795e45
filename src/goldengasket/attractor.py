"""Level sets, hole classification and measured views of the attractor.

The level-n set is a union of deduplicated corner regions f_w(simplex) over
words of length n.  Candidate holes are the images f_w(H_0) of the central
hole; a candidate is genuine when it misses every region one level deeper.
Area brackets ride on a barycentric grid whose cell tests are integer
comparisons of exact ceilings; box counts count each level's regions.

A level set is its regions' packed bound ints, one int per region of one
``exact.VectorFrame`` per level set, with the maker chain that gives their
words: ``_levels`` yields each level as the ints in word order, each
child's maker offsets and its digit, so a child is one int add, dedup
hashes one int and a bound is read off its lane group by a shift and a
mask.  ``CornerRegion`` views, and their words, are made only where
regions are read: by ``LevelSet.regions`` on first use and for the hole
sweep's candidates and violating regions.  Bounds are decided on their
certified integer images, one per distinct lane group, by the exact core's
deciders, and drop to the exact scalars only on a straddle: the hole sweep
ranks the bounds it reads once, by sorted position, since distinct lane
groups hold distinct scalars, so a pair is an int compare; the grid
compares ceilings.  The maps share one ratio and are centred at the
vertices, so every level set is closed under the permutations of the
vertices: the hole sweep descends one hole per orbit and permutes the
bound fields of its regions' ints for the others.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, repeat
from operator import add, itemgetter, lshift

from .errors import DomainError, ResourceLimit
from .exact import (
    VectorFrame,
    as_scalar,
    compare,
    image_ceil,
    scalar_ceil,
    scalar_sign,
)
from .geometry import (
    CornerRegion,
    HoleRegion,
    _bound_below,
    hole_meets_region,
    hole_region,
    intersection_bounds,
)

__all__ = [
    "ConsistentUpTo",
    "HoleReport",
    "LevelSet",
    "RenderOptions",
    "Violation",
    "box_dimension_estimate",
    "build_level",
    "check_total_self_similarity",
    "classify_holes",
    "estimate_area",
    "render_svg",
]

# Words enumerated per level entry point unless ``max_words`` says otherwise.
DEFAULT_WORD_CAP = 3**14


def _check_lam(lam):
    lam = as_scalar(lam)
    if scalar_sign(lam) <= 0 or compare(lam, 1) >= 0:
        raise DomainError("contraction ratio must lie in (0, 1)")
    return lam


def _check_level(d, n):
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise DomainError("simplex dimension must be a positive integer")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError("level must be a nonnegative integer")


@dataclass(frozen=True)
class LevelSet:
    """Deduplicated corner regions whose union is the level-n set.

    ``regions`` is a ``_Regions``: the packed bound ints and the maker
    chain of ``_levels``, read as ``CornerRegion`` views only when indexed
    or iterated.  ``len`` counts the ints.
    """

    lam: object
    d: int
    n: int
    regions: Sequence

    def __len__(self):
        return len(self.regions)


class _Regions(Sequence):
    """The regions of a level as packed bound ints ``vecs`` of ``frame``,
    in word order, and ``chain``, the ``(starts, digits)`` of levels 1..n
    of ``_levels``.  The views, words from the maker chain, are made once,
    on the first index, iteration or comparison."""

    def __init__(self, frame, vecs, chain):
        self.frame, self.vecs, self.chain = frame, vecs, chain
        self._views = None

    def __len__(self):
        return len(self.vecs)

    def __getitem__(self, i):
        return self._made()[i]

    def __iter__(self):
        return iter(self._made())

    def __eq__(self, other):
        if not isinstance(other, _Regions):
            return NotImplemented
        return self._made() == other._made()

    def __hash__(self):
        return hash(self._made())

    def _made(self):
        if self._views is None:
            frame, n = self.frame, len(self.chain)
            self._views = tuple(CornerRegion(frame, vec, n, word)
                                for vec, word in zip(self.vecs, _words(self.chain)))
        return self._views


def _check_words(d, depth, max_words):
    """Refuse a word cap below 1, and a level whose (d+1)^depth words
    exceed the word cap."""
    if max_words is not None and max_words < 1:
        raise DomainError("max_words must be >= 1")
    cap = DEFAULT_WORD_CAP if max_words is None else max_words
    if (d + 1) ** depth > cap:
        raise ResourceLimit("%d words at level %d exceed the cap %d"
                            % ((d + 1) ** depth, depth, cap))


def _levels(lam, d, depth, max_words=None):
    """Yield each deduplicated level 0..depth as a tree under its makers.

    Level k comes as ``(frame, vecs, starts, digits)``: the packed bound
    ints of its regions in word order of first appearance, and (``None``
    at level 0) offsets such that region i of level k-1 made
    ``vecs[starts[i]:starts[i+1]]``, and the digit each of those appended
    to its maker's word.  A region's maker is the parent whose child it
    was when first made.  A child raises one lower bound of its maker, so
    it lies inside it, and children of bound-identical regions are
    bound-identical, so dedup runs level by level.  The (d+1)^depth words
    are checked against ``max_words``; no word or view is made here.

    The ints are vectors of one ``VectorFrame`` of all the levels, whose
    lanes hold any sum of the steps (1 - lam) lam^k: digit j at position k
    of a word adds the step's ``delta`` at bound j to its maker's int, and
    dedup hashes the ints.
    """
    _check_words(d, depth, max_words)
    steps = [(1 - lam) * lam**k for k in range(depth)]
    frame = VectorFrame(lam, steps)
    vecs = [frame.pack((0,) * ((d + 1) * frame.deg))]
    yield frame, vecs, None, None
    for step in map(frame.vector, steps):
        shifts = [(frame.delta(step, j), j) for j in range(d + 1)]
        kept = {}
        keep = kept.setdefault
        starts = [0]
        for vec in vecs:
            for shift, digit in shifts:
                keep(vec + shift, digit)
            starts.append(len(kept))
        vecs = list(kept)
        yield frame, vecs, starts, list(kept.values())


def _words(chain, words=((),)):
    """``words`` folded over the ``(starts, digits)`` of the levels in
    ``chain``: each maker's word with the digit of each child it made."""
    for starts, digits in chain:
        words = [word + (digits[c],) for word, a, b in zip(words, starts, starts[1:])
                 for c in range(a, b)]
    return words


def build_level(lam, d, n, max_words=None):
    """The level-n set as deduplicated corner regions.

    Word order of first appearance is kept, which makes the output
    deterministic.  ``max_words`` overrides ``DEFAULT_WORD_CAP``.
    """
    _check_level(d, n)
    lam = _check_lam(lam)
    chain = []
    for frame, vecs, starts, digits in _levels(lam, d, n, max_words):
        chain.append((starts, digits))
    return LevelSet(lam=lam, d=d, n=n, regions=_Regions(frame, vecs, chain[1:]))


@dataclass(frozen=True)
class HoleReport:
    """Outcome of classify_holes at one level.

    Every candidate lands in ``genuine`` or among the holes of
    ``violations``, never both; each (hole, region) pair appears once.
    """

    n: int
    candidates: tuple
    genuine: tuple
    violations: tuple

    def violating_holes(self):
        """The holes of ``violations`` in order: one view per hole, shared by its pairs."""
        return tuple({id(h): h for h, _ in self.violations}.values())

    def as_json_dict(self, lam_value):
        return {
            "lambda": lam_value,
            "n": self.n,
            "candidates": [list(h.word) for h in self.candidates],
            "genuine": [list(h.word) for h in self.genuine],
            "violations": [
                {"hole_word": list(h.word), "region_word": list(r.word)}
                for h, r in self.violations
            ],
        }


def classify_holes(lam, d, n, max_words=None):
    """Classify the candidate holes f_w(H_0), |w| = n, against level n+1.

    Candidates are deduplicated by their exact bound vectors, and one per
    orbit of the vertex permutations, the first in word order, goes down
    the region tree of ``_levels`` with the others, a level at a time,
    pruning subtrees that miss each hole: a region lies inside its maker,
    so a meeting pair is reached, and tested, once; below the root only
    the bound a region's last digit raised is tested, by ranks (``_rank``).
    The other members of an orbit meet the permuted regions of its
    representative, each found by packed int, and are sorted into word
    order once per violating hole.  Words are made for level n, and for
    level n+1 only for violations.
    The bounds of a candidate sum to 1 + lam^n (d - (d+1) lam), so at ratios
    >= d/(d+1) the central hole is empty and no level is built.
    """
    _check_level(d, n)
    lam = _check_lam(lam)
    _check_words(d, n + 1, max_words)
    if compare(lam, Fraction(d, d + 1)) >= 0:
        return HoleReport(n=n, candidates=(), genuine=(), violations=())
    tree = list(_levels(lam, d, n + 1, max_words))
    return _classify(lam, d, n, tree, _words(level[2:] for level in tree[1:n + 1]))


def _rank(frame, groups):
    """Images and ranks of the distinct lane groups ``groups`` of ``frame``
    (lane groups are biased alike at every bound).  A rank is a position in
    the order of the scalars, which differ for distinct lane groups of one
    frame, as dedup in ``_levels`` assumes.  The hole test's decider orders
    them, so an exact compare runs only on a straddle.  Presorted by image,
    they are in order but where images overlap: the sort (by x < y only)
    checks each neighbour once and moves only those."""
    images = {group: frame.images(frame.unpack(group))[0] for group in set(groups)}

    def below(x, y):
        return _bound_below(frame, x, y, 0, images[x], images[y])

    order = sorted(sorted(images, key=images.get),
                   key=cmp_to_key(lambda x, y: -below(x, y)))
    return images, dict(zip(order, range(len(order))))


def _descend(pairs, made, low, side, ups):
    """The pairs (h, c) of a level that meet, from ``pairs`` a level up:
    child c meets hole h when its raised bound side[c] ranks below h's."""
    return [(h, c) for h, at in pairs for up in (ups[h],)
            for c in range(made[at], made[at + 1]) if low[c] < up[side[c]]]


def _orbit_pairs(pairs, reps, uppers, vecs, span, mask):
    """The pairs (h, c) of every candidate h, sorted, from ``pairs``, those
    of the orbit representatives: ``reps[h]`` is h's, and ``uppers`` the
    upper lane groups of each.  Member h meets the regions whose packed
    ints, of ``vecs``, are the representative's with each bound field moved
    to where its upper group sits in h's (the two argsorts matched)."""
    met = {}
    for r, c in pairs:
        met.setdefault(r, []).append(c)
    out, index = [], None
    for h, r in enumerate(reps):
        regions = met.get(r)
        if regions is None:
            continue
        if h != r:
            src, dst = uppers[r], uppers[h]
            if index is None:
                index = {vec: c for c, vec in enumerate(vecs)}
                fields = {c: [vecs[c] >> j * span & mask for j in range(len(src))]
                          for c in chain(*met.values())}
            pick = itemgetter(*sorted(range(len(src)), key=src.__getitem__))
            to = [j * span for j in sorted(range(len(dst)), key=dst.__getitem__)]
            regions = sorted([index[sum(map(lshift, pick(fields[c]), to))] for c in regions])
        out += zip(repeat(h), regions)
    return out


def _classify(lam, d, n, tree, words):
    """The HoleReport of level n over ``tree``, the levels 0..n+1 of
    ``_levels``, and ``words``, level n's, swept a level at a time over the
    (hole, region) pairs that meet, below the root by ranks of the bounds
    children raised and of the holes'.  A level lists its regions in word
    order, each maker's children a range after its predecessor's, so the
    pairs stay sorted by hole, then region word; those at level n+1 are
    violations, and only they need level n+1's words.

    Only one hole per orbit of the (d+1)! vertex permutations is swept: the
    first in word order of the candidates whose upper bounds are the same
    lane groups in some order.  Permuting the vertices permutes the
    coordinates of every level set onto itself, so a permutation that takes
    a representative's bounds to a member's takes the regions that meet the
    one to those that meet the other (where bounds repeat, the regions that
    meet are fixed by the swap, so any matching of them serves).  A
    member's regions are the representative's with their bound fields so
    permuted, found by packed int in level n+1 and sorted into word order:
    one sort per violating hole that is not its orbit's representative."""
    frame = tree[0][0]
    span, mask = frame.span, (1 << frame.span) - 1
    width = frame.delta(frame.vector((1 - lam) * lam**n) * (d + 1))
    tops = [vec + width for vec in tree[n][1]]
    uppers = [tuple(top >> j * span & mask for j in range(d + 1)) for top in tops]
    levels = tree[1:n + 2]
    raised = (vec >> b * span & mask
              for _, vecs, _, digits in levels for vec, b in zip(vecs, digits))
    images, ranks = _rank(frame, chain(*uppers, raised))
    holes = [HoleRegion(frame, top, n, word, tuple(map(images.get, groups)))
             for top, word, groups in zip(tops, words, uppers)]
    root = CornerRegion(frame, tree[0][1][0], 0, ())
    ups = [tuple(map(ranks.get, groups)) for groups in uppers]
    orbits = {}
    reps = [orbits.setdefault(tuple(sorted(groups)), h) for h, groups in enumerate(uppers)]
    pairs = [(h, 0) for h, hole in enumerate(holes)
             if reps[h] == h and hole_meets_region(hole, root)]
    for _, vecs, made, digits in levels:
        low = [ranks[vec >> b * span & mask] for vec, b in zip(vecs, digits)]
        pairs = _descend(pairs, made, low, digits, ups)
    pairs = _orbit_pairs(pairs, reps, uppers, tree[n + 1][1], span, mask)
    deeper = _words([tree[n + 1][2:]], words) if pairs else ()
    views = {c: CornerRegion(frame, tree[n + 1][1][c], n + 1, deeper[c])
             for c in {c for _, c in pairs}}
    hit = {h for h, _ in pairs}
    return HoleReport(n=n, candidates=tuple(holes),
                      genuine=tuple(hole for h, hole in enumerate(holes) if h not in hit),
                      violations=tuple((holes[h], views[c]) for h, c in pairs))


@dataclass(frozen=True)
class ConsistentUpTo:
    """No hole violation at any level <= n_max.  Evidence, not a proof."""

    n_max: int


@dataclass(frozen=True)
class Violation:
    """A candidate hole meets a region one level deeper: a disproof."""

    word: tuple
    level: int


def check_total_self_similarity(lam, d, n_max, max_words=None):
    """First hole violation in levels 0..n_max, or consistency up to n_max
    (evidence, not a proof), each level classified as ``classify_holes`` does
    on one tree that grows a level at a time.  The first level whose next
    exceeds the word cap is refused after those below it are classified;
    with d = 1 every hole is empty and no level is built."""
    _check_level(d, n_max)
    lam = _check_lam(lam)
    if compare(lam, Fraction(1, 2)) <= 0 or compare(lam, Fraction(2, 3)) >= 0:
        raise DomainError("self-similarity scan expects lam in (1/2, 2/3)")
    # The deepest level the scan reaches: n_max + 1, or the last within the cap.
    cap = DEFAULT_WORD_CAP if max_words is None else max_words
    depth = next(k for k in range(n_max + 2) if k > n_max or (d + 1) ** (k + 1) > cap)
    if compare(lam, Fraction(d, d + 1)) < 0:
        levels = _levels(lam, d, depth, max_words)
        tree, words = [next(levels)], [()]
        for n in range(depth):
            tree.append(next(levels))
            words = _words([tree[n][2:]] if n else (), words)
            report = _classify(lam, d, n, tree, words)
            if report.violations:
                hole, _ = report.violations[0]
                return Violation(word=hole.word, level=n)
    _check_words(d, min(depth, n_max) + 1, max_words)
    return ConsistentUpTo(n_max=n_max)


# ----------------------------------------------------------------------
# barycentric grid counting
#
# Side split r gives r^2 cells: upward cells (i, j) with i + j <= r-1
# (third index k = r-1-i-j) and downward cells with i + j <= r-2
# (k = r-2-i-j).  Each bracket side has r rows of stride 2r, with upward
# cell (i, j) at 2r i + 2j and downward cell (i, j) right after it.  For a
# region with lower bounds L put C_j = ceil(r L_j), the gap
# g_j = r L_j - C_j in (-1, 0], and D_j = C_j - 1 when g_j < 0, else C_j.
# A cell of either orientation is contained in the region iff idx >= C
# componentwise; a downward cell meets the open region with positive area
# iff idx >= D, and an upward one iff idx >= D and, when exactly the
# coordinates in S sit below their C, sum(idx_t, t not in S) < r * (1 -
# sum(L_t, t in S)).  With one such coordinate that is automatic, with
# three it reads 0 < r lam^n, and with two, a and b, it is the corner test
# g_a + g_b < -1 on the corner cell idx_a = D_a, idx_b = D_b.  The bounds
# of a level-n region sum to 1 - lam^n, so g_a + g_b + g_c = T - r lam^n
# with T = r - C_0 - C_1 - C_2, and the corner test reads T + 1 < E_c for
# the integer E_c = ceil(r (L_c + lam^n)) - C_c of the third coordinate.
#
# So in row C_0 + m the contained cells are one run from 2 C_1 and the
# meeting cells one run from 2 D_1, whose end cells are the corner cells.
# Relative to the origin cell (C_0, C_1) the runs depend only on the key:
# T, the three gap flags g_j < 0 and the three corner verdicts, so they are
# built once per key, and every run stays inside its own row of the grid.
# L_j depends only on where digit j occurs, so C_j, its flag and E_j are
# kept once per distinct lane group.  Each ceiling and flag is read off the
# certified integer image and goes to the exact scalars only when the image
# straddles the answer.
#
# The regions are gathered by key as one int code each, the sum of its
# three bounds' codes, each made once per lane group: from the low end, the
# bound's share of the origin C_0 * 2r + 2 C_1 (2r C_0, 2 C_1 or 0), then
# 2 E_j + (g_j < 0) in bound j's own field, and C_j in a sum field at the
# top.  The fields are sized from r so that none carries into the next:
# the origin is at most 2r^2 + 2r, E_j at most r + 1 and C_j at most r.
# The codes are sorted once, so a run of equal high fields is the regions
# of one key, read once (T = r less the sum field), and its low fields are
# their origins in ascending order.  Regions of one key may differ in an
# E_j whose corner verdict is settled either way, and then the key comes
# in more than one run.
#
# Each run is written on a bit grid: each side is one int, cell c at bit
# c + 2r + 2 (a run starts at most one row and one column before its
# origin), and a run's origins are one int of marks.  A stamp run of
# length L is the marks dilated by L (shifts of 1, 2, 4, ... and a last
# partial one, taken in increasing L across the key's stamp runs) and
# shifted by its start, so each stamp run costs a few whole-grid int
# operations whatever the number of regions, and a count is one
# int.bit_count().  That wins where many regions share a key, as at deep
# levels; a shallow level on a fine grid pays those operations for a few
# regions with long stamps (about 3.3 s for omega_2 at n = 3, r = 2048).


class _Coordinates(dict):
    """(C, g < 0, E) of each distinct coordinate of r L, keyed by its lane
    group and made on first use; ``tail`` is the vector of lam^n."""

    def __init__(self, frame, r, tail):
        super().__init__()
        self.frame, self.r, self.tail = frame, r, tail

    def __missing__(self, group):
        vec = self.frame.unpack(group)
        c, frac = self._ceil(vec)
        e, _ = self._ceil(tuple(map(add, vec, self.tail)))
        self[group] = known = c, frac, e - c
        return known

    def _ceil(self, vec):
        """(ceil(r x), whether r x is not an integer) of the scalar x of
        ``vec``, from its image or, on a straddle, from ``scalar_ceil``."""
        frame, r = self.frame, self.r
        lo, hi = frame.images(vec)[0]
        return (image_ceil(r * lo, r * hi, frame.unit)
                or scalar_ceil(r * frame.scalar(vec)))


class _Codes(dict):
    """Bound j's code of each lane group, made on first use from its
    ``_Coordinates`` entry (C, g < 0, E): C * ``share`` in the origin
    field, 2 E + (g < 0) in bound j's field at ``shift`` and C in the sum
    field at ``top``."""

    def __init__(self, coordinates, share, shift, top):
        super().__init__()
        self.coordinates, self.share = coordinates, share
        self.shift, self.top = shift, top

    def __missing__(self, group):
        c, frac, e = self.coordinates[group]
        code = (c << self.top) + ((e << 1 | frac) << self.shift) + c * self.share
        self[group] = code
        return code


def _stamp(key, stride):
    """Runs (side, start, stop) of a region with stamp key ``key``,
    relative to its origin cell (C_0, C_1): side 0 holds the contained
    cells and side 1 the meeting cells."""
    t, f0, f1, f2, *verdicts = key
    corners = dict(zip(((0, 1), (0, 2), (1, 2)), verdicts))

    def meets(m, p):
        # whether the upward cell C + (m, p, T-1-m-p) meets the region
        short = tuple(s for s, o in enumerate((m, p, t - 1 - m - p)) if o < 0)
        return len(short) != 2 or corners[short]

    runs = [(0, m * stride, m * stride + 2 * (t - m) - 1) for m in range(t)]
    for m in range(-f0, t + 2):
        first, last = -f1, t - 1 - m + f2
        start = 2 * first + (not meets(m, first))
        stop = 2 * last + 1 - (not meets(m, last))
        if start < stop:
            runs.append((1, m * stride + start, m * stride + stop))
    return runs


def _stamp_origins(level, r):
    """Yield (key, base, codes) per run of a planar ``LevelSet``'s sorted
    codes on the r-grid, read off its packed bound ints and frame, no view
    made: the run's stamp key, its high fields as ``base`` and its codes,
    whose origins C_0 * 2r + 2 C_1 are ``code - base`` in ascending order.
    One key may come in more than one run."""
    frame, vecs = level.regions.frame, level.regions.vecs
    span = frame.span
    mask, span2 = (1 << span) - 1, 2 * span
    coordinates = _Coordinates(frame, r, frame.vector(level.lam ** level.n))
    low = (2 * r * r + 2 * r).bit_length()
    width = (2 * r + 3).bit_length()
    a, b, c = (_Codes(coordinates, share, low + j * width, low + 3 * width)
               for j, share in enumerate((2 * r, 2, 0)))
    codes = [a[vec & mask] + b[vec >> span & mask] + c[vec >> span2] for vec in vecs]
    codes.sort()
    field = (1 << width) - 1
    i = 0
    while i < len(codes):
        high = codes[i] >> low
        j = bisect_left(codes, (high + 1) << low, i)
        t = r - (high >> 3 * width)
        (e0, f0), (e1, f1), (e2, f2) = (divmod(high >> k * width & field, 2)
                                        for k in range(3))
        # A corner cell with two deficient coordinates exists iff T >= -1.
        key = (
            t, f0, f1, f2,
            t >= -1 and f0 and f1 and t + 1 < e2,
            t >= -1 and f0 and f2 and t + 1 < e1,
            t >= -1 and f1 and f2 and t + 1 < e0,
        )
        yield key, high << low, codes[i:j]
        i = j


def _grid_counts(level, r):
    """(contained, meeting) cell counts of a planar ``LevelSet`` on the
    r-grid, read off its packed bound ints and frame, no view made: the
    origins of each run of ``_stamp_origins`` become one int of marks, and
    each stamp run of its key a dilation of the marks on the bit grid."""
    bias = 2 * r + 2
    bits = [0, 0]
    for key, base, codes in _stamp_origins(level, r):
        marks = bytearray((codes[-1] - base) // 8 + 1)
        for code in codes:
            origin = code - base
            marks[origin >> 3] |= 1 << (origin & 7)
        dilated, length = int.from_bytes(marks, "little"), 1
        runs = sorted(_stamp(key, 2 * r), key=lambda run: run[2] - run[1])
        for side, start, stop in runs:
            while length < stop - start:
                step = min(length, stop - start - length)
                dilated |= dilated << step
                length += step
            bits[side] |= dilated << (start + bias)
    return bits[0].bit_count(), bits[1].bit_count()


def estimate_area(lam, d=2, n=0, resolution=256, max_words=None):
    """Two-sided bracket of area(level-n set) / area(simplex) on an r-grid.

    Cells contained in some region count toward lo; cells meeting some open
    region with positive area count toward hi.  Both counts are decided
    exactly, so [lo, hi] always brackets the true normalized area.
    """
    if d != 2:
        raise DomainError("area grid is implemented for the planar case d = 2")
    if not isinstance(resolution, int) or resolution < 64:
        raise DomainError("resolution must be an integer >= 64")
    level = build_level(lam, d, n, max_words)
    lo_count, hi_count = _grid_counts(level, resolution)
    cells = resolution * resolution
    return Fraction(lo_count, cells), Fraction(hi_count, cells)


def box_dimension_estimate(lam, d=2, n=8, delta_range=None, max_words=None):
    """Least-squares slope of log N against log(1/scale).

    N(delta) counts the cylinder cells occupied by the level-n set: the
    deduplicated level-k regions of side lam^k, with k matched to delta and
    the realized scale lam^k entering the fit.  Cylinder cells are the
    barycentric grid aligned with the maps; a uniform-pitch grid saturates
    at coarse scales, where every cell meets the set as soon as the pitch
    exceeds the widest hole.  Scales must stay at or above lam^n, below
    which truncation to the level-n set dominates.  Default scales are
    lam^3 .. lam^8.
    """
    _check_level(d, n)
    lam = _check_lam(lam)
    lam_f = float(lam)
    if delta_range is None:
        deltas = [lam_f**k for k in range(3, min(n, 8) + 1)]
    else:
        deltas = [float(x) for x in delta_range]
    if len(deltas) < 2:
        raise DomainError("need at least two scales for a slope")
    ks = []
    for delta in deltas:
        if not 0 < delta < 1:
            raise DomainError("scales must lie in (0, 1)")
        k = round(math.log(delta) / math.log(lam_f))
        if not 1 <= k <= n:
            raise DomainError("scale %g falls outside lam^1 .. lam^n" % delta)
        ks.append(k)
    counts = [len(vecs) for _, vecs, _, _ in _levels(lam, d, max(ks), max_words)]
    xs = [-k * math.log(lam_f) for k in ks]
    ys = [math.log(counts[k]) for k in ks]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise DomainError("scales collapse to a single cylinder level")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx


# ----------------------------------------------------------------------
# rendering

_VERTS = (
    (0.0, 2.0 / 3.0),
    (-math.sqrt(3.0) / 3.0, -1.0 / 3.0),
    (math.sqrt(3.0) / 3.0, -1.0 / 3.0),
)


# Greyscale palette of render_svg.
_FILL = "#4d4d4d"
_OUTLINE = "#1a1a1a"
_OUTLINE_WIDTH = 0.006
_BACKGROUND = "#ffffff"
_RADIAL_FILL = "#c9c9c9"
_OVERLAP_FILL = "#8f8f8f"


@dataclass(frozen=True)
class RenderOptions:
    """What render_svg draws: image size and the optional overlays."""

    size: int = 640
    radial_holes: bool = False
    overlap_regions: bool = False


def _plane(bary):
    x = bary[0] * _VERTS[0][0] + bary[1] * _VERTS[1][0] + bary[2] * _VERTS[2][0]
    y = bary[0] * _VERTS[0][1] + bary[1] * _VERTS[1][1] + bary[2] * _VERTS[2][1]
    return x, -y


def _corner_path(base, step):
    """SVG path of the triangle with corners base + step on coordinate j,
    j = 0, 1, 2, in barycentric coordinates."""
    p, q, s = (
        _plane([b + (step if i == j else 0.0) for i, b in enumerate(base)])
        for j in range(3)
    )
    return "M %.6f %.6f L %.6f %.6f L %.6f %.6f Z" % (
        p[0], p[1], q[0], q[1], s[0], s[1],
    )


def render_svg(lam, d=2, n=6, path="gasket.svg", options=None, max_words=None):
    """Write the level-n set as a deterministic SVG and return the path.

    One filled path per deduplicated region on the outline of the simplex;
    options overlay the radial candidate holes f_i^k(H_0) and the pairwise
    overlaps of the first-level images.
    """
    if d != 2:
        raise DomainError("rendering is implemented for the planar case d = 2")
    opts = options if options is not None else RenderOptions()
    if not isinstance(opts.size, int) or opts.size < 1:
        raise DomainError("image size must be an integer >= 1")
    level = build_level(lam, d, n, max_words)
    lam_s = level.lam
    side = float(lam_s**n)

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%d" height="%d" viewBox="-0.72 -0.72 1.44 1.44">'
        % (opts.size, opts.size),
        '<rect x="-0.72" y="-0.72" width="1.44" height="1.44" fill="%s"/>'
        % _BACKGROUND,
    ]
    lines.append(
        '<path d="%s" fill="none" stroke="%s" stroke-width="%.6f"/>'
        % (_corner_path((0.0, 0.0, 0.0), 1.0), _OUTLINE, _OUTLINE_WIDTH)
    )
    lines.append('<g fill="%s" fill-rule="nonzero">' % _FILL)
    for reg in level.regions:
        base = [float(b) for b in reg.bounds]
        lines.append('<path d="%s"/>' % _corner_path(base, side))
    lines.append("</g>")

    if opts.overlap_regions:
        first = build_level(lam_s, 2, 1, max_words).regions
        lines.append('<g fill="%s" fill-rule="nonzero">' % _OVERLAP_FILL)
        for a in range(3):
            for b in range(a + 1, 3):
                m = intersection_bounds(first[a], first[b])
                base = [float(x) for x in m]
                rest = 1.0 - sum(base)
                if rest <= 0.0:
                    continue
                lines.append('<path d="%s"/>' % _corner_path(base, rest))
        lines.append("</g>")

    if opts.radial_holes:
        words = [()] + [(i,) * k for k in range(1, n + 1) for i in range(3)]
        lines.append('<g fill="%s" fill-rule="nonzero">' % _RADIAL_FILL)
        for w in words:
            h = hole_region(w, lam_s, 2)
            if h.is_empty():
                continue
            ub = [float(u) for u in h.bounds]
            # The hole is the downward triangle below its upper bounds.
            lines.append('<path d="%s"/>' % _corner_path(ub, 1.0 - sum(ub)))
        lines.append("</g>")

    lines.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    return path
