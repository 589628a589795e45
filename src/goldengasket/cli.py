"""Command-line front end.

Every ratio and base enters through an exact token (omega:<m>,
rational:<p>/<q>, lambda-star, real:<decimal>, and for bases golden,
omega-inv:<m>, pisot:<1..4>), so no float ever reaches the exact core.
Exit codes separate tool failure (1) from a negative mathematical verdict
(2: a self-similarity violation, genuine hole violations, or a witness
search coming back empty); 0 means the run succeeded and the verdict,
if any, was positive.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from itertools import chain

from .attractor import (
    ConsistentUpTo,
    RenderOptions,
    box_dimension_estimate,
    check_total_self_similarity,
    classify_holes,
    estimate_area,
    render_svg,
)
from .errors import DomainError, PrecisionExhausted, ResourceLimit
from .exact import (
    AlgebraicNumber,
    as_scalar,
    compare,
    gasket_dimension,
    lambda_star,
    multinacci,
    sierpinski_dimension,
)
from .separation import (
    DEFAULT_NODE_CAP,
    NotFound,
    SeparationReport,
    converse_witness,
    ell_upper,
    golden_ratio,
    is_multinacci_reciprocal,
    multinacci_reciprocal,
    pisot_number,
    separation_bound_check,
)
from .words import (
    greedy_expansion,
    h_sequence,
    p_sequence,
    u_sequence,
    unique_address_counts,
)

__all__ = ["main", "parse_ratio_token", "parse_theta_token"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERDICT = 2


class _ParseFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; here that code means a negative
    # verdict, so parse problems are turned into ordinary errors instead.
    def error(self, message):
        raise _ParseFailure(message)


# ----------------------------------------------------------------------
# exact tokens


def _rational_token(kind, rest):
    """The value of a rational:<p>/<q> or real:<decimal> token, else None."""
    if kind == "rational":
        p, slash, q = rest.partition("/")
        if not slash:
            raise DomainError("rational token needs <p>/<q>")
        if int(q) == 0:
            raise DomainError("rational token needs a nonzero denominator")
        return Fraction(int(p), int(q))
    if kind == "real":
        return Fraction(rest)
    return None


def parse_ratio_token(token):
    """omega:<m> | rational:<p>/<q> | lambda-star | real:<decimal>"""
    if token == "lambda-star":
        return lambda_star()
    kind, sep, rest = token.partition(":")
    if sep and rest:
        if kind == "omega":
            return multinacci(int(rest))
        value = _rational_token(kind, rest)
        if value is not None:
            return value
    raise DomainError("unrecognized ratio token %r" % token)


def parse_theta_token(token):
    """golden | omega-inv:<m> | pisot:<1..4> | rational:<p>/<q> | real:<dec>"""
    if token == "golden":
        return golden_ratio()
    kind, sep, rest = token.partition(":")
    if sep and rest:
        if kind == "omega-inv":
            return multinacci_reciprocal(int(rest))
        if kind == "pisot":
            return pisot_number(int(rest))
        value = _rational_token(kind, rest)
        if value is not None:
            return value
    raise DomainError("unrecognized base token %r" % token)


def _describe(value):
    if isinstance(value, AlgebraicNumber):
        return repr(value)
    return "%d/%d" % (value.numerator, value.denominator)


# Namespace entries that are parser plumbing rather than options of the run.
_PLUMBING = ("command", "handler", "dry_run", "lam_token", "theta_token")
_CAPS = ("max_words", "node_cap")


def _dry_run_dict(args):
    """Every option the subcommand takes, with exact tokens resolved."""
    d = {"subcommand": args.command}
    caps = {name: getattr(args, name) for name in _CAPS if hasattr(args, name)}
    if caps:
        d["caps"] = caps
    for name, value in vars(args).items():
        if name in _PLUMBING or name in _CAPS or value is None:
            continue
        if name in ("lam", "theta"):
            d["lambda" if name == "lam" else name] = {
                "token": getattr(args, name + "_token"),
                "exact": _describe(value),
                "float": float(value),
            }
        else:
            d[name] = _describe(value) if isinstance(value, Fraction) else value
    return d


# ----------------------------------------------------------------------
# output plumbing


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def _json_text(obj, pad):
    """``json.dumps(obj, indent=2, sort_keys=True)`` for ``obj`` at indent ``pad``.

    The same bytes without the pure-Python encoder that ``indent`` selects:
    containers are laid out here, and keys and every other scalar go through
    the C encoder, whose key encoder raises TypeError on a key that is not a
    str.  A list whose items all have one of two shapes is laid out a column
    at a time, by one format string per item (``_items_text``):

    - int rows: lists or tuples of one nonzero length k holding only ints
      (``type(x) is int``, so no bool, float or IntEnum), each formatted by
      one template of k ``%d`` fields;
    - records: non-empty dicts with one key set, each key's values laid out
      as a column in the same way, and each record formatted from its row of
      the columns by one template with a ``%s`` per key (key texts
      ``%``-escaped).

    A list of such ints takes ``int.__repr__`` per item.  Any other list,
    ragged rows and records with different key sets among them, takes one
    ``_json_text`` call per item.
    """
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        key_text = json.encoder.encode_basestring_ascii
        body = [key_text(key) + ": " + _json_text(obj[key], inner)
                for key in sorted(obj)]
        return _bracket("{", body, "}", pad)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return _bracket("[", list(_items_text(obj, inner)), "]", pad)
    return json.dumps(obj)


def _bracket(opening, body, closing, pad):
    """The non-empty list of texts ``body``, one per line at indent
    ``pad + "  "``, between brackets at indent ``pad``.

    The brackets go onto the first and last texts, so that the one join
    makes the only copy of a large body.
    """
    inner = pad + "  "
    body[0] = opening + "\n" + inner + body[0]
    body[-1] += "\n" + pad + closing
    return (",\n" + inner).join(body)


def _items_text(items, pad):
    """The texts ``_json_text(x, pad)`` of a non-empty list's items, a column
    at a time for the shapes ``_json_text`` lists.

    The column shapes return lazy iterators, so the texts of a record column
    are made as the records are formatted and dropped right after, not held
    for the whole list.
    """
    types = set(map(type, items))
    if types == {int}:
        return map(int.__repr__, items)
    first = items[0]
    if (types <= {list, tuple} and first and len(set(map(len, items))) == 1
            and set(map(type, chain.from_iterable(items))) == {int}):
        template = _bracket("[", ["%d"] * len(first), "]", pad)
        return map(template.__mod__, map(tuple, items))
    if (types == {dict} and first
            and all(map(first.keys().__eq__, map(dict.keys, items)))):
        keys = sorted(first)
        key_text = json.encoder.encode_basestring_ascii
        fields = [key_text(key).replace("%", "%%") + ": %s" for key in keys]
        template = _bracket("{", fields, "}", pad)
        inner = pad + "  "
        columns = [_items_text([d[key] for d in items], inner) for key in keys]
        return map(template.__mod__, zip(*columns))
    return [_json_text(x, pad) for x in items]


def _emit_json(obj, path):
    _write_text(path, _json_text(obj, "") + "\n")


def _emit_csv(rows, path):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerows(rows)
    _write_text(path, buf.getvalue())


# ----------------------------------------------------------------------
# subcommands


def cmd_table1(args):
    rows = [["m", "omega", "dimension"]]
    for m in range(2, 10):
        rows.append([
            str(m),
            "%.5f" % float(multinacci(m)),
            "%.5f" % gasket_dimension(m),
        ])
    rows.append(["inf", "%.5f" % 0.5, "%.5f" % (math.log(3) / math.log(2))])
    _emit_csv(rows, args.output)
    return EXIT_OK


def cmd_table2(args):
    header = ["d"] + ["m=%d" % m for m in range(2, 7)] + ["half"]
    rows = [header]
    for d in range(2, 7):
        row = [str(d)]
        row += ["%.2f" % gasket_dimension(m, d) for m in range(2, 7)]
        row.append("%.3f" % sierpinski_dimension(d, Fraction(1, 2)))
        rows.append(row)
    _emit_csv(rows, args.output)
    return EXIT_OK


def cmd_render(args):
    options = RenderOptions(
        size=args.size,
        radial_holes=args.radial_holes,
        overlap_regions=args.overlaps,
    )
    path = render_svg(
        args.lam,
        n=args.depth,
        path=args.output or "gasket.svg",
        options=options,
        max_words=args.max_words,
    )
    print(path)
    return EXIT_OK


def cmd_holes(args):
    report = classify_holes(args.lam, args.dimension, args.depth,
                            max_words=args.max_words)
    _emit_json(report.as_json_dict(float(args.lam)), args.output)
    return EXIT_VERDICT if report.violations else EXIT_OK


def cmd_selfsim(args):
    verdict = check_total_self_similarity(args.lam, args.dimension, args.depth,
                                          max_words=args.max_words)
    if isinstance(verdict, ConsistentUpTo):
        doc, code = {"consistent_up_to": verdict.n_max}, EXIT_OK
    else:
        doc = {"violation": {"word": list(verdict.word), "level": verdict.level}}
        code = EXIT_VERDICT
    doc["lambda"] = float(args.lam)
    _emit_json(doc, args.output)
    return code


def cmd_area(args):
    lo, hi = estimate_area(args.lam, n=args.depth, resolution=args.resolution,
                           max_words=args.max_words)
    _emit_json(
        {
            "lambda": float(args.lam),
            "n": args.depth,
            "resolution": args.resolution,
            "lower": float(lo),
            "upper": float(hi),
            "lower_exact": _describe(lo),
            "upper_exact": _describe(hi),
        },
        args.output,
    )
    return EXIT_OK


def cmd_boxdim(args):
    estimate = box_dimension_estimate(args.lam, args.dimension, args.depth,
                                      max_words=args.max_words)
    _emit_json(
        {"lambda": float(args.lam), "n": args.depth, "estimate": estimate},
        args.output,
    )
    return EXIT_OK


def cmd_ell(args):
    theta = args.theta
    theta_s = as_scalar(theta)
    if compare(theta_s, Fraction(3, 2)) > 0 and compare(theta_s, 2) < 0:
        report = separation_bound_check(theta, args.degree, node_cap=args.node_cap)
    else:
        # Outside (3/2, 2) the ceiling does not apply: report the raw minimum.
        found = ell_upper(theta, args.degree, node_cap=args.node_cap)
        report = SeparationReport.of(theta, args.degree, found,
                                     is_multinacci_reciprocal(theta))
    _emit_json(report.as_json_dict(), args.output)
    return EXIT_OK


def cmd_witness(args):
    result = converse_witness(args.lam, args.depth)
    if isinstance(result, NotFound):
        doc, code = {"not_found": result.reason}, EXIT_VERDICT
    else:
        doc, code = {"n": result.n, "digits": list(result.digits)}, EXIT_OK
    doc["lambda"] = float(args.lam)
    _emit_json(doc, args.output)
    return code


def cmd_uniq(args):
    rows = [["n", "count", "ratio"]]
    prev = None
    for n, c in enumerate(unique_address_counts(args.m, args.depth), 1):
        ratio = "" if prev is None else "%.10f" % (c / prev)
        rows.append([str(n), str(c), ratio])
        prev = c
    _emit_csv(rows, args.output)
    return EXIT_OK


def cmd_seq(args):
    if args.which == "u":
        seq = u_sequence(args.depth)
    elif args.which == "h":
        seq = h_sequence(args.m, args.depth)
    else:
        seq = p_sequence(args.m, args.depth)
    rows = [["n", "value"]]
    rows += [[str(n), str(v)] for n, v in enumerate(seq.values)]
    _emit_csv(rows, args.output)
    return EXIT_OK


def cmd_expand(args):
    expansion = greedy_expansion(args.lam, args.x, args.depth,
                                 tail_convention=args.tail)
    _emit_json(
        {
            "lambda": float(args.lam),
            "x": _describe(args.x),
            "digits": list(expansion.digits),
        },
        args.output,
    )
    return EXIT_OK


# ----------------------------------------------------------------------
# parser


def _add_common(sub, lam=False, theta=False, depth=None, res=False,
                levels=False):
    if lam:
        sub.add_argument("--lambda", dest="lam_token", required=True,
                         help="omega:<m> | rational:<p>/<q> | lambda-star | real:<dec>")
    if theta:
        sub.add_argument("--theta", dest="theta_token", required=True,
                         help="golden | omega-inv:<m> | pisot:<1..4> | "
                              "rational:<p>/<q> | real:<dec>")
    if depth is not None:
        sub.add_argument("--depth", "-n", type=int, default=depth)
    if res:
        sub.add_argument("--resolution", type=int, default=256)
    if levels:
        # only the subcommands that enumerate levels take a word budget
        sub.add_argument("--max-words", type=int, default=None,
                         help="override the enumeration cap of 3^14 words")
    sub.add_argument("-o", "--output", default=None)
    sub.add_argument("--dry-run", action="store_true", dest="dry_run")


def _arg(*flags, **options):
    return flags, options


_DIMENSION = _arg("--dimension", "-d", type=int, default=2)

# name: (help, handler, options of _add_common, further arguments)
_SUBCOMMANDS = {
    "table1": ("dimension table over multinacci ratios", cmd_table1, {}, ()),
    "table2": ("dimension grid over simplex dimensions", cmd_table2, {}, ()),
    "render": ("write an SVG of the level-n region set", cmd_render,
               dict(lam=True, depth=6, levels=True),
               (_arg("--size", type=int, default=640),
                _arg("--radial-holes", action="store_true"),
                _arg("--overlaps", action="store_true"))),
    "holes": ("classify level-n hole candidates", cmd_holes,
              dict(lam=True, depth=4, levels=True), (_DIMENSION,)),
    "selfsim": ("search for a self-similarity violation", cmd_selfsim,
                dict(lam=True, depth=6, levels=True), (_DIMENSION,)),
    "area": ("bracket the covered fraction of the simplex", cmd_area,
             dict(lam=True, depth=8, res=True, levels=True), ()),
    "boxdim": ("box-counting dimension estimate", cmd_boxdim,
               dict(lam=True, depth=8, levels=True), (_DIMENSION,)),
    "ell": ("degree-bounded separation minimum", cmd_ell, dict(theta=True),
            (_arg("--degree", type=int, default=14),
             _arg("--node-cap", type=int, default=DEFAULT_NODE_CAP,
                  help="search-node budget for the signed-sum minimizer"))),
    "witness": ("digit witness against total self-similarity", cmd_witness,
                dict(lam=True, depth=16), ()),
    "uniq": ("counts of words with unique addresses", cmd_uniq,
             dict(depth=15), (_arg("--m", type=int, default=2),)),
    "seq": ("hole counting sequences", cmd_seq, dict(depth=12),
            (_arg("--which", choices=("u", "h", "p"), default="u"),
             _arg("--m", type=int, default=3))),
    "expand": ("greedy digit expansion", cmd_expand, dict(lam=True, depth=12),
               (_arg("--x", default="1", help="rational argument, e.g. 1 or 3/4"),
                _arg("--tail", action="store_true",
                     help="use the periodic tail form of the expansion of 1"))),
}


def build_parser(command=None):
    """The gasket parser with every subcommand, or with ``command`` only.

    A job needs only its own subcommand's parser; the full one serves help,
    a missing or unknown command, and an option before the command.
    """
    parser = _Parser(prog="gasket",
                     description="Overlapping simplex gaskets, exactly.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)
    for name in _SUBCOMMANDS if command is None else (command,):
        help_text, handler, common, arguments = _SUBCOMMANDS[name]
        s = subs.add_parser(name, help=help_text)
        _add_common(s, **common)
        for flags, options in arguments:
            s.add_argument(*flags, **options)
        s.set_defaults(handler=handler)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
    except _ParseFailure as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    try:
        if hasattr(args, "lam_token"):
            args.lam = parse_ratio_token(args.lam_token)
        if hasattr(args, "theta_token"):
            args.theta = parse_theta_token(args.theta_token)
        if hasattr(args, "x"):
            args.x = _rational_token("rational" if "/" in args.x else "real", args.x)
        if getattr(args, "node_cap", 1) < 1:
            raise DomainError("--node-cap must be >= 1")
        if getattr(args, "max_words", None) is not None and args.max_words < 1:
            raise DomainError("--max-words must be >= 1")
        if args.dry_run:
            _emit_json(_dry_run_dict(args), args.output)
            return EXIT_OK
        return args.handler(args)
    except (PrecisionExhausted, ResourceLimit, OSError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
