"""Command-line front end.

One job per invocation: parse the inputs, run the named computation, and
emit a deterministic report.  JSON is the machine format; the text
renderer exists for eyeball comparison of Betti tables and PASS/FAIL
lines.  Exit codes: 0 success, 2 parse error or unwritable --out, 3
precondition violation, 4 reference mismatch in a reproduction run.
Each subcommand names the fields it computes over (q, fp, fp2) and
refuses any other field, like a count flag below its range or a second
input (a form, --family and --points exclude each other), with exit
code 2.  Each repro case fixes its own field, which its envelope names;
so does `catalog reference-drop-curve`, whose stored curve is over GF(5),
and it refuses any --field but q and fp:5.
"""

import argparse
import hashlib
import json
import random
import sys
from fractions import Fraction
from functools import partial

from . import __version__, catalog, rankloci
from .apolarity import (
    PointSet,
    catalecticant,
    cube_span_contains,
    is_apolar_pointset,
    is_apolar_variety,
    min_partial_rank_scan,
    projective_key,
    q_f,
)
from .errors import ParseError, PreconditionError, ReferenceMismatch
from .fields import GF, QQ
from .forms import HomogeneousForm, monomial_count, parse_form
from .resolutions import (
    apolar_quotient_module,
    graded_betti,
    m2_matrix,
    points_quotient_module,
)

def parse_field_flag(text):
    """q -> QQ, fp:<p> -> GF(p), fp2:<p> -> GF(p^2)."""
    if text == "q":
        return QQ
    for prefix, degree in (("fp:", 1), ("fp2:", 2)):
        if text.startswith(prefix):
            try:
                p = int(text[len(prefix):])
            except ValueError:
                raise ParseError("field prime must be an integer: %r" % text)
            try:
                return GF(p, degree)
            except (ValueError, PreconditionError) as exc:
                raise ParseError("bad field %r: %s" % (text, exc))
    raise ParseError("unknown field descriptor %r (try q, fp:5, fp2:5)" % text)


def parse_family_flag(text):
    parts = text.split(",")
    if len(parts) != 5:
        raise ParseError("family wants 5 comma-separated values, got %d"
                         % len(parts))
    try:
        return tuple(Fraction(part.strip()) for part in parts)
    except (ValueError, ZeroDivisionError):
        raise ParseError("family values must be rationals: %r" % text)


def random_rational_points(count, seed, nvars=6, spread=9):
    """Seeded random points with small integer coordinates, no repeats."""
    rng = random.Random(seed)
    points = []
    seen = set()
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 100 * count:
            raise PreconditionError("could not draw %d distinct points" % count)
        pt = tuple(Fraction(rng.randint(-spread, spread))
                   for _ in range(nvars))
        if not any(pt):
            continue
        key = projective_key(pt, QQ)
        if key in seen:
            continue
        seen.add(key)
        points.append(pt)
    return points


def _random_line(field, rng, nvars):
    while True:
        a = catalog.random_nonzero_vector(nvars, field, rng)
        b = catalog.random_nonzero_vector(nvars, field, rng)
        if not rankloci.proportional(a, b, field.char):
            return (a, b)


def _field_kind(field):
    if field.char == 0:
        return "q"
    return "fp" if field.degree == 1 else "fp2"


def _at_least(value, low, flag):
    if value < low:
        raise ParseError("%s must be at least %d, got %d" % (flag, low, value))


def _envelope(command, field, seed, input_text, payload):
    digest = hashlib.sha256(input_text.encode("utf-8")).hexdigest()
    return {
        "tool": "apolarkit",
        "version": __version__,
        "command": command,
        "field": field.describe() if field is not None else None,
        "seed": seed,
        "input_sha256": digest,
        "report": payload,
    }


def _family_or_form(args, field):
    if getattr(args, "family", None):
        params = parse_family_flag(args.family)
        form = catalog.cubic_family(*params, field=field)
        label = "family(%s)" % ",".join(str(v) for v in params)
        return form, label
    if getattr(args, "form", None):
        form = parse_form(args.form, field, "x")
        return form, form.to_text()
    raise ParseError("provide a polynomial or --family a,b,c,d,e")


# ---- subcommands ------------------------------------------------------


def run_apolar(args, field, seed):
    f, label = _family_or_form(args, field)
    if f.degree < 1:
        raise PreconditionError("apolar needs a form of positive degree, "
                                "got degree %d" % f.degree)
    ranks = {}
    ideal_dims = {}
    hilbert = []
    for k in range(f.degree + 1):
        cat = catalecticant(f, k)
        ranks[k] = cat.rank()
        ideal_dims[k] = monomial_count(f.nvars, k) - ranks[k]
        hilbert.append(ranks[k])
    payload = {
        "input": label,
        "degree": f.degree,
        "variables": f.nvars,
        "hilbert_function": hilbert,
        "catalecticant_ranks": ranks,
        "apolar_ideal_dims": ideal_dims,
        "partial_space_dim": ranks[1],
    }
    if f.degree == 3:
        payload["qf_basis"] = [
            HomogeneousForm(f.nvars, 2, row, f.field, "y").to_text()
            for row in q_f(f).rows]
    return payload, True


def _betti_payload(table):
    return {"cells": [[i, j, b] for (i, j), b in sorted(table.nonzero().items())],
            "rendered": table.render_text()}


def run_betti(args, field, seed):
    for flag, value in (("--max-i", args.max_i), ("--max-j", args.max_j),
                        ("--max-row", args.max_row)):
        _at_least(value, 0, flag)
    max_row = args.max_row
    # one degree past the window lets the next strand row close proofs
    module_degree = max_row + 2
    if args.points is not None:
        _at_least(args.points, 1, "--points")
        if field != QQ:
            raise ParseError("betti --points computes over q, not %s"
                             % field.describe())
        pts = random_rational_points(args.points, seed)
        Z = PointSet(pts, QQ)
        module = points_quotient_module(Z, module_degree)
        label = "points(%d, seed=%d)" % (args.points, seed)
    else:
        f, label = _family_or_form(args, field)
        module = apolar_quotient_module(f, module_degree)
    table = graded_betti(module, args.max_i, args.max_j, max_row=max_row)
    payload = {"input": label, "window": [args.max_i, args.max_j, max_row]}
    payload.update(_betti_payload(table))
    matches = [name for name, ref in catalog.reference_betti_tables().items()
               if ref == table]
    payload["matches_reference"] = matches[0] if matches else None
    return payload, True


def run_m2(args, field, seed):
    _at_least(args.samples, 0, "--samples")
    f, label = _family_or_form(args, field)
    M = m2_matrix(f)
    rng = random.Random(seed)
    samples = []
    for _ in range(args.samples):
        pt = catalog.random_nonzero_vector(M.nvars, field, rng)
        samples.append({
            "point": [field.format_scalar(c) for c in pt],
            "rank": M.rank_at(pt),
        })
    payload = {
        "input": label,
        "shape": [M.nrows, M.ncols],
        "variables": M.nvars,
        "samples": samples,
    }
    if args.dump:
        payload["entries"] = M.to_json()
    return payload, True


def run_ranklocus(args, field, seed):
    _at_least(args.lines, 0, "--lines")
    _at_least(args.threshold, 0, "--threshold")
    f, label = _family_or_form(args, field)
    M = m2_matrix(f)
    matrix_ref = "m2(%s)" % label
    if args.restrict_plane:
        M = M.substitute(catalog.plane_substitution(field))
        matrix_ref += "|plane"
    curve, singulars, classification = None, [], None
    if args.interpolate:
        if M.nvars != 3:
            raise PreconditionError(
                "interpolation needs a 3-variable matrix; use --restrict-plane")
        curve, singulars, classification = _drop_curve_and_node(
            M, args.threshold, seed)
    rng = random.Random(seed)
    degrees = []
    if field.char > 50 and field.degree == 1:
        for _ in range(args.lines):
            line = _random_line(field, rng, M.nvars)
            degrees.append(rankloci.drop_degree_on_line(
                M, line, args.threshold, seed=rng.randrange(1 << 30)))
    payload = {
        "matrix": matrix_ref,
        "threshold": args.threshold,
        "line_degrees": degrees,
        "curve": curve.to_text() if curve is not None else None,
        "singular_points": singulars,
        "classification": classification,
    }
    return payload, True


def _drop_curve_and_node(M, threshold, seed):
    """The drop curve of a 3-variable matrix over GF(p), its singular
    points in P^2(F_{p^2}) as scalar text (a field too large to scan is
    refused first), and the grade of a lone one (else None)."""
    rankloci.require_scannable(M.field.char ** 2)
    curve = rankloci.interpolate_drop_curve(M, threshold, seed=seed)
    ext = GF(curve.field.char, 2)
    lifted = curve.lift_to(ext)
    singulars = rankloci.singular_points_plane_curve(lifted)
    grade = None
    if len(singulars) == 1:
        grade = rankloci.classify_singularity(lifted, list(singulars[0]))
    points = [[ext.format_scalar(c) for c in pt] for pt in singulars]
    return curve, points, grade


def run_catalog(args, field, seed):
    entries = {
        "veronese-quadrics": lambda F: [g.to_text()
                                        for g in catalog.veronese_ideal_quadrics(F)],
        "discriminant-cubic": lambda F: catalog.discriminant_cubic(F).to_text(),
        "plane-substitution": lambda F: [g.to_text()
                                         for g in catalog.plane_substitution(F)],
        "family-basis": lambda F: list(catalog.CUBIC_FAMILY_BASIS_TEXTS),
        "scroll-cubic": lambda F: catalog.scroll_apolar_cubic(F).to_text(),
        "scroll-minors": lambda F: [g.to_text() for g in catalog.scroll_minors(F)],
        "scroll-points": lambda F: [[F.format_scalar(c) for c in pt]
                                    for pt in catalog.scroll_configuration_points(F)],
        "reference-betti": lambda F: {
            name: table.to_json()
            for name, table in sorted(catalog.reference_betti_tables().items())},
        "reference-drop-curve": lambda F: catalog.reference_drop_curve_mod5().to_text(),
    }
    if not args.name:
        return {"names": sorted(entries)}, True
    if args.name not in entries:
        raise ParseError("unknown catalog entry %r (run without a name to list)"
                         % args.name)
    return {"name": args.name, "value": entries[args.name](field)}, True


def run_powersum(args, field, seed):
    _at_least(args.count, 1, "--count")
    forms, lams, f = catalog.random_power_sum(
        args.count, field, seed, coplanar=args.coplanar)
    Z = PointSet([g.coeffs for g in forms], field, allow_duplicates=False)
    route_a = is_apolar_pointset(Z, f)
    route_b = cube_span_contains(Z, f)
    payload = {
        "count": args.count,
        "coplanar": args.coplanar,
        "forms": [g.to_text() for g in forms],
        "weights": [field.format_scalar(v) for v in lams],
        "cubic": f.to_text(),
        "apolar_pointset": route_a,
        "cube_span_membership": route_b,
        "routes_agree": route_a == route_b,
    }
    return payload, route_a and route_b


# ---- reproduction cases -----------------------------------------------


def _check(checks, name, expected, got):
    checks.append({"name": name, "expected": expected, "got": got,
                   "pass": expected == got})


def _check_true(checks, name, got, detail=None):
    entry = {"name": name, "expected": True, "got": bool(got), "pass": bool(got)}
    if detail is not None:
        entry["detail"] = detail
    checks.append(entry)


def _repro_betti_generic(field, seed, checks):
    f = catalog.cubic_family(1, -1, 1, -1, 1, field=field)
    table = graded_betti(apolar_quotient_module(f, 4), 6, 9, max_row=3)
    ref = catalog.reference_betti_tables()["generic-cubic"]
    _check(checks, "betti-table", sorted(ref.nonzero().items()),
           sorted(table.nonzero().items()))


def _repro_points(count, name, field, seed, checks):
    Z = PointSet(random_rational_points(count, seed), field)
    table = graded_betti(points_quotient_module(Z, 4), 6, 9, max_row=3)
    ref = catalog.reference_betti_tables()[name]
    _check(checks, "betti-table", sorted(ref.nonzero().items()),
           sorted(table.nonzero().items()))


def _repro_thom_porteous(field, seed, checks):
    M = m2_matrix(catalog.cubic_family(1, -1, 1, -1, 1, field=field))
    rng = random.Random(seed)
    degrees = [rankloci.drop_degree_on_line(M, _random_line(field, rng, 6), 20,
                                            seed=rng.randrange(1 << 30))
               for _ in range(5)]
    _check(checks, "line-degrees", [9] * 5, degrees)


def _repro_drop_curve(field, seed, checks):
    M = m2_matrix(catalog.cubic_family(1, -1, 1, -1, 1, field=field))
    R = M.substitute(catalog.plane_substitution(field))
    curve, singulars, grade = _drop_curve_and_node(R, 20, seed)
    _check(checks, "curve-degree", 9, curve.degree)
    ref = catalog.reference_drop_curve_mod5()
    _check_true(checks, "matches-stored-reference",
                rankloci.proportional(curve.coeffs, ref.coeffs, field.char),
                detail={"computed": curve.to_text(), "reference": ref.to_text()})
    _check(checks, "singular-point-count", 1, len(singulars))
    if len(singulars) == 1:
        _check(checks, "singular-point-location", ["0", "1", "0"],
               singulars[0])
        _check(checks, "node-classification", "node", grade)


def _repro_scroll_example(field, seed, checks):
    cubic = catalog.scroll_apolar_cubic(field)
    _check_true(checks, "apolar-to-scroll",
                is_apolar_variety(catalog.scroll_minors(field), cubic))
    table = graded_betti(apolar_quotient_module(cubic, 4), 6, 9, max_row=3)
    ref = catalog.reference_betti_tables()["generic-cubic"]
    _check(checks, "betti-table", sorted(ref.nonzero().items()),
           sorted(table.nonzero().items()))
    M = m2_matrix(cubic)
    zero = parse_form("0", field, alphabet="z", degree=1)
    sub = [parse_form("z0", field, "z"), parse_form("z1", field, "z"),
           parse_form("z2", field, "z"), zero, zero, zero]
    R = M.substitute(sub)
    rng = random.Random(seed)
    ranks = [R.rank_at(catalog.random_nonzero_vector(3, field, rng))
             for _ in range(5)]
    _check(checks, "restricted-ranks", [21] * 5, ranks)


def _repro_veronese_rank_drop(field, seed, checks):
    M = m2_matrix(catalog.cubic_family(1, -1, 1, -1, 1, field=field))
    rng = random.Random(seed)
    ranks = []
    while len(ranks) < 20:
        a = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
        if not any(a):
            continue
        point = list(catalog.veronese_point(a, field))
        ranks.append(M.rank_at(point))
    _check_true(checks, "all-ranks-drop", all(r <= 20 for r in ranks),
                detail={"ranks": ranks})
    _check_true(checks, "majority-rank-20",
                sum(1 for r in ranks if r == 20) > 10,
                detail={"rank20": sum(1 for r in ranks if r == 20)})


def _repro_rank_scan(field, seed, checks):
    f = catalog.cubic_family(1, -1, 1, -1, 1, field=field)
    best = min_partial_rank_scan(f)
    _check_true(checks, "min-partial-rank-at-least-4", best >= 4,
                detail={"minimum": best})


# name -> (the field the case computes over, the case); the envelope
# names that field
REPRO_CASES = {
    "betti-generic": (QQ, _repro_betti_generic),
    "points9": (QQ, partial(_repro_points, 9, "points-9")),
    "points10": (QQ, partial(_repro_points, 10, "points-10")),
    "thom-porteous": (GF(101), _repro_thom_porteous),
    "drop-curve": (GF(5), _repro_drop_curve),
    "scroll-example": (QQ, _repro_scroll_example),
    "veronese-rank-drop": (QQ, _repro_veronese_rank_drop),
    "rank-scan": (GF(5), _repro_rank_scan),
}


def run_repro(args, field, seed):
    if args.case not in REPRO_CASES:
        raise ParseError("unknown repro case %r; cases: %s"
                         % (args.case, ", ".join(REPRO_CASES)))
    checks = []
    REPRO_CASES[args.case][1](field, seed, checks)
    ok = all(c["pass"] for c in checks)
    return {"case": args.case, "checks": checks,
            "overall": "PASS" if ok else "FAIL"}, ok


# ---- rendering and entry point ----------------------------------------


def _render_text(envelope):
    lines = ["apolarkit %s | %s | field %s | seed %s" % (
        envelope["version"], envelope["command"], envelope["field"],
        envelope["seed"])]
    payload = envelope["report"]
    if envelope["command"] == "repro":
        lines.append("case: %s" % payload["case"])
        for c in payload["checks"]:
            status = "PASS" if c["pass"] else "FAIL"
            line = "%s %s" % (status, c["name"])
            if not c["pass"]:
                line += " (expected %r, got %r)" % (c["expected"], c["got"])
            lines.append(line)
        lines.append("overall: %s" % payload["overall"])
        return "\n".join(lines) + "\n"
    for key, value in payload.items():
        if key == "rendered":
            lines.append(value)
        elif isinstance(value, (list, dict)):
            lines.append("%s: %s" % (key, json.dumps(value, sort_keys=True)))
        else:
            lines.append("%s: %s" % (key, value))
    return "\n".join(lines) + "\n"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="apolarkit",
        description="Exact apolarity, Betti table, and rank-locus computations.")
    parser.add_argument("--field", default="q",
                        help="q (rationals), fp:<p>, or fp2:<p>")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for every randomized draw (default 0)")
    parser.add_argument("--out", default=None, help="write the report here")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    family_help = "a,b,c,d,e; join a negative a with =: --family=-5,3,3,2,-3"

    p = sub.add_parser("apolar", help="apolar ideal summary of a form")
    p.add_argument("form", nargs="?", default=None)
    p.add_argument("--family", default=None, help=family_help)
    p.set_defaults(runner=run_apolar, fields=("q", "fp"))

    p = sub.add_parser("betti", help="graded Betti table")
    p.add_argument("form", nargs="?", default=None)
    p.add_argument("--family", default=None, help=family_help)
    p.add_argument("--points", type=int, default=None,
                   help="use this many seeded random rational points instead")
    p.add_argument("--max-i", type=int, default=6)
    p.add_argument("--max-j", type=int, default=9)
    p.add_argument("--max-row", type=int, default=3)
    p.set_defaults(runner=run_betti, fields=("q", "fp"))

    p = sub.add_parser("m2", help="second-syzygy matrix of a cubic")
    p.add_argument("form", nargs="?", default=None)
    p.add_argument("--family", default=None, help=family_help)
    p.add_argument("--samples", type=int, default=3,
                   help="random points to sample the rank at")
    p.add_argument("--dump", action="store_true", help="include all entries")
    p.set_defaults(runner=run_m2, fields=("q", "fp"))

    p = sub.add_parser("ranklocus", help="rank-drop loci of the syzygy matrix")
    p.add_argument("form", nargs="?", default=None)
    p.add_argument("--family", default=None, help=family_help)
    p.add_argument("--threshold", type=int, default=20)
    p.add_argument("--lines", type=int, default=5,
                   help="random lines for degree measurement (needs p > 50)")
    p.add_argument("--restrict-plane", action="store_true",
                   help="restrict to the stored plane substitution first")
    p.add_argument("--interpolate", action="store_true",
                   help="interpolate the plane drop curve (3-variable matrices)")
    p.set_defaults(runner=run_ranklocus, fields=("q", "fp"))

    p = sub.add_parser("catalog", help="stored constants as polynomial text")
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(runner=run_catalog, fields=("q", "fp"))

    p = sub.add_parser("powersum", help="seeded random power sum with checks")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--coplanar", action="store_true",
                   help="force the first four forms into a common plane")
    p.set_defaults(runner=run_powersum, fields=("q", "fp", "fp2"))

    p = sub.add_parser("repro", help="reproduction suite against stored values")
    p.add_argument("case", choices=REPRO_CASES)
    # each case fixes its own field, so only the default --field is
    # accepted and main swaps in the case's field
    p.set_defaults(runner=run_repro, fields=("q",))
    return parser


def _input_text(args):
    parts = [args.command]
    for key in ("form", "family", "points", "count", "case", "name",
                "threshold", "lines", "samples", "max_i", "max_j", "max_row",
                "coplanar", "restrict_plane", "interpolate", "dump"):
        value = getattr(args, key, None)
        if value not in (None, False):
            parts.append("%s=%s" % (key, value))
    return "|".join(parts)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        field = parse_field_flag(args.field)
        if _field_kind(field) not in args.fields:
            raise ParseError("%s does not compute over %s (fields: %s)" % (
                args.command, field.describe(), ", ".join(args.fields)))
        given = [name for name in ("form", "family", "points")
                 if getattr(args, name, None) is not None]
        if len(given) > 1:
            raise ParseError("give one of a form, --family and --points, "
                             "got %s" % " and ".join(given))
        if args.command == "repro":
            field = REPRO_CASES[args.case][0]
        elif args.command == "catalog" and args.name == "reference-drop-curve":
            if field not in (QQ, GF(5)):
                raise ParseError("the stored drop curve is over GF(5), not %s"
                                 % field.describe())
            field = GF(5)
        payload, ok = args.runner(args, field, args.seed)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except ReferenceMismatch as exc:
        print("reference mismatch: %s" % exc, file=sys.stderr)
        return 4
    except PreconditionError as exc:
        print("precondition violated: %s" % exc, file=sys.stderr)
        return 3
    envelope = _envelope(args.command, field, args.seed, _input_text(args),
                         payload)
    if args.format == "json":
        rendered = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    else:
        rendered = _render_text(envelope)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print("cannot write --out: %s" % exc, file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 0 if ok else 4


if __name__ == "__main__":
    sys.exit(main())
