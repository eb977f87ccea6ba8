"""Command-line front end.

Subcommands mirror the library layout: ``witt`` for truncated Witt
vector arithmetic, ``chart`` for the singularity chart catalog,
``localcoh`` for the Frobenius of a torsion class on one chart,
``height`` for K3 height computations, ``lattice`` for discriminant-form
and gluing computations, and ``reproduce`` for the one-shot
reproduction report.

Every JSON document printed by a subcommand carries a ``schema`` field
so downstream consumers can detect format changes.
"""

import argparse
import json
import math
import operator
import re
import sys

from .ffpoly import _cut, _parse_terms, json_document, parse_poly
from .witt import WittVec, build_witt_table, witt_add, witt_mul, witt_neg, witt_sub
from .chartring import (
    catalog_coindexes,
    parse_rdp_key,
    quotient_case_from_key,
    rdp_chart,
    rmax,
)
from .height import (
    NonOccurrenceError,
    WeightedHypersurface,
    _counted_polys,
    count_points,
    etale_quotient_height,
    height_from_counts,
    height_from_ordinary,
    height_from_rdp,
    load_model,
    quotient_height,
    rdp_realizable_on_k3,
)
from .lattice import (
    GramLattice,
    disc_group,
    glue_from_json,
    lattice_from_json,
    signature,
    unimodular_overlattice_exists,
)
from .reproduce import HypothesisError, frobenius_check, reproduce_all

WITT_TABLE_SCHEMA = "rdpk3/witt-table/1"
WITT_EVAL_SCHEMA = "rdpk3/witt-eval/1"
CHART_SCHEMA = "rdpk3/chart/1"
CHECK_SCHEMA = "rdpk3/check/2"
HEIGHT_SCHEMA = "rdpk3/height/1"
COUNT_SCHEMA = "rdpk3/count/1"
LATTICE_SCHEMA = "rdpk3/lattice/1"

# `chart show` lists every catalog coindex 0..rmax, and D_N in
# characteristic 2 has rmax = N/2 - 1; a key with a larger rmax is refused.
_COINDEX_GUARD = 1024

# `witt eval` runs the structure polynomials' straight-line programs on
# the user's polynomials; an operation whose work estimate is above
# this is refused.
_WITT_EVAL_GUARD = 2 * 10**7


class CliError(Exception):
    """A user-input problem that should print cleanly, not traceback."""


def _emit(args, doc: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(text)


def _ints(text: str, flag: str) -> list:
    """The integers of a comma-separated flag value; [] when every entry is blank.

    The value is echoed cut by _cut, as _int_option cuts its token.
    """
    entries = text.split(",")
    if not any(x.strip() for x in entries):
        return []
    for i, x in enumerate(entries):
        if not x.strip():
            raise CliError(f"{flag} {_cut(repr(text))}: entry {i + 1} is empty")
    try:
        return [int(x) for x in entries]
    except ValueError:
        raise CliError(f"expected a comma-separated integer list, got {_cut(repr(text))}") from None


def _int_option(text: str) -> int:
    """The type of every integer option: argparse names the option, and the echo is cut."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {_cut(repr(text))}") from None


# ---------------------------------------------------------------------------
# witt


def _witt_literal(text: str, p: int, n: int, variables) -> WittVec:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    entries = [e.strip() for e in body.split(",")]
    if len(entries) != n:
        raise CliError(f"vector literal {text!r} has {len(entries)} entries, not {n}")
    comps = [parse_poly(e, variables, modulus=p) for e in entries]
    return WittVec(p, tuple(comps))


def _literal_variables(*texts) -> tuple:
    names = set()
    for text in texts:
        if text:
            names.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
    return tuple(sorted(names)) if names else ("t",)


def cmd_witt_table(args) -> int:
    table = build_witt_table(args.p, args.n)
    doc = {
        "schema": WITT_TABLE_SCHEMA,
        "p": args.p,
        "n": args.n,
        "sum": [str(q) for q in table.sum_polys],
        "prod": [str(q) for q in table.prod_polys],
        "neg": [str(q) for q in table.neg_polys],
    }
    lines = [f"structure polynomials for length {args.n}, characteristic {args.p}"]
    for label, polys in (("sum", table.sum_polys), ("prod", table.prod_polys), ("neg", table.neg_polys)):
        for i, q in enumerate(polys):
            lines.append(f"  {label}[{i}] = {q}")
    _emit(args, doc, "\n".join(lines))
    return 0


def _evaluation_work(fn, counts) -> tuple:
    """(work, term bounds of the results) of a Witt straight-line program on polynomials.

    Argument v of fn stands for a polynomial of counts[v] terms.  The
    walk over fn.program gives each slot its set of monomials: {e_v} for
    argument v, {0} for a constant, the union for a sum or difference and
    the sumset for a product.  A value P has at most S(P) terms, the sum
    over the monomials of P of the product of C(t_v + e_v - 1, e_v) (a
    power e of a t-term sum has at most C(t + e - 1, e) terms).  Work is
    the total over the program of S(P) * S(Q) for each product and
    S(P) + S(Q) for each sum.
    """
    nargs, start, prog, outs = fn.program

    def bound(monos):
        return sum(math.prod(math.comb(t + e - 1, e) for t, e in zip(counts, m) if e) for m in monos)

    vals = [{(0,) * nargs}] * len(start)
    vals[:nargs] = ({tuple(int(i == v) for i in range(nargs))} for v in range(nargs))
    work = 0
    for i, op, a, b in prog:
        x, y = vals[a], vals[b]
        if op is operator.mul:
            work += bound(x) * bound(y)
            vals[i] = {tuple(map(operator.add, m, k)) for m in x for k in y}
        else:
            work += bound(x) + bound(y)
            vals[i] = x | y
    return work, [bound(vals[i]) for i in outs]


def cmd_witt_eval(args) -> int:
    if (args.op == "neg") != (args.rhs is None):
        raise CliError("neg takes only --lhs" if args.op == "neg" else f"op {args.op} needs --rhs")
    variables = _literal_variables(args.lhs, args.rhs)
    texts = [text for text in (args.lhs, args.rhs) if text is not None]
    # the parse gives every term a key as long as the list of variables:
    # bound that from the +, - and , separators before parsing
    terms = sum(text.count("+") + text.count("-") + text.count(",") + 1 for text in texts)
    if terms * len(variables) > _WITT_EVAL_GUARD:
        raise CliError(
            f"{args.op} in W_{args.n} at p={args.p} reads about {terms} terms over {len(variables)} "
            f"variables, {terms * len(variables)} exponent entries, more than the guard {_WITT_EVAL_GUARD}"
        )
    vecs = [_witt_literal(text, args.p, args.n, variables) for text in texts]
    # refuse before any expansion: the work estimate (-y first for x - y)
    # times the length of every exponent key
    table, work = build_witt_table(args.p, args.n), 0
    counts = [len(c.terms) for v in vecs for c in v.components]
    if args.op == "sub":
        work, counts[args.n:] = _evaluation_work(table.neg, counts[args.n:])
    fn = {"add": table.add, "sub": table.add, "mul": table.mul, "neg": table.neg}[args.op]
    estimate = (work + _evaluation_work(fn, counts)[0]) * len(variables)
    if estimate > _WITT_EVAL_GUARD:
        raise CliError(
            f"{args.op} in W_{args.n} at p={args.p} needs about {estimate} term operations, "
            f"more than the guard {_WITT_EVAL_GUARD}"
        )
    result = {"add": witt_add, "mul": witt_mul, "sub": witt_sub, "neg": witt_neg}[args.op](*vecs)
    doc = {
        "schema": WITT_EVAL_SCHEMA,
        "p": args.p,
        "n": args.n,
        "op": args.op,
        "lhs": args.lhs,
        "rhs": args.rhs,
        "result": [str(c) for c in result.components],
    }
    _emit(args, doc, str(result))
    return 0


# ---------------------------------------------------------------------------
# chart


def cmd_chart_show(args) -> int:
    key = args.key
    if key.startswith("quot:"):
        case = quotient_case_from_key(key)
        rm = case.rmap
        images = {
            case.source.labels[0]: str(case.target.monomial(1, *rm.image_u)),
            case.source.labels[1]: str(case.target.monomial(1, *rm.image_v)),
        }
        if rm.image_w is not None:
            images[case.source.labels[2]] = str(rm.image_w)
        doc = {
            "schema": CHART_SCHEMA,
            "key": key,
            "kind": "quotient",
            "case": case.case_id,
            "p": case.p,
            "group": case.group,
            "symbol": case.symbol,
            "source_relation": case.source.relation_str(),
            "target_relation": case.target.relation_str(),
            "images": images,
            "n_expected": case.n_expected,
            "eps": str(case.eps),
            "predicted_generator": str(case.predicted_gen),
        }
        lines = [
            f"quotient chart case {case.case_id}: {case.group}_{case.p} over {case.symbol}",
            f"  downstairs relation: {case.source.relation_str()}",
            f"  cover relation:      {case.target.relation_str()}",
        ]
        lines += [f"  {k} -> {v}" for k, v in images.items()]
        lines.append(f"  torsion class seed eps = {case.eps}")
        lines.append(
            f"  pullback concentrates at level {case.n_expected} on {case.predicted_gen}"
        )
        _emit(args, doc, "\n".join(lines))
        return 0

    spec = parse_rdp_key(key)
    bound = rmax(spec.p, spec.family, spec.N)
    if bound > _COINDEX_GUARD:
        raise CliError(
            f"catalog key {_cut(repr(key))} has maximal coindex {_cut(bound)}, "
            f"over the coindex guard {_COINDEX_GUARD}"
        )
    ring = rdp_chart(spec, unified=args.unified)
    designated = {name: str(elem) for name, elem in ring.designated().items()}
    doc = {
        "schema": CHART_SCHEMA,
        "key": key,
        "kind": "rdp",
        "p": spec.p,
        "symbol": spec.symbol,
        "coindex": spec.r,
        "max_coindex": bound,
        "catalog_coindexes": catalog_coindexes(spec.p, spec.family, spec.N),
        "relation": ring.relation_str(),
        "designated": designated,
    }
    lines = [
        f"chart for {spec.symbol} with coindex {spec.r}, characteristic {spec.p}",
        f"  relation: {ring.relation_str()}",
        "  designated elements: "
        + ", ".join(f"{k} = {v}" for k, v in designated.items()),
        f"  coindex range: 0..{doc['max_coindex']}",
    ]
    _emit(args, doc, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# localcoh


def cmd_localcoh_frob(args) -> int:
    rec = frobenius_check(args.chart, args.n, args.j)
    _emit(args, {"schema": CHECK_SCHEMA, **rec.as_json()}, rec.line())
    return 0 if rec.status == "pass" else 1


# ---------------------------------------------------------------------------
# height


def cmd_height_from_rdp(args) -> int:
    spec = parse_rdp_key(args.key)
    non_occurrence = ""
    try:
        hv = height_from_rdp(spec)
    except NonOccurrenceError as e:
        hv = None
        non_occurrence = str(e)
    verdict = rdp_realizable_on_k3(spec)
    doc = {
        "schema": HEIGHT_SCHEMA,
        "key": args.key,
        "height": hv.as_json() if hv else None,
        "non_occurrence": non_occurrence,
        "realizable": bool(verdict),
        "reason": verdict.reason,
    }
    if hv is None:
        head = f"{args.key}: no K3 surface carries this class ({non_occurrence})"
    else:
        head = f"{args.key}: height {hv}"
    text = head + f"\nrealizable on a K3 surface: {'yes' if verdict else 'no'}"
    if verdict.reason:
        text += f" ({verdict.reason})"
    _emit(args, doc, text)
    return 0


def cmd_height_count(args) -> int:
    model = load_model(args.model)
    qs = _ints(args.q, "--q")
    if not qs:
        raise CliError("--q needs at least one field size")
    distinct = dict.fromkeys(qs)  # each field once, in the order given
    for q in distinct:
        _counted_polys(model, q)  # refuse a bad q before counting any field
    by_q = {q: count_points(model, q) for q in distinct}
    counts = [by_q[q] for q in qs]
    tower = all(q == qs[0] ** (i + 1) for i, q in enumerate(qs))
    hv = height_from_counts(counts, qs[0]) if tower else None
    doc = {
        "schema": COUNT_SCHEMA,
        "model": args.model,
        "counts": [{"q": q, "count": c} for q, c in zip(qs, counts)],
        "height": hv.as_json() if hv else None,
    }
    lines = [f"#X(F_{q}) = {c}" for q, c in zip(qs, counts)]
    if hv is not None:
        lines.append(f"height: {hv}")
    else:
        lines.append("height: (not computed; field sizes must be q, q^2, q^3, ...)")
    _emit(args, doc, "\n".join(lines))
    return 0


def cmd_height_ordinary(args) -> int:
    weights = tuple(_ints(args.weights, "--weights"))
    variables = tuple(v.strip() for v in args.vars.split(",")) if args.vars else None
    # the parse gives every term a key as long as the list of variables,
    # so the variables are counted against the weights first
    n = len(variables if variables is not None else _parse_terms(args.f)[1])
    if n != len(weights):
        raise CliError(
            f"the polynomial has {n} variables and --weights has {len(weights)} entries; "
            "need one weight per variable"
        )
    poly = parse_poly(args.f, variables, modulus=args.p)
    model = WeightedHypersurface(args.p, weights, poly)
    hv = height_from_ordinary(model)
    ordinary = hv.kind == "finite"
    doc = {
        "schema": HEIGHT_SCHEMA,
        "weights": list(weights),
        "p": args.p,
        "polynomial": str(poly),
        "ordinary": ordinary,
        "height": hv.as_json(),
    }
    text = f"ordinary: {'yes' if ordinary else 'no'} (height {hv})"
    _emit(args, doc, text)
    return 0


def cmd_height_quotient(args) -> int:
    if args.G == "etale":
        hv = etale_quotient_height(args.p, args.sing)
    else:
        hv = quotient_height(args.G, args.p, args.sing)
    doc = {
        "schema": HEIGHT_SCHEMA,
        "group": args.G,
        "p": args.p,
        "sing": args.sing,
        "height": hv.as_json(),
    }
    _emit(args, doc, f"height of the quotient: {hv}")
    return 0


# ---------------------------------------------------------------------------
# lattice


def _lattice_from_args(args) -> GramLattice:
    given = [x for x in (args.gram, args.dynkin, args.diagonal) if x]
    if len(given) != 1:
        raise CliError("pass exactly one of --gram, --dynkin, --diagonal")
    if args.dynkin:
        return lattice_from_json({"dynkin": args.dynkin})
    if args.gram:
        name, entries = "gram", json_document(args.gram, "--gram")
    else:
        name, entries = "diagonal", _ints(args.diagonal, "--diagonal")
    if entries == []:
        raise CliError(f"--{name} gives an empty lattice; pass at least one entry")
    return lattice_from_json({name: entries})


def _lattice_summary(L: GramLattice) -> dict:
    d = disc_group(L)
    sig = signature(L)
    doc = {
        "schema": LATTICE_SCHEMA,
        "gram": [list(row) for row in L.gram],
        "rank": L.rank,
        "det": L.det,
        "signature": list(sig),
        "even": L.is_even,
        "disc_orders": list(d.orders),
    }
    if L.is_even:
        qs = []
        for i in range(len(d.orders)):
            coords = tuple(1 if k == i else 0 for k in range(len(d.orders)))
            qs.append(str(d.q_value(coords)))
        doc["q_values"] = qs
    return doc


def _lattice_text(doc: dict) -> str:
    lines = [
        f"rank {doc['rank']}, det {doc['det']}, signature "
        f"({doc['signature'][0]},{doc['signature'][1]}), "
        + ("even" if doc["even"] else "odd"),
        "disc group: "
        + (
            " + ".join(f"Z/{n}" for n in doc["disc_orders"])
            if doc["disc_orders"]
            else "trivial"
        ),
    ]
    if doc.get("q_values"):
        lines.append(
            "q on generators: " + ", ".join(doc["q_values"]) + " (mod 2Z)"
        )
    return "\n".join(lines)


def cmd_lattice_disc(args) -> int:
    L = _lattice_from_args(args)
    doc = _lattice_summary(L)
    _emit(args, doc, _lattice_text(doc))
    return 0


def cmd_lattice_glue(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec_doc = json_document(fh.read(), f"glue spec {args.spec}")
    glued = glue_from_json(spec_doc)
    doc = _lattice_summary(glued)
    text = "glued lattice:\n" + _lattice_text(doc)
    if args.format == "text":
        text += "\ngram rows:\n" + "\n".join(
            "  " + " ".join(f"{x:4d}" for x in row) for row in glued.gram
        )
    _emit(args, doc, text)
    return 0


def cmd_lattice_overlattice(args) -> int:
    L = _lattice_from_args(args)
    found, witness = unimodular_overlattice_exists(L, even_only=args.even_only)
    doc = {
        "schema": LATTICE_SCHEMA,
        "gram": [list(row) for row in L.gram],
        "even_only": args.even_only,
        "found": found,
        "witness": [list(row) for row in witness.gram] if witness else None,
    }
    if found:
        text = "unimodular finite-index overlattice found:\n" + "\n".join(
            "  " + " ".join(f"{x:4d}" for x in row) for row in witness.gram
        )
    else:
        text = "no unimodular finite-index overlattice"
    _emit(args, doc, text)
    return 0


# ---------------------------------------------------------------------------
# reproduce


def cmd_reproduce(args) -> int:
    report = reproduce_all(only=args.only, seed=args.seed)
    print(report.json_text() if args.format == "json" else report.render_text())
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdpk3",
        description=(
            "Witt-vector local cohomology, K3 heights, and lattice gluing "
            "for rational double points"
        ),
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser.add_argument(
        "--seed", type=_int_option, default=0, help="seed for randomized checks"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    witt = sub.add_parser("witt", help="truncated Witt vector arithmetic")
    wsub = witt.add_subparsers(dest="subcommand", required=True)
    wt = wsub.add_parser("table", help="print structure polynomials")
    wt.add_argument("--p", type=_int_option, required=True)
    wt.add_argument("--n", type=_int_option, required=True)
    wt.set_defaults(func=cmd_witt_table)
    we = wsub.add_parser("eval", help="evaluate one ring operation symbolically")
    we.add_argument("--p", type=_int_option, required=True)
    we.add_argument("--n", type=_int_option, required=True)
    we.add_argument("--op", choices=("add", "mul", "sub", "neg"), required=True)
    we.add_argument("--lhs", required=True, help='vector literal like "(a,0)"')
    we.add_argument("--rhs", default=None)
    we.set_defaults(func=cmd_witt_eval)

    chart = sub.add_parser("chart", help="singularity chart catalog")
    csub = chart.add_subparsers(dest="subcommand", required=True)
    cs = csub.add_parser("show", help="print relation and designated elements")
    cs.add_argument("key", help="catalog key like 2:D12:3 or quot:2:alpha:D4")
    cs.add_argument(
        "--unified",
        action="store_true",
        help="use the coindex-independent equation shape where one exists",
    )
    cs.set_defaults(func=cmd_chart_show)

    lc = sub.add_parser("localcoh", help="cohomology class computations")
    lsub = lc.add_subparsers(dest="subcommand", required=True)
    lf = lsub.add_parser("frob", help="Frobenius of a torsion class on one chart")
    lf.add_argument("--chart", required=True, help="catalog key like 2:D12:3")
    lf.add_argument("--n", type=_int_option, required=True, help="Witt vector length")
    lf.add_argument("--j", type=_int_option, default=None, help="ideal exponent (D family)")
    lf.set_defaults(func=cmd_localcoh_frob)

    height = sub.add_parser("height", help="K3 height computations")
    hsub = height.add_subparsers(dest="subcommand", required=True)
    hr = hsub.add_parser("from-rdp", help="height from a coindexed singularity")
    hr.add_argument("key", help="catalog key like 2:D10:3")
    hr.set_defaults(func=cmd_height_from_rdp)
    hc = hsub.add_parser("count", help="point counts of a surface model")
    hc.add_argument("--model", required=True, help="path to a model JSON file")
    hc.add_argument("--q", required=True, help="comma-separated field sizes")
    hc.set_defaults(func=cmd_height_count)
    ho = hsub.add_parser("ordinary", help="ordinarity of a weighted hypersurface")
    ho.add_argument("--weights", required=True, help="comma-separated weights")
    ho.add_argument("--p", type=_int_option, required=True)
    ho.add_argument("--f", required=True, help="defining polynomial literal")
    ho.add_argument(
        "--vars",
        default=None,
        help="comma-separated variable order (default: inferred, sorted)",
    )
    ho.set_defaults(func=cmd_height_ordinary)
    hq = hsub.add_parser("quotient", help="height of a maximal quotient")
    hq.add_argument("--G", choices=("mu", "alpha", "etale"), required=True)
    hq.add_argument("--p", type=_int_option, required=True)
    hq.add_argument("--sing", required=True, help='singular locus like "2xD4:1"')
    hq.set_defaults(func=cmd_height_quotient)

    lat = sub.add_parser("lattice", help="integer lattice computations")
    latsub = lat.add_subparsers(dest="subcommand", required=True)

    def add_lattice_inputs(p):
        p.add_argument("--gram", default=None, help="JSON rows like [[2,5],[5,2]]")
        p.add_argument("--dynkin", default=None, help="symbol like A20 or E8")
        p.add_argument("--diagonal", default=None, help="comma-separated entries")

    ld = latsub.add_parser("disc", help="discriminant group and form")
    add_lattice_inputs(ld)
    ld.set_defaults(func=cmd_lattice_disc)
    lg = latsub.add_parser("glue", help="glue two lattices along dual vectors")
    lg.add_argument("--spec", required=True, help="path to a glue JSON document")
    lg.set_defaults(func=cmd_lattice_glue)
    lo = latsub.add_parser("overlattice", help="search unimodular overlattices")
    add_lattice_inputs(lo)
    lo.add_argument("--even-only", action="store_true")
    lo.set_defaults(func=cmd_lattice_overlattice)

    rep = sub.add_parser("reproduce", help="run the reproduction report")
    rep.add_argument("--only", default=None, help="filter check groups, e.g. 4.2")
    rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, HypothesisError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
