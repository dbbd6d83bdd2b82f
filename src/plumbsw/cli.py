"""Command line surface.

Commands operate on a graph file (grammar: ``# comment``,
``vertex <id> <integer>``, ``edge <id> <id>``) and print deterministic
text, or one JSON object per line with --format json-lines.  Exit codes:
0 success, 1 a verification failed, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import counting, decomp, polytopes, series, swcore
from .graph import GraphFormatError, classify_vertices, parse_graph, validate
from .lattice import (HClass, LatticeError, class_of, format_frac, format_vec,
                      lattice_of, vec_add, vec_scale)

DEFAULT_SEED = 20240914


def _fail_usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _load_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _parse_vector(text: str, n: int, what: str):
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"{what} needs {n} comma separated rationals")
    try:
        return tuple(Fraction(p.strip()) for p in parts)
    except ZeroDivisionError:
        raise ValueError(f"{what} has a zero denominator") from None


def _emit(records, fmt: str):
    for rec in records:
        if fmt == "json-lines":
            print(json.dumps({k: v for k, v in rec.items() if k != "_text"},
                             sort_keys=True))
        else:
            print(rec.pop("_text"))


def _poly_str(poly: dict) -> str:
    if not poly:
        return "0"
    parts = []
    for e in sorted(poly):
        c = poly[e]
        parts.append(f"{c}*t^{format_vec(e)}" if c != 1 else f"t^{format_vec(e)}")
    return " + ".join(parts)


def cmd_validate(g, args) -> int:
    rep = validate(g)
    recs = []
    for name, ok, detail in rep.checks:
        recs.append({"check": name, "pass": ok, "detail": detail,
                     "_text": f"check {name}: {'pass' if ok else 'FAIL'}"
                              + (f" ({detail})" if detail else "")})
    _emit(recs, args.format)
    if not rep.ok:
        print("graph is not a valid negative definite plumbing tree", file=sys.stderr)
        return 1
    return 0


def cmd_invariants(g, args) -> int:
    lat = lattice_of(g)
    nodes, ends, _ = classify_vertices(g)
    recs = [
        {"key": "hOrder", "value": lat.h_order, "_text": f"|H| = {lat.h_order}"},
        {"key": "Z_K", "value": format_vec(lat.z_k), "_text": f"Z_K = {format_vec(lat.z_k)}"},
        {"key": "l_top", "value": format_vec(lat.l_top), "_text": f"l_top = {format_vec(lat.l_top)}"},
        {"key": "nodes", "value": list(nodes), "_text": "nodes = " + (",".join(nodes) or "-")},
        {"key": "ends", "value": list(ends), "_text": "ends = " + (",".join(ends) or "-")},
    ]
    for v in g.ids:
        col = format_vec(lat.estar[g.index(v)])
        recs.append({"key": f"E*[{v}]", "value": col, "_text": f"E*[{v}] = {col}"})
    _emit(recs, args.format)
    return 0


def _live_set(g, args, default_nodes=True):
    if args.reduce:
        live = tuple(s.strip() for s in args.reduce.split(","))
        unknown = [v for v in live if v not in g.ids]
        if unknown:
            raise ValueError(f"--reduce names unknown vertex {unknown[0]!r}")
        return live
    if default_nodes:
        return swcore.duality_cut_vertices(g)
    return g.ids


def cmd_zeta(g, args) -> int:
    F = series.zeta(g)
    lat = F.lat
    recs = [{"factor": format_vec(lat.unscaled(a)), "multiplicity": m,
             "_text": f"factor (1 - t^{format_vec(lat.unscaled(a))})^{m}"} for a, m in F.factors]
    live = _live_set(g, args)
    R = series.reduce(F, live)

    def project(e):
        return lat.unscaled(e[i] for i in R.active)

    recs.append({"live": list(live),
                 "numerator": {format_vec(project(b)): c for b, c in sorted(R.numerator.items())},
                 "denominator": [format_vec(project(a)) for a in sorted(R.denominator)],
                 "_text": "reduced to {" + ",".join(live) + "}: numerator "
                          + _poly_str({project(b): c for b, c in R.numerator.items()})
                          + "  denominator "
                          + " ".join(f"(1 - t^{format_vec(project(a))})"
                                     for a in sorted(R.denominator))})
    if args.box is not None:
        ts = series.taylor(R, series.Box(tuple(Fraction(args.box) for _ in live)))
        for line in ts.lines():
            recs.append({"series": line, "_text": line})
    _emit(recs, args.format)
    return 0


def _class_from_args(g, args) -> HClass:
    lat = lattice_of(g)
    if args.h is None:
        return lat.zero_class
    return class_of(g, _parse_vector(args.h, lat.n, "--h"))


def cmd_polypart(g, args) -> int:
    h = _class_from_args(g, args)
    live = _live_set(g, args)
    dual = decomp.polypart_dual(g, h, live)
    div = decomp.euclid_divide(decomp.f_h(g, h, live))
    agree = dual.poly_live() == div.poly_live()
    recs = [
        {"route": "duality", "poly": {format_vec(e): c for e, c in sorted(dual.poly_live().items())},
         "_text": "P+ (duality) = " + _poly_str(dual.poly_live())},
        {"route": "division", "poly": {format_vec(e): c for e, c in sorted(div.poly_live().items())},
         "_text": "P+ (division) = " + _poly_str(div.poly_live())},
        {"agree": agree, "value_at_one": decomp.evaluate_at_one(dual.poly_live()),
         "_text": f"agree = {'true' if agree else 'false'}  P+(1) = "
                  f"{decomp.evaluate_at_one(dual.poly_live())}"},
    ]
    lat = div.lat
    for S in sorted((s for s in div.by_s if s), key=sorted):
        names = [format_vec(lat.unscaled(div.denominator[i][j] for j in div.active))
                 for i in sorted(S)]
        bucket = {lat.unscaled(b): c for b, c in div.by_s[S].items()}
        recs.append({"S": names,
                     "numerator": {format_vec(e): c for e, c in sorted(bucket.items())},
                     "_text": "S={" + ",".join(names) + "}: " + _poly_str(bucket)})
    _emit(recs, args.format)
    return 0 if agree else 1


def _routes_text(entry) -> str:
    """An sw entry's route values and route errors, in route order."""
    parts = []
    for route in swcore.ROUTES:
        if route in entry.values:
            parts.append(f"{route}={entry.values[route]}")
        elif route in entry.errors:
            parts.append(f"{route}=? ({entry.errors[route]})")
    return " ".join(parts)


def _witness(entry) -> str:
    """The class and route values of an sw entry, or "" for no entry."""
    return "" if entry is None else f"h={entry.h} {_routes_text(entry)}"


def cmd_sw(g, args) -> int:
    methods = swcore.ROUTES if args.method == "all" else (args.method,)
    report = swcore.sw_report(g, methods)
    recs = []
    for e in report.entries:
        h = str(e.h)
        text = (f"h={h} -sw_norm={e.sw_norm_neg if e.sw_norm_neg is not None else '?'}"
                f" agree={'true' if e.agree else 'false'}")
        if not e.agree:
            text += " " + _routes_text(e)
        recs.append({"h": h, "sw_norm_neg": e.sw_norm_neg,
                     "agree": e.agree, "routes": e.values,
                     "raw": format_frac(e.raw) if e.raw is not None else None,
                     "errors": e.errors, "_text": text})
    _emit(recs, args.format)
    return 0 if report.agree else 1


def cmd_count(g, args) -> int:
    lat = lattice_of(g)
    if args.dilation is None:
        return _fail_usage("count needs --dilation")
    dil = _parse_vector(args.dilation, lat.n, "--dilation")
    live = _live_set(g, args)
    fiber = None
    if args.h is not None:
        fiber = class_of(g, _parse_vector(args.h, lat.n, "--h"))
    query = polytopes.PolytopeQuery(args.shape, tuple(live), dil,
                                    args.boundary, args.positivity, fiber)
    n = polytopes.count(g, query)
    _emit([{"count": n, "_text": f"count = {n}"}], args.format)
    return 0


def cmd_verify(g, args) -> int:
    if args.samples < 1:
        return _fail_usage("--samples must be at least 1")
    lat = lattice_of(g)
    rng = random.Random(args.seed)
    results: list[tuple[str, bool, str]] = []

    def record(name, ok, detail=""):
        results.append((name, ok, detail))

    zk_sum = [Fraction(0)] * lat.n
    for i, mu in enumerate(lat.mults):
        zk_sum = vec_add(zk_sum, vec_scale(mu, lat.estar[i]))
    record("canonical-cycle-identity", tuple(zk_sum) == tuple(lat.z_k_me))

    cut = swcore.duality_cut_vertices(g)
    sym_ok = True
    for live in {tuple(g.ids), tuple(cut)}:
        active = sorted(g.index(v) for v in live)
        bound = tuple(lat.z_k_me[i] - 2 for i in active)
        w = series.Cobox(bound)
        a = series.taylor_infinity(series.reduce(series.zeta(g), live), w)
        b = series.taylor_infinity(series.zeta(g), w, subset=live)
        sym_ok = sym_ok and a.terms == b.terms
    record("gorenstein-symmetry", sym_ok)

    ie_fail = ""
    for _ in range(args.samples):
        size = rng.randint(1, min(3, g.n))
        subset = tuple(sorted(rng.sample(g.ids, size)))
        x = [Fraction(0)] * lat.n
        for i in range(lat.n):
            x = vec_add(x, vec_scale(rng.randint(0, 2), lat.estar[i]))
        h = class_of(g, x)
        if not ie_fail and not counting.inclusion_exclusion_check(g, h, subset, x):
            ie_fail = f"subset={','.join(subset)} x={format_vec(x)}"
    record("inclusion-exclusion", not ie_fail, ie_fail)

    entries = swcore.sw_report(g).entries
    mismatch = next((e for e in entries if "polypart" in e.errors), None)
    record("division-vs-duality", mismatch is None, _witness(mismatch))
    disagree = next((e for e in entries if not e.agree), None)
    record("route-agreement", disagree is None, _witness(disagree))

    quadratic = swcore.quadratic_check(g, samples=args.samples, seed=args.seed)
    bad = next((s for s in quadratic.samples if not s.ok), None)
    record("quadratic-consistency", bad is None,
           "" if bad is None else f"l'={format_vec(bad.lprime)}")

    recs = [{"check": name, "pass": ok, "detail": detail,
             "_text": ("ok " if ok else "FAIL ") + name + (f": {detail}" if detail else "")}
            for name, ok, detail in results]
    _emit(recs, args.format)
    return 0 if all(ok for _, ok, _ in results) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="plumbsw",
        description="Exact Seiberg-Witten invariants of negative definite plumbed 3-manifolds.")
    p.add_argument("command", choices=["validate", "invariants", "zeta", "polypart",
                                       "sw", "count", "verify"])
    p.add_argument("graph", help="path to a graph file")
    p.add_argument("--h", help="dual lattice representative, comma separated rationals")
    p.add_argument("--reduce", help="comma separated vertex ids to keep live")
    p.add_argument("--box", type=int, help="window bound for series output")
    p.add_argument("--method", default="all",
                   choices=["duality", "polypart", "division", "lattice", "all"])
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", default="text", choices=["text", "json-lines"])
    p.add_argument("--shape", default="concave", choices=["convex", "concave"])
    p.add_argument("--boundary", default="closed", choices=["closed", "open"])
    p.add_argument("--positivity", default="nonneg", choices=["nonneg", "positive"])
    p.add_argument("--dilation", help="dilation vector, comma separated rationals")
    return p


COMMANDS = {
    "validate": cmd_validate,
    "invariants": cmd_invariants,
    "zeta": cmd_zeta,
    "polypart": cmd_polypart,
    "sw": cmd_sw,
    "count": cmd_count,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        g = _load_graph(args.graph)
    except OSError as exc:
        return _fail_usage(str(exc))
    except GraphFormatError as exc:
        return _fail_usage(f"bad graph file: {exc}")
    try:
        return COMMANDS[args.command](g, args)
    except (LatticeError, ValueError) as exc:
        return _fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
