"""Command line surface.

Commands operate on a graph file (grammar: ``# comment``,
``vertex <id> <integer>``, ``edge <id> <id>``) and print deterministic
text, or one JSON object per line with --format json-lines.  Exit codes:
0 success, 1 a verification failed, 2 usage or input error, or standard
output closed by its reader.

Everything printed is formatted from scaled integers: vectors by
``lattice.format_scaled``, the raw invariant by ``lattice.format_ratio``.
``fractions.Fraction`` is imported only inside the functions that read a
rational as the user gives it (``_parse_vector``, and ``series.strict_cut``
for ``zeta --box``) or that pass one to a library function (``verify``'s
window bounds and sampled vectors), so ``sw``, ``invariants`` and
``validate`` never import it.
"""
from __future__ import annotations

import json
import os
import random
import sys

from . import counting, decomp, polytopes, series, swcore
from .graph import GraphFormatError, parse_graph, validate
from .lattice import (HClass, LatticeError, class_of, format_ratio, format_scaled, format_vec,
                      lattice_of)

DEFAULT_SEED = 20240914


def _fail_usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _load_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _parse_vector(text: str, n: int, what: str):
    from fractions import Fraction
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


def _poly_str(poly: dict, d: int) -> str:
    """A polynomial on scaled exponents (coordinates times d)."""
    if not poly:
        return "0"
    parts = []
    for e in sorted(poly):
        c, t = poly[e], format_scaled(e, d)
        parts.append(f"{c}*t^{t}" if c != 1 else f"t^{t}")
    return " + ".join(parts)


def _poly_record(poly: dict, d: int) -> dict:
    """A polynomial on scaled exponents as a json-lines value."""
    return {format_scaled(e, d): c for e, c in sorted(poly.items())}


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
    nodes, ends = ([g.ids[i] for i in idx] for idx in (lat.node_idx, lat.end_idx))
    zk, top = (format_scaled(x, lat.h_order) for x in (lat.sz_k, lat.sl_top))
    recs = [
        {"key": "hOrder", "value": lat.h_order, "_text": f"|H| = {lat.h_order}"},
        {"key": "Z_K", "value": zk, "_text": f"Z_K = {zk}"},
        {"key": "l_top", "value": top, "_text": f"l_top = {top}"},
        {"key": "nodes", "value": nodes, "_text": "nodes = " + (",".join(nodes) or "-")},
        {"key": "ends", "value": ends, "_text": "ends = " + (",".join(ends) or "-")},
    ]
    for v, row in zip(g.ids, lat.sestar):
        col = format_scaled(row, lat.h_order)
        recs.append({"key": f"E*[{v}]", "value": col, "_text": f"E*[{v}] = {col}"})
    _emit(recs, args.format)
    return 0


def _live_set(g, args):
    if args.reduce is None:
        return swcore.duality_cut_vertices(g)
    live = tuple(s.strip() for s in args.reduce.split(","))
    unknown = [v for v in live if v not in g.ids]
    if unknown:
        raise ValueError(f"--reduce names unknown vertex {unknown[0]!r}")
    return live


def cmd_zeta(g, args) -> int:
    F = series.zeta(g)
    lat = F.lat
    d = lat.h_order
    recs = [{"factor": format_scaled(a, d), "multiplicity": m,
             "_text": f"factor (1 - t^{format_scaled(a, d)})^{m}"} for a, m in F.factors]
    live = _live_set(g, args)
    R = series.reduce(F, live)

    def project(e):
        return tuple(e[i] for i in R.active)

    # terms of equal live exponent are one monomial of the reduced function
    numerator = series._tally(R.numerator.items(), (), ((), all), project)
    denominator = [format_scaled(project(a), d) for a in sorted(R.denominator)]
    recs.append({"live": list(live),
                 "numerator": _poly_record(numerator, d),
                 "denominator": denominator,
                 "_text": "reduced to {" + ",".join(live) + "}: numerator "
                          + _poly_str(numerator, d)
                          + "  denominator "
                          + " ".join(f"(1 - t^{a})" for a in denominator)})
    if args.box is not None:
        ts = series.taylor(R, series.Box((args.box,) * len(live)))
        for line in ts.lines():
            recs.append({"series": line, "_text": line})
    _emit(recs, args.format)
    return 0


def _class_from_args(g, args) -> HClass | None:
    """The class of ``--h``, or None when it is absent."""
    if args.h is None:
        return None
    return class_of(g, _parse_vector(args.h, g.n, "--h"))


def cmd_polypart(g, args) -> int:
    lat = lattice_of(g)
    h = _class_from_args(g, args) or lat.zero_class
    live = _live_set(g, args)
    d = lat.h_order
    dual = decomp.polypart_dual(g, live).get(h, {})
    active = series.live_indices(g, live)
    terms, denom = series._split_classes(lat, active, *series.zeta(g).expanded())
    div = decomp.divide_component(lat, active, terms(h.key), denom, h)
    agree = dual == div.poly
    recs = [
        {"route": "duality", "poly": _poly_record(dual, d),
         "_text": "P+ (duality) = " + _poly_str(dual, d)},
        {"route": "division", "poly": _poly_record(div.poly, d),
         "_text": "P+ (division) = " + _poly_str(div.poly, d)},
        {"agree": agree, "value_at_one": decomp.evaluate_at_one(dual),
         "_text": f"agree = {'true' if agree else 'false'}  P+(1) = "
                  f"{decomp.evaluate_at_one(dual)}"},
    ]
    for S in sorted((s for s in div.by_s if s), key=sorted):
        names = [format_scaled([div.denominator[i][j] for j in div.active], d)
                 for i in sorted(S)]
        recs.append({"S": names, "numerator": _poly_record(div.by_s[S], d),
                     "_text": "S={" + ",".join(names) + "}: " + _poly_str(div.by_s[S], d)})
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


def _sw_record(e) -> dict:
    """The output record of one sw entry."""
    h = str(e.h)
    text = (f"h={h} -sw_norm={e.sw_norm_neg if e.sw_norm_neg is not None else '?'}"
            f" agree={'true' if e.agree else 'false'}")
    if not e.agree:
        text += " " + _routes_text(e)
    return {"h": h, "sw_norm_neg": e.sw_norm_neg,
            "agree": e.agree, "routes": e.values,
            "raw": format_ratio(e.raw, 8 * e.h.d ** 2) if e.raw is not None else None,
            "errors": e.errors, "_text": text}


def cmd_sw(g, args) -> int:
    methods = swcore.ROUTES if args.method == "all" else (args.method,)
    agree = True
    # sw_report builds each class's entry when it is reached: its record is
    # printed, and both are dropped, before the next class's entry is built
    for e in swcore.sw_report(g, methods):
        agree = agree and e.agree
        _emit((_sw_record(e),), args.format)
    return 0 if agree else 1


def cmd_count(g, args) -> int:
    lat = lattice_of(g)
    dil = _parse_vector(args.dilation, lat.n, "--dilation")
    live = _live_set(g, args)
    query = polytopes.PolytopeQuery(args.shape, tuple(live), dil, args.boundary,
                                    args.positivity, _class_from_args(g, args))
    n = polytopes.count(g, query)
    _emit([{"count": n, "_text": f"count = {n}"}], args.format)
    return 0


def cmd_verify(g, args) -> int:
    if args.samples < 1:
        return _fail_usage("--samples must be at least 1")
    from fractions import Fraction
    lat = lattice_of(g)
    d = lat.h_order
    rng = random.Random(args.seed)
    results: list[tuple[str, bool, str]] = []

    def record(name, ok, detail=""):
        results.append((name, ok, detail))

    # sum_v mu_v E*_v = Z_K - E, in scaled integers
    zk_sum = lat.combination(enumerate(lat.mults))
    record("canonical-cycle-identity", zk_sum == lat.szkme)

    cut = swcore.duality_cut_vertices(g)
    sym_ok = True
    for live in {tuple(g.ids), tuple(cut)}:
        active = series.live_indices(g, live)
        bound = tuple(Fraction(lat.sz_k[i] - 3 * d, d) for i in active)
        w = series.Cobox(bound)
        a = series.taylor_infinity(series.reduce(series.zeta(g), live), w)
        b = series.taylor_infinity(series.zeta(g), w, subset=live)
        sym_ok = sym_ok and a.terms == b.terms
    record("gorenstein-symmetry", sym_ok)

    ie_fail = ""
    for _ in range(args.samples):
        size = rng.randint(1, min(3, g.n))
        subset = tuple(sorted(rng.sample(g.ids, size)))
        sx = lat.combination((i, rng.randint(0, 2)) for i in range(lat.n))
        h, x = lat.class_at(sx), lat.unscaled(sx)
        if not ie_fail and not counting.inclusion_exclusion_check(g, h, subset, x):
            ie_fail = f"subset={','.join(subset)} x={format_scaled(sx, d)}"
    record("inclusion-exclusion", not ie_fail, ie_fail)

    mismatch = disagree = None
    for e in swcore.sw_report(g):
        if mismatch is None and "polypart" in e.errors:
            mismatch = e
        if disagree is None and not e.agree:
            disagree = e
    record("division-vs-duality", mismatch is None, _witness(mismatch))
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


# The choices are written out rather than read from swcore.ROUTES and the
# polytopes tuples, so that building the parser executes neither module;
# the tests hold them equal.
FLAGS = {
    "--h": {"help": "dual lattice representative, comma separated rationals; "
                    "write --h=VALUE when it starts with a minus sign"},
    "--reduce": {"help": "comma separated vertex ids to keep live"},
    "--box": {"type": int, "help": "window bound for series output"},
    "--method": {"default": "all",
                 "choices": ("duality", "polypart", "division", "lattice", "all")},
    "--samples": {"type": int, "default": 5},
    "--seed": {"type": int, "default": DEFAULT_SEED},
    "--shape": {"default": "concave", "choices": ("convex", "concave")},
    "--boundary": {"default": "closed", "choices": ("closed", "open")},
    "--positivity": {"default": "nonneg", "choices": ("nonneg", "positive")},
    "--dilation": {"required": True,
                   "help": "dilation vector, comma separated rationals; "
                           "write --dilation=VALUE when it starts with a minus sign"},
}


def build_parser():
    """The ``argparse`` parser: one subparser per command, with only the
    ``FLAGS`` it reads.  No abbreviations: with them, ``sw --h abc`` would
    read as ``--help``."""
    import argparse

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("graph", help="path to a graph file")
    common.add_argument("--format", default="text", choices=["text", "json-lines"])
    p = argparse.ArgumentParser(
        prog="plumbsw", allow_abbrev=False,
        description="Exact Seiberg-Witten invariants of negative definite plumbed 3-manifolds.")
    commands = p.add_subparsers(dest="command", required=True)

    def command(name, run, *flags):
        c = commands.add_parser(name, parents=[common], allow_abbrev=False)
        c.set_defaults(run=run)
        for flag in flags:
            c.add_argument(flag, **FLAGS[flag])

    command("validate", cmd_validate)
    command("invariants", cmd_invariants)
    command("zeta", cmd_zeta, "--reduce", "--box")
    command("polypart", cmd_polypart, "--h", "--reduce")
    command("sw", cmd_sw, "--method")
    command("count", cmd_count, "--dilation", "--reduce", "--h", "--shape", "--boundary",
            "--positivity")
    command("verify", cmd_verify, "--samples", "--seed")
    return p


# The commands that run the route modules; validate and invariants run only
# graph and lattice.
ROUTE_COMMANDS = ("zeta", "polypart", "sw", "count", "verify")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] and argv[0] in ROUTE_COMMANDS:
        # Executes swcore and every route module it imports.  Compiled from
        # source, a module briefly takes some fifty times its source size in
        # memory: compiled before argparse is imported and the parser built,
        # that memory is reused by them; compiled after, it adds to the peak.
        swcore.ROUTES
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        g = _load_graph(args.graph)
    except OSError as exc:
        return _fail_usage(str(exc))
    except (GraphFormatError, UnicodeDecodeError) as exc:
        return _fail_usage(f"bad graph file: {exc}")
    try:
        code = args.run(g, args)
        # flushed here, so that a pipe its reader closed is caught below and
        # not at interpreter shutdown; print, unlike sys.stdout.flush, does
        # nothing in a process started without a standard output
        print(end="", flush=True)
        return code
    except (LatticeError, ValueError) as exc:
        return _fail_usage(str(exc))
    except BrokenPipeError:
        # the reader closed standard output: point it at the null device, so
        # the flush at interpreter shutdown cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
