"""Run one plumbsw command in this process and record what it used.

    python3 perfbench/child.py RESULT.json plain|traced <plumbsw arguments...>

The command runs as ``plumbsw.cli.main``, as from the command line, and
its exit code is this script's.  RESULT.json receives the peak resident
set size of this process, VmHWM.  The ``ru_maxrss`` that ``wait4`` reports
for a child is no use here: it also covers the parent's size at fork time.

With ``traced``, each entry point below is wrapped once and the wrapper is
bound in every plumbsw module that imported the function, so the package
sources stay untouched.  The wrapper records a span (name, start, end,
parent) per call.  Size counts are taken from the returned values at the
same boundaries.  Spans and counts are kept in memory and written to
RESULT.json with the peak size when the command ends.
"""
from __future__ import annotations

import json
import sys
import time
from dataclasses import replace

ENTRY_POINTS = {
    "graph": ("parse_graph", "validate"),
    "lattice": ("lattice_of", "all_classes"),
    "series": ("reduce", "equivariant_split", "taylor_infinity"),
    "counting": ("Q", "q"),
    "decomp": ("euclid_divide", "polypart_dual"),
    "polytopes": ("count", "sw_via_lattice"),
    "swcore": ("sw_norm_via_duality", "sw_norm_via_polypart",
               "sw_norm_via_division", "quadratic_check", "sw_report"),
    "cli": ("main",),
}

SIZE_COUNTS = ("lattice.builds", "series.split_terms", "decomp.cert_terms",
               "polytopes.points")

# Spans named trace.* are work the tracer adds; they are subtracted from
# their ancestors' times and not reported.
RECOUNT = "trace.recount"


def install_tracer():
    """Wrap every entry point; return the record the wrappers fill and a
    function that completes it once the command has ended."""
    from plumbsw import lattice, polytopes

    spans: list[list] = []
    stack: list[int] = []
    sizes = dict.fromkeys(SIZE_COUNTS, 0)
    point_cache: dict = {}
    original_count = polytopes.count
    cached_lattice_of = lattice.lattice_of
    clock = time.perf_counter

    def open_span(name: str) -> int:
        spans.append([name, clock(), None, stack[-1] if stack else -1])
        stack.append(len(spans) - 1)
        return len(spans) - 1

    def close_span(idx: int) -> None:
        stack.pop()
        spans[idx][2] = clock()

    def record_sizes(qualname, args, result) -> None:
        if qualname == "series.equivariant_split":
            sizes["series.split_terms"] += sum(len(r.numerator) for r in result.values())
        elif qualname == "decomp.euclid_divide":
            sizes["decomp.cert_terms"] += sum(len(b) for b in result.by_s.values())
        elif qualname == "polytopes.count":
            g, query = args[0], args[1]
            key = (g, replace(query, fiber=None))
            if key not in point_cache:
                idx = open_span(RECOUNT)
                point_cache[key] = original_count(*key)
                close_span(idx)
            sizes["polytopes.points"] += point_cache[key]

    def traced(qualname, fn):
        def wrapper(*args, **kwargs):
            idx = open_span(qualname)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            record_sizes(qualname, args, result)
            return result
        return wrapper

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "plumbsw" or name.startswith("plumbsw."))]
    for modname, names in ENTRY_POINTS.items():
        home = sys.modules[f"plumbsw.{modname}"]
        for name in names:
            fn = getattr(home, name)
            wrapper = traced(f"{modname}.{name}", fn)
            for m in modules:
                if getattr(m, name, None) is fn:
                    setattr(m, name, wrapper)

    def finish() -> None:
        sizes["lattice.builds"] = cached_lattice_of.cache_info().misses

    return {"spans": spans, "sizes": sizes}, finish


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main(argv) -> int:
    out_path, mode, cli_args = argv[0], argv[1], argv[2:]
    # Importing the package loads every module named in ENTRY_POINTS.
    from plumbsw import cli
    record, finish = install_tracer() if mode == "traced" else ({}, lambda: None)
    try:
        return cli.main(cli_args)
    finally:
        finish()
        record["vmhwm_kb"] = peak_rss_kb()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
