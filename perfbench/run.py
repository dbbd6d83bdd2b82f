"""End-to-end and per-layer benchmark of the plumbsw command line.

    python3 perfbench/run.py --workload ladder|wide-h|verify|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is run from ``src/``.
Every operation is one ``plumbsw`` invocation in a fresh process, one at a
time (a closed loop with one client).  A run first sets up: it times
``plumbsw invariants`` over the workload's distinct graphs, several times,
and reports the median sum as ``setup_s``.  It then repeats whole rounds of
the workload's operations until ``--seconds`` have passed.  Every output is
checked against a reference made apart from the program, or against a
property the method must have.

Timed work is interleaved with ``reference.py``, a fixed task, and is
reported in seconds at the host speed at which that task takes REF_S, so
that drift in the host's speed cancels.

Each command runs under ``child.py``, which also records its peak memory.
With ``--trace 1`` each command of a round runs untraced and then traced;
the run reports per-layer self times, call counts, size
counts and the tracing overhead instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

import checks  # noqa: E402  (the script's own directory is on sys.path)
import inputs  # noqa: E402
from child import ENTRY_POINTS, RECOUNT, SIZE_COUNTS  # noqa: E402

WORKLOADS = ("ladder", "wide-h", "verify")
ROUTES = ("duality", "polypart", "division", "lattice")
VERIFY_CHECKS = ("canonical-cycle-identity", "gorenstein-symmetry",
                 "inclusion-exclusion", "division-vs-duality", "route-agreement",
                 "quadratic-consistency")

OP_LIMIT_S = 90        # an operation running longer is killed and fails as >T
RUN_DEADLINE_S = 120   # no round starts that would run past this; operations are cut at it
# The reference runs made while an operation is stopped add up to about half
# of its running time, so a run ends by RUN_DEADLINE_S + OP_LIMIT_S / 2 < 180 s.
SETUP_PASSES = 3, 15   # at least 3 set-up passes, and more until SETUP_MIN_S
SETUP_MIN_S = 4.0
LADDER_TREES = 3
# The trees are drawn once from this fixed seed and --seed relabels them:
# sw on such trees takes 0.2 s to 12 s depending on the draw, so a seeded
# draw would spread wall_s far beyond any useful bound (see README.md).
LADDER_TREE_SEED = "ladder-trees"
# Likewise for the stars: star(-3; -5,-7,-11) (|H| = 988, the ROADMAP
# baseline) and three stars drawn once from a fixed seed, relabelled by
# --seed.  Seeded draws changed the work of a round by up to a third.
WIDE_STARS = 3
WIDE_STAR_SEED = "wide-h-stars"
# verify's sampled work changes by a factor of two between its seeds, so
# its seed is fixed rather than drawn from --seed (see README.md).
VERIFY_SEED = 20240914
VERIFY_SAMPLES = 1
if VERIFY_SAMPLES < 1:
    raise ValueError("verify --samples 0 passes without sampling anything")

CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

# The host's speed drifts by a quarter and more over minutes, and moves
# every timed command with it.  So the reference task, fixed work apart
# from the program, runs after every REF_EVERY_S seconds of timed work, and
# each stretch of timed work is divided by the reference runs around it.
# Times are reported in seconds at the host speed at which the reference
# task takes REF_S; the raw seconds are printed too.  See README.md.
REFERENCE = HERE / "reference.py"
REF_S = 0.45
REF_EVERY_S = 1.0
# The reference task has its own time limit, apart from the run's deadline,
# so that it can still correct the work of an operation cut at the deadline.
REF_LIMIT_S = 10


# ---------------------------------------------------------------------------
# operations and their checks

@dataclass
class Op:
    name: str
    args: list[str]       # plumbsw arguments
    check: object         # stdout -> list of problems

    def argv(self, record: Path, traced: bool) -> list[str]:
        return [sys.executable, str(HERE / "child.py"), str(record),
                "traced" if traced else "plain", *self.args]


@dataclass
class Result:
    wall: float
    cpu: float
    code: int | None      # None: killed at the time limit
    problems: list[str]
    record: dict          # what child.py wrote: peak RSS, spans if traced

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)

    @property
    def wrong(self) -> bool:
        """Exit 0 with an output that fails its check: a wrong answer the
        program did not flag."""
        return self.code == 0 and bool(self.problems)


def json_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def check_classes(recs, order: int) -> list[str]:
    hs = [checks.parse_frac_vec(r["h"]) for r in recs]
    if len(recs) != order or len(set(hs)) != order:
        return [f"{len(set(hs))} distinct classes printed, |H| = {order}"]
    return []


def sw_all_check(order: int, sigma: int | None = None, paper=None):
    """Every route ran, all agree on every class; optional Casson and
    paper-value references."""
    def check(stdout: str) -> list[str]:
        recs = json_lines(stdout)
        out = check_classes(recs, order)
        for r in recs:
            vals = r["routes"]
            if set(vals) != set(ROUTES) or len(set(vals.values())) != 1 \
                    or not r["agree"] or r["sw_norm_neg"] not in vals.values():
                out.append(f"h={r['h']} routes={vals} errors={r['errors']}")
        if sigma is not None and [r["raw"] for r in recs] != [str(Fraction(sigma, 8))]:
            out.append(f"raw={[r['raw'] for r in recs]}, Casson sigma/8 = {Fraction(sigma, 8)}")
        if paper is not None:
            got = tuple(r["sw_norm_neg"] for r in
                        sorted(recs, key=lambda r: checks.parse_frac_vec(r["h"])))
            if got != paper:
                out.append(f"-sw_norm {got}, paper {paper}")
        return out
    return check


def sw_route_check(recount: checks.StarRecount, method: str):
    """One route against the independent star recount, class by class."""
    def check(stdout: str) -> list[str]:
        recs = json_lines(stdout)
        out = check_classes(recs, recount.d)
        for r in recs:
            key = recount.key(checks.parse_frac_vec(r["h"]))
            want = recount.values.get(key)
            if r["routes"] != {method: want} or not r["agree"]:
                out.append(f"h={r['h']} routes={r['routes']} recount={want}")
        return out
    return check


def verify_check(stdout: str) -> list[str]:
    lines = [line for line in stdout.splitlines() if line.strip()]
    want = [f"ok {name}" for name in VERIFY_CHECKS]
    return [] if lines == want else [f"verify printed {lines}"]


def invariants_check(order: int):
    def check(stdout: str) -> list[str]:
        got = next((r["value"] for r in json_lines(stdout) if r["key"] == "hOrder"), None)
        return [] if got == order else [f"|H| = {got}, expected {order}"]
    return check


# ---------------------------------------------------------------------------
# workloads: graphs written under WORK, operations on them

def h_of(text: str) -> int:
    return inputs.h_order(*inputs.parse_text(text)[1:])


def ladder(seed: int):
    cases = []   # (graph name, graph text, check of `sw` on it)
    for name, text in inputs.shipped(ROOT):
        sigma = checks.milnor_signature(2, 5, 7) if name == "sigma_2_5_7" else None
        cases.append((name, text, sw_all_check(h_of(text), sigma, checks.PAPER_VALUES[name])))
    for p, q, r in inputs.BRIESKORN:
        cases.append((f"brieskorn_{p}_{q}_{r}", inputs.brieskorn(p, q, r),
                      sw_all_check(1, checks.milnor_signature(p, q, r))))
    cases.append(("valency4_reproducer", inputs.REPRODUCER,
                  sw_all_check(h_of(inputs.REPRODUCER))))
    rng = random.Random(f"ladder:{seed}")
    for name, text in inputs.random_trees(random.Random(LADDER_TREE_SEED), LADDER_TREES):
        text = inputs.relabel(text, rng)
        cases.append((name, text, sw_all_check(h_of(text))))
    return ([(name, text) for name, text, _ in cases],
            [Op(f"sw {name}", ["sw", str(WORK / f"{name}.graph"), "--format", "json-lines"], check)
             for name, _, check in cases])


def wide_h(seed: int):
    rng = random.Random(f"wide-h:{seed}")
    stars = [("star_3_5_7_11_h988", inputs.star(-3, (-5, -7, -11)))]
    stars += inputs.wide_stars(random.Random(WIDE_STAR_SEED), WIDE_STARS)
    graphs, ops = [], []
    for name, text in stars:
        text = inputs.relabel(text, rng)
        recount = checks.StarRecount(text)
        graphs.append((name, text))
        for method in ("duality", "lattice"):
            ops.append(Op(f"sw --method {method} {name}",
                          ["sw", str(WORK / f"{name}.graph"), "--method", method,
                           "--format", "json-lines"],
                          sw_route_check(recount, method)))
    return graphs, ops


def verify(seed: int):
    graphs = inputs.shipped(ROOT)
    ops = [Op(f"verify {name}", ["verify", str(WORK / f"{name}.graph"), "--seed",
                                 str(VERIFY_SEED), "--samples", str(VERIFY_SAMPLES)],
              verify_check) for name, _ in graphs]
    return graphs, ops


BUILDERS = {"ladder": ladder, "wide-h": wide_h, "verify": verify}


# ---------------------------------------------------------------------------
# running one child process

def run_child(argv: list[str], limit: float, tag: str, pause_after: float = math.inf,
              pause=None) -> tuple[float, float, int | None, str]:
    """(wall, cpu, exit code or None if killed, stdout).

    Each time the command has run ``pause_after`` seconds since it started
    or was last continued, it is stopped with SIGSTOP and ``pause(piece)``
    is called with the wall time of the piece it just ran; ``pause``
    returns the seconds until the next stop, and the command is continued.
    ``wall`` is the sum of the pieces, so it leaves out stopped time.  A
    command that has run ``limit`` seconds in all is killed.
    """
    out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
    wall, killed = 0.0, False
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT)
        # Signals go through a pidfd, and the child is only reaped by the
        # wait4 below, so no signal can reach a reused pid.
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            while True:
                budget = max(min(pause_after, limit - wall), 0.0)
                ready = poller.poll(math.ceil(budget * 1000))
                piece = time.perf_counter() - start
                if ready:
                    wall += piece
                    break
                if wall + piece >= limit:
                    killed = True
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                    os.waitid(os.P_PIDFD, pidfd, os.WEXITED | os.WNOWAIT)
                    wall += piece
                    break
                signal.pidfd_send_signal(pidfd, signal.SIGSTOP)
                info = os.waitid(os.P_PIDFD, pidfd, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                wall += piece
                if info.si_code != os.CLD_STOPPED:
                    break   # it ended before the stop took hold
                pause_after = pause(piece)
                start = time.perf_counter()
                signal.pidfd_send_signal(pidfd, signal.SIGCONT)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if killed else proc.returncode
    return wall, usage.ru_utime + usage.ru_stime, code, out_path.read_text()


class Paced:
    """Timed commands with runs of the reference task between them.

    The reference task runs once untimed, to warm the file cache, and then
    before any timed work, each time REF_EVERY_S seconds of timed work have
    passed since its last run (stopping a command that is still running,
    see run_child), and in ``close``.  Every piece of timed work is divided
    by the mean of the two reference runs around it and multiplied by
    REF_S: its time at reference speed.
    """

    def __init__(self):
        self.refs: list[float] = []
        self.pieces: list[tuple[object, float, int]] = []   # key, wall, reference runs before it
        self.since = 0.0
        self.reference()
        self.refs.pop()
        self.reference()

    def reference(self) -> float:
        tag = f"ref{len(self.refs)}"
        wall, _, code, _ = run_child([sys.executable, str(REFERENCE)], REF_LIMIT_S, tag)
        if code != 0:
            raise RuntimeError(f"reference task exited with {code}; see {WORK / tag}.err")
        self.refs.append(wall)
        self.since = 0.0
        return REF_EVERY_S

    def run(self, key, argv: list[str], limit: float, tag: str):
        """run_child for a command whose work counts towards ``key``."""
        stopped = 0.0

        def pause(piece: float) -> float:
            nonlocal stopped
            stopped += piece
            self.pieces.append((key, piece, len(self.refs)))
            return self.reference()

        wall, cpu, code, stdout = run_child(argv, limit, tag, REF_EVERY_S - self.since, pause)
        self.pieces.append((key, wall - stopped, len(self.refs)))
        self.since += wall - stopped
        if self.since >= REF_EVERY_S:
            self.reference()
        return wall, cpu, code, stdout

    def close(self) -> None:
        """End the last stretch of timed work with a reference run."""
        if self.pieces and self.pieces[-1][2] == len(self.refs):
            self.reference()

    def at_reference_speed(self, key) -> float:
        return sum(wall * 2 * REF_S / (self.refs[j - 1] + self.refs[j])
                   for k, wall, j in self.pieces if k == key)


def run_op(op: Op, limit: float, tag: str, traced: bool = False, run=run_child) -> Result:
    record_path = WORK / f"{tag}.json"
    wall, cpu, code, stdout = run(op.argv(record_path, traced), min(OP_LIMIT_S, limit), tag)
    problems: list[str] = []
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    if code is not None:
        try:
            problems = op.check(stdout)
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    return Result(wall, cpu, code, problems, record)


def status(res: Result) -> str:
    if res.code is None:
        return f">T ({OP_LIMIT_S}s limit)"
    if res.code != 0:
        return f"FAIL exit {res.code}" + (f": {res.problems[0]}" if res.problems else "")
    return f"WRONG: {res.problems[0]}" if res.problems else "ok"


# ---------------------------------------------------------------------------
# spans -> per-layer numbers

def layer_totals(records: list[dict]) -> dict[str, float]:
    """Self time, calls and inclusive time per entry point, plus size
    counts, summed over the given traced commands."""
    tot: dict[str, float] = {}
    for data in records:
        spans = data["spans"]
        child = [0.0] * len(spans)
        hidden = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
            if name.startswith("trace."):
                p = parent
                while p >= 0:
                    hidden[p] += end - start
                    p = spans[p][3]
        for i, (name, start, end, _) in enumerate(spans):
            if name == RECOUNT:
                continue
            tot[f"{name}.self_s"] = tot.get(f"{name}.self_s", 0.0) + (end - start) - child[i]
            tot[f"{name}.incl_s"] = tot.get(f"{name}.incl_s", 0.0) + (end - start) - hidden[i]
            tot[f"{name}.calls"] = tot.get(f"{name}.calls", 0) + 1
        for key, value in data["sizes"].items():
            tot[key] = tot.get(key, 0) + value
    return tot


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order.  Inclusive
    times are kept for the routes: the swcore entry points, and the lattice
    route, which sw_report calls directly."""
    out = []
    for mod, names in ENTRY_POINTS.items():
        for fn in names:
            out += [(f"{mod}.{fn}.self_s", "s"), (f"{mod}.{fn}.calls", "count")]
            if mod == "swcore" or f"{mod}.{fn}" == "polytopes.sw_via_lattice":
                out.append((f"{mod}.{fn}.incl_s", "s"))
    out += [(name, "count") for name in SIZE_COUNTS]
    out.append(("trace.overhead_s", "s"))
    return out


# ---------------------------------------------------------------------------
# one workload run

def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    began = time.perf_counter()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    graphs, ops = BUILDERS[workload](seed)
    for name, text in graphs:
        (WORK / f"{name}.graph").write_text(text)
    print(f"# {workload} seed={seed}: {len(graphs)} graphs, {len(ops)} operations per round")
    attempted = failed = 0
    wrong = False

    def left() -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - began)

    def another_round(elapsed: float, last: float) -> bool:
        """Whole rounds only: go on while the next one would end nearer to
        --seconds than stopping now, and well before the deadline."""
        return elapsed + last / 2 < seconds and last * 1.5 < left()

    def attempt(op: Op, tag: str, traced: bool = False, run=run_child) -> Result:
        nonlocal attempted, failed, wrong
        res = run_op(op, left(), tag, traced, run)
        attempted += 1
        failed += res.failed
        wrong = wrong or res.wrong
        print(f"{tag:>16} {res.wall:8.3f}s  {op.name}  {status(res)}")
        return res

    metrics: dict[str, dict] = {}
    if not trace:
        paced = Paced()
        setup_ops = [Op(f"invariants {name}", ["invariants", str(WORK / f"{name}.graph"),
                                               "--format", "json-lines"],
                        invariants_check(h_of(text))) for name, text in graphs]
        setups = []
        while len(setups) < SETUP_PASSES[0] or (
                sum(setups) < SETUP_MIN_S and len(setups) < SETUP_PASSES[1]):
            key, total = ("setup", len(setups)), 0.0
            for k, op in enumerate(setup_ops):
                res = run_op(op, left(), f"setup{len(setups)}-{k}",
                             run=lambda *a, key=key: paced.run(key, *a))
                if res.failed:
                    wrong = True
                    print(f"    setup {res.wall:8.3f}s  {op.name}  {status(res)}")
                total += res.wall
            setups.append(total)
            paced.close()
        walls, cpus, rss = [], [], 0
        start = time.perf_counter()
        while True:
            key, began_round = ("round", len(walls)), time.perf_counter()
            results = [attempt(op, f"round{len(walls)}-{k}",
                               run=lambda *a, key=key: paced.run(key, *a))
                       for k, op in enumerate(ops)]
            walls.append(sum(r.wall for r in results))
            cpus.append(sum(r.cpu for r in results))
            rss = max([rss] + [r.record.get("vmhwm_kb", 0) for r in results])
            if not another_round(time.perf_counter() - start, time.perf_counter() - began_round):
                break
        paced.close()
        setup_norm = [paced.at_reference_speed(("setup", k)) for k in range(len(setups))]
        norms = [paced.at_reference_speed(("round", k)) for k in range(len(walls))]
        for k, (wall, norm) in enumerate(zip(walls, norms)):
            print(f"{'round' + str(k):>16} {wall:8.3f}s raw, {norm:8.3f}s at reference speed")
        metrics = {
            "setup_s": (statistics.median(setup_norm), "s"),
            "wall_norm_s": (statistics.median(norms), "s"),
            "peak_rss_mb": (rss / 1024, "MB"),
        }
        print(f"{workload} raw medians: setup {statistics.median(setups):.4f} s,"
              f" round wall {statistics.median(walls):.4f} s, round cpu {statistics.median(cpus):.4f} s,"
              f" reference task {statistics.median(paced.refs):.4f} s ({len(paced.refs)} runs)")
    else:
        rounds = []   # (round wall, tracing overhead, layer totals)
        start = time.perf_counter()
        while True:
            label, wall, overhead, records = f"traced{len(rounds)}", 0.0, 0.0, []
            for k, op in enumerate(ops):
                # Each command runs untraced right before it runs traced, so
                # drift in the host's speed mostly cancels in the overhead.
                plain = attempt(op, f"{label}-{k}-plain")
                res = attempt(op, f"{label}-{k}", traced=True)
                if "spans" in res.record:
                    records.append(res.record)
                wall += plain.wall + res.wall
                overhead += res.wall - plain.wall
            rounds.append((wall, overhead, layer_totals(records)))
            if not another_round(time.perf_counter() - start, wall):
                break
        counts = rounds[0][2]
        for name, unit in per_layer_metrics():
            if name == "trace.overhead_s":
                value = statistics.median(r[1] for r in rounds)
            elif unit == "s":
                value = statistics.median(r[2].get(name, 0.0) for r in rounds)
            else:
                value = counts.get(name, 0)
            metrics[name] = (value, unit)
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value} {unit}")
    print(f"{workload} attempted = {attempted} failed = {failed}")
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "plumbsw" / "cli.py").is_file() or not (ROOT / "graphs").is_dir():
        print(f"error: no plumbsw sources under {ROOT}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        parts = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                 for w in WORKLOADS}
        for w, part in parts.items():
            print(f"{w}: {json.dumps(part)}")
        result = {"correct": all(p["correct"] for p in parts.values()),
                  "attempted": sum(p["attempted"] for p in parts.values()),
                  "failed": sum(p["failed"] for p in parts.values()),
                  "metrics": {f"{w}.{k}": v for w, p in parts.items()
                              for k, v in p["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
