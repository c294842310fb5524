"""End-to-end and per-layer benchmark of the qblocks command line.

Run from the repository root:

    python3 perfbench/run.py --workload mult-n5 --seed 0 --seconds 20 --trace 0

One client drives a closed loop: each ``python -m qblocks.cli`` process is
started only after the previous one has exited.  A pass is one run of the
workload's invocation, whose weight and permutation come from ``--seed``.
The set-up timing and the passes share ``--seconds``: passes repeat until the
next one would overrun it, but the first always runs.  Every stdout
is checked (see checks.py); an invocation that fails a check counts in
``failed``.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the mean pass
wall time, the median child max-RSS, and the median time for a fresh
interpreter to import the CLI and do the workload's cold character builds,
repeated at least 5 times and for at least 4 s.  The mean rather than the
fastest pass, because the host's noise runs both ways (NOTES.md, Noise).
--trace 1
alternates untraced passes with passes run through traced_cli.py and reports
the per-layer metrics, including the tracing overhead.  The last stdout line
is the JSON result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from checks import Invocation, check, corruptions, criterion_lines, fmt, stable_digest
from traced_cli import KERNELS, SPAN_MARK, TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
PINNED = HERE / "pinned.json"

PINNED_SEED = 0
SETUP_MIN_REPS = 5
SETUP_SECONDS = 4.0
INVOCATION_TIMEOUT_S = 150

# Every span name reports .calls and .self_share: its self time as a share
# of the traced pass's wall time.  Shares rather than seconds, because a
# layer a workload never enters would otherwise report a time of exactly 0
# on every run; trace.wall_s turns shares back into seconds.
SPANS = list(dict.fromkeys(name for name, *_ in TARGETS)) + ["cli.main"] + [
    f"selftest.criterion_{k}" for k in range(1, 10)]
BUDGETED = range(1, 5)


@dataclass(frozen=True)
class Workload:
    kind: str
    n: int
    # The layers this workload was chosen to exercise: in a traced pass
    # each group of per-layer metrics must sum to more than zero.  Only
    # public functions are named, so a change to private helpers cannot
    # fail the check.
    expect: tuple[tuple[str, ...], ...]


# Why each workload is here, and what it should move, is in NOTES.md.
WORKLOADS = {
    "mult-n5": Workload("mult", 5, (
        ("filtration.restriction_flag.calls",), ("filtration.induction_flag.calls",),
        ("filtration.res_block_mult.calls",), ("filtration.ind_block_mult.calls",),
        ("filtration.ind_block_mult_split.calls",), ("weyl.orbit.calls",),
        ("weyl.dot_orbit.calls",), ("lattice.classify.calls",),
    )),
    "flag-n5": Workload("flag", 5, (
        tuple(f"kernels.{k}.calls" for k in KERNELS), ("charring.super_verma_char.calls",),
        ("filtration.verma_flag_extract.calls",), ("filtration.restriction_flag.calls",),
    )),
    "selftest-n5": Workload("selftest", 5, (
        ("charring.verma_char.calls",), ("charring.super_verma_char.calls",),
        ("filtration.linkage_check.calls",), ("lattice.leq.calls",),
        ("sampling.sample_weights.calls",),
    ) + tuple((f"selftest.criterion_{k}.calls",) for k in range(1, 10))),
}

# A fresh interpreter imports the CLI and does the workload's cold builds.
SETUP_CODE = """\
import sys
import qblocks.cli
from qblocks.charring import Truncation, full_support_height, subset_sum_P, super_verma_char
from qblocks.lattice import Weight
from qblocks.weyl import Perm
n = int(sys.argv[1])
subset_sum_P(n)
if len(sys.argv) > 2:
    mu = Perm.parse(sys.argv[3]).act(Weight.parse(sys.argv[2]))
    super_verma_char(mu, Truncation(mu, full_support_height(n)), even_only=True)
"""

PROBE_CODE = (
    "import json, qblocks, qblocks.kernels as k; "
    "print(json.dumps([qblocks.__file__, k.BACKEND]))"
)


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    rc: int
    stdout: bytes
    stderr: bytes
    seconds: float
    rss_mb: float


def strongly_typical(rng: random.Random, n: int) -> tuple[int, ...]:
    """Integral, dominant, regular and strongly typical: distinct nonzero
    integers in decreasing order, no two summing to zero."""
    top = 2 * n + 3
    pool = [x for x in range(-top, top + 1) if x]
    while True:
        lam = tuple(sorted(rng.sample(pool, n), reverse=True))
        if all(a + b for a, b in itertools.combinations(lam, 2)):
            return lam


def make_invocation(name: str, seed: int) -> Invocation:
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    if wl.kind == "selftest":
        argv = ("selftest", "--max-n", str(wl.n), "--seed", str(rng.randrange(1 << 20)))
        return Invocation(wl.kind, argv, wl.n)
    lam = strongly_typical(rng, wl.n)
    w = tuple(rng.sample(range(1, wl.n + 1), wl.n)) if wl.kind == "flag" else None
    argv = (wl.kind, "--n", str(wl.n), f"--lambda={fmt(lam)}",
            "--w", " ".join(map(str, w)) if w else "all")
    return Invocation(wl.kind, argv, wl.n, lam, w)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], env: dict[str, str]) -> Outcome:
    """Run one child to completion; max-RSS comes from wait4 on that child
    alone, so one large invocation cannot mask a later drop."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Outcome(proc.returncode, out, err[0], seconds, usage.ru_maxrss / 1024)


def probe_working_tree(env: dict[str, str]) -> str:
    """Fail unless children import qblocks from this tree's src; return the
    kernel backend they select."""
    if not (SRC / "qblocks" / "cli.py").is_file():
        raise HarnessError(f"no qblocks sources under {SRC}")
    got = spawn([sys.executable, "-c", PROBE_CODE], env)
    if got.rc != 0:
        raise HarnessError("importing qblocks failed:\n" + got.stderr.decode())
    path, backend = json.loads(got.stdout)
    if Path(path).resolve() != (SRC / "qblocks" / "__init__.py").resolve():
        raise HarnessError(f"qblocks resolves to {path}, not to {SRC}")
    return backend


def time_setup(inv: Invocation, env, start: float) -> tuple[list[float], int]:
    args = [str(inv.n)]
    if inv.kind == "flag":
        args += [fmt(inv.lam), " ".join(map(str, inv.w))]
    times, failed = [], 0
    while len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_SECONDS:
        got = spawn([sys.executable, "-c", SETUP_CODE, *args], env)
        failed += got.rc != 0
        times.append(got.seconds)
    return times, failed


def run_passes(inv: Invocation, start: float, seconds: float, traced: bool,
               env) -> dict[bool, list[Outcome]]:
    """Closed loop over passes; in a traced run untraced and traced passes
    alternate.  Stops before a cycle that would end more than ``seconds``
    after ``start``; the first cycle always runs."""
    prefixes = {
        False: [sys.executable, "-m", "qblocks.cli"],
        True: [sys.executable, str(HERE / "traced_cli.py")],
    }
    modes = [False, True] if traced else [False]
    passes: dict[bool, list[Outcome]] = {mode: [] for mode in modes}
    loop_start = time.perf_counter()
    for cycles in itertools.count(1):
        for mode in modes:
            passes[mode].append(spawn(prefixes[mode] + list(inv.argv), env))
        now = time.perf_counter()
        if now + (now - loop_start) / cycles - start > seconds:
            return passes


def tail_ratio(xs: list[float]) -> float:
    """Nearest-rank p95 over p50 of per-call durations; 0 without calls."""
    if not xs:
        return 0.0
    xs = sorted(xs)

    def rank(q):
        return xs[max(0, math.ceil(q / 100 * len(xs)) - 1)]

    return rank(95) / rank(50)


def span_report(stderr: bytes) -> dict:
    for line in reversed(stderr.decode().splitlines()):
        if line.startswith(SPAN_MARK):
            return json.loads(line[len(SPAN_MARK):])
    raise ValueError("traced child wrote no span report")


def output_rows(inv: Invocation, stdout: bytes) -> int:
    if inv.kind == "selftest":
        return len(criterion_lines(stdout))
    return len(json.loads(stdout)["rows"])


def layer_values(inv: Invocation, got: Outcome) -> dict[str, float]:
    """Per-layer numbers of one traced pass.  A span's self time is its
    duration minus that of its direct children."""
    calls, self_s, durations = Counter(), Counter(), defaultdict(list)
    report = span_report(got.stderr)
    spans = report["spans"]
    covered = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    for (name, t0, t1, _), child in zip(spans, covered):
        calls[name] += 1
        self_s[name] += t1 - t0 - child
        durations[name].append(t1 - t0)
    counters = Counter(report["counters"])
    values: dict[str, float] = {}
    for name in SPANS:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_share"] = self_s[name] / got.seconds
    for kernel in KERNELS:
        values[f"kernels.{kernel}.terms_out"] = counters[f"kernels.{kernel}.terms_out"]
    for name in ("charring.super_verma_char.support", "charring.offset_cache.hits",
                 "charring.offset_cache.misses", "lattice.Weight.constructed"):
        values[name] = counters[name]
    for name in ("filtration.linkage_check", "filtration.verma_flag_extract"):
        values[f"{name}.p95_over_p50"] = tail_ratio(durations[name])
    values["cli.stdout_bytes"] = len(got.stdout)
    values["cli.rows"] = output_rows(inv, got.stdout)
    return values


def budget_values(got: Outcome) -> dict[str, float]:
    """seconds / budget of the budgeted selftest criteria, from plain stdout."""
    use = {k: 0.0 for k in BUDGETED}
    for _, k, seconds, budget in criterion_lines(got.stdout):
        if budget:
            use[k] = seconds / budget
    values = {f"selftest.criterion_{k}.budget_use": v for k, v in use.items()}
    values["selftest.budget_use_max"] = max(use.values())
    return values


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def load_pinned(name: str, seed: int) -> str | None:
    if seed != PINNED_SEED:
        return None
    digest = json.loads(PINNED.read_text()).get(name)
    if digest is None:
        raise HarnessError(f"{PINNED.name} has no digest for {name}; run pin.py")
    return digest


def verify(name, seed, inv, passes) -> tuple[int, int, list[str]]:
    """Check every stdout; return (attempted, failed, problems).  Traced
    stdout must hash like untraced stdout."""
    pinned = load_pinned(name, seed)
    reference = stable_digest(passes[False][0].stdout)
    attempted = failed = 0
    problems = []
    for traced, outs in passes.items():
        for got in outs:
            found = check(inv, got.rc, got.stdout, pinned)
            if traced and stable_digest(got.stdout) != reference:
                found.append("traced stdout differs from untraced stdout")
            if traced and SPAN_MARK.encode() not in got.stderr:
                found.append("traced child wrote no span report")
            attempted += 1
            failed += bool(found)
            problems += found[:3]
    got = passes[False][0]
    if not check(inv, got.rc, got.stdout, pinned):
        for label, bad in corruptions(inv, got.stdout, pinned is not None).items():
            if not check(inv, 0, bad, pinned):
                problems.append(f"checker accepted a corrupted output ({label})")
    return attempted, failed, problems


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return None
    return got.stdout.strip() or None


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    load_start = loadavg()
    env = child_env()
    spec = json.loads(SPEC.read_text())
    backend = probe_working_tree(env)
    inv = make_invocation(args.workload, args.seed)

    start = time.perf_counter()
    setup, setup_failed = time_setup(inv, env, start)
    passes = run_passes(inv, start, args.seconds, bool(args.trace), env)
    attempted, failed, problems = verify(args.workload, args.seed, inv, passes)
    if setup_failed:
        problems.append(f"{setup_failed} of {len(setup)} set-up runs failed")

    plain = passes[False]
    if args.trace and failed:
        # A crashed traced child has no spans; the result reports the failure.
        values = {m["name"]: 0 for m in spec["per_layer"]}
        wanted = spec["per_layer"]
    elif args.trace:
        traced = passes[True]
        values = medians([layer_values(inv, got) for got in traced])
        values.update(medians([budget_values(got) for got in plain]))
        values["trace.wall_s"] = statistics.mean(got.seconds for got in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.mean(
            got.seconds for got in plain)
        missing = [" + ".join(group) for group in WORKLOADS[args.workload].expect
                   if not sum(values[m] for m in group)]
        if missing:
            problems.append("traced layers recorded no work: " + ", ".join(missing))
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.mean(got.seconds for got in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(got.rss_mb for got in plain),
        }
        wanted = spec["end_to_end"]

    for line in problems:
        print(f"problem: {' '.join(inv.argv)}: {line}", file=sys.stderr)
    print(json.dumps({"env": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "backend": backend, "QBLOCKS_KERNELS": os.environ.get("QBLOCKS_KERNELS"),
        "commit": commit(), "loadavg_start": load_start, "loadavg_end": loadavg(),
        "pass_walls": {"traced" if k else "plain": [got.seconds for got in v]
                       for k, v in passes.items()},
        "setup_walls": setup,
        "invocation": " ".join(inv.argv),
    }}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
