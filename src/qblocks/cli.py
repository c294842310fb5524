"""Command-line front end: weight classification, orbits, linkage checks,
and multiplicity tables, with deterministic JSON or TSV output.

Exit codes: 0 success, 1 verification failure (a row verdict that fails, or
a flag division that fails), 2 usage error, 3 resource guard, 141
(128 + SIGPIPE) when the reader closes stdout first, as in
``qblocks mult ... | head``; that exit prints nothing to stderr.  Identical
arguments and seed produce byte-identical output.

linkage, mult and flag share one sweep path, cmd_sweep; their subparsers
carry what differs: the row builder, the verdict field and the TSV headers.
With --workers N the rows are split by _fork.fork_map over this process and
forked children, at most N processes in all.

Every command that enumerates a symmetric group checks its rank once, before
it enumerates anything or builds a row, against QBLOCKS_MAX_RANK or, when
that is unset, CLI_DEFAULT_MAX_RANK.  flag then refuses, as early, a
truncation region of more than _MAX_FLAG_REGION points, and every sweep
refuses rows whose work exceeds its command's cap in _WORK_CAPS.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from bisect import bisect_right
from math import comb, factorial
from operator import itemgetter
from typing import Optional

from qblocks._fork import fork_map
from qblocks.charring import full_support_height, k_dim, subset_sum_P
from qblocks import filtration
from qblocks.filtration import (
    FlagExtractionError,
    _subset_sums_by_height,
    ind_block_mult,
    ind_block_mult_split,
    linkage_check,
    res_block_mult,
    restriction_flag,
)
from qblocks.lattice import Weight, classify
from qblocks.sampling import sample_weights
from qblocks.weyl import GuardError, Perm, all_perms, check_rank, dot_orbit, orbit

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_PIPE = 141

CLI_DEFAULT_MAX_RANK = 7

# The n = 6 full-height flag region, C(40, 5) points: one w there takes
# 3.3-4.6 s and 139 MB (2 cores, Python 3.11.7).
_MAX_FLAG_REGION = comb(40, 5)

# A flag row's cost beyond its entries, in flag entries.  Warm rows of
# flag --n 6 --lambda=13,9,6,2,-1,-10 --w all, JSON included, took
# 0.071-0.074 ms each at --height 0 (one entry) and 15-16 us per entry at
# full height (43-46 ms for 2,932), so F = 4.7-4.8, rounded up (2 cores,
# Python 3.11.7, -O).
_FLAG_ROW_COST = 5

# Keying one weight's orbits for linkage, in linkage rows.  At n = 7 a cold
# _orbit_keys, which keys 2 x 7! shuffles and builds no orbit Weight, took
# 25.4-44.1 ms per sampled weight and a warm linkage_check row 0.30-0.52 ms,
# so K = 72.6-111.5, rounded up (5 alternating runs, 2 cores,
# Python 3.11.7, -O).
_LINKAGE_KEYING_COST = 112

# Rows x per-row work per sweep, each the largest sweep the CLI promises: one
# weight over all w at n = 6 for mult and flag (720 rows of |supp P(6)| =
# 2,932 flag entries, plus _FLAG_ROW_COST for flag) and at n = 7 for linkage
# (5,040 rows of 7! points, plus _LINKAGE_KEYING_COST rows to key the weight).
_WORK_CAPS = {"mult": 720 * 2_932, "flag": 720 * (2_932 + _FLAG_ROW_COST),
              "linkage": 5_040 * (5_040 + _LINKAGE_KEYING_COST)}


def _flag_height(n: int, height: Optional[int]) -> int:
    """flag's truncation height, refused when its region of
    C(height + n - 1, n - 1) points exceeds _MAX_FLAG_REGION."""
    bound = full_support_height(n) if height is None else height
    if bound < 0:
        raise ValueError(f"--height must be nonnegative, got {bound}")
    points = comb(bound + n - 1, n - 1)
    if points > _MAX_FLAG_REGION:
        fits = bisect_right(
            range(bound), _MAX_FLAG_REGION, key=lambda h: comb(h + n - 1, n - 1)
        ) - 1
        raise GuardError(
            f"flag region at n = {n}, height {bound} has {points:,} points, "
            f"more than {_MAX_FLAG_REGION:,}; use --height {fits:,} or less"
        )
    return bound


def _check_rows(
    command: str, n: int, lams: int, perms: int, height: Optional[int] = None
) -> None:
    """Refuse lams weights times perms rows each whose work exceeds
    _WORK_CAPS[command] units: a linkage row tests n! orbit points and each
    weight's keying costs _LINKAGE_KEYING_COST rows more, a mult row builds
    |supp P(n)| flag entries, and a flag row P's entries up to its height
    plus _FLAG_ROW_COST.  Rows are compared at their least work first, so
    P(n) is built only when they could fit.  A refusal names the most rows
    that fit in whole weights of perms rows, or at one row a weight."""
    cap = _WORK_CAPS[command]
    rows = lams * perms
    unit = "orbit points" if command == "linkage" else "flag entries"
    least = 1 + (_FLAG_ROW_COST if command == "flag" else 0)
    if rows * least > cap:
        raise GuardError(f"{command} at n = {n} asks for {rows:,} rows, more than "
                         f"the {cap:,} {unit} it may build, at least {least} a row")
    keying = 0
    if command == "linkage":
        work = factorial(n)
        keying = _LINKAGE_KEYING_COST * work
    elif command == "flag":
        entries = _subset_sums_by_height(n)
        work = bisect_right(entries, height, key=itemgetter(0)) + _FLAG_ROW_COST
    else:
        work = len(subset_sum_P(n))
    if rows * work + lams * keying > cap:
        keyed = f" and key {lams:,} weights at {keying:,} each" if keying else ""
        fits = cap // (perms * work + keying) * perms or cap // (work + keying)
        raise GuardError(f"{command} at n = {n} would build {rows:,} rows of "
                         f"{work:,} {unit}{keyed}, more than {cap:,}; use "
                         f"{fits:,} rows or fewer")


def _resolve_sweep(args) -> tuple[int, dict, list[Weight], list[Perm]]:
    """Validate the arguments, then apply the rank guard, flag's region guard
    and the row guard before sampling any weight.  The dict holds flag's
    height, fixed per sweep."""
    lam = lo = hi = None
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    if args.lam is not None:
        lam = Weight.parse(args.lam)
        if args.n is not None and args.n != lam.rank:
            raise ValueError(f"--n {args.n} contradicts --lambda of rank {lam.rank}")
        n = lam.rank
    else:
        if args.n is None:
            raise ValueError("--n is required when --lambda is not given")
        if args.n < 1:
            raise ValueError(f"--n must be at least 1, got {args.n}")
        if args.samples < 1:
            # An empty sweep would check nothing and still report success.
            raise ValueError(f"--samples must be at least 1, got {args.samples}")
        if args.sample_range:
            try:
                lo, hi = map(int, args.sample_range.split(":"))
            except ValueError:
                raise ValueError(
                    f"--sample-range wants LO:HI, got {args.sample_range!r}"
                ) from None
        n = args.n
    w = None if args.w == "all" else Perm.parse(args.w)
    if w is not None and w.rank != n:
        raise ValueError(f"--w has rank {w.rank}, expected {n}")
    check_rank(n, CLI_DEFAULT_MAX_RANK)
    fixed = {"height": _flag_height(n, args.height)} if args.command == "flag" else {}
    samples = 1 if lam is not None else args.samples
    perms = factorial(n) if w is None else 1
    _check_rows(args.command, n, samples, perms, fixed.get("height"))
    if lam is None:
        lams = sample_weights(n, args.samples, seed=args.seed, lo=lo, hi=hi)
    else:
        lams = [lam]
    return n, fixed, lams, list(all_perms(n)) if w is None else [w]


def _tsv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dict) and "highest_weights" in value:
        value = value["highest_weights"]
    if isinstance(value, list):
        return ";".join(f"{e['weight']}:{e['mult']}" for e in value) or "-"
    return str(value)


def _emit(args, doc: dict, headers: list[str]) -> None:
    if args.format == "tsv":
        lines = ["\t".join(headers)]
        for row in doc["rows"]:
            cells = (row[h] if h in row else row["flag"][h] for h in headers)
            lines.append("\t".join(map(_tsv_cell, cells)))
        print("\n".join(lines))
    else:
        print(json.dumps(doc, indent=2))


# A payload is (Weight, Perm) followed by the document's fixed values.

def _linkage_row(payload) -> dict:
    lam, w = payload
    rep = linkage_check(lam, w)
    return {
        "lambda": str(lam),
        "w": str(w),
        "intersection_plain": ";".join(str(x) for x in sorted(rep.intersection_plain)),
        "intersection_dot": ";".join(str(x) for x in sorted(rep.intersection_dot)),
        "offset": str(rep.offset),
        "offset_multiplicity": rep.offset_multiplicity,
        "passed": rep.passed,
    }


def _mult_row(payload) -> dict:
    lam, w = payload
    n = lam.rank
    k = k_dim(n)
    raw_expected = 2 ** ((n - 1) - (n - 1) // 2)
    flag = restriction_flag(lam, w)
    block = res_block_mult(lam, w)
    raw = ind_block_mult(lam, w)
    split = ind_block_mult_split(lam, w)
    return {
        "lambda": str(lam),
        "w": str(w),
        "flag": {"highest_weights": flag.to_json_entries(),
                 "block_projected": block, "k_expected": k},
        "ind_raw": raw,
        "ind_split": split,
        "ok": block == k and split == k and raw == raw_expected,
    }


def _flag_row(payload) -> dict:
    lam, w, bound = payload
    extracted, direct = filtration._flag_routes(lam, w, bound)
    match = extracted == direct
    entries = extracted.to_json_entries()
    return {
        "lambda": str(lam),
        "w": str(w),
        "height": bound,
        "extracted": entries,
        "direct": entries if match else direct.to_json_entries(),
        "match": match,
    }


def cmd_classify(args) -> int:
    lam = Weight.parse(args.lam)
    rep = classify(lam)
    row = {
        "lambda": str(lam),
        "integral": rep.integral,
        "dominant": rep.dominant,
        "regular": rep.regular,
        "typical": rep.typical,
        "strongly_typical": rep.strongly_typical,
    }
    doc = {"command": "classify", "rows": [row]}
    _emit(args, doc, list(row))
    return EXIT_OK


def cmd_orbit(args) -> int:
    lam = Weight.parse(args.lam)
    check_rank(lam.rank, CLI_DEFAULT_MAX_RANK)
    points = dot_orbit(lam) if args.dot else orbit(lam)
    rows = [{"weight": str(x)} for x in sorted(points)]
    doc = {
        "command": "orbit",
        "dot": args.dot,
        "lambda": str(lam),
        "size": len(rows),
        "rows": rows,
    }
    _emit(args, doc, ["weight"])
    return EXIT_OK


def cmd_sweep(args) -> int:
    """linkage, mult and flag: one row per (weight, permutation) pair, and
    exit 1 unless every row's verdict field holds."""
    n, fixed, lams, perms = _resolve_sweep(args)
    payloads = [(lam, w, *fixed.values()) for lam in lams for w in perms]
    rows = fork_map(args.row, payloads, args.workers)
    passed = all(r[args.verdict] for r in rows)
    doc = {"command": args.command, "n": n, **fixed,
           "lambdas": [str(lam) for lam in lams], "rows": rows, "passed": passed}
    _emit(args, doc, args.headers)
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_selftest(args) -> int:
    if args.max_n is not None and args.max_n < 2:
        # Criteria 1-4 and 7 start at n = 2: a smaller cap would report
        # them as passed after no checks.
        raise ValueError(f"--max-n must be at least 2, got {args.max_n}")
    # Imported here so that no other command compiles the acceptance suite.
    from qblocks.selftest import DEFAULT_SEED, run_all

    seed = DEFAULT_SEED if args.seed is None else args.seed
    results = run_all(seed=seed, max_n=args.max_n)
    for res in results:
        print(res.line())
    good = sum(r.passed for r in results)
    verdict = "OK" if good == len(results) else "FAILED"
    print(f"{verdict}: {good}/{len(results)} criteria passed")
    return EXIT_OK if good == len(results) else EXIT_VERIFY


def _add_common(sp, height: bool) -> None:
    sp.add_argument("--n", type=int, help="rank; required when sampling")
    sp.add_argument(
        "--lambda", dest="lam",
        help="weight as comma-separated rationals, e.g. 5,2,1 or 1/2,-1/2",
    )
    sp.add_argument(
        "--samples", type=int, default=1,
        help="number of weights to sample when --lambda is absent",
    )
    sp.add_argument("--seed", type=int, default=0, help="sampler seed")
    sp.add_argument(
        "--sample-range", help="LO:HI inclusive coordinate range for sampling"
    )
    sp.add_argument(
        "--w", default="all", help='permutation images like "2 1 3", or "all"'
    )
    if height:
        sp.add_argument(
            "--height", type=int,
            help="truncation height (default: smallest bound covering every flag weight)",
        )
    sp.add_argument("--format", choices=("json", "tsv"), default="json")
    sp.add_argument("--workers", type=int, default=1, help="processes to split rows over")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qblocks",
        description="Exact weight and character combinatorics for category O blocks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="evaluate the five weight predicates")
    c.add_argument("--lambda", dest="lam", required=True)
    c.add_argument("--format", choices=("json", "tsv"), default="json")
    c.set_defaults(func=cmd_classify)

    o = sub.add_parser("orbit", help="plain or dot orbit of a weight")
    o.add_argument("--lambda", dest="lam", required=True)
    o.add_argument("--dot", action="store_true", help="use the shifted action")
    o.add_argument("--format", choices=("json", "tsv"), default="json")
    o.set_defaults(func=cmd_orbit)

    # Built per call, not at import, so a patched row builder is the one used.
    for name, help_text, row, verdict, headers in (
        ("linkage", "orbit-intersection uniqueness check per permutation",
         _linkage_row, "passed", ["lambda", "w", "intersection_plain",
         "intersection_dot", "offset", "offset_multiplicity", "passed"]),
        ("mult", "restriction and induction multiplicity table", _mult_row, "ok",
         ["lambda", "w", "flag", "block_projected", "k_expected", "ind_raw",
          "ind_split", "ok"]),
        ("flag", "flag extraction by division diffed against the direct route",
         _flag_row, "match", ["lambda", "w", "height", "extracted", "direct", "match"]),
    ):
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp, height=name == "flag")
        sp.set_defaults(func=cmd_sweep, row=row, verdict=verdict, headers=headers)

    s = sub.add_parser("selftest", help="run the acceptance criteria")
    s.add_argument("--seed", type=int, help="criteria seed (default: selftest.DEFAULT_SEED)")
    s.add_argument("--max-n", type=int, default=None, help="cap the rank ranges")
    s.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.func(args)
        # Flushed here, so a reader that is already gone raises below and
        # not at interpreter exit.
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # Later flushes, the one at exit included, go to the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except FlagExtractionError as exc:
        # flag divides only tables it packs itself, never terms a user gave,
        # so a division that fails is a failed verification.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
