"""Command-line front end: weight classification, orbits, linkage checks,
and multiplicity tables, with deterministic JSON or TSV output.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
guard.  Identical arguments and seed produce byte-identical output.

Every command that enumerates a symmetric group checks its rank once, before
it enumerates anything or builds a row, against QBLOCKS_MAX_RANK or, when
that is unset, CLI_DEFAULT_MAX_RANK.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional

from qblocks.charring import Truncation, full_support_height, k_dim, super_verma_char
from qblocks.filtration import (
    FlagMultiset,
    ind_block_mult,
    ind_block_mult_split,
    linkage_check,
    res_block_mult,
    restriction_flag,
    verma_flag_extract,
)
from qblocks.lattice import Weight, classify
from qblocks.sampling import sample_weights
from qblocks.selftest import DEFAULT_SEED, run_all
from qblocks.weyl import GuardError, Perm, all_perms, check_rank, dot_orbit, orbit

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

CLI_DEFAULT_MAX_RANK = 7


def _resolve_sweep(args) -> tuple[int, list[Weight], list[Perm]]:
    """Validate the arguments and apply the rank guard before sampling any
    weight or enumerating any permutation."""
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
        if args.samples < 1:
            # An empty sweep would check nothing and still report success.
            raise ValueError(f"--samples must be at least 1, got {args.samples}")
        if args.sample_range:
            lo_text, sep, hi_text = args.sample_range.partition(":")
            if not sep:
                raise ValueError(f"--sample-range wants LO:HI, got {args.sample_range!r}")
            lo, hi = int(lo_text), int(hi_text)
        n = args.n
    w = None if args.w == "all" else Perm.parse(args.w)
    if w is not None and w.rank != n:
        raise ValueError(f"--w has rank {w.rank}, expected {n}")
    check_rank(n, CLI_DEFAULT_MAX_RANK)
    if lam is None:
        lams = sample_weights(n, args.samples, seed=args.seed, lo=lo, hi=hi)
    else:
        lams = [lam]
    return n, lams, list(all_perms(n)) if w is None else [w]


def _map_rows(fn: Callable, payloads: list, workers: int) -> list:
    if workers > 1:
        # Imported here so serial runs never load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(payloads) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, payloads, chunksize=chunk))
    return [fn(p) for p in payloads]


def _flag_json(flag: FlagMultiset, block_projected: int, k_expected: int) -> dict:
    return {
        "highest_weights": flag.to_json_entries(),
        "block_projected": block_projected,
        "k_expected": k_expected,
    }


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
            cells = []
            for h in headers:
                value = row[h] if h in row else row["flag"][h]
                cells.append(_tsv_cell(value))
            lines.append("\t".join(cells))
        print("\n".join(lines))
    else:
        print(json.dumps(doc, indent=2))


# Row builders live at module level so a worker pool can pickle them; the
# payloads are plain strings and ints for the same reason.

def _linkage_row(payload) -> dict:
    lam_text, w_text = payload
    rep = linkage_check(Weight.parse(lam_text), Perm.parse(w_text))
    return {
        "lambda": lam_text,
        "w": w_text,
        "intersection_plain": ";".join(str(x) for x in sorted(rep.intersection_plain)),
        "intersection_dot": ";".join(str(x) for x in sorted(rep.intersection_dot)),
        "offset": str(rep.offset),
        "offset_multiplicity": rep.offset_multiplicity,
        "passed": rep.passed,
    }


def _mult_row(payload) -> dict:
    lam_text, w_text = payload
    lam, w = Weight.parse(lam_text), Perm.parse(w_text)
    n = lam.rank
    k = k_dim(n)
    raw_expected = 2 ** ((n - 1) - (n - 1) // 2)
    flag = restriction_flag(lam, w)
    block = res_block_mult(lam, w)
    raw = ind_block_mult(lam, w)
    split = ind_block_mult_split(lam, w)
    return {
        "lambda": lam_text,
        "w": w_text,
        "flag": _flag_json(flag, block, k),
        "ind_raw": raw,
        "ind_split": split,
        "ok": block == k and split == k and raw == raw_expected,
    }


def _flag_row(payload) -> dict:
    lam_text, w_text, bound = payload
    lam, w = Weight.parse(lam_text), Perm.parse(w_text)
    wl = w.act(lam)
    trunc = Truncation(wl, bound)
    extracted = verma_flag_extract(
        super_verma_char(wl, trunc, even_only=True), trunc
    )
    full = restriction_flag(lam, w)
    direct = FlagMultiset((wt, m) for wt, m in full.items() if trunc.admits(wt))
    return {
        "lambda": lam_text,
        "w": w_text,
        "height": bound,
        "extracted": extracted.to_json_entries(),
        "direct": direct.to_json_entries(),
        "match": extracted == direct,
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


def cmd_linkage(args) -> int:
    n, lams, perms = _resolve_sweep(args)
    payloads = [(str(lam), str(w)) for lam in lams for w in perms]
    rows = _map_rows(_linkage_row, payloads, args.workers)
    passed = all(r["passed"] for r in rows)
    doc = {
        "command": "linkage",
        "n": n,
        "lambdas": [str(lam) for lam in lams],
        "rows": rows,
        "passed": passed,
    }
    _emit(args, doc, [
        "lambda", "w", "intersection_plain", "intersection_dot",
        "offset", "offset_multiplicity", "passed",
    ])
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_mult(args) -> int:
    n, lams, perms = _resolve_sweep(args)
    payloads = [(str(lam), str(w)) for lam in lams for w in perms]
    rows = _map_rows(_mult_row, payloads, args.workers)
    passed = all(r["ok"] for r in rows)
    doc = {
        "command": "mult",
        "n": n,
        "lambdas": [str(lam) for lam in lams],
        "rows": rows,
        "passed": passed,
    }
    _emit(args, doc, [
        "lambda", "w", "flag", "block_projected", "k_expected",
        "ind_raw", "ind_split", "ok",
    ])
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_flag(args) -> int:
    n, lams, perms = _resolve_sweep(args)
    bound = args.height if args.height is not None else full_support_height(n)
    payloads = [(str(lam), str(w), bound) for lam in lams for w in perms]
    rows = _map_rows(_flag_row, payloads, args.workers)
    passed = all(r["match"] for r in rows)
    doc = {
        "command": "flag",
        "n": n,
        "height": bound,
        "lambdas": [str(lam) for lam in lams],
        "rows": rows,
        "passed": passed,
    }
    _emit(args, doc, [
        "lambda", "w", "height", "extracted", "direct", "match",
    ])
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_selftest(args) -> int:
    if args.max_n is not None and args.max_n < 2:
        # Criteria 1-4 and 7 start at n = 2: a smaller cap would report
        # them as passed after no checks.
        raise ValueError(f"--max-n must be at least 2, got {args.max_n}")
    results = run_all(seed=args.seed, max_n=args.max_n)
    for res in results:
        print(res.line())
    good = sum(r.passed for r in results)
    verdict = "OK" if good == len(results) else "FAILED"
    print(f"{verdict}: {good}/{len(results)} criteria passed")
    return EXIT_OK if good == len(results) else EXIT_VERIFY


def _add_common(sp, height: bool = False) -> None:
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
    sp.add_argument("--workers", type=int, default=1, help="process pool size")


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

    l = sub.add_parser(
        "linkage", help="orbit-intersection uniqueness check per permutation"
    )
    _add_common(l)
    l.set_defaults(func=cmd_linkage)

    m = sub.add_parser(
        "mult", help="restriction and induction multiplicity table"
    )
    _add_common(m)
    m.set_defaults(func=cmd_mult)

    f = sub.add_parser(
        "flag", help="flag extraction by division diffed against the direct route"
    )
    _add_common(f, height=True)
    f.set_defaults(func=cmd_flag)

    s = sub.add_parser("selftest", help="run the acceptance criteria")
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    s.add_argument("--max-n", type=int, default=None, help="cap the rank ranges")
    s.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
