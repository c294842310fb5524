"""Correctness checks on the stdout of one qblocks invocation.

Every invocation is checked against invariants that hold for any seed and
that the benchmark recomputes from its own inputs.  At the pinned seed the
sha256 of every stdout must also match ``pinned.json``, so any changed byte
fails.  Selftest lines carry wall times, which are masked before hashing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from dataclasses import dataclass
from typing import Optional

_SECONDS = re.compile(rb"(\d+ checks), \d+\.\d+s")
_CRITERION = re.compile(
    r"^(PASS|FAIL) criterion (\d+): .*\[(\d+) checks, (\d+\.\d+)s(?: budget=(\d+)s)?\]"
)


@dataclass(frozen=True)
class Invocation:
    """One ``qblocks`` command line and the inputs it was generated from."""

    kind: str  # mult, flag or selftest
    argv: tuple[str, ...]
    n: int
    lam: Optional[tuple[int, ...]] = None
    w: Optional[tuple[int, ...]] = None


def k_dim(n: int) -> int:
    return 2 ** ((n - 1) // 2)


def fmt(v) -> str:
    return ",".join(str(x) for x in v)


def stable_digest(stdout: bytes) -> str:
    """sha256 of stdout with selftest wall times masked."""
    return hashlib.sha256(_SECONDS.sub(rb"\1, _s", stdout)).hexdigest()


def criterion_lines(stdout: bytes) -> list[tuple[str, int, float, Optional[int]]]:
    """(status, number, seconds, budget) for every selftest criterion line."""
    out = []
    for line in stdout.decode().splitlines():
        m = _CRITERION.match(line)
        if m:
            budget = int(m.group(5)) if m.group(5) else None
            out.append((m.group(1), int(m.group(2)), float(m.group(4)), budget))
    return out


def _rows(inv: Invocation, doc: dict, perms: list[tuple[int, ...]]) -> list[str]:
    problems = []
    if doc.get("command") != inv.kind or doc.get("n") != inv.n:
        problems.append("header does not echo the command and rank")
    if doc.get("lambdas") != [fmt(inv.lam)]:
        problems.append("lambdas do not echo --lambda")
    if doc.get("passed") is not True:
        problems.append("document verdict is not passed")
    rows = doc.get("rows", [])
    if [r.get("w") for r in rows] != [" ".join(map(str, w)) for w in perms]:
        problems.append("rows do not cover the requested permutations in order")
    if any(r.get("lambda") != fmt(inv.lam) for r in rows):
        problems.append("a row does not echo --lambda")
    return problems


def _check_mult(inv: Invocation, doc: dict) -> list[str]:
    n = inv.n
    k = k_dim(n)
    raw = 2 ** ((n - 1) - (n - 1) // 2)
    mass = k * 2 ** (n * (n - 1) // 2)
    perms = list(itertools.permutations(range(1, n + 1)))
    problems = _rows(inv, doc, perms)
    for row in doc["rows"]:
        flag = row.get("flag", {})
        got = (
            flag.get("block_projected"), flag.get("k_expected"),
            row.get("ind_raw"), row.get("ind_split"), row.get("ok"),
            sum(e["mult"] for e in flag.get("highest_weights", [])),
        )
        if got != (k, k, raw, k, True, mass):
            problems.append(f"w={row['w']}: got {got}, want {(k, k, raw, k, True, mass)}")
    return problems


def _check_flag(inv: Invocation, doc: dict) -> list[str]:
    n = inv.n
    problems = _rows(inv, doc, [inv.w])
    mass = k_dim(n) * 2 ** (n * (n - 1) // 2)
    for row in doc["rows"]:
        if row.get("match") is not True or row.get("extracted") != row.get("direct"):
            problems.append(f"w={row['w']}: extraction differs from the direct flag")
        if row.get("height") != n * (n - 1) * (n + 1) // 6:
            problems.append(f"w={row['w']}: height is not the full support height")
        if sum(e["mult"] for e in row.get("direct", [])) != mass:
            problems.append(f"w={row['w']}: flag multiplicities do not sum to {mass}")
    return problems


def _check_selftest(stdout: bytes) -> list[str]:
    lines = criterion_lines(stdout)
    problems = []
    if [(s, k) for s, k, _, _ in lines] != [("PASS", k) for k in range(1, 10)]:
        problems.append("criteria 1..9 did not all PASS")
    if not stdout.decode().rstrip("\n").endswith("OK: 9/9 criteria passed"):
        problems.append('output does not end with "OK: 9/9"')
    return problems


def check(inv: Invocation, rc: int, stdout: bytes, pinned: Optional[str]) -> list[str]:
    """Problems with one invocation's result; empty when it is correct."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if pinned is not None and stable_digest(stdout) != pinned:
        problems.append("stdout differs from the pinned sha256")
    if inv.kind == "selftest":
        return problems + _check_selftest(stdout)
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return problems + [f"stdout is not JSON: {exc}"]
    checker = {"mult": _check_mult, "flag": _check_flag}
    try:
        return problems + checker[inv.kind](inv, doc)
    except (KeyError, TypeError, AttributeError) as exc:
        return problems + [f"malformed document: {exc!r}"]


def corruptions(inv: Invocation, stdout: bytes, pinned: bool) -> dict[str, bytes]:
    """Damaged copies of a correct stdout that ``check`` must reject: a
    flipped verdict, and at the pinned seed one changed digit."""
    flips = {
        "mult": (b'"ok": true', b'"ok": false'),
        "flag": (b'"match": true', b'"match": false'),
        "selftest": (b"OK: 9/9", b"OK: 8/9"),
    }
    old, new = flips[inv.kind]
    out = {"flipped verdict": stdout.replace(old, new, 1)}
    if pinned:
        # The first digit from the middle on that is not a masked wall time.
        for pos in range(len(stdout) // 2, len(stdout)):
            if stdout[pos:pos + 1].isdigit():
                digit = b"1" if stdout[pos:pos + 1] != b"1" else b"2"
                changed = stdout[:pos] + digit + stdout[pos + 1:]
                if stable_digest(changed) != stable_digest(stdout):
                    out["one changed digit"] = changed
                    break
    return out
