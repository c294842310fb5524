"""Programmatic acceptance checks, runnable from the command line.

Each criterion is a generator of per-case problems (None when the case
holds, else its failure text) over the rank range and case counts it is
defined with.  The _criterion decorator runs it to the end, times it, counts
the cases and returns a CriterionResult carrying the first problem; a mere
verification failure never raises, so tests and the selftest command decide
what to do with red results.
The cases of a criterion are independent, so the large ones go through
_fork_join, which hands a share of them to one forked process when a second
CPU is usable.
The greedy peel _peel_extract, the oracle for filtration.verma_flag_extract,
lives here because criterion 9 and the tests are its only callers.
"""

from __future__ import annotations

import functools
import itertools
import os
import pickle
import random
import signal
import threading
import time
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, TypeVar

from qblocks.charring import (
    FormalCharacter,
    Truncation,
    _Packing,
    _offset_table,
    full_support_height,
    k_dim,
    subset_sum_P,
    subset_sum_P_by_enumeration,
    subset_sum_Pw,
    super_verma_char,
    thick_dim,
    verma_char,
)
from qblocks.filtration import (
    FlagExtractionError,
    FlagMultiset,
    _parity_split,
    ind_block_mult,
    linkage_check,
    res_block_mult,
    restriction_flag,
    verma_flag_extract,
)
from qblocks.lattice import (
    Weight,
    leq,
    positive_roots,
    rho,
    simple_root_coefficients,
    weight_from_simple_coefficients,
)
from qblocks.sampling import sample_weights
from qblocks.weyl import Perm, all_perms, rho_defect

DEFAULT_SEED = 7


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    cases: int
    seconds: float
    detail: str
    budget: Optional[float] = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        budget = f" budget={self.budget:.0f}s" if self.budget else ""
        return (
            f"{status} criterion {self.number}: {self.name} "
            f"[{self.cases} checks, {self.seconds:.2f}s{budget}] {self.detail}"
        )


def _cap(full_scale: int, max_n: Optional[int]) -> int:
    return full_scale if max_n is None else min(full_scale, max_n)


_Problems = Iterator[Optional[str]]
_Case = TypeVar("_Case")

# Below this many cases a split costs about as much as it saves: one fork,
# pipe and pickle round trip takes a few milliseconds.
_MIN_SPLIT_CASES = 64


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _odd(index: int) -> bool:
    return index % 2 == 1


def _fork_join(
    case: Callable[[_Case], Optional[str]],
    items: Sequence[_Case],
    in_child: Callable[[int], bool] = _odd,
) -> list[Optional[str]]:
    """case(item) for every item, as a list of problems in item order.

    With os.fork, at least 2 usable CPUs and at least _MIN_SPLIT_CASES
    items, one forked child evaluates the items whose index satisfies
    in_child and this process the others; otherwise this process evaluates
    them all.  A process running other threads is not forked, since a lock
    one of them holds would stay held in the child.  Each side goes through
    its share in index order, so a case may rely on state left by an earlier
    case of the same side.  As in a serial run, the exception of the
    lowest-indexed raising case propagates.
    """
    if (
        not hasattr(os, "fork")
        or len(items) < _MIN_SPLIT_CASES
        or _usable_cpus() < 2
        or threading.active_count() > 1
    ):
        return [case(item) for item in items]
    theirs = [i for i in range(len(items)) if in_child(i)]
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            devnull = os.open(os.devnull, os.O_RDWR)
            for fd in (0, 1, 2):
                os.dup2(devnull, fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(_child_report(case, items, theirs))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        reaped = False
        try:
            mine: dict[int, Optional[str]] = {}
            raised: Optional[tuple[int, Exception]] = None
            for i in range(len(items)):
                if not in_child(i):
                    try:
                        mine[i] = case(items[i])
                    except Exception as exc:
                        raised = (i, exc)
                        break
            data = pipe.read()
            wait_status = os.waitpid(pid, 0)[1]
            reaped = True
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    status = os.waitstatus_to_exitcode(wait_status)
    if status:  # the child exits 0 only after writing its whole report
        raise RuntimeError(
            f"the criterion's forked process exited with status {status} "
            "before reporting"
        )
    failed_at, result = pickle.loads(data)
    if failed_at is not None and (raised is None or failed_at < raised[0]):
        raise result
    if raised is not None:
        raise raised[1]
    mine.update(zip(theirs, result))
    return [mine[i] for i in range(len(items))]


def _child_report(
    case: Callable[[_Case], Optional[str]], items: Sequence[_Case], indices: list[int]
) -> bytes:
    """The pickled (None, problems) of the given cases, or (index, exception)
    for the first of them that raises; an exception that does not survive
    pickling is replaced by a RuntimeError naming it."""
    problems = []
    for i in indices:
        try:
            problems.append(case(items[i]))
        except Exception as exc:
            try:
                data = pickle.dumps((i, exc))
                pickle.loads(data)
            except Exception:
                data = pickle.dumps((i, RuntimeError(f"case {i} raised {exc!r}")))
            return data
    return pickle.dumps((None, problems))


def _criterion(
    number: int, name: str, ok_detail: str, budget: Optional[float] = None
) -> Callable[[Callable[..., _Problems]], Callable[..., CriterionResult]]:
    """Turn a generator yielding one problem per case (None when the case
    holds, else its failure text) into a criterion: every case runs, the
    call is timed, and the first problem becomes the detail."""

    def decorate(cases_of: Callable[..., _Problems]) -> Callable[..., CriterionResult]:
        @functools.wraps(cases_of)
        def run(*args, **kwargs) -> CriterionResult:
            t0 = time.perf_counter()
            cases = 0
            first: Optional[str] = None
            for problem in cases_of(*args, **kwargs):
                cases += 1
                if first is None:
                    first = problem
            return CriterionResult(
                number, name, first is None, cases, time.perf_counter() - t0,
                ok_detail if first is None else first, budget=budget,
            )

        return run

    return decorate


_SweepCase = tuple[int, Weight, Perm]


def _sweep(
    top: int, max_n: Optional[int], samples: int, seed: int, stride: int
) -> list[_SweepCase]:
    """Every (n, lambda, w) for n = 2..top (capped by max_n), `samples`
    weights drawn with seed + stride * n, and all w in S_n."""
    return [
        (n, lam, w)
        for n in range(2, _cap(top, max_n) + 1)
        for lam in sample_weights(n, samples, seed=seed + stride * n)
        for w in all_perms(n)
    ]


def _linkage_case(case: _SweepCase) -> Optional[str]:
    n, lam, w = case
    ok = linkage_check(lam, w).passed
    return None if ok else f"first failure: n={n} lambda={lam} w={w}"


@_criterion(1, "orbit linkage, exhaustive in w", "all singletons", budget=60)
def check_linkage(
    seed: int = DEFAULT_SEED, samples: int = 10, max_n: Optional[int] = None
) -> _Problems:
    """Criterion 1: both orbit intersections are singletons and the
    connecting offset has subset-sum coefficient 1, exhaustively in w."""
    yield from _fork_join(_linkage_case, _sweep(6, max_n, samples, seed, 1))


def _restriction_case(case: _SweepCase) -> Optional[str]:
    n, lam, w = case
    got, want = res_block_mult(lam, w), k_dim(n)
    return None if got == want else f"n={n} lambda={lam} w={w}: {got} != {want}"


@_criterion(2, "restriction block multiplicity", "all equal k_dim(n)", budget=10)
def check_restriction_mult(
    seed: int = DEFAULT_SEED, samples: int = 3, max_n: Optional[int] = None
) -> _Problems:
    """Criterion 2: the block-projected restriction multiplicity equals
    2^floor((n-1)/2), computed rather than assumed."""
    yield from _fork_join(_restriction_case, _sweep(5, max_n, samples, seed, 10))


def _induction_case(case: _SweepCase) -> Optional[str]:
    n, lam, w = case
    raw_expected = 2 ** ((n - 1) - (n - 1) // 2)
    split_expected = k_dim(n)
    raw = ind_block_mult(lam, w)
    split = _parity_split(raw, n)
    return None if raw == raw_expected and split == split_expected else (
        f"n={n} lambda={lam} w={w}: raw={raw} (want {raw_expected}) "
        f"split={split} (want {split_expected})"
    )


@_criterion(3, "induction block multiplicity, raw and split", "all equal", budget=10)
def check_induction_mult(
    seed: int = DEFAULT_SEED, samples: int = 3, max_n: Optional[int] = None
) -> _Problems:
    """Criterion 3: raw induced multiplicity 2^ceil((n-1)/2), halving to
    k_dim(n) after the even-rank parity split."""
    yield from _fork_join(_induction_case, _sweep(5, max_n, samples, seed, 100))


def _flag_oracle_case(case: _SweepCase) -> Optional[str]:
    n, lam, w = case
    wl = w.act(lam)
    trunc = Truncation(wl, full_support_height(n))
    got = verma_flag_extract(super_verma_char(wl, trunc, even_only=True), trunc)
    want = restriction_flag(lam, w)
    return None if got == want else f"n={n} lambda={lam} w={w}: {got} != {want}"


@_criterion(
    4, "flag extraction matches direct restriction flag", "routes agree", budget=30
)
def check_flag_oracle(
    seed: int = DEFAULT_SEED, samples: int = 3, max_n: Optional[int] = None
) -> _Problems:
    """Criterion 4: flag extraction by division from the even-part
    super-Verma character reproduces the directly computed restriction flag."""
    yield from _fork_join(_flag_oracle_case, _sweep(4, max_n, samples, seed, 1000))


def _shift_identity_case(case: tuple[int, Perm]) -> Optional[str]:
    n, w = case
    r = rho(n)
    lhs = FormalCharacter.delta(r) * subset_sum_Pw(w)
    rhs = FormalCharacter.delta(w.act(r)) * subset_sum_P(n)
    return None if lhs == rhs else f"shift identity fails at n={n} w={w}"


@_criterion(5, "subset-sum shift identity and defect coefficient", "identity holds")
def check_multiset_identity(max_n: Optional[int] = None) -> _Problems:
    """Criterion 5: e^rho * P_w = e^{w(rho)} * P for every w, and the
    rho-defect of w carries subset-sum coefficient exactly 1."""
    shifts = [(n, w) for n in range(1, _cap(5, max_n) + 1) for w in all_perms(n)]
    yield from _fork_join(_shift_identity_case, shifts)
    for n in range(1, _cap(6, max_n) + 1):
        p = subset_sum_P(n)
        for w in all_perms(n):
            ok = p.coefficient(rho_defect(w)) == 1
            yield None if ok else f"defect coefficient != 1 at n={n} w={w}"


@_criterion(6, "subset-sum mass law and enumeration oracle", "masses and supports agree")
def check_mass_law(max_n: Optional[int] = None) -> _Problems:
    """Criterion 6: total subset-sum mass is 2^(number of positive roots),
    and the convolution construction matches plain subset enumeration."""
    for n in range(1, _cap(6, max_n) + 1):
        ok = subset_sum_P(n).mass() == 2 ** (n * (n - 1) // 2)
        yield None if ok else f"mass law fails at n={n}"
    for n in range(1, _cap(4, max_n) + 1):
        ok = subset_sum_P(n) == subset_sum_P_by_enumeration(n)
        yield None if ok else f"enumeration oracle disagrees at n={n}"


def _orbit_maximality_case(case: _SweepCase) -> Optional[str]:
    n, lam, u = case
    return None if leq(u.act(lam), lam) else f"n={n} lambda={lam} u={u}"


@_criterion(7, "dominant weights top their orbits", "all below")
def check_orbit_maximality(
    seed: int = DEFAULT_SEED, samples: int = 3, max_n: Optional[int] = None
) -> _Problems:
    """Criterion 7: every plain-orbit point of a dominant weight lies below
    it in dominance order."""
    yield from _fork_join(_orbit_maximality_case, _sweep(5, max_n, samples, seed, 41))


@_criterion(8, "thick multiplicity against monomial oracle", "all counts agree")
def check_thick_dim(max_n: Optional[int] = None) -> _Problems:
    """Criterion 8: thick-multiplicity values against the monomial-count
    oracle and the pinned small cases."""

    def monomials_below(n: int, r: int) -> int:
        return sum(1 for e in itertools.product(range(r), repeat=n) if sum(e) < r)

    for n in range(1, _cap(3, max_n) + 1):
        for r in range(1, 6):
            ok = thick_dim(n, r) == monomials_below(n, r)
            yield None if ok else f"oracle mismatch at n={n} r={r}"
    for n, r, want in [(4, 1, 1), (1, 5, 5), (2, 3, 6)]:
        yield None if thick_dim(n, r) == want else f"thick_dim({n},{r}) != {want}"


def _random_cone_element(rng: random.Random, n: int, top: int = 2) -> Weight:
    total = Weight.zero(n)
    for root in positive_roots(n):
        c = rng.randint(0, top)
        if c:
            total = total + Weight(c * x for x in root.as_weight(n).coords)
    return total


def _property_leq(rng: random.Random) -> Optional[str]:
    n = rng.randint(2, 5)
    a = Weight(rng.randint(-5, 5) for _ in range(n))
    nu1 = _random_cone_element(rng, n)
    nu2 = _random_cone_element(rng, n)
    b = a + nu1
    c = b + nu2
    if not (leq(a, a) and leq(a, b) and leq(b, c) and leq(a, c)):
        return f"order axioms fail: a={a} b={b} c={c}"
    if leq(b, a) != (a == b):
        return f"antisymmetry fails: a={a} b={b}"
    return None


def _property_actions(rng: random.Random) -> Optional[str]:
    n = rng.randint(2, 6)
    images = list(range(1, n + 1))
    rng.shuffle(images)
    u = Perm(images)
    rng.shuffle(images)
    v = Perm(images)
    lam = Weight(Fraction(rng.randint(-8, 8), rng.choice((1, 2))) for _ in range(n))
    e = Perm.identity(n)
    if u.act(v.act(lam)) != (u * v).act(lam):
        return f"plain action law fails: u={u} v={v} lambda={lam}"
    if u.dot(v.dot(lam)) != (u * v).dot(lam):
        return f"dot action law fails: u={u} v={v} lambda={lam}"
    if e.act(lam) != lam or e.dot(lam) != lam:
        return f"identity fails on {lam}"
    if u * u.inverse() != e:
        return f"inverse fails for {u}"
    return None


def _property_defect(rng: random.Random) -> Optional[str]:
    n = rng.randint(2, 7)
    images = list(range(1, n + 1))
    rng.shuffle(images)
    w = Perm(images)
    r = rho(n)
    if rho_defect(w) != r - w.act(r):
        return f"defect identity fails for {w}"
    return None


TieBreak = Callable[[list[Weight]], Weight]


def _peel_extract(
    char: FormalCharacter,
    trunc: Truncation,
    super_blocks: bool = False,
    tie_break: Optional[TieBreak] = None,
) -> FlagMultiset:
    """Greedy oracle for filtration.verma_flag_extract.

    Repeatedly selects a dominance-maximal support weight mu, divides its
    coefficient by the block's top coefficient (1 for plain Verma blocks,
    k_dim(n) for even-part super blocks), records the multiplicity, and
    subtracts that many copies of the block truncated to the remaining
    height budget.  Any failure of divisibility or nonnegativity means the
    input is not a flag character within the region.

    The result does not depend on which maximal weight is chosen at each
    step; tie_break, given the sorted list of maximal weights, may pick any
    of them.  The default takes the lexicographically largest, which is
    always dominance-maximal, so the maximal set is only materialized when a
    tie_break is supplied.
    """
    n = char.rank
    if trunc.base.rank != n:
        raise ValueError(f"rank mismatch: {trunc.base.rank} vs {n}")
    divisor = k_dim(n) if super_blocks else 1
    base = trunc.base

    # Work on simple-root coefficient vectors of base - weight: dominance
    # between region points becomes the componentwise order, reversed.
    cur: dict[tuple[int, ...], int] = {}
    for wt, c in char.items():
        try:
            coeffs = simple_root_coefficients(base - wt)
        except ValueError:
            coeffs = None
        if coeffs is None or any(x < 0 for x in coeffs) or sum(coeffs) > trunc.bound:
            raise FlagExtractionError(
                f"character term at {wt} lies outside the truncation region"
            )
        cur[coeffs] = c

    found: dict[tuple[int, ...], int] = {}
    while cur:
        if tie_break is None:
            chosen = min(cur)
        else:
            maximal = [
                s
                for s in cur
                if not any(t != s and all(a <= b for a, b in zip(t, s)) for t in cur)
            ]
            weights = sorted(base - weight_from_simple_coefficients(n, s) for s in maximal)
            pick = tie_break(weights)
            chosen = simple_root_coefficients(base - pick)
            if chosen not in cur:
                raise ValueError(f"tie_break returned a non-maximal weight: {pick}")
        coeff = cur[chosen]
        if coeff < 0:
            raise FlagExtractionError(
                "negative coefficient at "
                f"{base - weight_from_simple_coefficients(n, chosen)}"
            )
        mult, rem = divmod(coeff, divisor)
        if rem:
            raise FlagExtractionError(
                f"coefficient {coeff} not divisible by the top coefficient {divisor}"
            )
        found[chosen] = mult
        budget = trunc.bound - sum(chosen)
        # mult copies of the block, which is divisor times its offset table;
        # mult * divisor == coeff after the divisibility check.
        pk = _Packing(n, budget)
        for k, bc in _offset_table(n, budget, super_blocks).items():
            key = tuple(a + b for a, b in zip(chosen, pk.unpack(k)))
            merged = cur.get(key, 0) - coeff * bc
            if merged:
                cur[key] = merged
            else:
                cur.pop(key, None)
    return FlagMultiset(
        (base - weight_from_simple_coefficients(n, s), m) for s, m in found.items()
    )


def _property_extraction(rng: random.Random) -> Optional[str]:
    n = rng.choice((2, 3))
    bound = full_support_height(n) + rng.randint(0, 2)
    base = Weight(rng.randint(-4, 4) for _ in range(n))
    trunc = Truncation(base, bound)
    region = [
        cs
        for cs in itertools.product(range(bound + 1), repeat=n - 1)
        if sum(cs) <= bound
    ]
    picks = rng.sample(region, rng.randint(1, min(3, len(region))))
    super_blocks = rng.random() < 0.5
    expected = {}
    total = FormalCharacter.zero(n)
    for cs in picks:
        mu = base - weight_from_simple_coefficients(n, cs)
        mult = rng.randint(1, 3)
        expected[mu] = mult
        local = Truncation(mu, bound - sum(cs))
        block = (
            super_verma_char(mu, local, even_only=True)
            if super_blocks
            else verma_char(mu, local)
        )
        total = total + block.scale(mult)
    want = FlagMultiset(expected)
    got_division = verma_flag_extract(total, trunc, super_blocks=super_blocks)
    got_random = _peel_extract(
        total, trunc, super_blocks=super_blocks, tie_break=rng.choice
    )
    if got_division != want or got_random != want:
        return f"extraction differs: base={base} picks={picks} super={super_blocks}"
    return None


@_criterion(9, "randomized property suite", "no failures")
def check_property_suite(
    seed: int = DEFAULT_SEED, cases_each: int = 1000
) -> _Problems:
    """Criterion 9: randomized order axioms, action laws, defect identity,
    and extraction order-independence."""
    families: list[tuple[str, Callable[[random.Random], Optional[str]]]] = [
        ("leq order axioms", _property_leq),
        ("group action laws", _property_actions),
        ("rho defect identity", _property_defect),
        ("extraction order independence", _property_extraction),
    ]
    rngs: dict[int, random.Random] = {}

    def case(i: int) -> Optional[str]:
        # Each family draws from its own generator in case order; a family
        # runs whole on one side of the split, so the draws are the serial
        # ones.
        offset, k = divmod(i, cases_each)
        if k == 0:
            rngs[offset] = random.Random(seed + 5000 * (offset + 1))
        name, fn = families[offset]
        problem = fn(rngs[offset])
        return f"{name}: {problem}" if problem else None

    # The extraction family, which costs more than the other three
    # together, stays in this process, and with it the character builders
    # it calls.
    extraction = 3 * cases_each
    yield from _fork_join(
        case, range(4 * cases_each), in_child=lambda i: i < extraction
    )


def run_all(
    seed: int = DEFAULT_SEED, max_n: Optional[int] = None
) -> list[CriterionResult]:
    # Each criterion is looked up by name at call time, so a wrapper set on
    # the module attribute (as the benchmark's tracer does) sees the call.
    return [
        check_linkage(seed=seed, max_n=max_n),
        check_restriction_mult(seed=seed, max_n=max_n),
        check_induction_mult(seed=seed, max_n=max_n),
        check_flag_oracle(seed=seed, max_n=max_n),
        check_multiset_identity(max_n=max_n),
        check_mass_law(max_n=max_n),
        check_orbit_maximality(seed=seed, max_n=max_n),
        check_thick_dim(max_n=max_n),
        check_property_suite(seed=seed),
    ]
