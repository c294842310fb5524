"""Programmatic acceptance checks, runnable from the command line.

Each criterion is a generator of per-case problems (None when the case
holds, else its failure text) over the rank range and case counts it is
defined with.  The _criterion decorator runs it to the end, times it, counts
the cases and returns a CriterionResult carrying the first problem; a mere
verification failure never raises, so tests and the selftest command decide
what to do with red results.  The whole gate runs in the calling process.
Criteria 2 and 3 take both block multiplicities from the orbit hits that
criterion 1 looks up (filtration._block_mults); the flag-summing
res_block_mult and ind_block_mult are their oracle in the tests.
The greedy peel _peel_extract, the oracle for filtration.verma_flag_extract,
lives here because criterion 9 and the tests are its only callers.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from fractions import Fraction
from operator import itemgetter, le
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

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
from qblocks import filtration
from qblocks.filtration import (
    FlagExtractionError,
    FlagMultiset,
    _parity_split,
    linkage_check,
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
            problems = list(cases_of(*args, **kwargs))
            first = next((p for p in problems if p is not None), None)
            return CriterionResult(
                number, name, first is None, len(problems), time.perf_counter() - t0,
                ok_detail if first is None else first, budget=budget,
            )

        return run

    return decorate


def _sweep(
    top: int, max_n: Optional[int], samples: int, seed: int, stride: int
) -> list[tuple[int, Weight, Perm]]:
    """Every (n, lambda, w) for n = 2..top (capped by max_n), `samples`
    weights drawn with seed + stride * n, and all w in S_n."""
    return [
        (n, lam, w)
        for n in range(2, _cap(top, max_n) + 1)
        for lam in sample_weights(n, samples, seed=seed + stride * n)
        for w in all_perms(n)
    ]


@_criterion(1, "orbit linkage, exhaustive in w", "all singletons", budget=60)
def check_linkage(
    seed: int = DEFAULT_SEED, samples: int = 10, max_n: Optional[int] = None
) -> _Problems:
    """Criterion 1: both orbit intersections are singletons and the
    connecting offset has subset-sum coefficient 1, exhaustively in w."""
    for n, lam, w in _sweep(6, max_n, samples, seed, 1):
        ok = linkage_check(lam, w).passed
        yield None if ok else f"first failure: n={n} lambda={lam} w={w}"


@_criterion(2, "restriction block multiplicity", "all equal k_dim(n)", budget=10)
def check_restriction_mult(
    seed: int = DEFAULT_SEED, samples: int = 3, max_n: Optional[int] = None
) -> _Problems:
    """Criterion 2: the block-projected restriction multiplicity equals
    2^floor((n-1)/2), computed rather than assumed."""
    for n, lam, w in _sweep(5, max_n, samples, seed, 10):
        got, want = filtration._block_mults(lam, w)[0], k_dim(n)
        yield None if got == want else f"n={n} lambda={lam} w={w}: {got} != {want}"


@_criterion(3, "induction block multiplicity, raw and split", "all equal", budget=10)
def check_induction_mult(
    seed: int = DEFAULT_SEED, samples: int = 3, max_n: Optional[int] = None
) -> _Problems:
    """Criterion 3: raw induced multiplicity 2^ceil((n-1)/2), halving to
    k_dim(n) after the even-rank parity split."""
    for n, lam, w in _sweep(5, max_n, samples, seed, 100):
        raw = filtration._block_mults(lam, w)[1]
        raw_expected = 2 ** ((n - 1) - (n - 1) // 2)
        split = _parity_split(raw, n)
        yield None if raw == raw_expected and split == k_dim(n) else (
            f"n={n} lambda={lam} w={w}: raw={raw} (want {raw_expected}) "
            f"split={split} (want {k_dim(n)})"
        )


@_criterion(
    4, "flag extraction matches direct restriction flag", "routes agree", budget=30
)
def check_flag_oracle(
    seed: int = DEFAULT_SEED, samples: int = 3, max_n: Optional[int] = None
) -> _Problems:
    """Criterion 4: flag extraction by division from the even-part
    super-Verma character reproduces the directly computed restriction flag
    cut to the same region; each rank's cases cycle through the heights
    0..full_support_height(n)."""
    cases = _sweep(4, max_n, samples, seed, 1000)
    for n, group in itertools.groupby(cases, key=itemgetter(0)):
        for j, (_, lam, w) in enumerate(group):
            height = j % (full_support_height(n) + 1)
            got, want = filtration._flag_routes(lam, w, height)
            yield None if got == want else (
                f"n={n} lambda={lam} w={w} height={height}: {got} != {want}"
            )


@_criterion(5, "subset-sum shift identity and defect coefficient", "identity holds")
def check_multiset_identity(max_n: Optional[int] = None) -> _Problems:
    """Criterion 5: e^rho * P_w = e^{w(rho)} * P for every w, and the
    rho-defect of w carries subset-sum coefficient exactly 1."""
    for n in range(1, _cap(5, max_n) + 1):
        r = rho(n)
        for w in all_perms(n):
            lhs = FormalCharacter.delta(r) * subset_sum_Pw(w)
            rhs = FormalCharacter.delta(w.act(r)) * subset_sum_P(n)
            yield None if lhs == rhs else f"shift identity fails at n={n} w={w}"
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


@_criterion(7, "dominant weights top their orbits", "all below")
def check_orbit_maximality(
    seed: int = DEFAULT_SEED, samples: int = 3, max_n: Optional[int] = None
) -> _Problems:
    """Criterion 7: every plain-orbit point of a dominant weight lies below
    it in dominance order."""
    for n, lam, u in _sweep(5, max_n, samples, seed, 41):
        yield None if leq(u.act(lam), lam) else f"n={n} lambda={lam} u={u}"


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


def _minimal(tuples: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The componentwise-minimal tuples, in sorted order: one pass suffices,
    since a tuple componentwise below s sorts before s, and one below a
    dropped tuple is below a kept one."""
    kept: list[tuple[int, ...]] = []
    for s in sorted(tuples):
        if not any(all(map(le, t, s)) for t in kept):
            kept.append(s)
    return kept


def _peel_extract(
    char: FormalCharacter,
    trunc: Truncation,
    super_blocks: bool = False,
    tie_break: Callable[[list[Weight]], Weight] = max,
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
    of them.  The default takes the largest.
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

    found: dict[Weight, int] = {}
    while cur:
        maximal = _minimal(cur)
        weights = sorted(base - weight_from_simple_coefficients(n, s) for s in maximal)
        pick = tie_break(weights)
        chosen = simple_root_coefficients(base - pick)
        if chosen not in maximal:
            raise ValueError(f"tie_break returned a non-maximal weight: {pick}")
        coeff = cur[chosen]
        if coeff < 0:
            raise FlagExtractionError(f"negative coefficient at {pick}")
        mult, rem = divmod(coeff, divisor)
        if rem:
            raise FlagExtractionError(
                f"coefficient {coeff} not divisible by the top coefficient {divisor}"
            )
        found[pick] = mult
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
    return FlagMultiset(found)


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
    and extraction order-independence, all drawn from one generator that
    walks the families in order."""
    rng = random.Random(seed)
    for name, family in [
        ("leq order axioms", _property_leq),
        ("group action laws", _property_actions),
        ("rho defect identity", _property_defect),
        ("extraction order independence", _property_extraction),
    ]:
        for _ in range(cases_each):
            problem = family(rng)
            yield f"{name}: {problem}" if problem else None


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
