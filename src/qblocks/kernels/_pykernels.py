"""Pure-Python product kernels on packed lattice keys.

A key encodes a vector of nonnegative simple-root coefficients in fixed-width
digits, with the coefficient sum (the height) stored in the top digit.  Key
addition is then vector addition, and a key has height <= h exactly when it
is below (h + 1) << hshift, so the height test is one comparison.  Callers
guarantee:

  - every digit of every valid key is <= bound < 2**shift - 1,
  - step vectors have digits <= 1.

binomial_product tests a key's height before adding a step.
geometric_product adds first, but only to valid keys, so each digit of the
sum is at most bound + 1 <= 2**shift - 1: no digit overflows, and the top
digit alone shows whether the sum is past the bound.

Both kernels multiply by one factor per step vector.  Truncated products
commute, so the result does not depend on the order of the steps; the order
only sets how large the supports grow in between, which is why charring and
filtration each choose theirs.

geometric_product starts a line k, k + v, ... at each key k of acc with
``k - v`` not in acc.  When that subtraction borrows, the lowest borrowing
digit is 0 - 1 with no borrow coming in, so it reads 2**shift - 1 > bound:
``k - v`` is then no valid key, so not in acc, and k rightly starts a line.
This uses only the digit bound, so it holds for any valid accumulator.

Coefficient values are ordinary Python ints and are never bounded.
"""


def binomial_product(acc, vecs, bound, hshift, sign=1):
    """Multiply acc by prod_v (1 + sign * x^v), truncated to heights <= bound;
    acc maps valid packed keys to coefficients and is not modified.  Terms
    that cancel are dropped; with sign 1 and a positive acc none do."""
    for v in vecs:
        # Keys below lim have height <= bound - height(v).
        lim = (bound + 1 - (v >> hshift)) << hshift
        # copy(), not dict(): acc may be a read-only proxy of a cached table,
        # which dict() would copy key by key.
        out = acc.copy()
        get = out.get
        for k, c in acc.items():
            if k < lim:
                k2 = k + v
                c2 = get(k2, 0) + sign * c
                if c2:
                    out[k2] = c2
                else:
                    del out[k2]
        acc = out
    return acc


def geometric_product(acc, vecs, bound, hshift, sign=1):
    """Multiply acc by prod_v 1 / (1 - sign * x^v), truncated to heights
    <= bound; acc maps valid packed keys to coefficients.  With sign 1 this is
    prod_v (1 + x^v + x^2v + ...); with sign -1 it divides by prod_v (1 + x^v).
    Each pass walks its lines from their starts, lowest first, setting
    out[k] = acc[k] + sign * out[k - v] up to the bound; a start that a lower
    walk reached is skipped.  A walk stops early at a zero whose next key is
    not in acc, since the line stays zero up to its next start.  Zeros are
    dropped after a pass, and only when it made one."""
    lim = (bound + 1) << hshift
    for v in vecs:
        # Every key of acc is overwritten; a copy keeps acc's key objects.
        out = acc.copy()
        zeros = False
        for k in sorted(k for k in acc if k - v not in acc):
            if k - v in out:  # no key of acc: a lower walk went through it
                continue
            c = 0
            while k < lim:
                c = acc.get(k, 0) + sign * c
                out[k] = c
                if not c:
                    zeros = True
                    if k + v not in acc:
                        break
                k += v
        acc = {k: c for k, c in out.items() if c} if zeros else out
    return acc
