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

geometric_product looks up ``k - v`` for each key k.  When that subtraction
borrows, the lowest borrowing digit is 0 - 1 with no borrow coming in, so it
reads 2**shift - 1 > bound: ``k - v`` then lies outside the valid digit range
and cannot collide with a real key.  This uses only the digit bound, so it
holds for any starting accumulator whose keys are valid, not only {0: 1}.

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
    The keys are sorted once; each pass then appends the keys it adds to the
    sorted list and sorts that once."""
    lim = (bound + 1) << hshift
    keys = sorted(acc)
    for v in vecs:
        # Close the support under addition of v.  A chain k + v, k + 2v, ...
        # stops above the bound or at a key already held, whose own chain
        # goes on from there, so no key is added twice.
        grown = []
        for k in keys:
            k2 = k + v
            while k2 < lim and k2 not in acc:
                grown.append(k2)
                k2 += v
        if grown:
            keys += grown
            keys.sort()
        # Increasing key order does k - v before k.
        out = {}
        for k in keys:
            c = acc.get(k, 0) + sign * out.get(k - v, 0)
            if c:
                out[k] = c
        acc = out
        keys = list(out)
    return acc
