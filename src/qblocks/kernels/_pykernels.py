"""Pure-Python product kernels on packed lattice keys.

A key encodes a vector of nonnegative simple-root coefficients in fixed-width
digits, with the coefficient sum (the height) stored in the top digit.  Key
addition is then vector addition, and the height test is a single shift.
Callers guarantee:

  - every digit of every valid key is <= bound < 2**shift - 1,
  - heights are compared before keys are added, so no digit ever overflows,
  - step vectors have digits <= 1.

geometric_product looks up ``k - v`` for each key k.  When that subtraction
borrows, the lowest borrowing digit is 0 - 1 with no borrow coming in, so it
reads 2**shift - 1 > bound: ``k - v`` then lies outside the valid digit range
and cannot collide with a real key.  This uses only the digit bound, so it
holds for any starting accumulator whose keys are valid, not only {0: 1}.

Coefficient values are ordinary Python ints and are never bounded.
"""


def binomial_product(acc, vecs, bound, hshift, sign=1):
    """Multiply acc by prod_v (1 + sign * x^v), truncated to heights <= bound;
    acc maps valid packed keys to coefficients and is not modified.  With
    sign -1 cancelled terms are dropped; with sign 1 and a positive acc no
    term cancels."""
    for v in vecs:
        hv = v >> hshift
        out = dict(acc)
        for k, c in acc.items():
            if (k >> hshift) + hv <= bound:
                k2 = k + v
                prev = out.get(k2)
                out[k2] = sign * c if prev is None else prev + sign * c
        if sign < 0:
            for k in [k for k, c in out.items() if not c]:
                del out[k]
        acc = out
    return acc


def geometric_product(acc, vecs, bound, hshift, sign=1):
    """Multiply acc by prod_v 1 / (1 - sign * x^v), truncated to heights
    <= bound; acc maps valid packed keys to coefficients.  With sign 1 this is
    prod_v (1 + x^v + x^2v + ...); with sign -1 it divides by prod_v (1 + x^v)."""
    for v in vecs:
        hv = v >> hshift
        # Close the support under addition of v, then fill coefficients in
        # increasing key order; k - v is always processed before k.
        keys = set(acc)
        frontier = list(acc)
        while frontier:
            grown = []
            for k in frontier:
                if (k >> hshift) + hv <= bound:
                    k2 = k + v
                    if k2 not in keys:
                        keys.add(k2)
                        grown.append(k2)
            frontier = grown
        out = {}
        for k in sorted(keys):
            c = acc.get(k, 0) + sign * out.get(k - v, 0)
            if c:
                out[k] = c
        acc = out
    return acc
