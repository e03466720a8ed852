"""Finite-field numerics behind the sampling-heavy operations.

One elimination core, `eliminate`, runs Gaussian elimination in place on
a numpy int64 array of field codes and returns the pivot columns and the
determinant.  It takes the field's arithmetic as an object:

* PrimeArithmetic reduces mod a word-sized prime p, codes in range(p);
* QuadraticTables looks F_{p^2} sums, products and inverses up in tables
  for small p, elements packed as the int a + p*b.

rank_mod_p, det_mod_p, kernel_mod_p and QuadraticTables.det and
.batch_rank are thin entry points over the core, and ExactMatrix sends
its finite-field ranks, rrefs and kernels through it as well.

Univariate polynomials over F_p are coefficient lists (low degree first):
evaluation, gcd, squarefree part.  lagrange_interpolate works over any
field object.

Primes must stay below 2^16 so a product of two residues fits in int64
without overflow.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import PreconditionError

_MAX_PRIME = 1 << 16


def eliminate(a, arith, reduced=False):
    """Gaussian elimination of the 2-d code array a, in place.

    Each pivot row is scaled to lead with 1 and cleared from the rows
    below it, or from every other row when reduced, which leaves the
    canonical rref in a.  Returns (pivot columns, det), det being the
    signed product of the pivots: the determinant of a square a that has
    a pivot in every column.
    """
    nrows, ncols = a.shape
    pivots = []
    det = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        below = np.flatnonzero(a[r:, c])
        if below.size == 0:
            continue
        if below[0]:
            a[[r, r + below[0]]] = a[[r + below[0], r]]
            det = arith.neg(det)
        lead = int(a[r, c])
        det = arith.mul(det, lead)
        a[r, c:] = arith.mul(a[r, c:], arith.inv(lead))
        # after the swap the nonzero entries below the pivot sit at
        # below[1:]: the row swapped down was zero in this column
        targets = r + below[1:]
        if reduced:
            targets = np.concatenate((np.flatnonzero(a[:r, c]), targets))
        if targets.size:
            block = a[targets, c:]
            a[targets, c:] = arith.sub_mul(block, block[:, 0], a[r, c:])
        pivots.append(c)
    return pivots, det


def _det(a, arith):
    n, m = a.shape
    if n != m:
        raise PreconditionError("determinant of a %dx%d matrix" % (n, m))
    pivots, det = eliminate(a, arith)
    return int(det) if len(pivots) == n else 0


def kernel(a, arith):
    """Canonical right-kernel basis of the code array a (consumed), one
    row per vector: a 1 in its free column, zeros in the other free ones.
    """
    pivots, _ = eliminate(a, arith, reduced=True)
    ncols = a.shape[1]
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    if pivots and free:
        basis[:, pivots] = arith.neg(a[:len(pivots), free].T)
    return basis


class PrimeArithmetic:
    """GF(p) arithmetic on int64 codes in range(p), p < 2^16."""

    def __init__(self, p):
        if p >= _MAX_PRIME:
            raise PreconditionError("prime %d too large for the int64 engine" % p)
        self.p = p

    def encode(self, matrix):
        a = np.array(matrix, dtype=np.int64)
        if a.ndim == 1:
            a = a.reshape(1, -1) if a.size else a.reshape(0, 0)
        return np.mod(a, self.p)

    decode = int

    def mul(self, x, y):
        return x * y % self.p

    def neg(self, x):
        return -x % self.p

    def inv(self, x):
        return pow(int(x), self.p - 2, self.p)

    def sub_mul(self, block, factors, row):
        """block minus the outer product of factors and row."""
        return (block - factors[:, None] * row) % self.p


prime_arithmetic = lru_cache(maxsize=None)(PrimeArithmetic)


def word_primes(count):
    """The count largest primes below 2^16, largest first."""
    sieve = np.ones(_MAX_PRIME, dtype=bool)
    sieve[:2] = False
    for i in range(2, 256):
        if sieve[i]:
            sieve[i * i::i] = False
    return tuple(int(p) for p in np.flatnonzero(sieve)[::-1][:count])


def field_arithmetic(field):
    """The core's arithmetic for a finite field, None where it has none."""
    if field.char == 0:
        return None
    if field.degree == 1:
        return prime_arithmetic(field.p) if field.p < _MAX_PRIME else None
    return quadratic_tables(field) if field.char <= 11 else None


def rank_mod_p(matrix, p):
    """Rank over F_p of an integer matrix (rows of ints or numpy array)."""
    arith = prime_arithmetic(p)
    return len(eliminate(arith.encode(matrix), arith)[0])


def det_mod_p(matrix, p):
    """Determinant over F_p of a square integer matrix."""
    arith = prime_arithmetic(p)
    return _det(arith.encode(matrix), arith)


def kernel_mod_p(matrix, p):
    """Canonical right-kernel basis over F_p, one numpy row per vector."""
    arith = prime_arithmetic(p)
    return kernel(arith.encode(matrix), arith)


# ---- F_{p^2} table arithmetic -----------------------------------------


class QuadraticTables:
    """Packed-int arithmetic tables for F_{p^2}, p small and odd.

    Elements are ints a + p*b for (a, b) coordinates over F_p.  The
    addition and multiplication tables have p^2 * p^2 entries, which is
    tiny for the scan primes this package allows (p <= 11).
    """

    def __init__(self, field):
        p = field.char
        if p > 11:
            raise PreconditionError("table arithmetic guard: p=%d > 11" % p)
        self.field = field
        self.p = p
        self.q = p * p
        n = field.nonresidue
        codes = np.arange(self.q)
        a = codes % p
        b = codes // p
        self.add_table = (np.add.outer(a, a) % p
                          + p * (np.add.outer(b, b) % p)).astype(np.int64)
        # mul[x, y] via the (a + bw)(c + dw) expansion with w^2 = n
        re = (np.outer(a, a) + n * np.outer(b, b)) % p
        im = (np.outer(a, b) + np.outer(b, a)) % p
        self.mul_table = (re + p * im).astype(np.int64)
        self.neg_table = ((p - a) % p + p * ((p - b) % p)).astype(np.int64)
        self.inv_table = np.array(
            [0] + [field.encode(field.inv(field.decode(x)))
                   for x in range(1, self.q)], dtype=np.int64)

    def encode(self, matrix):
        return np.array([[self.field.encode(v) for v in row] for row in matrix],
                        dtype=np.int64)

    def decode(self, code):
        return self.field.decode(int(code))

    def mul(self, x, y):
        return self.mul_table[x, y]

    def neg(self, x):
        return self.neg_table[x]

    def inv(self, x):
        return self.inv_table[x]

    def sub_mul(self, block, factors, row):
        """block minus the outer product of factors and row."""
        return self.add_table[
            block, self.mul_table[self.neg_table[factors][:, None], row]]

    def batch_rank(self, mat):
        """Rank of one packed-int matrix (2-d numpy array of codes)."""
        return len(eliminate(np.array(mat, dtype=np.int64), self)[0])

    def det(self, mat):
        """Determinant of one square packed-int matrix, as a packed code."""
        return _det(np.array(mat, dtype=np.int64), self)


quadratic_tables = lru_cache(maxsize=None)(QuadraticTables)


# ---- univariate polynomials over F_p ----------------------------------
# coefficient lists, low degree first, normalized to drop trailing zeros


def poly_trim(f, p):
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_degree(f):
    return len(f) - 1 if f else -1


def poly_scale(f, s, p):
    return poly_trim([c * s for c in f], p)


def poly_monic(f, p):
    f = poly_trim(f, p)
    if not f:
        return f
    return poly_scale(f, pow(f[-1], p - 2, p), p)


def poly_divmod(f, g, p):
    f = poly_trim(f, p)
    g = poly_trim(g, p)
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    ginv = pow(g[-1], p - 2, p)
    q = [0] * max(0, len(f) - len(g) + 1)
    r = f[:]
    while len(r) >= len(g) and r:
        shift = len(r) - len(g)
        factor = r[-1] * ginv % p
        q[shift] = factor
        for i, gc in enumerate(g):
            r[shift + i] = (r[shift + i] - factor * gc) % p
        r = poly_trim(r, p)
    return poly_trim(q, p), r


def poly_gcd(f, g, p):
    """Monic gcd by the Euclidean algorithm."""
    f = poly_trim(f, p)
    g = poly_trim(g, p)
    while g:
        f, g = g, poly_divmod(f, g, p)[1]
    return poly_monic(f, p)


def poly_derivative(f, p):
    return poly_trim([(i * c) % p for i, c in enumerate(f)][1:], p)


def poly_squarefree_part(f, p):
    """Squarefree part of f over F_p.

    The usual f / gcd(f, f') step can leave p-th power factors whose
    derivative vanished, so iterate until the cofactor is coprime to its
    derivative.  Degrees here are far below p in every caller, but the
    loop keeps the helper honest.
    """
    f = poly_monic(f, p)
    if poly_degree(f) <= 0:
        return f
    result = f
    for _ in range(poly_degree(f)):
        d = poly_derivative(result, p)
        if not d:
            # result is a polynomial in x^p; callers never get here with
            # degree < p, but strip one p-th root to make progress
            root = poly_trim([result[i] for i in range(0, len(result), p)], p)
            result = poly_monic(root, p)
            continue
        g = poly_gcd(result, d, p)
        if poly_degree(g) == 0:
            return result
        result = poly_divmod(result, g, p)[0]
    return poly_monic(result, p)


def lagrange_interpolate(xs, ys, field):
    """Coefficients of the unique poly of degree < len(xs) through the data.

    Works over any field object and returns field scalars, low degree
    first, with trailing zeros dropped.  P = prod (X - x_j) is built once;
    one synthetic division by X - x_i per node gives the numerator of its
    Lagrange basis polynomial, and that quotient's value at x_i, zero
    exactly when two nodes collide, gives the denominator: O(n^2) field
    operations in all.
    """
    F = field
    n = len(xs)
    prod = [F.one]
    for x in xs:
        nx = F.neg(x)
        prod = [F.mul(nx, prod[0])] + [
            F.add(prod[k - 1], F.mul(nx, prod[k])) for k in range(1, len(prod))
        ] + [prod[-1]]
    coeffs = [F.zero] * n
    for x, y in zip(xs, ys):
        quot = [F.zero] * n
        quot[-1] = prod[n]
        for k in range(n - 1, 0, -1):
            quot[k - 1] = F.add(prod[k], F.mul(x, quot[k]))
        denom = F.zero
        for c in reversed(quot):
            denom = F.add(F.mul(denom, x), c)
        if F.is_zero(denom):
            raise PreconditionError(
                "interpolation nodes collide in %s" % F.describe())
        s = F.div(y, denom)
        coeffs = [F.add(c, F.mul(s, q)) for c, q in zip(coeffs, quot)]
    while coeffs and F.is_zero(coeffs[-1]):
        coeffs.pop()
    return coeffs
