"""Finite-field numerics behind the sampling-heavy operations.

One elimination core, `eliminate`, runs Gaussian elimination in place on
a numpy int64 array of field codes: one matrix, for which it returns the
pivot columns and the determinant, or a (batch, n, m) stack, for which it
returns int64 arrays of ranks and determinants.  A stack runs through the
same column loop with one pivot-row pointer per matrix, in chunks of at
most CHUNK_ENTRIES entries so temporaries stay small.  It takes the
field's arithmetic as an object:

* PrimeArithmetic reduces mod a prime p < 2^31, codes in range(p);
* QuadraticTables looks F_{p^2} sums, products and inverses up in tables
  for small p.  The codes are the field's own scalars, the ints a + p*b,
  and the tables are the field's own add, mul and neg on every code:
  w^2 = nonresidue is written once for elements (QuadraticField.mul) and
  once for dot products (QuadraticTables.matmul).

rank_mod_p, det_mod_p, kernel_mod_p and QuadraticTables.det and
.batch_rank are thin entry points over the core (all but kernel_mod_p
take stacks too); no library code calls .batch_rank, which stays as a
benchmark span target and a test reference.  ExactMatrix and
linalg.pivot_columns send their finite-field ranks, pivots, rrefs and
kernels through it, and every rational rank, pivot set, rref and kernel
as well: the mod-p rank that bounds a rational rank from below is an
elimination of the core, whose LU the p-adic rational kernel then lifts
from.

Univariate polynomials over F_p are coefficient lists (low degree first):
evaluation, gcd, derivative.  lagrange_interpolate works over any
field object; interpolate_at_nodes interpolates many code rows at fixed
node codes by one matmul with the inverse Vandermonde code matrix, built
once per (nodes, field) from lagrange_interpolate of the unit vectors and
cached.

Primes stay below 2^31, so a product of two residues stays below 2^62
and fits in int64; the core only ever forms one product per entry
before it reduces.  matmul_mod, whose dot products sum many of them,
splits one operand into limbs whose float64 products stay exact below
2^53 wherever int64 could overflow.  word_primes lists
the largest of them, the primes of the multimodular rational kernels.
Every field GF(p) with p < 2^31 takes the core; below 2^16 a stack
inverts through a table of every code, above it each distinct code once.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import islice
from math import isqrt

import numpy as np

from .errors import PreconditionError

_MAX_PRIME = 1 << 31
_TABLE_PRIME = 1 << 16  # inverse tables below this
CHUNK_ENTRIES = 1 << 15  # matrix entries per stack chunk in eliminate
TABLE_MAX_PRIME = 11  # largest p with F_{p^2} lookup tables


def eliminate(a, arith, reduced=False, perm=None):
    """Gaussian elimination, in place, of one (n, m) code array or of a
    C-contiguous (batch, n, m) stack, CHUNK_ENTRIES entries at a time.

    Each pivot row is scaled to lead with 1 and cleared from the rows
    below it, or from every other row when reduced, which leaves the
    canonical rref.  perm, for a matrix eliminated without reduced, is an
    index array swapped with its rows, and the LU is left in place: a
    pivot keeps its value and each entry below it the multiplier that
    cleared it.  Returns (pivot columns, det) for a matrix and int64
    arrays (ranks, dets) for a stack, det being the signed product of the
    pivots: the determinant of a square matrix with full rank.
    """
    if a.ndim == 2:
        pivots, _, det = _eliminate_rows(a, 1, arith, reduced, perm)
        return pivots, int(det[0])
    batch, nrows, ncols = a.shape
    ranks, dets = np.zeros(batch, dtype=np.int64), np.ones(batch, dtype=np.int64)
    for index in chunked(range(batch), nrows * ncols):
        part = slice(index[0], index[-1] + 1)
        _, ranks[part], dets[part] = _eliminate_rows(
            a[part].reshape(len(index) * nrows, ncols), len(index), arith,
            reduced)
    return ranks, dets


def chunked(items, entries):
    """Lists of consecutive items, each of at most CHUNK_ENTRIES entries
    when every item stands for a matrix of `entries` entries."""
    items = iter(items)
    step = max(1, CHUNK_ENTRIES // max(1, entries))
    while chunk := list(islice(items, step)):
        yield chunk


def _eliminate_rows(rows, batch, arith, reduced, perm=None):
    """The elimination loop over `batch` matrices stacked in rows.

    Returns (pivot columns, ranks, dets).  A batch of one keeps its pivot
    columns and its pivot row as an int, and works on basic slices; a
    larger batch keeps one pivot-row pointer per matrix.
    """
    nrows = len(rows) // batch
    rank = np.zeros(batch, dtype=np.int64)
    det = [1] if batch == 1 else np.ones(batch, dtype=np.int64)
    pivots = []
    for c in range(rows.shape[1]):
        if batch == 1:
            r = len(pivots)
            if r == nrows:
                break
            below = np.flatnonzero(rows[r:, c])
            if below.size == 0:
                continue
            if below[0]:
                rows[[r, r + below[0]]] = rows[[r + below[0], r]]
                if perm is not None:
                    perm[[r, r + below[0]]] = perm[[r + below[0], r]]
                det[0] = arith.neg(det[0])
            # after the swap the nonzero entries below the pivot sit at
            # below[1:]: the row swapped down was zero in this column
            targets = r + below[1:]
            if reduced:
                targets = np.concatenate((np.flatnonzero(rows[:r, c]), targets))
            owners, dst, pivot_of_target = 0, r, r
            pivots.append(c)
        else:
            nz = np.flatnonzero(rows[:, c])
            owner = nz // nrows
            top = owner * nrows + rank[owner]
            at = np.flatnonzero(nz >= top)
            if at.size == 0:
                continue
            # each matrix's pivot: its first nonzero at or below its pointer
            new_owner = owner[at[1:]] != owner[at[:-1]]
            first = at[np.concatenate(([True], new_owner))]
            owners, src, dst = owner[first], nz[first], top[first]
            moved = src != dst
            if moved.any():
                rows[np.concatenate((dst[moved], src[moved]))] = \
                    rows[np.concatenate((src[moved], dst[moved]))]
                det[owners[moved]] = arith.neg(det[owners[moved]])
            is_target = np.isin(owner, owners) if reduced else nz >= top
            is_target[first] = False
            targets = nz[is_target]
            # owner is sorted, so owners is too
            pivot_of_target = dst[np.searchsorted(owners, owner[is_target])]
        rank[owners] += 1
        lead = rows[dst, c]
        det[owners] = arith.mul(det[owners], lead)
        scale = arith.inv(lead)
        rows[dst, c:] = arith.mul(rows[dst, c:],
                                  scale if batch == 1 else scale[:, None])
        if targets.size:
            block = rows[targets, c:]
            rows[targets, c:] = arith.sub_mul(block, block[:, 0],
                                              rows[pivot_of_target, c:])
            if perm is not None:
                rows[targets, c] = block[:, 0]  # the LU keeps the multipliers
        if perm is not None:
            rows[dst, c] = lead  # and the pivots
    return pivots, rank, np.asarray(det, dtype=np.int64)


def _det(a, arith):
    n, m = a.shape[-2:]
    if n != m:
        raise PreconditionError("determinant of a %dx%d matrix" % (n, m))
    rank, det = eliminate(a, arith)
    if a.ndim == 3:
        return np.where(rank == n, det, 0)
    return det if len(rank) == n else 0


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
    """GF(p) arithmetic on int64 codes in range(p), p < 2^31."""

    def __init__(self, p):
        if p >= _MAX_PRIME:
            raise PreconditionError("prime %d too large for the int64 engine" % p)
        self.p = p

    def encode(self, matrix):
        a = np.asarray(matrix, dtype=np.int64)
        if a.ndim == 1:
            a = a.reshape(1, -1) if a.size else a.reshape(0, 0)
        return np.mod(a, self.p)

    def mul(self, x, y):
        return x * y % self.p

    def neg(self, x):
        return -x % self.p

    def inv(self, x):
        if not isinstance(x, np.ndarray):
            return pow(int(x), -1, self.p)
        if self.p < _TABLE_PRIME:
            return self.inverses[x]
        # no table of 2^31 codes: invert each distinct code once
        codes, at = np.unique(x, return_inverse=True)
        return np.array([pow(int(c), -1, self.p) for c in codes],
                        dtype=np.int64)[at.reshape(x.shape)]

    @cached_property
    def inverses(self):
        # every code's inverse (0 at 0), built when a stack first needs one
        return np.array([0] + [pow(x, -1, self.p) for x in range(1, self.p)])

    def sub_mul(self, block, factors, row):
        """block minus the outer product of factors and row."""
        out = factors[:, None] * row
        np.subtract(block, out, out=out)
        return np.mod(out, self.p, out=out)

    def matmul(self, x, y):
        return matmul_mod(x, y, self.p)


prime_arithmetic = lru_cache(maxsize=None)(PrimeArithmetic)


def word_primes(count):
    """The count largest primes below 2^31, largest first.

    A segmented sieve: the top `width` integers below 2^31 are crossed
    off by every prime up to sqrt(2^31), all multiples at once.
    """
    small = _primes_below(isqrt(_MAX_PRIME) + 1)
    width = 32 * count  # primes near 2^31 lie about 21.5 apart
    while True:
        lo = _MAX_PRIME - width
        start = -lo % small  # offset of the first multiple of each prime
        hits = (width - 1 - start) // small + 1
        first = np.cumsum(hits) - hits
        k = np.arange(hits.sum()) - np.repeat(first, hits)
        window = np.ones(width, dtype=bool)
        window[np.repeat(start, hits) + k * np.repeat(small, hits)] = False
        primes = lo + np.flatnonzero(window)[::-1]
        if len(primes) >= count:
            return tuple(int(p) for p in primes[:count])
        width *= 2


def matmul_mod(x, y, p):
    """x @ y mod p for int64 code arrays in range(p), exact for every
    p < 2^31 and inner dimension k below 2^22.

    Where no int64 dot product can overflow, k (p - 1)^2 < 2^63, it is
    one int64 product.  Otherwise the operand with fewer entries is split
    into b-bit limbs, b as large as keeps every float64 dot product of a
    limb, below k (p - 1) (2^b - 1) < 2^53, exact in BLAS; each limb
    product is reduced mod p and added in at its weight 2^(b j) mod p.
    """
    if p >= _MAX_PRIME:
        raise PreconditionError("prime %d too large for the int64 engine" % p)
    k = x.shape[-1]
    if k * (p - 1) ** 2 < 1 << 63:
        return x @ y % p
    b = limb_bits(k, p)
    if b < 1:
        raise PreconditionError("inner dimension %d too large for exact "
                                "float64 limbs mod %d" % (k, p))
    split_x = x.size < y.size
    part, whole = (x, y.astype(np.float64)) if split_x \
        else (y, x.astype(np.float64))
    out = 0
    # in place where it can be: a product takes one array of its size
    for shift in range(0, (p - 1).bit_length(), b):
        limb = part >> shift
        limb &= (1 << b) - 1
        limb = limb.astype(np.float64)
        limb = (limb @ whole if split_x else whole @ limb).astype(np.int64)
        limb %= p
        limb *= pow(2, shift, p)
        limb += out
        limb %= p
        out = limb
    return out


def limb_bits(k, p):
    """The largest b with k (p - 1) (2^b - 1) < 2^53: a dot product of k
    codes mod p with k integers below 2^b in size is exact in float64."""
    return (((1 << 53) - 1) // (k * (p - 1)) + 1).bit_length() - 1


def _primes_below(n):
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = False
    return np.flatnonzero(sieve)


def field_arithmetic(field):
    """The core's arithmetic for a finite field, None where it has none."""
    if field.char == 0:
        return None
    if field.degree == 1:
        return prime_arithmetic(field.p) if field.p < _MAX_PRIME else None
    return quadratic_tables(field) if field.char <= TABLE_MAX_PRIME else None


def _rank(a, arith):
    ranks = eliminate(a, arith)[0]
    return ranks if a.ndim == 3 else len(ranks)


def rank_mod_p(matrix, p):
    """Rank over F_p of an integer matrix (rows of ints or numpy array),
    or the int64 array of ranks of a (batch, n, m) stack."""
    arith = prime_arithmetic(p)
    return _rank(arith.encode(matrix), arith)


def det_mod_p(matrix, p):
    """Determinant over F_p of a square integer matrix, or the int64
    array of determinants of a (batch, n, n) stack."""
    arith = prime_arithmetic(p)
    return _det(arith.encode(matrix), arith)


def kernel_mod_p(matrix, p):
    """Canonical right-kernel basis over F_p, one numpy row per vector."""
    arith = prime_arithmetic(p)
    return kernel(arith.encode(matrix), arith)


# ---- F_{p^2} table arithmetic -----------------------------------------


class QuadraticTables:
    """Packed-int arithmetic tables for F_{p^2}, p small and odd.

    Elements are the field's scalars, ints a + p*b for a + b*w over F_p,
    w^2 = nonresidue: the base field is exactly the codes below p.  The
    addition and multiplication tables have p^2 * p^2 entries, which is
    tiny for the primes this package allows (p <= TABLE_MAX_PRIME).
    """

    def __init__(self, field):
        p = field.char
        if p > TABLE_MAX_PRIME:
            raise PreconditionError("table arithmetic guard: p=%d > %d"
                                    % (p, TABLE_MAX_PRIME))
        self.field = field
        self.p = p
        self.q = p * p
        codes = np.arange(self.q, dtype=np.int64)
        x, y = codes[:, None], codes[None, :]
        self.add_table = field.add(x, y)
        self.mul_table = field.mul(x, y)
        self.neg_table = field.neg(codes)
        # the y with x * y = 1, and 0 for x = 0, whose row holds no 1
        self.inv_table = np.argmax(self.mul_table == 1, axis=1)

    def mul(self, x, y):
        return self.mul_table[x, y]

    def neg(self, x):
        return self.neg_table[x]

    def inv(self, x):
        return self.inv_table[x]

    def matmul(self, x, y):
        """x @ y of packed code arrays, on their (re, im) integer parts:
        (a + bw)(c + dw) = ac + n bd + (ad + bc)w.  Every part is below
        p <= 11, so no int64 dot product comes near overflow."""
        p = self.p
        xre, xim, yre, yim = x % p, x // p, y % p, y // p
        re = xre @ yre + self.field.nonresidue * (xim @ yim)
        return re % p + p * ((xre @ yim + xim @ yre) % p)

    def sub_mul(self, block, factors, row):
        """block minus the outer product of factors and row."""
        # take() with flat indices x*q + y reads a table faster than [x, y]
        prod = self.mul_table.take(self.neg_table[factors][:, None] * self.q + row)
        prod += block * self.q
        return self.add_table.take(prod)

    def batch_rank(self, mat):
        """Rank of one packed-int matrix (2-d array of codes), or the
        int64 array of ranks of a (batch, n, m) stack."""
        return _rank(np.array(mat, dtype=np.int64), self)

    def det(self, mat):
        """Determinant of one square packed-int matrix as a packed code,
        or the int64 array of codes of a (batch, n, n) stack."""
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


@lru_cache(maxsize=None)
def _inverse_vandermonde(nodes, field):
    """The (n, n) code array whose column i holds the coefficients of the
    Lagrange basis polynomial of the node nodes[i]: lagrange_interpolate
    of the i-th unit vector."""
    n = len(nodes)
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        unit = [field.one if j == i else field.zero for j in range(n)]
        coeffs = lagrange_interpolate(nodes, unit, field)
        out[:len(coeffs), i] = coeffs
    return out


def interpolate_at_nodes(values, nodes, field):
    """lagrange_interpolate of every row of an int64 code array at once.

    values has one row of codes per polynomial, one column per node;
    nodes are the codes of the nodes.  Returns the coefficient codes, low
    degree first and untrimmed, from one product with the inverse
    Vandermonde matrix of (nodes, field), cached.
    """
    arith = field_arithmetic(field)
    return arith.matmul(values, _inverse_vandermonde(tuple(nodes), field).T)
