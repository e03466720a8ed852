"""Exact dense matrices over the package's field descriptors.

Everything here is deterministic.  rref is the canonical reduced row
echelon form (leading entries 1, pivot columns cleared), kernel bases are
derived from the rref free columns, so two computations of the same space
produce identical bases regardless of the path that built the matrix.
A space of forms, such as a graded piece of an ideal or a syzygy space,
is the ExactMatrix of its canonical basis rows; its degree and alphabet
are the caller's.

Every rational kernel is p-adic: one elimination mod a prime below 2^31
on the numpy core, the inverse of its pivot block built once from that
LU, then lifting steps (Dixon), one product with that inverse each, and
rational reconstruction over one common denominator, accepted only once
A K = 0 holds exactly, which proves
it is the rational one.  That one verified (pivots, kernel) result gives
every exact rational answer: kernel_basis is K, rref is read off K, and
pivot_columns, which decides the proved pivots of a matrix over any
field, keeps the pivots mod the first kernel prime when that rank
reaches min(nrows, ncols) and otherwise lifts K from the same
elimination.  A rank is proved the same way, lower bound mod p, upper
bound ncols - dim K, on the narrower side of the matrix.  Fraction
elimination is the one exact fallback, for a kernel whose proof does not
close within len(KERNEL_PRIMES) digits and for the fields with no numpy
arithmetic (GF(p) with p >= 2^31, GF(p^2) with p > 11).  Over GF(p),
p < 2^31, and small GF(p^2) every rank, rref and kernel runs on the
numpy elimination core in modular.py.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from . import modular
from .errors import PreconditionError
from .fields import QQ, integer_codes

# the largest primes below 2^31, largest first: the p-adic kernel lifts
# mod the first, and mod the next after an unlucky one; rational ranks
# are taken mod the first
KERNEL_PRIMES = modular.word_primes(128)
CERTIFICATE_PRIMES = KERNEL_PRIMES[:4]


class ExactMatrix:
    """Immutable rectangular matrix of scalars sharing one field."""

    __slots__ = ("nrows", "ncols", "rows", "field")

    def __init__(self, rows, field, ncols=None):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            width = len(rows[0])
            for r in rows:
                if len(r) != width:
                    raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols=%d disagrees with row width %d" % (ncols, width))
            ncols = width
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "field", field)

    def __setattr__(self, *args):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def zeros(cls, nrows, ncols, field=QQ):
        return cls([[field.zero] * ncols for _ in range(nrows)], field, ncols)

    @classmethod
    def identity(cls, n, field=QQ):
        return cls([[field.one if i == j else field.zero for j in range(n)]
                    for i in range(n)], field, n)

    def entry(self, i, j):
        return self.rows[i][j]

    def row(self, i):
        return self.rows[i]

    def transpose(self):
        return ExactMatrix(zip(*self.rows), self.field, self.nrows) if self.nrows \
            else ExactMatrix([() for _ in range(self.ncols)], self.field, 0)

    def matmul(self, other):
        if self.ncols != other.nrows or self.field != other.field:
            raise PreconditionError("matmul shape or field mismatch")
        F = self.field
        bt = list(zip(*other.rows)) if other.nrows else [()] * other.ncols
        out = []
        for r in self.rows:
            # only the nonzero entries of the row contribute
            terms = [(a, k) for k, a in enumerate(r) if not F.is_zero(a)]
            row = []
            for c in bt:
                acc = F.zero
                for a, k in terms:
                    acc = F.add(acc, F.mul(a, c[k]))
                row.append(acc)
            out.append(row)
        return ExactMatrix(out, F, other.ncols)

    __matmul__ = matmul

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.field == other.field and self.ncols == other.ncols
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        return "<ExactMatrix %dx%d over %s>" % (
            self.nrows, self.ncols, self.field.describe())

    # ---- elimination --------------------------------------------------

    def codes(self):
        """The matrix as an array: over QQ its rows scaled to coprime
        integers, which leaves kernel, rank and pivots alone, otherwise
        its scalars, which are field codes.  int64 where every entry
        fits, Python ints otherwise."""
        F = self.field
        rows = ([_primitive_integer_row(r) for r in self.rows] if F == QQ
                else self.rows)
        if not rows:
            return np.zeros((0, self.ncols), dtype=np.int64)
        return as_codes(rows, F)

    def rref(self):
        """Canonical reduced row echelon form.  Away from the numpy core
        it is read off the canonical kernel K: pivot row r has a 1 at its
        pivot column pc and -K_f[pc] at each free column f."""
        F = self.field
        arith = modular.field_arithmetic(F)
        if arith is not None:
            codes = self.codes()
            modular.eliminate(codes, arith, reduced=True)
            return ExactMatrix(codes.tolist(), F, self.ncols)
        pivots, basis = _pivots_and_kernel(self.codes(), F)
        free = _free_columns(pivots, self.ncols)
        rows = [[F.zero] * self.ncols for _ in range(self.nrows)]
        for r, pc in enumerate(pivots):
            rows[r][pc] = F.one
            for f, v in zip(free, basis):
                rows[r][f] = F.neg(v[pc])
        return ExactMatrix(rows, F, self.ncols)

    def rank(self):
        return code_rank(self.codes(), self.field)

    def kernel_basis(self, primitive=False):
        """Canonical basis of the right kernel {v : M v = 0}: kernel_rows."""
        return ExactMatrix(kernel_rows(self.codes(), self.field, primitive),
                           self.field, self.ncols)


def as_codes(rows, field):
    """Integer rows (or field scalars) as one array, int64 where every
    entry fits and Python ints otherwise, reduced mod p over GF(p)."""
    try:
        codes = np.array(rows, dtype=np.int64)
    except OverflowError:
        codes = np.array(rows, dtype=object)
    else:
        if codes.size and codes.min() == np.iinfo(np.int64).min:
            codes = codes.astype(object)  # its negative overflows
    return codes % field.p if field.char and field.degree == 1 else codes


def kernel_rows(codes, field, primitive=False):
    """Canonical basis rows of the right kernel of a matrix given as codes
    (see ExactMatrix.codes; left alone), a 1 in each free column; with
    primitive, over QQ, each row times the lcm of its denominators."""
    arith = modular.field_arithmetic(field)
    if arith is None:
        return _pivots_and_kernel(codes, field, primitive)[1]
    return modular.kernel(codes.astype(np.int64), arith).tolist()


def code_rank(codes, field):
    """The rank of a matrix over the field given as codes (see
    ExactMatrix.codes), proved as pivot_columns proves its pivots."""
    if field == QQ and len(codes) < codes.shape[1]:
        # rank is the same on both sides, and the certificate of the
        # narrower one is the smaller kernel
        codes = codes.T
    return len(pivot_columns(codes, field))


def pivot_columns(codes, field):
    """The pivot columns of a matrix over the field, given as codes (see
    ExactMatrix.codes; the array is left alone), each proved.

    A field with numpy arithmetic takes the elimination core.  Over QQ
    the columns independent mod KERNEL_PRIMES[0] are independent over QQ,
    and they span once the mod-p rank reaches min(rows, cols), which
    bounds the rational rank; below that they are the complement of the
    free columns of the verified kernel lifted from that elimination.
    """
    arith = modular.field_arithmetic(field)
    if arith is not None:
        return modular.eliminate(codes.astype(np.int64), arith)[0]
    factored = _lu(codes, KERNEL_PRIMES[0]) if field == QQ else None
    if factored and len(factored[2]) == min(codes.shape):
        return factored[2]
    return _pivots_and_kernel(codes, field, True, factored)[0]


def _lu(codes, p):
    """(lu, perm, pivots) of integer codes mod p, as eliminate leaves them."""
    lu, perm = (codes % p).astype(np.int64, copy=False), np.arange(len(codes))
    pivots, _ = modular.eliminate(lu, modular.prime_arithmetic(p), perm=perm)
    return lu, perm, pivots


def _pivots_and_kernel(codes, field, primitive=False, factored=None):
    """(pivot columns, canonical kernel basis rows) of a matrix given as
    codes, with no numpy arithmetic: over QQ by the p-adic kernel, and by
    Fraction elimination, the one exact fallback, when its digits run
    out or the field is GF(p) with p >= 2^31 or GF(p^2) with p > 11."""
    ncols = codes.shape[1]
    if field == QQ:
        solved = _multimodular_kernel(codes, ncols, primitive, factored)
        if solved is not None:
            return solved
    ref, pivots = _rref(codes.tolist(), field)
    basis = []
    for f in _free_columns(pivots, ncols):
        v = [field.zero] * ncols
        v[f] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(ref[r][f])
        basis.append(_primitive_integer_row(v) if primitive and field == QQ
                     else v)
    return pivots, basis


def _free_columns(pivots, ncols):
    pivot_set = set(pivots)
    return [j for j in range(ncols) if j not in pivot_set]


def _rref(rows, field):
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if not field.is_zero(rows[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, a) for a in rows[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [field.sub(a, field.mul(f, b))
                           for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _multimodular_kernel(matrix, ncols, primitive=False, factored=None):
    """Canonical rational kernel basis by p-adic lifting from one
    elimination mod a word prime (Dixon, "Exact solution of linear
    equations using p-adic expansions", Numer. Math. 40, 1982).

    matrix is an integer array (see ExactMatrix.codes).  The LU of A
    mod p (factored: _lu mod KERNEL_PRIMES[0]) gives the pivots P and the
    rows R behind them, and _lift the rational A_RP^-1 A_RF.  The result
    K is accepted only if A K = 0 exactly.  K has a 1 in its own free
    column f and zeros in the other free columns and the pivot columns
    after f, by construction.  Since rank over QQ >= rank mod p, A K = 0
    makes the kernel dimension the number of free columns, and each free
    column lies in the span of the columns before it, so the rational
    pivots are the mod-p ones and K is the canonical basis.  A prime
    whose pivots are wrong over QQ fails A K = 0, and the next prime
    starts again.  Returns the pivot columns and the basis
    rows, as Fractions or, with primitive, as coprime integers (each
    canonical row times the lcm of its denominators), or None once the
    primes together have taken len(KERNEL_PRIMES) digits.
    """
    nrows = len(matrix)
    # per column: (row, integer entry) of its nonzero entries
    columns = [[(i, a) for i, a in enumerate(col.tolist()) if a]
               for col in matrix.T]
    budget = len(KERNEL_PRIMES)
    for p in KERNEL_PRIMES:
        lu, perm, pivots = factored or _lu(matrix, p)
        factored = None
        free = _free_columns(pivots, ncols)
        if not free:
            # rank over QQ is at least rank mod p = ncols
            return pivots, []
        used, lifted = _lift(matrix[perm[:len(pivots)]], lu, pivots, free,
                             p, budget)
        budget -= used
        if lifted is None:
            return None
        # each vector times the lcm of its denominators, as its nonzero
        # (column, integer entry) pairs
        vectors = [[(f, den)]
                   + [(pc, -x) for pc, x in zip(pivots, nums) if pc < f and x]
                   for f, (nums, den) in zip(free, lifted)]
        if _annihilates(columns, nrows, vectors):
            basis = [[0 if primitive else Fraction(0)] * ncols for _ in vectors]
            for v, vector in zip(basis, vectors):
                for j, x in vector:
                    v[j] = x if primitive else Fraction(x, vector[0][1])
            return pivots, basis
    return None


def _lift(rows, lu, pivots, free, p, budget):
    """(digits taken, columns as _reconstruct_columns gives them or None if
    the budget runs out) of A_RP^-1 A_RF, from the rows of A behind the
    pivots (in pivot order) and the LU of A mod p.

    Digit y_k = A_RP^-1 res_k mod p is one product with A_RP^-1 mod p,
    built once from the LU, from res_0 = A_RF and res_(k+1) = (res_k -
    A_RP y_k) / p; once one probe column reconstructs alike from two digit
    counts in a row, all columns are reconstructed.  res is kept exactly
    as int64 limbs R_j of b bits, res = sum R_j 2^(b j), the top one
    signed: each limb of A_RP y is one float64 product, exact because
    r (p - 1) 2^b < 2^53 (modular.limb_bits), and the exact division by p
    runs from the lowest limb up, each limb becoming its quotient mod 2^b
    and the rest carrying into the next.
    """
    r = len(pivots)
    inverse = _inverse_from_lu(lu[:r, pivots], p)
    b = modular.limb_bits(max(r, 1), p)
    mask, p_inv = (1 << b) - 1, pow(p, -1, 1 << b)
    count = int(np.abs(rows).max(initial=0)).bit_length() // b + 1

    def limbs(m, dtype):  # b-bit limbs, the top one signed
        out = np.empty((count,) + m.shape, dtype=dtype)
        for j in range(count - 1):
            out[j], m = m & mask, m >> b
        out[-1] = m
        return out

    a, res = limbs(rows[:, pivots], np.float64), limbs(rows[:, free], np.int64)
    weights = np.array([pow(2, b * j, p) for j in range(count)])
    digits, probe, probe_at, acc = [], None, len(free) - 1, [0] * r
    while len(digits) < budget:
        # res mod p: the limbs below the top are under 2^b, so only the
        # top needs reducing before its weight multiplies it
        low = weights[:-1] @ res[:-1].reshape(count - 1, res[0].size)
        residue = (low.reshape(res[0].shape) + res[-1] % p * weights[-1]) % p
        z = modular.matmul_mod(inverse, residue, p)
        modulus = p ** (len(digits) + 1)
        acc = [u + v * (modulus // p)
               for u, v in zip(acc, z[:, probe_at].tolist())]
        digits.append(z)
        guess = _reconstruct(acc, modulus)
        if guess is not None and guess == probe:
            x = digits[-1].astype(object)
            for y in reversed(digits[:-1]):
                x = x * p + y
            columns = x.T.tolist()
            lifted = _reconstruct_columns(columns, modulus)
            if None not in lifted:
                return len(digits), lifted
            # later digits probe a vector that failed
            probe_at, guess = lifted.index(None), None
            acc = columns[probe_at]
        probe = guess
        res -= (a @ z.astype(np.float64)).astype(np.int64)
        carry = 0
        for j in range(count):
            v = res[j] + carry
            res[j] = (v & mask) * p_inv & mask
            carry = (v - res[j] * p) >> b
        # p divides res - A_RP y, so it divides the carry out of the top
        res[-1] += carry // p << b
    return len(digits), None


def _inverse_from_lu(t, p):
    """A^-1 mod p of a square matrix A from its LU t, as eliminate leaves
    it: the multipliers below the diagonal, the pivots on it and U above.
    A = L1 D U with L1 unit lower triangular, D the pivots and U unit
    upper triangular, so A^-1 = U^-1 D^-1 L1^-1."""
    inv_lead = modular.prime_arithmetic(p).inv(t.diagonal().copy())
    lower = np.tril(t, -1)
    lower *= inv_lead  # L1 is the multipliers over their pivots
    lower %= p
    lower = _unit_lower_inverse(lower, p)
    lower *= inv_lead[:, None]
    lower %= p
    return modular.matmul_mod(_unit_lower_inverse(np.triu(t, 1).T, p).T,
                              lower, p)


def _unit_lower_inverse(strict, p):
    """(I + strict)^-1 mod p for a strictly lower triangular code array:
    by halving, [[A, 0], [C, B]]^-1 = [[A^-1, 0], [-B^-1 C A^-1, B^-1]]
    with two products, and at blocks of at most 32 rows by a column
    sweep."""
    n = len(strict)
    if n <= 32:
        out = np.eye(n, dtype=np.int64)
        arith = modular.prime_arithmetic(p)
        for j in range(n - 1):
            out[j + 1:] = arith.sub_mul(out[j + 1:], strict[j + 1:, j], out[j])
        return out
    h = n // 2
    top, bottom = (_unit_lower_inverse(strict[:h, :h], p),
                   _unit_lower_inverse(strict[h:, h:], p))
    out = np.zeros((n, n), dtype=np.int64)
    out[:h, :h], out[h:, h:] = top, bottom
    out[h:, :h] = p - modular.matmul_mod(
        modular.matmul_mod(bottom, strict[h:, :h], p), top, p)
    out[h:, :h] %= p
    return out


def _reconstruct(residues, modulus):
    """Rational reconstruction of the residues as integer numerators over
    their least common denominator, (numerators, den), or None if one
    fails.

    Each residue, times the common denominator of the entries before it,
    is taken as an integer if it lies within sqrt(modulus / 2) of zero;
    otherwise the half-extended Euclid finds the fraction with numerator
    and denominator within that bound (Wang's rational reconstruction;
    von zur Gathen-Gerhard, Modern Computer Algebra 5.10).  Entries that
    share a denominator thus cost one multiplication each.
    """
    bound = isqrt(modulus // 2)
    den = 1
    out = []
    for u in residues:
        w = u * den % modulus
        if w > bound:
            w -= modulus
        if w < -bound:
            r0, r1, t0, t1 = modulus, w % modulus, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
            if t1 < 0:
                r1, t1 = -r1, -t1
            if t1 > bound or gcd(r1, t1) != 1:
                return None
            out = [a * t1 for a in out]
            w, den = r1, den * t1
        out.append(w)
    return out, den


def _reconstruct_columns(columns, modulus):
    """_reconstruct of each column, from one reconstruction of all the
    entries over their common denominator D: column c is then (its
    numerators / g, D / g) with g = gcd(D, its numerators).  Where the
    columns' denominators differ so much that D pushes a numerator past
    the bound, column by column."""
    common = _reconstruct([u for col in columns for u in col], modulus)
    if common is None:
        return [_reconstruct(col, modulus) for col in columns]
    nums, den = common
    r = len(columns[0])
    out = []
    for c in range(len(columns)):
        part = nums[c * r:(c + 1) * r]
        g = gcd(den, *part)
        out.append(([u // g for u in part], den // g))
    return out


def _annihilates(columns, nrows, vectors):
    """Is A v = 0 exactly for every integer vector?  A is given by the
    nonzero (row, entry) pairs of its integer columns and each v by its
    nonzero (column, entry) pairs; only the columns of A in the support
    of v are read.
    """
    for vector in vectors:
        image = [0] * nrows
        for j, x in vector:
            for i, a in columns[j]:
                image[i] += a * x
        if any(image):
            return False
    return True


def _primitive_integer_row(row):
    """A rational row scaled to coprime integers: its integer_codes over
    their gcd (empty and zero rows stay as they are)."""
    ints, _ = integer_codes(row, QQ)
    g = gcd(*ints)
    return tuple(a // g for a in ints) if g > 1 else tuple(ints)

