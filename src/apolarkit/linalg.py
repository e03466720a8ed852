"""Exact dense matrices and subspaces over the package's field descriptors.

Everything here is deterministic.  rref is the canonical reduced row
echelon form (leading entries 1, pivot columns cleared), kernel bases are
derived from the rref free columns, so two computations of the same space
produce identical bases regardless of the path that built the matrix.

Every rational kernel is multimodular: the canonical kernel is computed
mod primes below 2^31 on the numpy core, joined by CRT and rational
reconstruction, and accepted only once A K = 0 holds exactly, which
proves it is the rational one.  That one verified (pivots, kernel)
result gives every exact rational answer: kernel_basis is K, rref is
read off K, and pivot_columns, which decides the proved pivots of a
matrix over any field, keeps the pivots mod the first certificate prime
when that rank reaches min(nrows, ncols) and otherwise takes the
complement of K's free columns.  A rank is proved the same way, lower
bound mod p, upper bound ncols - dim K, on the narrower side of the
matrix.  Fraction elimination is the one exact fallback, for a kernel
whose proof does not close before KERNEL_PRIMES run out and for the
fields with no numpy arithmetic (GF(p) with p >= 2^31, GF(p^2) with
p > 11).  Over GF(p), p < 2^31, and small GF(p^2) every rank, rref and
kernel runs on the numpy elimination core in modular.py.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np

from . import modular
from .errors import PreconditionError
from .fields import QQ

# the largest primes below 2^31, largest first: the multimodular kernel
# draws from them in order, and rational ranks are taken mod the first
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

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def transpose(self):
        return ExactMatrix(zip(*self.rows), self.field, self.nrows) if self.nrows \
            else ExactMatrix([() for _ in range(self.ncols)], self.field, 0)

    def vstack(self, other):
        if self.ncols != other.ncols or self.field != other.field:
            raise PreconditionError("vstack shape or field mismatch")
        return ExactMatrix(self.rows + other.rows, self.field, self.ncols)

    def submatrix(self, row_indices, col_indices=None):
        if col_indices is None:
            return ExactMatrix([self.rows[i] for i in row_indices],
                               self.field, self.ncols)
        return ExactMatrix([[self.rows[i][j] for j in col_indices]
                            for i in row_indices], self.field, len(col_indices))

    def add(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols) \
                or self.field != other.field:
            raise PreconditionError("matrix add mismatch")
        F = self.field
        return ExactMatrix([[F.add(a, b) for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.rows, other.rows)],
                           F, self.ncols)

    def scale(self, scalar):
        F = self.field
        return ExactMatrix([[F.mul(scalar, a) for a in r] for r in self.rows],
                           F, self.ncols)

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
        field codes (GF(p^2) elements packed as a + p*b).  int64 where
        every entry fits, Python ints otherwise."""
        F = self.field
        if F == QQ:
            rows = [_primitive_integer_row(r) for r in self.rows]
        elif F.degree == 2:
            rows = [[F.encode(a) for a in r] for r in self.rows]
        else:
            rows = self.rows
        if not rows:
            return np.zeros((0, self.ncols), dtype=np.int64)
        try:
            codes = np.array(rows, dtype=np.int64)
        except OverflowError:
            codes = np.array(rows, dtype=object)
        else:
            if codes.size and codes.min() == np.iinfo(np.int64).min:
                codes = codes.astype(object)  # its negative overflows
        return codes % F.p if F.char and F.degree == 1 else codes

    def _decoded(self, codes, arith):
        return ExactMatrix([[arith.decode(v) for v in row]
                            for row in codes.tolist()], self.field, self.ncols)

    def rref(self):
        """Canonical reduced row echelon form.  Away from the numpy core
        it is read off the canonical kernel K: pivot row r has a 1 at its
        pivot column pc and -K_f[pc] at each free column f."""
        F = self.field
        arith = modular.field_arithmetic(F)
        if arith is not None:
            codes = self.codes()
            modular.eliminate(codes, arith, reduced=True)
            return self._decoded(codes, arith)
        pivots, basis = _pivots_and_kernel(self.rows, self.ncols, F)
        free = _free_columns(pivots, self.ncols)
        rows = [[F.zero] * self.ncols for _ in range(self.nrows)]
        for r, pc in enumerate(pivots):
            rows[r][pc] = F.one
            for f, v in zip(free, basis):
                rows[r][f] = F.neg(v[pc])
        return ExactMatrix(rows, F, self.ncols)

    def rank(self):
        codes = self.codes()
        if self.field == QQ and self.nrows < self.ncols:
            # rank is the same on both sides, and the certificate of the
            # narrower one is the smaller kernel
            codes = codes.T
        return len(pivot_columns(codes, self.field))

    def kernel_basis(self, primitive=False):
        """Canonical basis of the right kernel {v : M v = 0}, as rows.

        The basis is the standard one with a 1 in each free column, so it
        does not depend on the elimination route.  primitive asks, over
        QQ, for each row times the lcm of its denominators.
        """
        arith = modular.field_arithmetic(self.field)
        if arith is not None:
            return self._decoded(modular.kernel(self.codes(), arith), arith)
        _, basis = _pivots_and_kernel(self.rows, self.ncols, self.field,
                                      primitive)
        return ExactMatrix(basis, self.field, self.ncols)

    def row_space_basis(self):
        r = self.rref()
        keep = [i for i in range(r.nrows)
                if any(not self.field.is_zero(c) for c in r.rows[i])]
        return r.submatrix(keep)

    def in_row_span(self, vector):
        """Does the vector lie in the span of the matrix rows?"""
        stacked = self.vstack(ExactMatrix([vector], self.field, self.ncols))
        return stacked.rank() == self.rank()


def pivot_columns(codes, field):
    """The pivot columns of a matrix over the field, given as codes (see
    ExactMatrix.codes; the array is left alone), each proved.

    A field with numpy arithmetic takes the elimination core.  Over QQ
    the columns independent mod CERTIFICATE_PRIMES[0] are independent
    over QQ, and they span once the mod-p rank reaches min(rows, cols),
    which bounds the rational rank; below that the pivots are the
    complement of the free columns of the verified multimodular kernel.
    """
    arith = modular.field_arithmetic(field)
    if arith is not None:
        return modular.eliminate(codes.astype(np.int64), arith)[0]
    if field == QQ:
        p = CERTIFICATE_PRIMES[0]
        residues = (codes % p).astype(np.int64, copy=False)
        pivots, _ = modular.eliminate(residues, modular.prime_arithmetic(p))
        if len(pivots) == min(codes.shape):
            return pivots
        rows = codes.tolist()
    elif field.degree == 2:
        rows = [[field.decode(int(c)) for c in r] for r in codes]
    else:
        rows = codes.tolist()
    return _pivots_and_kernel(rows, codes.shape[1], field, True)[0]


def _pivots_and_kernel(rows, ncols, field, primitive=False):
    """(pivot columns, canonical kernel basis rows) of a matrix with no
    numpy arithmetic: over QQ by the multimodular kernel, and by Fraction
    elimination, the one exact fallback, when its primes run out or the
    field is GF(p) with p >= 2^31 or GF(p^2) with p > 11.  primitive
    scales each rational kernel row to coprime integers."""
    if field == QQ:
        solved = _multimodular_kernel(rows, ncols, primitive)
        if solved is not None:
            return solved
    ref, pivots = _rref([list(r) for r in rows], field)
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


def _multimodular_kernel(rows, ncols, primitive=False):
    """Canonical rational kernel basis by elimination mod word primes.

    Each prime's reduced echelon form gives the kernel mod p; the prime of
    highest rank, and among those the lexicographically smallest pivot
    list, is kept and any other prime is discarded as unlucky.  The
    free-column blocks of the kept primes are joined by CRT and, once one
    probe vector reconstructs to the same rationals on two consecutive
    primes, every entry is rationally reconstructed.  The result K is
    accepted only if A K = 0 exactly.  K has a 1 in its own free column f
    and zeros in the other free columns and the pivot columns after f, by
    construction.  Since rank over QQ >= rank mod p, A K = 0 makes the
    kernel dimension the number of free columns, and each free column
    lies in the span of the columns before it, so the rational pivots are
    the mod-p ones and K is the canonical basis.  Returns the pivot
    columns and the basis rows, as Fractions or, with primitive, as
    coprime integers (each canonical row times the lcm of its
    denominators), or None when KERNEL_PRIMES run out before the proof
    closes.  Rows may hold ints or Fractions.
    """
    # per column: (row, integer entry) of its nonzero entries
    columns = [[] for _ in range(ncols)]
    for i, r in enumerate(rows):
        for j, a in enumerate(_primitive_integer_row(r)):
            if a:
                columns[j].append((i, a))
    at = (np.array([i for col in columns for i, _ in col], dtype=int),
          np.array([j for j, col in enumerate(columns) for _ in col],
                   dtype=int))
    values = [a for col in columns for _, a in col]
    try:
        values = np.array(values, dtype=np.int64)
    except OverflowError:
        values = np.array(values, dtype=object)  # reduced entry by entry
    best = None
    for p in KERNEL_PRIMES:
        arith = modular.prime_arithmetic(p)
        a = np.zeros((len(rows), ncols), dtype=np.int64)
        a[at] = values % p
        pivots, _ = modular.eliminate(a, arith, reduced=True)
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            continue
        free = _free_columns(pivots, ncols)
        if not free:
            # rank over QQ is at least rank mod p = ncols
            return pivots, []
        # the rref entries of each free column, one list per column
        block = a[:len(pivots), free].T.tolist()
        if key != best:
            best, residues, modulus, probe = key, block, p, None
            probe_at = len(free) - 1
        else:
            inv = pow(modulus, -1, p)
            residues = [[r + modulus * ((b - r) * inv % p)
                         for r, b in zip(rcol, bcol)]
                        for rcol, bcol in zip(residues, block)]
            modulus *= p
        guess = _reconstruct(residues[probe_at], modulus)
        if guess is None or guess != probe:
            probe = guess
            continue
        lifted = [_reconstruct(column, modulus) for column in residues]
        if None in lifted:
            # a later prime tries again, probing a vector that failed
            probe, probe_at = None, lifted.index(None)
            continue
        # each vector times the lcm of its denominators, as its nonzero
        # (column, integer entry) pairs
        vectors = [[(f, den)]
                   + [(pc, -x) for pc, x in zip(pivots, nums) if pc < f and x]
                   for f, (nums, den) in zip(free, lifted)]
        if _annihilates(columns, len(rows), vectors):
            basis = []
            for vector in vectors:
                den = vector[0][1]
                v = [0 if primitive else Fraction(0)] * ncols
                for j, x in vector:
                    v[j] = x if primitive else Fraction(x, den)
                basis.append(v)
            return pivots, basis
    return None


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
    """Scale a rational row to coprime integers (empty rows stay zero)."""
    den = lcm(*(a.denominator for a in row))
    ints = [a.numerator * (den // a.denominator) for a in row]
    g = gcd(*ints)
    if g > 1:
        ints = [a // g for a in ints]
    return tuple(ints)



class Subspace:
    """A subspace of a graded piece, stored as independent basis rows.

    The ambient space (S^degree V*, or a direct sum of copies of it) is
    identified by the row width; `full_space` marks the whole ambient
    piece without materializing an identity basis, which
    apolar_ideal_component uses for the pieces of I_f above deg f.
    """

    __slots__ = ("basis", "field", "ambient_dim", "degree", "alphabet",
                 "is_full", "_rref_cache")

    def __init__(self, basis, degree=None, alphabet="y",
                 already_independent=False):
        if basis.nrows and not already_independent:
            if basis.rank() != basis.nrows:
                raise PreconditionError("basis rows are dependent")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "field", basis.field)
        object.__setattr__(self, "ambient_dim", basis.ncols)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "is_full", False)
        object.__setattr__(self, "_rref_cache", None)

    def __setattr__(self, *args):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def full_space(cls, ambient_dim, field=QQ, degree=None, alphabet="y"):
        self = cls.__new__(cls)
        object.__setattr__(self, "basis", None)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "is_full", True)
        object.__setattr__(self, "_rref_cache", None)
        return self

    @property
    def dim(self):
        return self.ambient_dim if self.is_full else self.basis.nrows

    def basis_matrix(self):
        if self.is_full:
            return ExactMatrix.identity(self.ambient_dim, self.field)
        return self.basis

    def reduced_basis(self):
        """Canonical rref basis; cached because membership tests reuse it."""
        if self.is_full:
            return ExactMatrix.identity(self.ambient_dim, self.field)
        if self._rref_cache is None:
            object.__setattr__(self, "_rref_cache", self.basis.rref())
        return self._rref_cache

    def __repr__(self):
        tag = "full " if self.is_full else ""
        return "<Subspace %sdim=%d ambient=%d over %s>" % (
            tag, self.dim, self.ambient_dim, self.field.describe())
