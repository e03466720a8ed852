"""Exact dense matrices and subspaces over the package's field descriptors.

Everything here is deterministic.  rref is the canonical reduced row
echelon form (leading entries 1, pivot columns cleared), kernel bases are
derived from the rref free columns, so two computations of the same space
produce identical bases regardless of the path that built the matrix.

Rational matrices are ranked, and large ones have their kernels taken,
by one fraction-free integer echelon; smaller rational kernels and rrefs
use Fraction elimination.  Over GF(p) and small GF(p^2) every rank, rref
and kernel runs on the numpy elimination core in modular.py.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import modular
from .errors import PreconditionError
from .fields import QQ

# word-sized primes below 2^16 for rational ranks taken mod p
CERTIFICATE_PRIMES = (65521, 65519, 65497, 65479)


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
        bt = list(zip(*other.rows)) if other.nrows else []
        out = []
        for r in self.rows:
            row = []
            for c in bt:
                acc = F.zero
                for a, b in zip(r, c):
                    acc = F.add(acc, F.mul(a, b))
                row.append(acc)
            out.append(row)
        return ExactMatrix(out, F, other.ncols)

    def apply(self, vector):
        """Matrix times column vector, returned as a tuple."""
        if len(vector) != self.ncols:
            raise PreconditionError("vector length %d, expected %d"
                                    % (len(vector), self.ncols))
        F = self.field
        out = []
        for r in self.rows:
            acc = F.zero
            for a, b in zip(r, vector):
                acc = F.add(acc, F.mul(a, b))
            out.append(acc)
        return tuple(out)

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

    def _codes(self, arith):
        return arith.encode(self.rows).reshape(self.nrows, self.ncols)

    def _decoded(self, codes, arith):
        return ExactMatrix([[arith.decode(v) for v in row]
                            for row in codes.tolist()], self.field, self.ncols)

    def rref(self):
        arith = modular.field_arithmetic(self.field)
        if arith is not None:
            codes = self._codes(arith)
            modular.eliminate(codes, arith, reduced=True)
            return self._decoded(codes, arith)
        rows, _ = _rref(list(map(list, self.rows)), self.field)
        return ExactMatrix(rows, self.field, self.ncols)

    def rank(self):
        if self.field == QQ:
            return len(_integer_echelon(self.rows)[1])
        arith = modular.field_arithmetic(self.field)
        if arith is not None:
            return len(modular.eliminate(self._codes(arith), arith)[0])
        return len(_rref(list(map(list, self.rows)), self.field)[1])

    def kernel_basis(self):
        """Canonical basis of the right kernel {v : M v = 0}, as rows.

        The basis is the standard one with a 1 in each free column, so it
        does not depend on the elimination route; large rational matrices
        take a fraction-free path that gives the identical answer.
        """
        F = self.field
        if F == QQ and self.nrows * self.ncols >= 20000:
            return self._kernel_basis_integer()
        arith = modular.field_arithmetic(F)
        if arith is not None:
            return self._decoded(modular.kernel(self._codes(arith), arith),
                                 arith)
        rows, pivots = _rref(list(map(list, self.rows)), self.field)
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        basis = []
        for f in free:
            v = [F.zero] * self.ncols
            v[f] = F.one
            for r, pc in enumerate(pivots):
                v[pc] = F.neg(rows[r][f])
            basis.append(v)
        return ExactMatrix(basis, F, self.ncols)

    def _kernel_basis_integer(self):
        """Kernel by the integer echelon plus back-substitution."""
        work, pivots = _integer_echelon(self.rows)
        ncols = self.ncols
        rank = len(pivots)
        pivot_set = set(pivots)
        free = [j for j in range(ncols) if j not in pivot_set]
        basis = []
        for f in free:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for r in range(rank - 1, -1, -1):
                pc = pivots[r]
                row = work[r]
                s = row[f] * v[f] if f > pc else Fraction(0)
                for later in pivots[r + 1:]:
                    if row[later]:
                        s += row[later] * v[later]
                if s:
                    v[pc] = -s / row[pc]
            basis.append(v)
        return ExactMatrix(basis, QQ, ncols)

    def kernel(self, degree=None, multiplicity=1, alphabet="y"):
        """Right kernel as a Subspace.  Ambient labels are optional."""
        return Subspace(self.kernel_basis(), degree=degree,
                        multiplicity=multiplicity, alphabet=alphabet,
                        already_independent=True)

    def row_space_basis(self):
        r = self.rref()
        keep = [i for i in range(r.nrows)
                if any(not self.field.is_zero(c) for c in r.rows[i])]
        return r.submatrix(keep)

    def in_row_span(self, vector):
        """Does the vector lie in the span of the matrix rows?"""
        stacked = self.vstack(ExactMatrix([vector], self.field, self.ncols))
        return stacked.rank() == self.rank()


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


def _reduce_rows_mod_p(rows, p):
    inverses = {1: 1}  # denominator -> its inverse mod p
    out = []
    for r in rows:
        row = []
        for a in r:
            if not isinstance(a, Fraction):
                a = Fraction(a)
            inv = inverses.get(a.denominator)
            if inv is None:
                if a.denominator % p == 0:
                    raise PreconditionError("denominator divisible by %d" % p)
                inv = inverses[a.denominator] = pow(a.denominator, p - 2, p)
            row.append(a.numerator * inv % p)
        out.append(row)
    return out


def _integer_echelon(rows):
    """Fraction-free integer echelon form of a rational matrix.

    Rows are scaled to integers, then eliminated by cross-multiplication
    with a gcd division per row to keep growth in check.  Returns the
    nonzero echelon rows and their pivot columns; the rank is the number
    of pivots.
    """
    work = []
    for r in rows:
        ints = _primitive_integer_row(r)
        if any(ints):
            work.append(list(ints))
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        rank = len(pivots)
        if rank == len(work):
            break
        pivot = None
        for i in range(rank, len(work)):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        pv = prow[c]
        for i in range(rank + 1, len(work)):
            if work[i][c]:
                f = work[i][c]
                row = [pv * a - f * b for a, b in zip(work[i], prow)]
                g = 0
                for a in row:
                    g = gcd(g, a)
                    if g == 1:
                        break
                if g > 1:
                    row = [a // g for a in row]
                work[i] = row
        pivots.append(c)
    return work[:len(pivots)], pivots


def _primitive_integer_row(row):
    """Scale a rational row to coprime integers (empty rows stay zero)."""
    fracs = [Fraction(a) for a in row]
    denom_lcm = 1
    for a in fracs:
        d = a.denominator
        denom_lcm = denom_lcm // gcd(denom_lcm, d) * d
    ints = [int(a * denom_lcm) for a in fracs]
    g = 0
    for a in ints:
        g = gcd(g, a)
        if g == 1:
            break
    if g > 1:
        ints = [a // g for a in ints]
    return tuple(ints)


def primitive_integer_matrix(mat):
    """Rowwise primitive-integer rescaling of a rational matrix.

    Used to fix clean integer representatives of syzygy bases; row scaling
    never changes the span, so downstream rank questions are unaffected.
    """
    if mat.field != QQ:
        raise PreconditionError("primitive scaling is for rational matrices")
    return ExactMatrix([[Fraction(v) for v in _primitive_integer_row(r)]
                        for r in mat.rows], QQ, mat.ncols)


class Subspace:
    """A subspace of a graded piece, stored as independent basis rows.

    The ambient space is S^degree V* (or a direct sum of `multiplicity`
    copies of it) identified by the row width; `full_space` marks the
    whole ambient piece without materializing an identity basis, which the
    graded modules use for ideal pieces beyond the socle degree.
    """

    __slots__ = ("basis", "field", "ambient_dim", "degree", "multiplicity",
                 "alphabet", "is_full", "_rref_cache")

    def __init__(self, basis, degree=None, multiplicity=1, alphabet="y",
                 already_independent=False):
        if basis.nrows and not already_independent:
            if basis.rank() != basis.nrows:
                raise PreconditionError("basis rows are dependent")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "field", basis.field)
        object.__setattr__(self, "ambient_dim", basis.ncols)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "is_full", False)
        object.__setattr__(self, "_rref_cache", None)

    def __setattr__(self, *args):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def full_space(cls, ambient_dim, field=QQ, degree=None, multiplicity=1,
                   alphabet="y"):
        self = cls.__new__(cls)
        object.__setattr__(self, "basis", None)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "multiplicity", multiplicity)
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

    def contains(self, vector):
        if len(vector) != self.ambient_dim:
            raise PreconditionError("vector has wrong ambient dimension")
        if self.is_full:
            return True
        return self.basis.in_row_span(tuple(vector))

    def contains_subspace(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise PreconditionError("ambient dimension mismatch")
        if self.is_full:
            return True
        if other.is_full:
            return self.dim == self.ambient_dim
        stacked = self.basis.vstack(other.basis)
        return stacked.rank() == self.dim

    def __repr__(self):
        tag = "full " if self.is_full else ""
        return "<Subspace %sdim=%d ambient=%d over %s>" % (
            tag, self.dim, self.ambient_dim, self.field.describe())
