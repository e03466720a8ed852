"""Graded Betti numbers by Koszul homology, linear syzygy bases, and the
matrix of linear second-order syzygies of a quadric system.

Betti numbers are computed as b_{i,j} = dim H_i of the Koszul strand

    Lambda^{i+1} V* (x) M_{j-i-1} -> Lambda^i V* (x) M_{j-i}
                                  -> Lambda^{i-1} V* (x) M_{j-i+1}

with the alternating-sign contraction differentials, where M = S/I is
held degree by degree.  GradedModule presents each piece M_j by an
integer matrix E_j whose kernel is I_j: evaluation at the points'
codes (see apolarity.PointSet) for S/I_Z, the transposed catalecticant
for S/I_f, and the annihilator of Q*S_{j-2} for a quadric ideal; over a
finite field E_j holds field codes.  E_{j+1} embeds M_{j+1}, so each
differential gathers the columns of y_t*m (forms.monomial_products) of
E_{j+1}, with no coordinates to solve for.  Over QQ the differentials
are ranked modulo a word-sized prime and every mod-p rank is kept only
where semicontinuity proves it equal to the rational rank; the rest are
ranked by linalg.code_rank, which proves a rational rank with a
verified multimodular kernel, so the tables stay exact (see graded_betti).

A cell (i, j) only consumes the module in degrees j-i-1 .. j-i+1, so a
module built up to degree 3 already settles the full three-row tables of
point ideals; one degree more lets the mod-p ranks of the next strand
row close proofs.

m2_matrix(f) is a LinearFormMatrix: one coefficient array, a layer per
variable, read off the second-syzygy rows.  Its at() at a stack of points
is the one product behind evaluation, substitution and rankloci's scans.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

import numpy as np

from . import modular
from .apolarity import catalecticant, evaluation_matrix, ideal_span
from .errors import PreconditionError
from .fields import GF, QQ, integer_codes
from .forms import HomogeneousForm, monomial_count, monomial_products
from .linalg import (
    CERTIFICATE_PRIMES,
    ExactMatrix,
    code_rank,
    kernel_rows,
    pivot_columns,
)


# graded_betti ranks rational Koszul differentials modulo this prime first
_BETTI_PRIME = CERTIFICATE_PRIMES[0]

# Betti table of the apolar ideal of a cubic with the generic resolution
# shape; m2_matrix guards its input against this.
GENERIC_CUBIC_APOLAR_BETTI = {
    (0, 0): 1,
    (1, 2): 15, (2, 3): 35, (3, 4): 21,
    (3, 5): 21, (4, 6): 35, (5, 7): 15,
    (6, 9): 1,
}


class BettiTable:
    """Map (homological index i, internal degree j) -> Betti number."""

    def __init__(self, entries):
        self.entries = {k: v for k, v in entries.items() if v}
        if any(v < 0 for v in self.entries.values()):
            raise ValueError("negative Betti number")

    def entry(self, i, j):
        return self.entries.get((i, j), 0)

    def nonzero(self):
        return dict(sorted(self.entries.items()))

    def __eq__(self, other):
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self.nonzero() == other.nonzero()

    def __hash__(self):
        return hash(tuple(sorted(self.entries.items())))

    def to_json(self):
        return {"entries": [[i, j, b] for (i, j), b in sorted(self.entries.items())]}

    def render_text(self):
        """Rows are strands r = j - i, columns the homological index i."""
        if not self.entries:
            return "(zero table)"
        max_i = max(i for i, _ in self.entries)
        max_r = max(j - i for i, j in self.entries)
        lines = ["     " + "".join("%6d" % i for i in range(max_i + 1))]
        for r in range(max_r + 1):
            cells = []
            for i in range(max_i + 1):
                b = self.entry(i, i + r)
                cells.append("%6s" % (b if b else "."))
            lines.append("%4d:" % r + "".join(cells))
        return "\n".join(lines)

    def __repr__(self):
        return "<BettiTable %s>" % (self.nonzero(),)


class GradedModule:
    """S/I over the degrees 0..max_degree, each piece presented as an image.

    presentations[j] is any matrix with one column per degree-j monomial
    whose kernel is the ideal piece I_j, so M_j = S_j / I_j is its column
    space.  The module keeps it as the array E_j: over QQ with every row
    scaled to coprime integers, which leaves the kernel alone, over a
    finite field as field codes.  E_j maps M_j injectively onto its
    column space, the class of a monomial to its column, and the pivot
    monomials B_j of E_j are a basis of M_j.

    The pivots are the proved ones of linalg.pivot_columns: over QQ the
    pivots mod the Betti prime where that rank reaches min(rows,
    columns), and otherwise those of the verified multimodular kernel.
    """

    def __init__(self, nvars, field, presentations):
        self.nvars = nvars
        self.field = field
        self.max_degree = len(presentations) - 1
        self._pieces = []
        for j, mat in enumerate(presentations):
            expected = monomial_count(nvars, j)
            if mat.ncols != expected:
                raise PreconditionError(
                    "presentation %d has %d columns, expected %d"
                    % (j, mat.ncols, expected))
            codes = mat.codes()
            self._pieces.append((codes, tuple(pivot_columns(codes, field))))

    def piece(self, j):
        """(E_j, B_j): the integer presentation of M_j and the monomial
        indices of its basis; empty below degree 0."""
        if j < 0:
            return np.zeros((0, 0), dtype=np.int64), ()
        if j > self.max_degree:
            raise PreconditionError(
                "graded piece %d beyond built range %d" % (j, self.max_degree))
        return self._pieces[j]

    def piece_dim(self, j):
        return len(self.piece(j)[1])


# ---- module factories -------------------------------------------------


def apolar_quotient_module(f, max_degree):
    """S / I_f as a graded module, pieces 0..max_degree.

    The transposed catalecticant of degree j presents M_j: its kernel is
    I_f(j) and its column space the span of the (d-j)-th partials of f
    (Macaulay duality, Iarrobino-Kanev, LNM 1721).  Above deg f the piece
    is 0, presented by a matrix with no rows.
    """
    return GradedModule(f.nvars, f.field, [
        catalecticant(f, j).transpose() if j <= f.degree
        else ExactMatrix([], f.field, monomial_count(f.nvars, j))
        for j in range(max_degree + 1)])


def points_quotient_module(Z, max_degree):
    """S / I_Z as a graded module, pieces 0..max_degree.

    M_j is presented by evaluation at Z, whose kernel is I_Z(j); over QQ
    at the points scaled to coprime integers, so in integers.
    """
    if Z.allow_duplicates:
        raise PreconditionError("ideal of a non-reduced point multiset")
    return GradedModule(Z.nvars, Z.field, [
        evaluation_matrix(Z, j) for j in range(max_degree + 1)])


def quadric_ideal_module(quadrics, max_degree):
    """S / (ideal generated by the quadric forms), pieces 0..max_degree.

    M_j is presented by the annihilator of the span of Q*S_{j-2}: the
    kernel of that annihilator is the span itself.
    """
    if not quadrics:
        raise PreconditionError("empty quadric system")
    return GradedModule(quadrics[0].nvars, quadrics[0].field, [
        ideal_span(quadrics, j).kernel_basis()
        for j in range(max_degree + 1)])


# ---- Koszul homology --------------------------------------------------


@lru_cache(maxsize=None)
def _contractions(nvars, i):
    """Rows (face, subset, variable, sign), one column for each i-subset
    S and each position pos of a variable t in S: the face is S minus t
    and the sign (-1)^pos, 0 for + and 1 for -."""
    faces = {s: k for k, s in enumerate(itertools.combinations(range(nvars),
                                                               i - 1))}
    terms = [(faces[S[:pos] + S[pos + 1:]], col, t, pos % 2)
             for col, S in enumerate(itertools.combinations(range(nvars), i))
             for pos, t in enumerate(S)]
    return np.array(terms, dtype=np.intp).reshape(-1, 4).T


def koszul_differential(module, i, j):
    """Lambda^i (x) M_{j-i} -> Lambda^{i-1} (x) M_{j-i+1}, written into
    Lambda^{i-1} (x) (the rows of E_{j-i+1}).

    Columns run over (i-subset S, basis monomial m) pairs and rows over
    ((i-1)-subset, row of E_{j-i+1}) pairs, subsets in lex order.  The
    column of (S, m) holds, in the block of S minus its entry t at
    position pos, (-1)^pos times the column of y_t*m in E_{j-i+1}.
    Because E_{j-i+1} embeds M_{j-i+1}, the matrix has the rank of the
    differential.  It holds integers over QQ and field codes otherwise.
    """
    if i < 1:
        raise PreconditionError("differential index must be at least 1")
    n = module.nvars
    _, basis = module.piece(j - i)
    E, _ = module.piece(j - i + 1)
    nfaces, nsubsets = comb(n, i - 1), comb(n, i)
    out = np.zeros((nfaces, E.shape[0], nsubsets, len(basis)), dtype=E.dtype)
    if basis and E.size:
        face, subset, t, sign = _contractions(n, i)
        images = E[:, monomial_products(n, 1, j - i)[:, basis]] \
            .transpose(1, 0, 2)
        signed = np.stack((images, module.field.neg(images)))
        out[face, :, subset, :] = signed[sign, t]
    return out.reshape(nfaces * E.shape[0], nsubsets * len(basis))


def graded_betti(module, max_i, max_j, max_row=None):
    """Betti table of the module over the window i <= max_i, j <= max_j.

    max_row, when given, restricts to strand rows j - i <= max_row; the
    reference tables all live in rows <= 3, and skipping higher rows
    avoids building graded pieces nobody asked about.

    Over QQ every differential is first ranked modulo the prime
    CERTIFICATE_PRIMES[0], and a mod-p rank is kept only where it is
    proved equal to the rational one (Eisenbud, The Geometry of
    Syzygies).  Rank mod p never exceeds rank over QQ, and rank over QQ
    never exceeds the number of columns or the dimension of the
    codomain, so a differential whose mod-p rank meets either bound has
    its rational rank.  The rational differentials compose to zero, so
    wherever a cell C has mod-p homology 0, dim C = r_p(d_in) +
    r_p(d_out) <= r_QQ(d_in) + r_QQ(d_out) <= dim C proves both adjacent
    ranks.  The cells of the strand row just past the window are ranked
    mod p too, when the module is built that high, only to close proofs;
    they are never reported.  Every other differential of the window is
    ranked by code_rank, which matches the mod-p lower bound with
    the upper bound ncols - dim K of a verified kernel K of the narrower
    side, so the table is always exact.  Over other fields the
    differentials are ranked directly, by linalg.pivot_columns.
    """
    def required(i, j):
        return j - i if i == 0 else j - i + 1

    cells = []
    for i in range(max_i + 1):
        for j in range(i, max_j + 1):
            if max_row is not None and j - i > max_row:
                continue
            if required(i, j) > module.max_degree:
                raise PreconditionError(
                    "cell (%d, %d) needs module degree %d; built to %d"
                    % (i, j, required(i, j), module.max_degree))
            cells.append((i, j))
    window = set(cells)
    past = [(i - 1, j) for i, j in cells if i > 0 and (i - 1, j) not in window
            and required(i - 1, j) <= module.max_degree]

    exact = {key for i, j in cells for key in ((i, j), (i + 1, j))}
    n = module.nvars
    over_qq = module.field == QQ
    # over QQ each differential is first ranked over GF(p) on its reduction
    rank_field = GF(_BETTI_PRIME) if over_qq else module.field

    def cell_dim(i, j):
        return comb(n, i) * module.piece_dim(j - i)

    pending = {}
    ranks = {}
    for key in sorted(exact.union(past)):
        i, j = key
        if i == 0 or i > n or not 0 <= j - i <= module.max_degree:
            ranks[key] = 0
            continue
        mat = koszul_differential(module, i, j)
        ranks[key] = len(pivot_columns(mat % _BETTI_PRIME if over_qq else mat,
                                       rank_field))
        bound = min(mat.shape[1], comb(n, i - 1) * module.piece_dim(j - i + 1))
        if over_qq and ranks[key] < bound and key in exact:
            pending[key] = mat
    # a cell with mod-p homology 0 proves both of its differentials
    for i, j in cells + past:
        if ranks[(i, j)] + ranks[(i + 1, j)] == cell_dim(i, j):
            pending.pop((i, j), None)
            pending.pop((i + 1, j), None)
    for key, mat in pending.items():
        ranks[key] = code_rank(mat, QQ)

    entries = {}
    for i, j in cells:
        entries[(i, j)] = cell_dim(i, j) - ranks[(i, j)] - ranks[(i + 1, j)]
    for key, b in entries.items():
        if b < 0:
            raise AssertionError("negative homology at %s; differentials broken" % (key,))
    return BettiTable(entries)


# ---- linear syzygies and M2 -------------------------------------------


def _betti_guard(quadrics, order):
    """Check the strand next to the linear one is empty, else refuse.

    Order 1 needs no cubic generators (b_{1,3} = 0); order 2 additionally
    needs no degree-4 first syzygies (b_{2,4} = 0).  Otherwise the naive
    kernels would not be minimal Betti numbers and the caller would get a
    silently wrong count.  Both cells come from the smallest window
    holding them.
    """
    table = graded_betti(quadric_ideal_module(quadrics, 3), order, order + 2,
                         max_row=2)
    b13 = table.entry(1, 3)
    if b13 != 0:
        raise PreconditionError(
            "quadric system has %d cubic generators; linear-strand kernel "
            "would not be minimal" % b13)
    if order == 2:
        b24 = table.entry(2, 4)
        if b24 != 0:
            raise PreconditionError(
                "quadric system has %d non-linear first syzygies; second-order "
                "kernel would not be minimal" % b24)


@lru_cache(maxsize=32)
def _linear_syzygies_cached(quadrics, order, guard):
    if not quadrics:
        raise PreconditionError("empty quadric system")
    field = quadrics[0].field
    if guard:
        if ExactMatrix([g.coeffs for g in quadrics], field).rank() \
                != len(quadrics):
            raise PreconditionError("quadric basis is linearly dependent")
        _betti_guard(quadrics, order)

    if order == 1:
        # (l_i) -> sum l_i Q_i, from (V*)^q to S^3 V*
        return ideal_span(quadrics, 3).transpose() \
            .kernel_basis(primitive=True)

    # order 2: kernel of (V*)^{s1} -> (S^2 V*)^q, (m_j) -> sum m_j s_j,
    # written over the cached order-1 basis
    syz1 = _linear_syzygies_cached(quadrics, 1, False)
    n = quadrics[0].nvars
    q = len(quadrics)
    cdim2 = monomial_count(n, 2)
    # column (s, e) holds y_e * s block by block; y_e times distinct
    # variables gives distinct monomials, so each block is a scatter of
    # the block of s to the positions of y_e * y_k
    at = monomial_products(n, 1, 1)  # at[e, k]: index of y_e * y_k
    syz = syz1.codes().reshape(syz1.nrows, q, n)
    i, s, e, k = np.ix_(range(q), range(syz1.nrows), range(n), range(n))
    phi2 = np.zeros((q, cdim2, syz1.nrows, n), dtype=syz.dtype)
    phi2[i, at[e, k], s, e] = syz[s, i, k]
    ncols = syz1.nrows * n
    return ExactMatrix(kernel_rows(phi2.reshape(q * cdim2, ncols), field,
                                   primitive=True), field, ncols)


def linear_syzygies(quadrics, order, guard=True):
    """The linear first or second syzygies among independent quadric
    forms, as the ExactMatrix of their canonical basis rows: a first
    syzygy is q blocks of linear forms, one per quadric, a second syzygy
    one block per first syzygy.

    Their count is the Betti number b_{order+1, order+2} of the ideal
    generated by the quadrics; the guard refuses dependent quadrics and
    enforces the Betti-shape condition that makes that identification
    valid.
    """
    if order not in (1, 2):
        raise PreconditionError("order must be 1 or 2")
    return _linear_syzygies_cached(tuple(quadrics), order, guard)


class LinearFormMatrix:
    """Matrix whose entries are degree-1 forms (or zero) in shared variables.

    It is stored as one read-only (nvars, nrows, ncols) array whose layer
    t holds the coefficient of variable t in every entry, as the entries'
    fields.integer_codes (over QQ over the common denominator den, in
    lowest terms).  Every reading of the matrix goes through at().
    """

    __slots__ = ("coefficients", "den", "field", "alphabet")

    def __init__(self, coefficients, field, alphabet="y", den=1):
        if field.degree == 2 and field.char > modular.TABLE_MAX_PRIME:
            raise PreconditionError("no table arithmetic for GF(%d^2)"
                                    % field.char)
        coefficients = np.array(coefficients,
                                dtype=object if field == QQ else np.int64)
        g = gcd(den, *coefficients.flat) if den != 1 else 1
        coefficients //= g
        coefficients.flags.writeable = False
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "alphabet", alphabet)

    @classmethod
    def from_entries(cls, entries):
        """The matrix of rows of degree-1 forms sharing arity and field."""
        rows = [list(row) for row in entries]
        forms = [e for row in rows for e in row]
        if not forms or any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("empty or ragged LinearFormMatrix")
        first = forms[0]
        if any(e.degree != 1 or e.nvars != first.nvars
               or e.field != first.field for e in forms):
            raise ValueError("entries must be degree-1 forms sharing arity "
                             "and field")
        codes, den = integer_codes([c for e in forms for c in e.coeffs], first.field)
        return cls(np.array(codes, dtype=object).reshape(
            len(rows), -1, first.nvars).transpose(2, 0, 1),
            first.field, first.alphabet, den)

    def __setattr__(self, *args):
        raise AttributeError("LinearFormMatrix is immutable")

    nvars = property(lambda self: self.coefficients.shape[0])
    nrows = property(lambda self: self.coefficients.shape[1])
    ncols = property(lambda self: self.coefficients.shape[2])

    def at(self, points):
        """The matrix at each of k points, as a (k, nrows, ncols) array of
        codes; points is a (k, nvars) array of codes, over QQ integers,
        where the values are den times the matrix's."""
        F, flat = self.field, self.coefficients.reshape(self.nvars, -1)
        arith = modular.field_arithmetic(F)
        if arith is not None:
            values = arith.matmul(np.array(points, dtype=np.int64), flat)
        else:  # QQ, and GF(p) past the numpy core: Python ints
            values = np.array(points, dtype=object) @ flat
            if F.char:
                values = (values % F.p).astype(np.int64)
        return values.reshape(-1, self.nrows, self.ncols)

    def _scalars(self, codes, den):
        """Nested lists of the field scalars of a code array, over QQ
        divided by den."""
        if self.field != QQ:
            return codes.tolist()
        # one argument takes Fraction's fast path for an int
        decode = Fraction if den == 1 else lambda v: Fraction(v, den)
        return np.frompyfunc(decode, 1, 1)(codes).tolist()

    def evaluate_at(self, point):
        """The scalar ExactMatrix at one point."""
        if len(point) != self.nvars:
            raise PreconditionError(
                "point length %d, expected %d" % (len(point), self.nvars))
        codes, den = integer_codes(point, self.field)
        return ExactMatrix(self._scalars(self.at([codes])[0], self.den * den),
                           self.field, self.ncols)

    def rank_at(self, point):
        """The rank of the matrix at one point, taken on at() at the
        point's integer_codes: over QQ den times the point, which scales
        the matrix by a nonzero constant and leaves its rank alone."""
        if len(point) != self.nvars:
            raise PreconditionError(
                "point length %d, expected %d" % (len(point), self.nvars))
        codes, _ = integer_codes(point, self.field)
        return code_rank(self.at([codes])[0], self.field)

    def substitute(self, substituents):
        """Substitution of substituents[t] for variable t in every entry,
        the forms HomogeneousForm.substitute expands term by term: layer k
        of the image is the matrix at the substituents' z_k coefficients."""
        # a form's own substitution checks the substituents
        HomogeneousForm.zero(self.nvars, 1, self.field,
                             self.alphabet).substitute(substituents)
        codes, den = integer_codes(
            [c for g in substituents for c in g.coeffs], self.field)
        columns = np.array(codes, dtype=object).reshape(self.nvars, -1).T
        return LinearFormMatrix(self.at(columns), self.field,
                                substituents[0].alphabet, self.den * den)

    def reduce_mod_p(self, p):
        """Coefficientwise reduction of a matrix over QQ into GF(p).  den
        is in lowest terms, so p divides it just when it divides the
        denominator of some entry's coefficient."""
        if self.field != QQ:
            raise PreconditionError("reduce_mod_p expects a matrix over QQ")
        scale = GF(p).from_fraction(Fraction(1, self.den))
        return LinearFormMatrix(self.coefficients * scale % p, GF(p),
                                self.alphabet)

    @property
    def entries(self):
        """Rows of HomogeneousForm entries, read off the array."""
        return tuple(tuple(HomogeneousForm(self.nvars, 1, c, self.field,
                                           self.alphabet) for c in row)
                     for row in self._scalars(
                         self.coefficients.transpose(1, 2, 0), self.den))

    def to_json(self):
        """The entries as HomogeneousForm.to_text writes them, straight
        from the coefficient layers: the signed term text of each distinct
        code is made once, over QQ from the integers over den."""
        F, den = self.field, self.den
        terms = {}
        for c in set(self.coefficients.ravel().tolist()):
            if F != QQ:
                text = F.format_scalar(c)
            else:
                g = gcd(c, den)
                text = "%d" % (c // g) if g == den else "%d/%d" % (c // g,
                                                                  den // g)
            sign, text = ("-", text[1:]) if text[0] == "-" else ("+", text)
            terms[c] = ("" if text == "0" else sign if text == "1"
                        else sign + text + "*")
        names = ["%s%d" % (self.alphabet, t) for t in range(self.nvars)]

        def entry(coeffs):
            text = "".join([terms[c] + x for c, x in zip(coeffs, names)
                            if terms[c]])
            return text[1:] if text[:1] == "+" else text or "0"

        entries = [[entry(coeffs) for coeffs in row] for row in
                   self.coefficients.transpose(1, 2, 0).tolist()]
        return {
            "rows": self.nrows,
            "cols": self.ncols,
            "field": F.describe(),
            "entries": entries,
        }

    def __repr__(self):
        return "<LinearFormMatrix %dx%d in %d vars over %s>" % (
            self.nrows, self.ncols, self.nvars, self.field.describe())


@lru_cache(maxsize=8)
def m2_matrix(f):
    """The 35 x 21 matrix of linear second-order syzygies of I_f(2).

    Requires the apolar ideal of f to have the generic cubic Betti table;
    anything else is refused rather than silently producing a matrix of
    the wrong shape.  Columns are the canonical second-syzygy basis
    written over the canonical first-syzygy basis; the matrix itself is
    basis-dependent (the documented contract is that only its rank and
    rank-drop loci are invariants).
    """
    from .apolarity import q_f

    if f.degree != 3:
        raise PreconditionError("m2_matrix expects a cubic")
    Q = q_f(f)
    if Q.nrows != 15:
        raise PreconditionError("dim I_f(2) = %d, expected 15" % Q.nrows)
    module = apolar_quotient_module(f, 9)
    table = graded_betti(module, 6, 9, max_row=3)
    if table.nonzero() != GENERIC_CUBIC_APOLAR_BETTI:
        raise PreconditionError(
            "apolar ideal has non-generic Betti table %s" % table.nonzero())
    rows = Q.rref().codes().tolist()  # over QQ coprime integer rows
    quadrics = [HomogeneousForm(f.nvars, 2, row, f.field, "y") for row in rows]
    syz1 = linear_syzygies(quadrics, 1, guard=False)
    syz2 = linear_syzygies(quadrics, 2, guard=False)
    if syz1.nrows != 35 or syz2.nrows != 21:
        raise PreconditionError(
            "syzygy dimensions (%d, %d) off the generic (35, 21)"
            % (syz1.nrows, syz2.nrows))
    # column c of the matrix is the second syzygy c, its 35 blocks the
    # rows; the rows are already coprime integers, so den stays 1
    coefficients = syz2.codes().reshape(21, 35, f.nvars).transpose(2, 1, 0)
    return LinearFormMatrix(coefficients, f.field)
