"""Apolarity: differential operators acting on forms, catalecticants,
apolar ideals, point-set ideals, and the power-sum certificates.

The action is by differentiation.  A dual monomial y^b acts on primal
forms as the operator prod_i (d/dx_i)^{b_i}; this matches the convention
under which each Veronese minor annihilates the catalog's cubic family.
Because differentiation introduces factorials, every operation in this
module insists on characteristic 0 or characteristic larger than the
degree of the acted-on form.

catalecticant(f, k) is the matrix of that action on degree-k operators
(Macaulay duality; Iarrobino-Kanev, LNM 1721): f's coefficients
gathered through forms.monomial_products times forms.falling_factorials.
It is the only code that applies an operator to a form: apolar_action,
is_apolar_variety and the partial-rank scan go through it, and
is_apolar_pointset reads its one column for a cubic.  Ideal pieces
spanned by generators are built by ideal_span alone, a scatter through
the same product table, and point sets are evaluated by
forms.monomial_values at PointSet.codes, one path for every field.

Matrix orientation.  catalecticant(f, k) has one row per degree-k dual
monomial and one column per degree-(d-k) primal monomial, so the row
space of catalecticant(f, 1) is the space of first partials P(f), and
the graded piece I_f(k) of the apolar ideal is the LEFT kernel.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import PreconditionError
from .fields import QQ, integer_codes
from .forms import (DUAL_ALPHABET, HomogeneousForm, falling_factorials,
                    field_integers, monomial_count, monomial_products,
                    monomial_values, power_rows)
from .linalg import ExactMatrix, _primitive_integer_row, as_codes, code_rank


def _require_char(field, degree):
    if field.char != 0 and field.char <= degree:
        raise PreconditionError(
            "characteristic %d <= degree %d collides with factorials"
            % (field.char, degree))


def projective_key(point, field):
    """Equal for two nonzero vectors just when they agree up to a nonzero
    scalar: over QQ the primitive integer row with a positive leading
    entry, otherwise the vector scaled to lead with 1."""
    if field == QQ:
        row = _primitive_integer_row(point)
        return row if next(c for c in row if c) > 0 else tuple(-c for c in row)
    inv = field.inv(next(c for c in point if not field.is_zero(c)))
    return tuple(field.mul(inv, c) for c in point)


class PointSet:
    """A list of projective points with exact coordinates, read-only once
    built.

    Points are stored as given; codes, the read-only array every
    evaluation reads, holds them over QQ scaled to coprime integers
    (which leaves kernels, spans and ranks alone), otherwise as given.
    Over GF(p^2) each coordinate must be a code in range(p*p).  Reduced
    sets refuse duplicates up to scale; pass allow_duplicates=True to
    model a multiset, in which case the reduced-scheme operations refuse
    it.

    Each power-sum certificate keeps its own data about the points,
    computed on first use and held on the instance, so testing one set
    against several cubics builds it once: cubic_ideal_basis for
    is_apolar_pointset and cube_span for cube_span_contains.  The set
    cannot change after __init__, so neither goes stale.
    """

    def __init__(self, points, field=QQ, allow_duplicates=False):
        pts = [tuple(p) for p in points]
        if not pts:
            raise PreconditionError("empty point set")
        n = len(pts[0])
        for p in pts:
            if len(p) != n:
                raise PreconditionError("points of unequal length")
            if field.degree == 2 and any(c not in field.elements() for c in p):
                raise PreconditionError(
                    "%s coordinates are codes in range(%d): %r"
                    % (field.describe(), field.p * field.p, p))
            if all(field.is_zero(c) for c in p):
                raise PreconditionError("zero vector is not a projective point")
        object.__setattr__(self, "points", tuple(pts))
        codes = np.array([_primitive_integer_row(p) for p in pts]
                         if field == QQ else pts, dtype=object)
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "nvars", n)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "allow_duplicates", allow_duplicates)
        if not allow_duplicates:
            seen = set()
            for p in pts:
                key = projective_key(p, field)
                if key in seen:
                    raise PreconditionError(
                        "duplicate point up to scale: %r" % (p,))
                seen.add(key)

    def __setattr__(self, *args):
        raise AttributeError("PointSet is immutable")

    @functools.cached_property
    def cubic_ideal_basis(self):
        """I_Z(3) as primitive integer rows over QQ (canonical rows over a
        finite field): the left side of is_apolar_pointset's product."""
        return evaluation_matrix(self, 3).kernel_basis(primitive=True)

    @functools.cached_property
    def cube_span(self):
        """(the rows l^3 for [l] in Z as one code array, their rank), the
        span cube_span_contains tests a cubic against.  All k cubes are
        expanded in one power_rows call at the codes; the array follows
        ExactMatrix.codes' rule."""
        F = self.field
        cubes = as_codes(power_rows(self.codes, 3, F), F)
        return cubes, code_rank(cubes, F)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __repr__(self):
        return "<PointSet %d points in P^%d over %s>" % (
            len(self.points), self.nvars - 1, self.field.describe())


def apolar_action(D, f):
    """Apply the dual form D (degree k) to f (degree d >= k).

    Returns the degree d-k form D(f), the combination of the rows of
    catalecticant(f, k) with the coefficients of D.  Bilinear, and a ring
    action: (D1*D2)(f) = D1(D2(f)).
    """
    if D.nvars != f.nvars or D.field != f.field:
        raise PreconditionError("operator and form must share arity and field")
    if D.degree > f.degree:
        raise PreconditionError("operator degree %d exceeds form degree %d"
                                % (D.degree, f.degree))
    image = ExactMatrix([D.coeffs], f.field).matmul(
        catalecticant(f, D.degree))
    return HomogeneousForm(f.nvars, f.degree - D.degree, image.rows[0],
                           f.field, DUAL_ALPHABET[D.alphabet])


def catalecticant(f, k):
    """Matrix of D -> D(f) from degree-k dual forms to degree-(d-k) forms.

    Rows follow the degree-k dual monomials, columns the degree-(d-k)
    primal monomials, both in graded-lex descending order.
    """
    if k < 0 or k > f.degree:
        raise PreconditionError("catalecticant degree k=%d out of range" % k)
    _require_char(f.field, f.degree)
    F, n, m = f.field, f.nvars, f.degree - k
    # entry [b, g] is c_(b+g) (b+g)!/g!, as y^b takes x^(b+g) to x^g
    cat = F.mul(np.array(f.coeffs, dtype=object)[monomial_products(n, k, m)],
                field_integers(falling_factorials(n, k, m), F))
    return ExactMatrix(cat.tolist(), F, cat.shape[1])


def _annihilates(operators, f, k):
    """Does every row of operators, read as a degree-k dual form, kill f?"""
    product = operators.matmul(catalecticant(f, k))
    return all(f.field.is_zero(v) for row in product.rows for v in row)


def apolar_ideal_component(f, k):
    """The graded piece I_f(k) of the apolar ideal, 0 <= k <= deg f, as
    the canonical basis rows of the left kernel of catalecticant(f, k),
    one column per degree-k dual monomial."""
    return catalecticant(f, k).transpose().kernel_basis()


def q_f(f):
    """Q_f = I_f(2), the quadrics apolar to f, as basis rows."""
    return apolar_ideal_component(f, 2)


def evaluation_matrix(Z, k):
    """One row per point of Z, one column per degree-k dual monomial:
    monomial_values at Z.codes (see PointSet), as Python scalars, under
    the field's mul."""
    F = Z.field
    values = monomial_values(Z.codes, k, F.mul)
    return ExactMatrix(values.tolist(), F, values.shape[1])


def ideal_of_points_component(Z, k):
    """I_Z(k): degree-k dual forms vanishing at every point of Z, as
    canonical basis rows."""
    if Z.allow_duplicates:
        raise PreconditionError("ideal of a non-reduced point multiset")
    return evaluation_matrix(Z, k).kernel_basis()


def _require_cubic_on(Z, f):
    if f.degree != 3:
        raise PreconditionError("point-set certificates are for cubics")
    if Z.nvars != f.nvars or Z.field != f.field:
        raise PreconditionError("point set and form must share arity and field")


def is_apolar_pointset(Z, f):
    """Is the reduced point set Z apolar to the cubic f?

    Tests I_Z(3) inside I_f(3): the basis of I_Z(3) times
    catalecticant(f, 3) must vanish.  Containment in degree 3 forces
    containment in degrees 1 and 2 as well: if D has degree 2 and y_i*D
    kills f for every i, the partials of the linear form D(f) all vanish,
    so D(f) = 0.  Hence the single degree suffices for a cubic.  That
    catalecticant is one column, c_b * b! (b! from falling_factorials),
    read off f's integer_codes (over QQ a nonzero multiple) and dotted
    with each row of Z.cubic_ideal_basis, built on Z's first test.
    """
    _require_cubic_on(Z, f)
    if Z.allow_duplicates:
        raise PreconditionError("ideal of a non-reduced point multiset")
    F = f.field
    _require_char(F, 3)
    coeffs, _ = integer_codes(f.coeffs, F)
    factorials = field_integers(falling_factorials(f.nvars, 3, 0)[:, 0], F)
    column = list(map(F.mul, coeffs, factorials))
    # the basis rows are sparse; 0 is the zero code of every field
    return all(F.is_zero(functools.reduce(
        F.add, [F.mul(a, c) for a, c in zip(v, column) if a], 0))
        for v in Z.cubic_ideal_basis.rows)


def cube_span_contains(Z, f):
    """Independent certificate: does the cubic f lie in the span of the
    cubes l^3, [l] in Z?

    Compares the rank of the cubes with f appended against the rank of
    the cubes alone.  The cubes and their rank are Z.cube_span, built on
    Z's first test; only f's codes are stacked under them and ranked anew
    for each f.  Used to cross-check is_apolar_pointset; the two
    implementations share no linear algebra beyond the rank core.
    """
    _require_cubic_on(Z, f)
    cubes, rank = Z.cube_span
    stack = np.concatenate([cubes, ExactMatrix([f.coeffs], Z.field).codes()])
    return code_rank(stack, Z.field) == rank


def ideal_span(generators, degree):
    """Rows spanning the given degree of the ideal the generators generate.

    One row g*m for each generator g of degree at most `degree` and each
    monomial m of the complementary degree; generators form the outer
    loop and monomials run in lex order.  The rows need not be
    independent.
    """
    if not generators:
        raise PreconditionError("no generators")
    nvars = generators[0].nvars
    field = generators[0].field
    for g in generators:
        if g.nvars != nvars or g.field != field:
            raise PreconditionError("generators must share arity and field")
    width = monomial_count(nvars, degree)
    rows = []
    for g in generators:
        if g.degree > degree:
            continue
        # row e holds each c_a of g at the index of a + e
        at = monomial_products(nvars, g.degree, degree - g.degree).T
        block = np.full((len(at), width), field.zero, dtype=object)
        np.put_along_axis(block, at, np.array([g.coeffs], dtype=object), 1)
        rows += block.tolist()
    return ExactMatrix(rows, field, width)


def is_apolar_variety(ideal_generators, f):
    """Does the variety cut out by the generators admit f as apolar form?

    Checks that the degree-2 and degree-3 pieces spanned by the generators
    annihilate f, which for a cubic is the whole containment I_X inside
    I_f (higher pieces of I_f are everything).
    """
    if f.degree != 3:
        raise PreconditionError("apolar-variety certificate is for cubics")
    for g in ideal_generators:
        if g.degree > 3:
            raise PreconditionError("generator degree %d > 3" % g.degree)
    return all(_annihilates(ideal_span(ideal_generators, d), f, d)
               for d in (2, 3))


def min_partial_rank_scan(f):
    """Minimum rank of the quadric d_u(f) over all u in P^{n-1}(F_p).

    Exhaustive by construction, so f must live over a small prime field;
    the guard admits 5 <= p <= 11 (p > 3 keeps the cubic's factorials
    invertible, p <= 11 keeps the scan at most (11^6-1)/10 = 177,156
    points).  The points are ranked in stacks of at most
    modular.CHUNK_ENTRIES entries, so memory stays bounded.
    """
    from . import modular
    from .fields import projective_points
    from .resolutions import LinearFormMatrix

    if f.degree != 3:
        raise PreconditionError("partial-rank scan is for cubics")
    p = f.field.char
    if p == 0 or f.field.degree != 1:
        raise PreconditionError("scan needs a prime field")
    if p < 5 or p > 11:
        raise PreconditionError("scan guard: need 5 <= p <= 11, got %d" % p)
    n = f.nvars
    # the Hessian of d_u f, linear in u: layer i holds the second partials
    # of d_i f, which are its degree-1 action
    hessian = LinearFormMatrix(
        [catalecticant(f.derivative(i), 1).rows for i in range(n)], f.field,
        DUAL_ALPHABET[f.alphabet])
    best = n + 1
    for chunk in modular.chunked(projective_points(f.field, n), n * n):
        best = min(best, int(modular.rank_mod_p(hessian.at(chunk), p).min()))
        if best == 0:
            break
    return best


def exists_cubic_singular_along(Z):
    """Is there a nonzero dual cubic singular at every point of Z?

    Stacks the gradient-evaluation conditions (n per point) on the
    coefficient space of dual cubics; Euler's relation makes the value
    condition redundant in characteristic coprime to 3.  d/dy_i takes
    y_i y^g to (g_i + 1) y^g: the (1, 2) tables scatter the degree-2
    monomial_values at Z.codes (see PointSet), which leave the rank alone.
    """
    F, n = Z.field, Z.nvars
    _require_char(F, 3)
    width = monomial_count(n, 3)
    gradients = F.mul(monomial_values(Z.codes, 2, F.mul)[:, None, :],
                      field_integers(falling_factorials(n, 1, 2), F))
    rows = np.zeros((len(Z), n, width), dtype=object)  # every field's 0
    np.put_along_axis(rows, monomial_products(n, 1, 2)[None], gradients, 2)
    return code_rank(as_codes(rows.reshape(-1, width), F), F) < width
