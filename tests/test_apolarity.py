import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from apolarkit import apolarity, catalog
from apolarkit.apolarity import (
    PointSet,
    apolar_action,
    apolar_ideal_component,
    catalecticant,
    cube_span_contains,
    evaluation_matrix,
    exists_cubic_singular_along,
    ideal_of_points_component,
    ideal_span,
    is_apolar_pointset,
    is_apolar_variety,
    min_partial_rank_scan,
    projective_key,
    q_f,
)
from apolarkit.cli import random_rational_points
from apolarkit.errors import PreconditionError
from apolarkit.fields import GF, QQ
from apolarkit.forms import (HomogeneousForm, monomial_count,
                             monomial_exponents, parse_form)
from apolarkit.linalg import ExactMatrix, _primitive_integer_row


def _random_linear(rng, spread=5):
    while True:
        coeffs = [Fraction(rng.randint(-spread, spread)) for _ in range(6)]
        if any(coeffs):
            return HomogeneousForm.linear(coeffs, QQ, "x")


def test_action_on_cube_of_linear_form():
    # q acting on l^3 equals 6 * q(l) * l, for any dual quadric q
    rng = random.Random(1)
    for _ in range(10):
        l = _random_linear(rng)
        q = HomogeneousForm(6, 2,
                            [Fraction(rng.randint(-4, 4)) for _ in range(21)],
                            QQ, "y")
        got = apolar_action(q, l.power(3))
        want = l.scale(6 * q.evaluate(list(l.coeffs)))
        assert got == want


def test_action_degree_and_alphabet_bookkeeping():
    f = parse_form("x0^2*x1")
    d = parse_form("y0", alphabet="y")
    g = apolar_action(d, f)
    assert g.degree == 2
    assert g.alphabet == "x"
    assert g == parse_form("2*x0*x1")
    # the action flips alphabets, so primal operators give dual output
    assert apolar_action(parse_form("x0"), f).alphabet == "y"
    with pytest.raises(PreconditionError):
        apolar_action(parse_form("y0^2*y1", alphabet="y"), parse_form("x0*x1"))


def test_pairing_diagonalizes_monomials():
    # in equal degrees the action is the scalar pairing
    f = parse_form("x0^3")
    assert apolar_action(parse_form("y0^3", alphabet="y"), f).coeffs == (6,)
    assert apolar_action(parse_form("y0^2*y1", alphabet="y"), f).coeffs == (0,)


def _random_form(rng, field, degree, alphabet):
    n = monomial_count(6, degree)
    if field == QQ:
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(n)]
    else:
        coeffs = [field.random_element(rng) for _ in range(n)]
    return HomogeneousForm(6, degree, coeffs, field, alphabet)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_action_matches_iterated_derivatives(field):
    # D(f) = sum over the terms c*y^b of D of c * prod_i (d/dx_i)^{b_i} f
    rng = random.Random(6)
    for _ in range(12):
        d = rng.randint(0, 3)
        k = rng.randint(0, d)
        f = _random_form(rng, field, d, "x")
        D = _random_form(rng, field, k, "y")
        want = HomogeneousForm.zero(6, d - k, field, "x")
        for c, b in D.terms():
            g = f
            for i, bi in enumerate(b):
                for _ in range(bi):
                    g = g.derivative(i)
            want = want + g.scale(c)
        assert apolar_action(D, f) == want


def test_fermat_catalecticant_profile():
    f = catalog.fermat_cubic()
    ranks = [catalecticant(f, k).rank() for k in range(4)]
    assert ranks == [1, 6, 6, 1]
    assert apolar_ideal_component(f, 2).nrows == 15
    assert q_f(f).nrows == 15
    with pytest.raises(PreconditionError, match="out of range"):
        apolar_ideal_component(f, 4)


def test_apolar_ideal_annihilates():
    f = catalog.cubic_family(1, -1, 1, -1, 1)
    for k in (1, 2, 3):
        for row in apolar_ideal_component(f, k).rows:
            g = HomogeneousForm(6, k, row, QQ, "y")
            assert apolar_action(g, f).is_zero()


def test_quadric_symmetric_matrix_represents_the_form():
    rng = random.Random(4)
    q = HomogeneousForm(6, 2,
                        [Fraction(rng.randint(-5, 5)) for _ in range(21)],
                        QQ, "x")
    A = catalecticant(q, 1)
    # A is the matrix of second partials, so v^T A v doubles the form
    assert A == A.transpose()
    for _ in range(5):
        v = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
        quad = sum(A.entry(i, j) * v[i] * v[j]
                   for i in range(6) for j in range(6))
        assert quad == 2 * q.evaluate(v)


def test_pointset_rejects_projective_duplicates():
    with pytest.raises(PreconditionError):
        PointSet([(1, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0)], QQ)
    Z = PointSet([(1, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0)], QQ,
                 allow_duplicates=True)
    assert len(Z) == 2


def test_pointset_refuses_gf_p2_coordinates_outside_the_codes():
    # -1 is no code of GF(25): read as one it is 4 + 4w, not 4
    F = GF(5, 2)
    for points in ([(-1, 1, 0), (0, 1, 3)], [(1, 0, 0), (0, 1, 30)],
                   [(1, 0, 0), (0, 1, 25)]):
        with pytest.raises(PreconditionError):
            PointSet(points, F)
    assert PointSet([(4, 1, 0), (0, 1, 24)], F).points == ((4, 1, 0), (0, 1, 24))
    # over GF(p) every op reduces mod p, so a negative int is an element
    Z = PointSet([(-1, 1, 0), (0, 1, 30)], GF(5))
    assert projective_key(Z.points[0], Z.field) == (1, 4, 0)


def test_projective_key_over_qq_is_an_integer_row():
    # the primitive integer row with a positive leading entry: no Fraction
    # is made, and a nonzero scalar such as -3/7 does not move it
    v = [Fraction(2, 3), Fraction(-4), Fraction(0), Fraction(1, 5),
         Fraction(6), Fraction(-1)]
    key = projective_key(v, QQ)
    assert key == (10, -60, 0, 3, 90, -15)
    assert all(type(c) is int for c in key)
    assert projective_key([Fraction(-3, 7) * c for c in v], QQ) == key
    w = list(v)
    w[2] = Fraction(1)
    assert projective_key(w, QQ) != key


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=repr)
def test_pointset_keeps_its_certificate_data(field):
    # each cached value equals a fresh computation, is computed once and
    # cannot be replaced; the points cannot be replaced either
    forms, _, _ = catalog.random_power_sum(6, field, seed=3)
    Z = PointSet([g.coeffs for g in forms], field)
    basis = Z.cubic_ideal_basis
    assert basis == evaluation_matrix(Z, 3).kernel_basis(primitive=True)
    assert basis.nrows == 56 - 6
    # the held rows are the cubes as int64 codes, over QQ at the points
    # scaled to coprime integers: their primitive rows are the cubes'
    cubes = ExactMatrix([g.power(3).coeffs for g in forms], field, 56)
    held, rank = Z.cube_span
    assert held.dtype == np.int64 and held.shape == (6, 56)
    assert np.array_equal(ExactMatrix(held.tolist(), field, 56).codes(),
                          cubes.codes())
    assert rank == cubes.rank() == 6
    assert Z.cube_span[0] is held
    assert Z.cubic_ideal_basis is basis
    # the codes every evaluation reads are built once and read-only
    assert Z.codes.shape == (6, 6) and not Z.codes.flags.writeable
    for name in ("points", "field", "codes", "cubic_ideal_basis",
                 "cube_span"):
        with pytest.raises(AttributeError):
            setattr(Z, name, None)


@pytest.mark.parametrize("case", ["other-field", "other-arity", "quadric"])
def test_point_set_certificates_refuse_a_mismatched_form(case):
    # both certificates refuse a form they cannot compare with Z, where
    # cube_span_contains used to answer True or raise "ragged rows"
    forms, _, f = catalog.random_power_sum(5, QQ, seed=4)
    Z = PointSet([g.coeffs for g in forms], QQ)
    other = {
        "other-field": f.reduce_mod_p(7),
        "other-arity": HomogeneousForm.linear(
            [Fraction(c) for c in (1, 2, 3, 4, 5)], QQ).power(3),
        "quadric": parse_form("x0^2+x1*x5"),
    }[case]
    for certificate in (cube_span_contains, is_apolar_pointset):
        with pytest.raises(PreconditionError):
            certificate(Z, other)
    assert cube_span_contains(Z, f) and is_apolar_pointset(Z, f)


def test_point_set_certificates_agree_beyond_int64():
    # 40-bit coordinates make 120-bit cubes: the cube span is held as
    # Python-int codes, f's codes are stacked under it, and both routes
    # still agree on f and on f + l^3
    rng = random.Random(11)
    big = 1 << 40
    forms = [HomogeneousForm.linear(
        [Fraction(rng.randint(-big, big)) for _ in range(6)], QQ)
        for _ in range(6)]
    lams = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in forms]
    f = HomogeneousForm.power_sum(lams, forms, 3)
    bad = f + HomogeneousForm.linear(
        [Fraction(c) for c in (1, -2, 3, 1, 5, -1)], QQ).power(3)
    Z = PointSet([g.coeffs for g in forms], QQ)
    for g, inside in ((f, True), (bad, False)):
        assert cube_span_contains(Z, g) is inside
        assert is_apolar_pointset(Z, g) is inside
    cubes, rank = Z.cube_span
    assert cubes.dtype == object and rank == 6
    assert max(abs(c) for c in cubes.flat) >= 1 << 63


def test_points_ideal_dimensions():
    Z = PointSet(random_rational_points(9, seed=0), QQ)
    # 9 generic points impose independent conditions on quadrics and cubics
    assert evaluation_matrix(Z, 2).rank() == 9
    assert ideal_of_points_component(Z, 2).nrows == 21 - 9
    assert ideal_of_points_component(Z, 3).nrows == 56 - 9
    assert evaluation_matrix(Z, 3).rank() == 9


@pytest.mark.parametrize("field", [QQ, GF(7), GF(5, 2), GF(13, 2),
                                   GF(2147483659)], ids=repr)
def test_evaluation_matrix_matches_pointwise_products(field):
    # each entry is the product of the coordinates' powers under
    # field.mul, over QQ at the point scaled to coprime integers
    rng = random.Random(7)
    for nvars in (3, 6):
        points = [[field.random_element(rng) for _ in range(nvars)]
                  for _ in range(5)]
        if field == QQ:
            points = [[c / rng.randint(1, 4) for c in pt] for pt in points]
        points[0][0], points[0][-1] = field.zero, field.from_int(-1)
        for pt in points:
            pt[1] = field.one  # no zero point
        Z = PointSet(points, field, allow_duplicates=True)
        for k in range(5):
            rows = []
            for pt in points:
                if field == QQ:
                    pt = _primitive_integer_row(pt)
                row = []
                for e in monomial_exponents(nvars, k):
                    value = field.one
                    for c, ei in zip(pt, e):
                        for _ in range(ei):
                            value = field.mul(value, c)
                    row.append(value)
                rows.append(row)
            assert evaluation_matrix(Z, k) \
                == ExactMatrix(rows, field, monomial_count(nvars, k))


def test_dual_route_apolarity_positive_and_negative():
    for seed in range(5):
        forms, lams, f = catalog.random_power_sum(8, QQ, seed=seed)
        Z = PointSet([g.coeffs for g in forms], QQ)
        assert is_apolar_pointset(Z, f)
        assert cube_span_contains(Z, f)
        rng = random.Random(1000 + seed)
        g = f + _random_linear(rng).power(3)
        assert is_apolar_pointset(Z, g) == cube_span_contains(Z, g)
        assert not cube_span_contains(Z, g)


@pytest.mark.parametrize("field", [QQ, GF(101), GF(5, 2), GF(13, 2),
                                   GF(2147483659)], ids=repr)
def test_is_apolar_pointset_reads_the_catalecticant_column(field,
                                                           monkeypatch):
    # one path for every field, GF(13^2) and GF(2147483659) with no numpy
    # arithmetic among them: f's column c_b * b! dotted with I_Z(3) gives
    # the answer of the full catalecticant product, which it never builds
    forms, _, f = catalog.random_power_sum(7, field, seed=2)
    Z = PointSet([g.coeffs for g in forms], field)
    rng = random.Random(5)
    l = HomogeneousForm.linear(
        [field.random_element(rng, nonzero=True) for _ in range(6)], field)
    g = f + l.power(3)
    expected = [apolarity._annihilates(Z.cubic_ideal_basis, h, 3)
                for h in (f, g)]
    assert expected == [True, False]

    def refuse(*args):
        raise AssertionError("catalecticant built")

    monkeypatch.setattr(apolarity, "catalecticant", refuse)
    assert [is_apolar_pointset(Z, h) for h in (f, g)] == expected


def test_is_apolar_pointset_refuses_characteristic_three():
    # b! = 6 vanishes mod 3, as catalecticant(f, 3) refuses it
    forms, _, f = catalog.random_power_sum(5, GF(3), seed=0)
    Z = PointSet([g.coeffs for g in forms], GF(3))
    with pytest.raises(PreconditionError, match="characteristic 3"):
        is_apolar_pointset(Z, f)


def test_graded_pieces_match_veronese_resolution():
    # the Veronese ideal has 6 quadric generators and 8 linear syzygies,
    # so its cubic piece has dimension 6*6 - 8 = 28
    quadrics = catalog.veronese_ideal_quadrics()
    assert ideal_span(quadrics, 2).rank() == 6
    assert ideal_span(quadrics, 3).rank() == 28
    assert ideal_span(quadrics, 1).nrows == 0
    # one row per generator and monomial, generators outermost
    cubics = ideal_span(quadrics, 3)
    assert cubics.nrows == 36
    y0 = HomogeneousForm.variable(6, 0, QQ, "y")
    assert cubics.rows[0] == quadrics[0].multiply(y0).coeffs
    with pytest.raises(PreconditionError):
        ideal_span([], 2)
    with pytest.raises(PreconditionError):
        ideal_span([quadrics[0], quadrics[1].reduce_mod_p(7)], 2)


def test_apolar_variety_positive_and_negative():
    minors = catalog.scroll_minors()
    assert is_apolar_variety(minors, catalog.scroll_apolar_cubic())
    assert not is_apolar_variety(minors, catalog.fermat_cubic())
    with pytest.raises(PreconditionError):
        is_apolar_variety([], catalog.fermat_cubic())


def test_min_partial_rank_scan_oracles():
    assert min_partial_rank_scan(catalog.fermat_cubic(GF(5))) == 1
    with pytest.raises(PreconditionError):
        min_partial_rank_scan(catalog.fermat_cubic())
    with pytest.raises(PreconditionError):
        min_partial_rank_scan(catalog.fermat_cubic(GF(13)))


def test_min_partial_rank_scan_memory_stays_bounded():
    # 19,608 points of P^5(F_7), ranked in bounded stacks: traced peak
    # 1.5 MB, against 29.7 MB for one stack of every point; p = 11, which
    # the guard admits, has 177,156 points
    f = catalog.cubic_family(1, -1, 1, -1, 1, field=GF(7))
    tracemalloc.start()
    try:
        best = min_partial_rank_scan(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert best == 3
    assert peak < 4 * 2 ** 20


def test_exists_cubic_singular_along_dimension_count():
    nine = PointSet(random_rational_points(9, seed=1), QQ)
    ten = PointSet(random_rational_points(10, seed=1), QQ)
    assert exists_cubic_singular_along(nine)
    assert not exists_cubic_singular_along(ten)
    three = PointSet([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                      (0, 0, 1, 0, 0, 0)], QQ)
    assert exists_cubic_singular_along(three)
    # the same points, scaled to integers and reduced mod a large prime
    F = GF(10007)
    reduced = [[F.from_int(c) for c in _primitive_integer_row(p)]
               for p in random_rational_points(10, seed=1)]
    assert exists_cubic_singular_along(PointSet(reduced[:9], F))
    assert not exists_cubic_singular_along(PointSet(reduced, F))


def test_ten_veronese_points_still_admit_a_singular_cubic():
    # the determinant of the net of quadrics is singular along the whole
    # image surface, so the generic dimension count does not apply here
    rng = random.Random(3)
    points, seen = [], set()
    while len(points) < 10:
        a = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        if not any(a):
            continue
        p = catalog.veronese_point(a)
        lead = next(c for c in p if c)
        key = tuple(c / lead for c in p)
        if key in seen:
            continue
        seen.add(key)
        points.append(p)
    assert exists_cubic_singular_along(PointSet(points, QQ))
