import hashlib
import math
import random
from fractions import Fraction

import pytest

from apolarkit import catalog
from apolarkit.apolarity import PointSet, apolar_action, projective_key, q_f
from apolarkit.errors import PreconditionError, UnstableComputationError
from apolarkit.fields import GF, QQ, projective_points
from apolarkit.forms import HomogeneousForm, monomial_count, monomial_exponents
from apolarkit.linalg import ExactMatrix
from apolarkit.rankloci import (
    classify_singularity,
    interpolate_drop_curve,
    singular_points_plane_curve,
)
from apolarkit.resolutions import m2_matrix


def random_ternary_sextic(field, rng):
    n = monomial_count(3, 6)
    if field == QQ:
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
    else:
        coeffs = [field.random_element(rng) for _ in range(n)]
    return HomogeneousForm(3, 6, coeffs, field, "z")


def test_veronese_quadrics_vanish_on_veronese_points():
    quadrics = catalog.veronese_ideal_quadrics()
    assert len(quadrics) == 6
    assert all(q.degree == 2 and q.alphabet == "y" for q in quadrics)
    for a in [(1, 2, 3), (-2, 5, 7), (0, 1, -1)]:
        vp = list(catalog.veronese_point([Fraction(t) for t in a]))
        assert all(q.evaluate(vp) == 0 for q in quadrics)
    # and symbolically: composing with the parametrization gives zero
    par = [HomogeneousForm.monomial(3, w, QQ, "z")
           for w in catalog.VERONESE_WEIGHTS]
    assert all(q.compose(par).is_zero() for q in quadrics)
    with pytest.raises(PreconditionError):
        catalog.veronese_point([1, 2])


def test_discriminant_cubic_and_its_singular_locus():
    D = catalog.discriminant_cubic()
    smooth_conic = [Fraction(t) for t in (1, 0, 0, 1, 0, 1)]
    assert D.evaluate(smooth_conic) == 1
    rank2_conic = [Fraction(t) for t in (1, 0, 0, 1, 0, 0)]
    assert D.evaluate(rank2_conic) == 0
    assert any(D.derivative(i).evaluate(rank2_conic) != 0 for i in range(6))
    # double lines are exactly where the gradient dies too
    for a in [(1, 2, 3), (2, -1, 5)]:
        vp = list(catalog.veronese_point([Fraction(t) for t in a]))
        assert D.evaluate(vp) == 0
        assert all(D.derivative(i).evaluate(vp) == 0 for i in range(6))


def test_cubic_family_is_annihilated_and_linear():
    quadrics = catalog.veronese_ideal_quadrics()
    for params in [(1, -1, 1, -1, 1), (0, 0, 1, 0, 0),
                   (Fraction(1, 2), 3, -2, Fraction(5, 7), 1)]:
        f = catalog.cubic_family(*params)
        assert f.degree == 3 and f.nvars == 6
        assert all(apolar_action(q, f).is_zero() for q in quadrics)
    rng = random.Random(1)
    a = [rng.randint(-5, 5) for _ in range(5)]
    b = [rng.randint(-5, 5) for _ in range(5)]
    lhs = catalog.cubic_family(*[x + y for x, y in zip(a, b)])
    assert lhs == catalog.cubic_family(*a) + catalog.cubic_family(*b)
    f7 = catalog.cubic_family(1, -1, 1, -1, 1, field=GF(7))
    assert all(apolar_action(q, f7).is_zero()
               for q in catalog.veronese_ideal_quadrics(GF(7)))


def test_family_basis_is_independent():
    basis = [catalog.cubic_family(*[1 if i == j else 0 for i in range(5)])
             for j in range(5)]
    mat = ExactMatrix([list(g.coeffs) for g in basis], QQ)
    assert mat.rank() == 5


def test_plane_substitution_shape():
    subs = catalog.plane_substitution()
    assert len(subs) == 6
    assert all(s.nvars == 3 and s.degree == 1 for s in subs)
    mat = ExactMatrix([list(s.coeffs) for s in subs], QQ, 3)
    assert mat.rank() == 3


def test_s_map_cube_identity_and_section():
    rng = random.Random(9)
    for _ in range(5):
        a = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        if all(t == 0 for t in a):
            continue
        lin = HomogeneousForm.linear(a, QQ, "z")
        lhs = catalog.s_map(lin.power(6))
        rhs = HomogeneousForm.linear(catalog.veronese_point(a), QQ, "x").power(3)
        assert lhs == rhs
    for _ in range(3):
        g = random_ternary_sextic(QQ, rng)
        assert catalog.m_star(catalog.s_map(g)) == g


TRANSFER_FIELDS = [QQ, GF(7), GF(101), GF(7, 2), GF(13, 2)]


def random_form(nvars, degree, field, rng, alphabet):
    n = monomial_count(nvars, degree)
    if field == QQ:
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(n)]
    else:
        coeffs = [field.random_element(rng) for _ in range(n)]
    return HomogeneousForm(nvars, degree, coeffs, field, alphabet)


def m_star_substituents(field):
    """The Veronese coordinate quadrics z^(w_i), the off-diagonal ones
    doubled: m_star substitutes them into a cubic."""
    return [HomogeneousForm.monomial(3, w, field, "z").scale(
                field.from_int(2 if max(w) == 1 else 1))
            for w in catalog.VERONESE_WEIGHTS]


@pytest.mark.parametrize("F", TRANSFER_FIELDS, ids=str)
def test_m_star_is_the_doubled_veronese_substitution(F):
    # random cubics lie off the 28-dimensional image of s_map, the only
    # cubics on which the section identity m_star(s_map(g)) = g checks m_star
    rng = random.Random(21)
    quadrics = m_star_substituents(F)
    for _ in range(4):
        f = random_form(6, 3, F, rng, "x")
        assert catalog.m_star(f) == f.compose(quadrics)


@pytest.mark.parametrize("F", TRANSFER_FIELDS, ids=str)
def test_s_map_is_the_term_by_term_pairing(F):
    rng = random.Random(22)
    for _ in range(4):
        g = random_form(3, 6, F, rng, "z")
        terms = []
        for alpha in monomial_exponents(6, 3):
            gamma = [sum(a * w[t]
                         for a, w in zip(alpha, catalog.VERONESE_WEIGHTS))
                     for t in range(3)]
            weight = Fraction(math.prod(map(math.factorial, gamma)),
                              math.prod(map(math.factorial, alpha)))
            scalar = F.from_fraction(catalog.S_NORMALIZATION * weight)
            terms.append((F.mul(scalar, g.coefficient(gamma)), alpha))
        assert catalog.s_map(g) == HomogeneousForm.from_terms(6, 3, terms, F)


def test_s_map_image_is_veronese_apolar():
    rng = random.Random(12)
    quadrics = catalog.veronese_ideal_quadrics()
    for _ in range(3):
        f = catalog.s_map(random_ternary_sextic(QQ, rng))
        assert all(apolar_action(q, f).is_zero() for q in quadrics)


def test_transfer_maps_over_odd_finite_fields():
    rng = random.Random(3)
    F7 = GF(7)
    g = random_ternary_sextic(F7, rng)
    assert catalog.m_star(catalog.s_map(g)) == g
    # factorials up to 6! vanish in characteristics 2, 3 and 5
    for F in (GF(3), GF(5)):
        with pytest.raises(PreconditionError, match="characteristic"):
            catalog.s_map(random_ternary_sextic(F, rng))
        with pytest.raises(PreconditionError, match="characteristic"):
            catalog.m_star(HomogeneousForm.zero(6, 3, F))
    with pytest.raises(PreconditionError):
        catalog.s_map(HomogeneousForm.zero(3, 5, QQ, "z"))
    with pytest.raises(PreconditionError):
        catalog.m_star(HomogeneousForm.zero(3, 6, QQ, "z"))


def test_scroll_cubic_is_the_stated_power_sum():
    pts = catalog.scroll_configuration_points()
    assert len(pts) == 10
    rebuilt = HomogeneousForm.zero(6, 3, QQ, "x")
    for p in pts:
        rebuilt = rebuilt + HomogeneousForm.linear(list(p), QQ, "x").power(3)
    assert rebuilt == catalog.scroll_apolar_cubic()


def test_scroll_minors_annihilate_configuration_and_cubic():
    minors = catalog.scroll_minors()
    assert len(minors) == 6
    pts = catalog.scroll_configuration_points()
    cubic = catalog.scroll_apolar_cubic()
    for m in minors:
        assert all(m.evaluate(list(p)) == 0 for p in pts)
        assert apolar_action(m, cubic).is_zero()
    # the scroll quadrics are only part of the 15-dimensional I_f(2)
    span = ExactMatrix([list(m.coeffs) for m in minors], QQ)
    assert span.rank() == 6
    assert q_f(cubic).nrows == 15


def test_reference_betti_tables_are_frozen():
    tables = catalog.reference_betti_tables()
    assert set(tables) == {"generic-cubic", "points-9", "points-10",
                           "elliptic-sextic"}
    assert tables["generic-cubic"].entry(2, 3) == 35
    assert tables["points-9"].nonzero() == catalog.POINTS9_BETTI
    assert tables["points-10"].nonzero() == catalog.POINTS10_BETTI
    assert tables["elliptic-sextic"].entry(1, 2) == 9


def test_reference_drop_curve_shape():
    ref = catalog.reference_drop_curve_mod5()
    assert ref.nvars == 3 and ref.degree == 9
    assert ref.field == GF(5)
    assert len(ref.terms()) == 46
    lead = next(c for c in ref.coeffs if not GF(5).is_zero(c))
    assert lead == GF(5).one


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_random_power_sum_matches_the_running_sum(field):
    # f is summed as integer expansions over one common denominator; the
    # reference adds lam * l^3 one summand at a time
    for seed in range(20):
        for k in range(5, 11):
            for coplanar in (False, True):
                forms, lams, f = catalog.random_power_sum(
                    k, field, seed, coplanar=coplanar)
                running = HomogeneousForm.zero(6, 3, field, "x")
                for lam, l in zip(lams, forms):
                    running = running + l.power(3).scale(lam)
                assert f.to_text() == running.to_text()


def test_random_power_sum_redraws_forms_equal_up_to_scale():
    # seed 2 over GF(7) first draws two coplanar forms that agree up to
    # scale, which PointSet refuses; the whole draw is retried
    F = GF(7)
    forms, _, f = catalog.random_power_sum(6, F, 2, coplanar=True)
    assert len({projective_key(g.coeffs, F) for g in forms}) == 6
    assert len(PointSet([g.coeffs for g in forms], F)) == 6
    assert ExactMatrix([list(g.coeffs) for g in forms[:4]], F, 6).rank() == 3
    assert not f.is_zero()


def test_random_power_sum_options():
    forms, lams, f = catalog.random_power_sum(10, seed=5)
    assert len(forms) == 10 and len(lams) == 10 and not f.is_zero()
    forms2, lams2, f2 = catalog.random_power_sum(10, seed=5)
    assert f == f2
    cop, _, fc = catalog.random_power_sum(10, seed=5, coplanar=True)
    mat = ExactMatrix([list(l.coeffs) for l in cop[:4]], QQ, 6)
    assert mat.rank() == 3
    with pytest.raises(PreconditionError):
        catalog.random_power_sum(0)
    with pytest.raises(PreconditionError):
        catalog.random_power_sum(3, coplanar=True)


def test_random_power_sum_gives_up_after_its_draws(monkeypatch):
    # P^5(F_2) has 63 points, so 64 distinct forms are refused up front,
    # and 28 of them take about 1250 whole draws on average, above
    # POWER_SUM_EXPECTED_DRAWS (both used to redraw for long or for ever)
    with pytest.raises(PreconditionError, match="63 points"):
        catalog.random_power_sum(64, GF(2))
    with pytest.raises(PreconditionError, match=r"10\^3.1 whole draws"):
        catalog.random_power_sum(28, GF(2))
    # seed 2 over GF(7) succeeds on its third whole draw
    monkeypatch.setattr(catalog, "POWER_SUM_DRAWS", 2)
    with pytest.raises(UnstableComputationError):
        catalog.random_power_sum(6, GF(7), 2, coplanar=True)
    monkeypatch.setattr(catalog, "POWER_SUM_DRAWS", 3)
    forms, _, _ = catalog.random_power_sum(6, GF(7), 2, coplanar=True)
    assert len(forms) == 6


# sha256 of the forms, weights and cubic random_power_sum drew, one text
# per line, before it had a draw budget: each case takes hundreds of whole
# draws, and must still come out the same
LARGE_POWER_SUM_SHA256 = {
    (25, 2, 28, False):
        "88f99c2e3938e3d5fc78ecaddbbca00a52d90607b0091c27b7096783a1934a70",
    (60, 3, 4, False):
        "1ee71d73ebd680e7fa0f9c4230eabfb09eb7d4d91c53bcbbc87c96c09211029b",
    (20, 2, 18, True):
        "b2969569b8f7bbc4d95158215d32cdb6a6f9a7c0afaa857eeaadf20ba0c1dc11",
}


@pytest.mark.parametrize("case", sorted(LARGE_POWER_SUM_SHA256),
                         ids="k{0[0]}-GF({0[1]})-seed{0[2]}-coplanar{0[3]}".format)
def test_random_power_sum_keeps_draws_that_take_hundreds_of_tries(case):
    k, p, seed, coplanar = case
    F = GF(p)
    forms, lams, f = catalog.random_power_sum(k, F, seed, coplanar=coplanar)
    text = "\n".join([g.to_text() for g in forms]
                     + [F.format_scalar(v) for v in lams] + [f.to_text()])
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == LARGE_POWER_SUM_SHA256[case]


def _plane_curve_mod5(params):
    M = m2_matrix(catalog.cubic_family(*params, field=GF(5)))
    R = M.substitute(catalog.plane_substitution(GF(5)))
    return interpolate_drop_curve(R, 20)


def _proportional_over(field, a, b):
    pairs = list(zip(a.coeffs, b.coeffs))
    lead = next((i for i, (x, y) in enumerate(pairs) if not
                 (field.is_zero(x) and field.is_zero(y))), None)
    if lead is None:
        return True
    x0, y0 = pairs[lead]
    if field.is_zero(x0) != field.is_zero(y0):
        return False
    return all(field.is_zero(field.sub(field.mul(x, y0), field.mul(y, x0)))
               for x, y in pairs)


def test_stored_curve_comes_from_the_shifted_parameters():
    # the stored degree-9 curve is exactly the plane rank-drop divisor of
    # the family member (1, -2, 1, -2, 2); its unique extension-field
    # singular point sits at (0:1:0) and is an ordinary node
    curve = _plane_curve_mod5((1, -2, 1, -2, 2))
    ref = catalog.reference_drop_curve_mod5()
    assert curve == ref
    F25 = GF(5, 2)
    sing = singular_points_plane_curve(curve.lift_to(F25))
    assert sing == [(F25.zero, F25.one, F25.zero)]
    assert classify_singularity(curve.lift_to(F25), sing[0]) == "node"


def test_displayed_parameters_give_a_different_curve():
    # the member (1, -1, 1, -1, 1) has its own degree-9 divisor: same
    # degree and a nodal singular point, but the curve itself is not
    # proportional to the stored one, and no linear change of plane
    # coordinates can fix that because the rational point counts differ
    F5 = GF(5)
    curve = _plane_curve_mod5((1, -1, 1, -1, 1))
    ref = catalog.reference_drop_curve_mod5()
    assert curve.degree == 9
    assert not _proportional_over(F5, curve, ref)

    def point_count(c):
        return sum(1 for q in projective_points(c.field, 3)
                   if c.field.is_zero(c.evaluate(list(q))))

    assert point_count(curve) == 5
    assert point_count(ref) == 7
    F25 = GF(5, 2)
    assert point_count(curve.lift_to(F25)) == 29
    assert point_count(ref.lift_to(F25)) == 27
    sing = singular_points_plane_curve(curve.lift_to(F25))
    assert sing == [(F25.one, F25.zero, F25.zero)]
    assert classify_singularity(curve.lift_to(F25), sing[0]) == "node"
