import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolarkit import catalog
from apolarkit.errors import ParseError, PreconditionError
from apolarkit.fields import GF, QQ
from apolarkit.forms import (
    HomogeneousForm,
    monomial_count,
    monomial_exponents,
    parse_form,
)


def test_monomial_bookkeeping():
    assert monomial_count(6, 2) == 21
    assert monomial_count(6, 3) == 56
    assert monomial_count(3, 9) == 55
    exps = monomial_exponents(3, 2)
    assert len(exps) == 6
    assert all(sum(e) == 2 for e in exps)
    assert len(set(exps)) == 6


def test_alphabets_fix_the_variable_count():
    assert parse_form("x0^2-x1^2").nvars == 6
    assert parse_form("y0*y5").nvars == 6
    assert parse_form("z0*z2").nvars == 3
    with pytest.raises(ParseError):
        parse_form("z0*z5")  # z alphabet stops at z2


def test_constructors_and_text():
    x0 = HomogeneousForm.variable(6, 0)
    x1 = HomogeneousForm.variable(6, 1)
    f = (x0 + x1) * (x0 - x1)
    assert f.to_text() == "x0^2-x1^2"
    assert parse_form("x0^2-x1^2") == f
    z = HomogeneousForm.zero(6, 2)
    assert z.is_zero()
    assert (f - f) == z


def test_parse_error_paths():
    with pytest.raises(ParseError):
        parse_form("x0^2 + ?")
    with pytest.raises(ParseError):
        parse_form("")
    with pytest.raises(ParseError):
        parse_form("x0^2+x1")  # inhomogeneous
    with pytest.raises(ParseError):
        parse_form("x0*y1")  # mixed alphabets
    assert parse_form("0", degree=2, alphabet="x").is_zero()
    assert parse_form("7").degree == 0  # bare constants are degree 0


@st.composite
def random_ternary_forms(draw):
    degree = draw(st.integers(1, 3))
    count = monomial_count(3, degree)
    coeffs = draw(st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=7),
        min_size=count, max_size=count))
    return HomogeneousForm(3, degree, [Fraction(c) for c in coeffs], QQ, "z")


@given(random_ternary_forms())
@settings(max_examples=60, deadline=None)
def test_text_round_trip(f):
    text = f.to_text()
    back = parse_form(text, alphabet="z", degree=f.degree)
    assert back == f
    assert back.to_text() == text


@given(random_ternary_forms())
@settings(max_examples=40, deadline=None)
def test_euler_identity(f):
    total = HomogeneousForm.zero(3, f.degree, QQ, "z")
    for i in range(3):
        zi = HomogeneousForm.variable(3, i, QQ, "z")
        total = total + zi * f.derivative(i)
    assert total == f.scale(Fraction(f.degree))


@given(random_ternary_forms(), random_ternary_forms())
@settings(max_examples=30, deadline=None)
def test_multiplication_commutes_with_evaluation(f, g):
    rng = random.Random(7)
    pt = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
    assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)


def test_substitution_matches_pointwise_composition():
    rng = random.Random(3)
    f = parse_form("2*z0^3-z1^2*z2+z0*z1*z2")
    subs = [HomogeneousForm.linear(
        [Fraction(rng.randint(-4, 4)) for _ in range(3)], QQ, "z")
        for _ in range(3)]
    g = f.substitute(subs)
    for _ in range(10):
        q = [Fraction(rng.randint(-6, 6)) for _ in range(3)]
        assert g.evaluate(q) == f.evaluate([s.evaluate(q) for s in subs])


def test_power_matches_repeated_multiplication():
    l = parse_form("z0+2*z1-z2")
    assert l.power(3) == l * l * l
    assert l.power(1) == l


def _repeated_product(f, n):
    out = HomogeneousForm.monomial(f.nvars, (0,) * f.nvars, f.field,
                                   f.alphabet)
    for _ in range(n):
        out = out.multiply(f)
    return out


POWER_CASES = {
    "QQ": (QQ, [Fraction(1, 2), 0, Fraction(-3, 4), 5, 0, Fraction(7, 3)]),
    "QQ-ints": (QQ, [1, -2, 0, 3, 0, 0]),
    "GF(7)": (GF(7), [3, 0, 6, 9, 0, 2]),
    # codes a + 5*b of a + b*w: 1+2w, 0, 3, 4+4w, w, 2+3w
    "GF(25)": (GF(5, 2), [11, 0, 3, 24, 5, 17]),
}


@pytest.mark.parametrize("name", sorted(POWER_CASES))
@pytest.mark.parametrize("n", [0, 1, 2, 3, 6])
def test_multinomial_power_matches_repeated_multiply(name, n):
    # zero coefficients, fractions over QQ and an unreduced GF(7) entry
    field, coeffs = POWER_CASES[name]
    l = HomogeneousForm.linear(coeffs, field, "x")
    got, want = l.power(n), _repeated_product(l, n)
    assert got == want
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
    assert got.to_text() == want.to_text()


def test_power_of_a_quadratic_form_multiplies(monkeypatch):
    q = parse_form("x0^2-1/2*x1*x5+3*x4^2")
    calls = []
    real = HomogeneousForm.multiply

    def counting(self, other):
        calls.append(other.degree)
        return real(self, other)

    monkeypatch.setattr(HomogeneousForm, "multiply", counting)
    cube = q.power(3)
    assert calls == [2, 2, 2]
    assert cube == q * q * q and cube.to_text() == (q * q * q).to_text()


def test_reduce_and_lift_between_fields():
    f = parse_form("3*z0^2-7*z0*z1+z1^2")
    g = f.reduce_mod_p(5)
    assert g.field == GF(5)
    assert g == parse_form("3*z0^2+3*z0*z1+z1^2", GF(5))
    h = g.lift_to(GF(5, 2))
    assert h.field == GF(5, 2)
    assert h.coefficient((1, 1, 0)) == 3


def test_quadratic_field_parses_rational_text():
    # rational text lands in F_p, as a code below p; the (a+b*w) form that
    # format_scalar prints is not read
    F = GF(5, 2)
    assert [F.parse_scalar(t) for t in ("3", "-1", "1/2", "7")] == [3, 4, 3, 2]
    for text in ("w", "(1+2*w)", "1/0"):
        with pytest.raises(ParseError):
            F.parse_scalar(text)
    assert parse_form("x0+2*x1", F) == parse_form("x0+2*x1", GF(5)).lift_to(F)
    family = catalog.cubic_family(1, -1, 1, -1, 1, field=F)
    assert family == catalog.cubic_family(1, -1, 1, -1, 1, field=GF(5)).lift_to(F)


def test_finite_field_round_trip():
    F = GF(11)
    f = parse_form("10*z0^2+z0*z1+6*z1^2", F)
    assert parse_form(f.to_text(), F) == f


def test_gf_p2_form_refuses_coefficients_outside_the_codes():
    # as PointSet does: -1 is no code of GF(25), and 30 would print as
    # (0+6*w)
    F = GF(5, 2)
    for coeffs in ([30, -1, 0], [25, 0, 0], [0, 0, -1],
                   [Fraction(1, 2), 0, 0]):
        with pytest.raises(PreconditionError):
            HomogeneousForm(3, 1, coeffs, F)
    assert HomogeneousForm(3, 1, [3, 24, 0], F).to_text() == "3*x0+(4+4*w)*x1"
    # over GF(p) every op reduces mod p, so any int is an element
    assert HomogeneousForm(3, 1, [30, -1, 0], GF(5)).to_text() == "4*x1"
