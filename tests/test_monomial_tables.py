"""The two monomial tables of forms.py against exponent arithmetic, and
every site that reads them against a term-by-term loop over exponent
vectors kept here as the reference."""

import math
import random

import pytest

from apolarkit.apolarity import catalecticant, ideal_span
from apolarkit.fields import GF, QQ
from apolarkit.forms import (
    HomogeneousForm,
    falling_factorials,
    monomial_count,
    monomial_exponents,
    monomial_index,
    monomial_products,
    parse_form,
)

FIELDS = [QQ, GF(7), GF(5, 2)]


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


@pytest.mark.parametrize("nvars", range(1, 7))
def test_tables_match_exponent_arithmetic(nvars):
    for d1 in range(5):
        for d2 in range(5 - d1):
            products = monomial_products(nvars, d1, d2)
            weights = falling_factorials(nvars, d1, d2)
            left = monomial_exponents(nvars, d1)
            right = monomial_exponents(nvars, d2)
            both = monomial_exponents(nvars, d1 + d2)
            assert products.shape == weights.shape == (len(left), len(right))
            assert not products.flags.writeable
            assert not weights.flags.writeable
            for i, b in enumerate(left):
                for j, g in enumerate(right):
                    assert both[products[i, j]] == _add(b, g)
                    assert type(weights[i, j]) is int
                    assert weights[i, j] == math.prod(
                        math.factorial(bi + gi) // math.factorial(gi)
                        for bi, gi in zip(b, g))


def _random_form(rng, field, nvars, degree, alphabet="x"):
    if field == QQ:
        draw = lambda: field.from_int(rng.randint(-9, 9))  # noqa: E731
    else:
        draw = lambda: field.random_element(rng)  # noqa: E731
    return HomogeneousForm(nvars, degree,
                           [draw() for _ in range(monomial_count(nvars, degree))],
                           field, alphabet)


def _reference_catalecticant(f, k):
    F, n = f.field, f.nvars
    out_idx = monomial_index(n, f.degree - k)
    fidx = monomial_index(n, f.degree)
    rows = []
    for b in monomial_exponents(n, k):
        row = [F.zero] * len(out_idx)
        for g in monomial_exponents(n, f.degree - k):
            a = _add(b, g)
            scale = 1
            for ai, gi in zip(a, g):
                scale *= math.factorial(ai) // math.factorial(gi)
            row[out_idx[g]] = F.mul(f.coeffs[fidx[a]], F.from_int(scale))
        rows.append(tuple(row))
    return tuple(rows)


def _reference_derivative(f, i):
    F = f.field
    idx = monomial_index(f.nvars, f.degree - 1)
    coeffs = [F.zero] * len(idx)
    for c, e in f.terms():
        if e[i]:
            coeffs[idx[e[:i] + (e[i] - 1,) + e[i + 1:]]] = F.mul(
                c, F.from_int(e[i]))
    return tuple(coeffs)


def _reference_product(f, g):
    F = f.field
    idx = monomial_index(f.nvars, f.degree + g.degree)
    coeffs = [F.zero] * len(idx)
    for ca, ea in f.terms():
        for cb, eb in g.terms():
            k = idx[_add(ea, eb)]
            coeffs[k] = F.add(coeffs[k], F.mul(ca, cb))
    return tuple(coeffs)


def _reference_ideal_span(generators, degree):
    idx = monomial_index(generators[0].nvars, degree)
    rows = []
    for g in generators:
        if g.degree > degree:
            continue
        for e in monomial_exponents(g.nvars, degree - g.degree):
            row = [g.field.zero] * len(idx)
            for c, a in g.terms():
                row[idx[_add(a, e)]] = c
            rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("nvars", [3, 6])
def test_table_sites_match_the_term_by_term_loops(field, nvars):
    # degree 4 brings weights up to 4! = 24, past both characteristics
    rng = random.Random(nvars)
    for degree in range(1, 5):
        f = _random_form(rng, field, nvars, degree)
        for k in range(degree + 1):
            assert catalecticant(f, k).rows == _reference_catalecticant(f, k)
        for i in range(nvars):
            assert f.derivative(i).coeffs == _reference_derivative(f, i)
        g = _random_form(rng, field, nvars, 4 - degree)
        assert f.multiply(g).coeffs == _reference_product(f, g)
        sparse = HomogeneousForm.from_terms(
            nvars, degree, [(field.one, monomial_exponents(nvars, degree)[-1])],
            field)
        generators = [f, g, sparse, HomogeneousForm.zero(nvars, 2, field)]
        for d in range(5):
            assert ideal_span(generators, d).rows \
                == _reference_ideal_span(generators, d)


def test_weights_enter_a_quadratic_field_as_integers():
    # y0^3 takes x0^3 to 3! = 6, which is 1 in GF(5^2): the code 1, not
    # the code 6 = 1 + 1*w
    F = GF(5, 2)
    f = parse_form("x0^3", F)
    assert catalecticant(f, 3).rows[0][0] == 1
    assert catalecticant(f, 2).rows[0][0] == 1
    assert f.derivative(0).derivative(0).coeffs[0] == 1
    assert parse_form("x0^6", GF(7)).derivative(0).coeffs[0] == 6
