"""Factories for the explicit objects the toolkit certifies: the Veronese
surface ideal and parametrization, the discriminant cubic of singular
conics, the transfer maps s_map and m_star between ternary sextics and
six-variable cubics (both one pass over one cached table, a row per cubic
monomial x^alpha: the index of z^gamma, m_star's doubling and the weight
gamma!/alpha!), the five-parameter annihilated cubic family, a plane
restriction, the quartic-scroll example with its conic-plus-points apolar
configuration, reference Betti tables, the stored mod-5 drop curve, and
random power-sum generators.

Conventions: quadrics that act by differentiation live in the y-alphabet,
the cubics they annihilate in the x-alphabet, ternary data in z.  The
identification is coordinatewise (y_i differentiates x_i).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .apolarity import _require_char, projective_key
from .errors import PreconditionError, UnstableComputationError
from .fields import QQ
from .forms import (HomogeneousForm, falling_factorials, monomial_count,
                    monomial_exponents, monomial_products, monomial_values,
                    parse_form)
from .linalg import ExactMatrix
from .resolutions import GENERIC_CUBIC_APOLAR_BETTI, BettiTable

# exponent vectors of the degree-2 monomials in (a0, a1, a2); entry i is
# the coordinate the Veronese map puts in position x_i
VERONESE_WEIGHTS = monomial_exponents(3, 2)

VERONESE_QUADRIC_TEXTS = (
    "y0*y3-y1^2",
    "y0*y5-y2^2",
    "y3*y5-y4^2",
    "y0*y4-y1*y2",
    "y1*y4-y2*y3",
    "y1*y5-y2*y4",
)

CUBIC_FAMILY_BASIS_TEXTS = (
    "2*x2*x4*x5+x1*x5^2",
    "x2*x3^2+2*x1*x3*x4",
    "2*x1*x2*x3+x1^2*x4+2*x0*x3*x4",
    "x2^3+6*x0*x2*x5",
    "x1*x2^2+2*x0*x2*x4+2*x0*x1*x5",
)

SCROLL_APOLAR_CUBIC_TEXT = (
    "13*x0^3+51*x0^2*x1+141*x0^2*x2+6*x0^2*x3+9*x0^2*x4+33*x0^2*x5"
    "+141*x0*x1^2+498*x0*x1*x2+18*x0*x1*x3+66*x0*x1*x4-18*x0*x1*x5"
    "+681*x0*x2^2+66*x0*x2*x3-18*x0*x2*x4-6*x0*x2*x5+24*x0*x3^2"
    "+30*x0*x3*x4+126*x0*x3*x5+63*x0*x4^2+210*x0*x4*x5+387*x0*x5^2"
    "+83*x1^3+681*x1^2*x2+33*x1^2*x3-9*x1^2*x4-3*x1^2*x5+1401*x1*x2^2"
    "-18*x1*x2*x3-6*x1*x2*x4-882*x1*x2*x5+15*x1*x3^2+126*x1*x3*x4"
    "+210*x1*x3*x5+105*x1*x4^2+774*x1*x4*x5+825*x1*x5^2+1307*x2^3"
    "-3*x2^2*x3-441*x2^2*x4-1227*x2^2*x5+63*x2*x3^2+210*x2*x3*x4"
    "+774*x2*x3*x5+387*x2*x4^2+1650*x2*x4*x5+2763*x2*x5^2-3*x3^3"
    "-3*x3^2*x4+15*x3^2*x5+15*x3*x4^2-114*x3*x4*x5-93*x3*x5^2-19*x4^3"
    "-93*x4^2*x5-633*x4*x5^2-535*x5^3"
)

# scroll_point parameters for the ten cube summands of the cubic above;
# the first four share u = 0, so they land on a conic section
SCROLL_CONIC_PARAMETERS = (0, 1, -1, 2)
SCROLL_RESIDUAL_PARAMETERS = (
    (1, 1, 0), (-1, 1, 0), (2, 2, 1), (-2, 1, 1), (3, 1, -1), (0, 1, -2))

# random_power_sum refuses a k whose forms come out distinct in more than
# this many whole draws on average, and gives up after POWER_SUM_DRAWS
# draws: a hundred times that mean, so an accepted k runs out with
# probability about exp(-100), or exp(-30) for coplanar draws over GF(2),
# which come out distinct about a third as often
POWER_SUM_EXPECTED_DRAWS = 1000
POWER_SUM_DRAWS = 100 * POWER_SUM_EXPECTED_DRAWS

# global scale of s_map, 3!/6!: at every alpha, s(a^6) has
# S * 6!/alpha! * a^gamma and (a^2)^3 has 3!/alpha! * a^gamma
S_NORMALIZATION = Fraction(6, 720)


def veronese_ideal_quadrics(field=QQ):
    """The six 2x2 minors cutting out the Veronese surface, as dual quadrics."""
    return [parse_form(t, field, "y") for t in VERONESE_QUADRIC_TEXTS]


def veronese_point(a, field=QQ):
    """Image of (a0, a1, a2) under the degree-2 Veronese map, as a 6-tuple."""
    if len(a) != 3:
        raise PreconditionError("Veronese map wants a 3-tuple")
    return tuple(monomial_values(np.array([a], dtype=object), 2,
                                 field.mul)[0].tolist())


def discriminant_cubic(field=QQ):
    """Determinant of the generic symmetric 3x3 matrix, in y-variables.

    Its vanishing locus is the singular conics; it is singular precisely
    along the Veronese surface of double lines.
    """
    y = [HomogeneousForm.variable(6, i, field, "y") for i in range(6)]
    m = ((y[0], y[1], y[2]), (y[1], y[3], y[4]), (y[2], y[4], y[5]))
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def plane_substitution(field=QQ):
    """Six linear forms in z0, z1, z2 restricting x-space to a fixed plane."""
    texts = ("z0+z1+z2", "z0+z1", "z1", "z0", "z0+z2", "z2")
    return [parse_form(t, field, "z") for t in texts]


def cubic_family(a, b, c, d, e, field=QQ):
    """Five-parameter family of cubics annihilated by the Veronese minors.

    Parameters are ints or Fractions, read into the field.
    """
    basis = [parse_form(t, field, "x") for t in CUBIC_FAMILY_BASIS_TEXTS]
    out = HomogeneousForm.zero(6, 3, field, "x")
    for coeff, g in zip((a, b, c, d, e), basis):
        out = out + g.scale(field.from_fraction(Fraction(coeff)))
    return out


def scroll_apolar_cubic(field=QQ):
    """The explicit cubic apolar to a quartic surface scroll.

    It is the sum of cubes of the ten points returned by
    scroll_configuration_points, so every quadric vanishing on the scroll
    annihilates it.
    """
    return parse_form(SCROLL_APOLAR_CUBIC_TEXT, field, "x")


def scroll_point(lam, u, v, field=QQ):
    """Point (u, lam*u, lam^2*u, v, lam*v, lam^2*v) of the quartic scroll."""
    lam, u, v = (field.from_fraction(Fraction(t)) for t in (lam, u, v))
    lam2 = field.mul(lam, lam)
    return (u, field.mul(lam, u), field.mul(lam2, u),
            v, field.mul(lam, v), field.mul(lam2, v))


def scroll_configuration_points(field=QQ):
    """The ten scroll points whose cubes sum to scroll_apolar_cubic.

    The first four lie on the conic section cut out by x0 = x1 = x2 = 0;
    the other six are spread over the scroll.
    """
    pts = [scroll_point(lam, 0, 1, field) for lam in SCROLL_CONIC_PARAMETERS]
    pts += [scroll_point(lam, u, v, field)
            for lam, u, v in SCROLL_RESIDUAL_PARAMETERS]
    return tuple(pts)


def _two_row_minors(top, bottom):
    mins = []
    for i in range(len(top)):
        for j in range(i + 1, len(top)):
            mins.append(top[i] * bottom[j] - top[j] * bottom[i])
    return mins


def scroll_minors(field=QQ):
    """2-minors of the 2x4 matrix of dual variables cutting out the scroll."""
    y = [HomogeneousForm.variable(6, i, field, "y") for i in range(6)]
    return _two_row_minors((y[0], y[1], y[3], y[4]), (y[1], y[2], y[4], y[5]))


# ---- transfer maps ----------------------------------------------------


@lru_cache(maxsize=None)
def _veronese_transfer():
    """One row per cubic monomial x^alpha, in monomial_exponents(6, 3)
    order: the index of z^gamma, gamma = sum_i alpha_i w_i for w_i =
    VERONESE_WEIGHTS[i]; m_star's doubling prod_i (2!/w_i!)^alpha_i; and
    the pairing weight gamma!/alpha!."""
    at = np.arange(6)  # x_i goes to z^(w_i), monomial i of degree 2
    for d in (1, 2):  # x^alpha * x_i goes to z^gamma * z^(w_i)
        into = np.empty(monomial_count(6, d + 1), dtype=np.intp)
        into[monomial_products(6, d, 1)] = monomial_products(3, 2 * d, 2)[at]
        at = into
    twos = 2 // falling_factorials(3, 2, 0)[:, 0]  # 2!/w_i!
    doubling = [math.prod(map(pow, twos, alpha))
                for alpha in monomial_exponents(6, 3)]
    weights = map(Fraction, falling_factorials(3, 6, 0)[at, 0],
                  falling_factorials(6, 3, 0)[:, 0])
    return tuple(zip(at.tolist(), doubling, weights))


def s_map(g):
    """Lift a ternary sextic to the six-variable cubic pairing with it
    through the Veronese multiplication map: x^alpha gets
    S_NORMALIZATION * gamma!/alpha! times g's coefficient of z^gamma, so
    that s(a^6) = (a^2)^3 for linear a, where a^2 is the image point of
    a under the degree-2 Veronese map.
    """
    if g.nvars != 3 or g.degree != 6:
        raise PreconditionError("s_map wants a ternary sextic")
    F = g.field
    _require_char(F, 6)  # factorials up to 6!
    coeffs = [F.mul(F.from_fraction(S_NORMALIZATION * weight), g.coeffs[k])
              for k, _, weight in _veronese_transfer()]
    return HomogeneousForm(6, 3, coeffs, F, "x")


def m_star(f):
    """Pull a six-variable cubic back to a ternary sextic: x_i becomes the
    Veronese coordinate z^(w_i), doubled off the diagonal so that
    (a dot z)^2 expands correctly and m_star is a section of s_map."""
    if f.nvars != 6 or f.degree != 3:
        raise PreconditionError("m_star wants a cubic in six variables")
    F = f.field
    _require_char(F, 6)
    coeffs = [F.zero] * monomial_count(3, 6)
    for c, (k, doubling, _) in zip(f.coeffs, _veronese_transfer()):
        coeffs[k] = F.add(coeffs[k], F.mul(F.from_int(doubling), c))
    return HomogeneousForm(3, 6, coeffs, F, "z")


# ---- reference tables and curve ---------------------------------------


POINTS9_BETTI = {
    (0, 0): 1,
    (1, 2): 12, (2, 3): 25, (3, 4): 15,
    (3, 5): 6, (4, 6): 10, (5, 7): 3,
}

POINTS10_BETTI = {
    (0, 0): 1,
    (1, 2): 11, (2, 3): 20, (3, 4): 5,
    (3, 5): 16, (4, 6): 15, (5, 7): 4,
}

# stored, not recomputed: the table of an ideal whose quotient is the
# coordinate ring of an elliptic normal sextic; kept as a reference shape
# for callers comparing against non-generic apolar ideals
ELLIPTIC_SEXTIC_BETTI = {
    (0, 0): 1,
    (1, 2): 9, (2, 3): 16, (3, 4): 9,
    (4, 6): 1,
}


def reference_betti_tables():
    return {
        "generic-cubic": BettiTable(dict(GENERIC_CUBIC_APOLAR_BETTI)),
        "points-9": BettiTable(dict(POINTS9_BETTI)),
        "points-10": BettiTable(dict(POINTS10_BETTI)),
        "elliptic-sextic": BettiTable(dict(ELLIPTIC_SEXTIC_BETTI)),
    }


# coefficientwise representative (over F_5, coefficients in -2..2) of the
# degree-9 drop curve after the plane restriction; exponents are
# (e0, e1, e2) on z0, z1, z2
REFERENCE_DROP_CURVE_TERMS = (
    (1, (9, 0, 0)), (-2, (8, 1, 0)), (2, (7, 2, 0)), (-1, (6, 3, 0)),
    (-1, (5, 4, 0)), (-1, (3, 6, 0)), (-2, (2, 7, 0)), (2, (7, 1, 1)),
    (-2, (6, 2, 1)), (1, (5, 3, 1)), (1, (3, 5, 1)), (-1, (1, 7, 1)),
    (2, (7, 0, 2)), (-1, (6, 1, 2)), (2, (5, 2, 2)), (-1, (4, 3, 2)),
    (-1, (3, 4, 2)), (2, (2, 5, 2)), (-1, (1, 6, 2)), (1, (0, 7, 2)),
    (-2, (5, 1, 3)), (1, (4, 2, 3)), (1, (3, 3, 3)), (2, (2, 4, 3)),
    (-1, (1, 5, 3)), (-2, (0, 6, 3)), (1, (5, 0, 4)), (1, (4, 1, 4)),
    (1, (3, 2, 4)), (2, (2, 3, 4)), (-1, (1, 4, 4)), (2, (0, 5, 4)),
    (1, (4, 0, 5)), (-1, (3, 1, 5)), (2, (2, 2, 5)), (-1, (1, 3, 5)),
    (-2, (0, 4, 5)), (-2, (3, 0, 6)), (-2, (2, 1, 6)), (-1, (1, 2, 6)),
    (-1, (0, 3, 6)), (1, (2, 0, 7)), (1, (1, 1, 7)), (2, (0, 2, 7)),
    (2, (1, 0, 8)), (-1, (0, 0, 9)),
)


def reference_drop_curve_mod5():
    """The stored degree-9 ternary curve over GF(5)."""
    from .fields import GF

    F = GF(5)
    terms = [(F.from_int(c), e) for c, e in REFERENCE_DROP_CURVE_TERMS]
    return HomogeneousForm.from_terms(3, 9, terms, F, "z")


# ---- generators -------------------------------------------------------


def fermat_cubic(field=QQ):
    return HomogeneousForm.from_terms(
        6, 3, [(field.one, tuple(3 if i == j else 0 for i in range(6)))
               for j in range(6)], field, "x")


def random_nonzero_vector(nvars, field, rng):
    """nvars seeded field.random_element draws, redrawn until not all zero."""
    while True:
        vec = [field.random_element(rng) for _ in range(nvars)]
        if any(not field.is_zero(c) for c in vec):
            return vec


def random_power_sum(k, field=QQ, seed=0, coplanar=False):
    """k random linear forms, k nonzero scalars, and their cube combination.

    With coplanar=True the first four forms are drawn from a common
    3-dimensional space of linear forms (and the draw is retried until
    their coefficient matrix has rank exactly 3).  A whole draw is retried
    while two of its forms agree up to scale, which PointSet refuses, or
    the sum is zero; after POWER_SUM_DRAWS whole draws it gives up with
    UnstableComputationError.  Over a finite field a draw's forms are
    uniform points of P^5, all distinct with probability
    prod_{i<k} (1 - i/N) for N points, so a k above N, or one needing
    more than POWER_SUM_EXPECTED_DRAWS draws on average, is refused up
    front.
    """
    if k < 1:
        raise PreconditionError("need at least one summand")
    if coplanar and k < 4:
        raise PreconditionError("coplanar option needs k >= 4")
    if field.char:
        q = field.p ** field.degree
        points = (q ** 6 - 1) // (q - 1)
        if k > points:
            raise PreconditionError(
                "P^5 over %s has %d points, fewer than %d distinct forms"
                % (field.describe(), points, k))
        log_draws = -math.fsum(math.log1p(-i / points) for i in range(k))
        if log_draws > math.log(POWER_SUM_EXPECTED_DRAWS):
            raise PreconditionError(
                "%d distinct points of P^5 over %s take about 10^%.1f whole "
                "draws on average, more than %d"
                % (k, field.describe(), log_draws / math.log(10),
                   POWER_SUM_EXPECTED_DRAWS))
    rng = random.Random(seed)
    for _ in range(POWER_SUM_DRAWS):
        forms = []
        if coplanar:
            span = [HomogeneousForm.linear(random_nonzero_vector(6, field, rng),
                                           field) for _ in range(3)]
            for _ in range(4):
                while True:
                    cand = HomogeneousForm.zero(6, 1, field, "x")
                    for b in span:
                        cand = cand + b.scale(field.random_element(rng))
                    if not cand.is_zero():
                        break
                forms.append(cand)
            mat = ExactMatrix([g.coeffs for g in forms], field, 6)
            if mat.rank() != 3:
                continue
        for _ in range(k - len(forms)):
            forms.append(HomogeneousForm.linear(
                random_nonzero_vector(6, field, rng), field))
        lams = [field.random_element(rng, nonzero=True) for _ in range(k)]
        if len({projective_key(g.coeffs, field) for g in forms}) < k:
            continue
        f = HomogeneousForm.power_sum(lams, forms, 3)
        if not f.is_zero():
            return forms, lams, f
    raise UnstableComputationError(
        "no %d distinct forms with a nonzero cube sum over %s in %d draws"
        % (k, field.describe(), POWER_SUM_DRAWS))
