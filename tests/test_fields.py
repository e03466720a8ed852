import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolarkit.errors import PreconditionError
from apolarkit.fields import (
    GF,
    QQ,
    coerce_scalar,
    projective_points,
    smallest_nonresidue,
)


def test_gf_rejects_nonprime():
    with pytest.raises(PreconditionError):
        GF(6)
    with pytest.raises(PreconditionError):
        GF(1)
    with pytest.raises(PreconditionError):
        GF(5, 3)


def test_gf_descriptors_are_cached_and_comparable():
    assert GF(5) is GF(5)
    assert GF(5, 2) is GF(5, 2)
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert GF(5) != GF(5, 2)
    assert {GF(5): "a"}[GF(5)] == "a"


def test_prime_field_basic_arithmetic():
    F = GF(7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.from_fraction(Fraction(1, 2)) == 4
    assert F.from_int(-1) == 6
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(PreconditionError):
        F.from_fraction(Fraction(1, 7))


def test_quadratic_field_is_a_field():
    E = GF(5, 2)
    assert E.nonresidue == smallest_nonresidue(5) == 2
    w = (0, 1)
    assert E.mul(w, w) == (2, 0)
    rng = random.Random(0)
    for _ in range(200):
        a = E.random_element(rng, nonzero=True)
        assert E.mul(a, E.inv(a)) == E.one
        b = E.random_element(rng)
        c = E.random_element(rng)
        left = E.mul(a, E.add(b, c))
        right = E.add(E.mul(a, b), E.mul(a, c))
        assert left == right


def test_quadratic_encode_decode_roundtrip():
    E = GF(11, 2)
    for a in [(0, 0), (10, 3), (1, 10), (7, 7)]:
        assert E.decode(E.encode(a)) == a


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
@settings(max_examples=60, deadline=None)
def test_prime_field_matches_fraction_arithmetic(a, b, c):
    F = GF(13)
    fa, fb, fc = (F.from_int(v) for v in (a, b, c))
    expr_q = Fraction(a) * b - Fraction(c) * a + b
    expr_f = F.add(F.sub(F.mul(fa, fb), F.mul(fc, fa)), fb)
    assert F.from_fraction(expr_q) == expr_f


def test_coerce_scalar_paths():
    assert coerce_scalar(Fraction(3, 2), QQ, GF(5)) == 4
    assert coerce_scalar(Fraction(3, 2), QQ, GF(5, 2)) == (4, 0)
    assert coerce_scalar(3, GF(5), GF(5, 2)) == (3, 0)
    with pytest.raises(PreconditionError):
        coerce_scalar(3, GF(5), GF(7, 2))
    with pytest.raises(PreconditionError):
        coerce_scalar(3, GF(5), QQ)


def test_projective_points_count_and_normalization():
    pts = list(projective_points(GF(5), 3))
    assert len(pts) == 31  # 5^2 + 5 + 1
    assert len(set(pts)) == 31
    for p in pts:
        lead = next(c for c in p if c != 0)
        assert lead == 1
    pts2 = list(projective_points(GF(3, 2), 2))
    assert len(pts2) == 10  # 9 + 1
    # deterministic order
    assert pts == list(projective_points(GF(5), 3))


def test_projective_points_refuses_rationals():
    with pytest.raises(PreconditionError):
        list(projective_points(QQ, 3))
