import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolarkit import modular
from apolarkit.errors import PreconditionError
from apolarkit.fields import (
    GF,
    QQ,
    PRIMALITY_BOUND,
    coerce_scalar,
    is_prime,
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


def test_is_prime_matches_trial_division_on_small_numbers():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))
    assert [n for n in range(-3, 5000) if is_prime(n)] \
        == [n for n in range(-3, 5000) if trial(n)]


def test_is_prime_decides_large_numbers_at_once():
    start = time.perf_counter()
    # 2^64 - 59, the largest prime below 2^64: twenty digits
    assert is_prime(18446744073709551557)
    # strong pseudoprimes to the bases 2, 3, 5, 7, and to 2..37
    assert not is_prime(3215031751)
    assert not is_prime(318665857834031151167461)
    assert not is_prime(2 ** 64 + 1)
    assert time.perf_counter() - start < 1
    with pytest.raises(PreconditionError):
        is_prime(PRIMALITY_BOUND)
    # field codes are int64: 2^63 - 25 is the largest prime GF takes
    assert GF(2 ** 63 - 25, 2).p == 2 ** 63 - 25
    for p in (2 ** 63 + 29, 2 ** 89 - 1):
        for k in (1, 2):
            with pytest.raises(PreconditionError):
                GF(p, k)


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
    w = 5  # the code 0 + 5*1
    assert E.mul(w, w) == 2
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
    # a scalar is its own code: a + b*w built by the field's ops is the
    # int a + p*b, and format_scalar reads a and b back
    E = GF(11, 2)
    w = 11  # the code 0 + 11*1
    for a, b in [(0, 0), (10, 3), (1, 10), (7, 7), (4, 0)]:
        code = E.add(E.from_int(a), E.mul(E.from_int(b), w))
        assert code == a + 11 * b
        assert E.format_scalar(code) \
            == ("(%d+%d*w)" % (a, b) if b else str(a))


def _pair_reference(p, n):
    """F_{p^2} = F_p[w]/(w^2 - n) on pairs (a, b) meaning a + b*w."""
    def mul(x, y):
        return ((x[0] * y[0] + n * x[1] * y[1]) % p,
                (x[0] * y[1] + x[1] * y[0]) % p)

    elements = [(a, b) for b in range(p) for a in range(p)]
    return {
        "add": lambda x, y: ((x[0] + y[0]) % p, (x[1] + y[1]) % p),
        "mul": mul,
        "neg": lambda x: (-x[0] % p, -x[1] % p),
        "inv": lambda x: next(y for y in elements if mul(x, y) == (1, 0)),
        "format_scalar": lambda x: ("(%d+%d*w)" % x if x[1] else str(x[0])),
        "elements": elements,
    }


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_packed_arithmetic_matches_pair_arithmetic(p):
    E = GF(p, 2)
    ref = _pair_reference(p, E.nonresidue)
    pairs = ref["elements"]
    codes = [a + p * b for a, b in pairs]
    pair_of = dict(zip(codes, pairs))
    assert list(E.elements()) == codes and (E.zero, E.one) == (0, 1)
    for x in codes:
        assert pair_of[E.neg(x)] == ref["neg"](pair_of[x])
        assert E.format_scalar(x) == ref["format_scalar"](pair_of[x])
        if x:
            assert pair_of[E.inv(x)] == ref["inv"](pair_of[x])
        for y in codes:
            assert pair_of[E.add(x, y)] == ref["add"](pair_of[x], pair_of[y])
            assert pair_of[E.mul(x, y)] == ref["mul"](pair_of[x], pair_of[y])
    with pytest.raises(ZeroDivisionError):
        E.inv(0)
    # on an array of codes each op acts entry by entry, as on each int
    x = np.arange(p * p, dtype=np.int64)[:, None]
    y = x.T
    for op in ("add", "sub", "mul"):
        assert getattr(E, op)(x, y).tolist() \
            == [[getattr(E, op)(a, b) for b in codes] for a in codes]
    assert E.neg(x[:, 0]).tolist() == [E.neg(a) for a in codes]
    if p <= modular.TABLE_MAX_PRIME:
        # the lookup tables are the field's ops on every pair
        tabs = modular.quadratic_tables(E)
        assert tabs.add_table.tolist() \
            == [[E.add(a, b) for b in codes] for a in codes]
        assert tabs.mul_table.tolist() \
            == [[E.mul(a, b) for b in codes] for a in codes]
        assert tabs.neg_table.tolist() == [E.neg(a) for a in codes]
        assert tabs.inv_table.tolist() == [0] + [E.inv(a) for a in codes[1:]]


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
    assert coerce_scalar(Fraction(3, 2), QQ, GF(5, 2)) == 4
    assert coerce_scalar(3, GF(5), GF(5, 2)) == 3
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
