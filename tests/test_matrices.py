import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from apolarkit import apolarity, catalog, linalg, modular
from apolarkit.apolarity import PointSet, cube_span_contains, is_apolar_pointset
from apolarkit.errors import PreconditionError
from apolarkit.fields import GF, QQ, is_prime
from apolarkit.forms import HomogeneousForm
from apolarkit.linalg import ExactMatrix


def _random_int_matrix(rng, nrows, ncols, spread=6):
    return [[rng.randint(-spread, spread) for _ in range(ncols)]
            for _ in range(nrows)]


def test_rank_and_kernel_small_examples():
    M = ExactMatrix([[1, 2], [2, 4]], QQ, 2)
    assert M.rank() == 1
    K = M.kernel_basis()
    assert K.nrows == 1
    v = K.row(0)
    assert M.matmul(K.transpose()) == ExactMatrix.zeros(2, 1)

    I3 = ExactMatrix.identity(3)
    assert I3.rank() == 3
    assert I3.kernel_basis().nrows == 0

    Z = ExactMatrix.zeros(2, 3)
    assert Z.rank() == 0
    assert Z.kernel_basis().nrows == 3


def test_matmul_including_an_empty_inner_dimension():
    A = ExactMatrix([[1, 0, 2], [0, 0, 0]], QQ, 3)
    B = ExactMatrix([[1, 2], [3, 4], [5, 6]], QQ, 2)
    assert A.matmul(B) == ExactMatrix([[11, 14], [0, 0]], QQ, 2)
    # a 2x0 times 0x3 product is the 2x3 zero matrix
    empty = ExactMatrix([[], []], GF(7), 0)
    assert empty.matmul(ExactMatrix([], GF(7), 3)) \
        == ExactMatrix.zeros(2, 3, GF(7))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_modular_rank_matches_rational_rank(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
    rows = _random_int_matrix(rng, nrows, ncols, spread=3)
    p = 10007  # large enough that small-determinant collisions cannot happen
    exact = ExactMatrix([[Fraction(v) for v in r] for r in rows], QQ,
                        ncols).rank()
    assert modular.rank_mod_p(rows, p) == exact


def test_kernel_mod_p_gives_actual_kernel_vectors():
    rng = random.Random(11)
    p = 101
    for _ in range(20):
        nrows, ncols = rng.randint(1, 5), rng.randint(2, 6)
        rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
        basis = modular.kernel_mod_p(rows, p)
        rank = modular.rank_mod_p(rows, p)
        assert len(basis) == ncols - rank
        for vec in basis:
            for r in rows:
                assert sum(a * b for a, b in zip(r, vec)) % p == 0


def test_det_mod_p_matches_fraction_determinant():
    rng = random.Random(23)
    p = 10007
    for _ in range(20):
        n = rng.randint(1, 4)
        rows = _random_int_matrix(rng, n, n, spread=5)
        # cofactor expansion over the rationals
        def det(m):
            if len(m) == 1:
                return m[0][0]
            total = 0
            for j, v in enumerate(m[0]):
                minor = [r[:j] + r[j + 1:] for r in m[1:]]
                total += (-1) ** j * v * det(minor)
            return total
        assert modular.det_mod_p(rows, p) == det(rows) % p


def test_quadratic_tables_rank_and_det():
    E = GF(5, 2)
    tabs = modular.quadratic_tables(E)
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 3)
        mat = [[E.random_element(rng) for _ in range(n)] for _ in range(n)]

        def det(m):
            if len(m) == 1:
                return m[0][0]
            total = E.zero
            for j, v in enumerate(m[0]):
                minor = [r[:j] + r[j + 1:] for r in m[1:]]
                term = E.mul(v, det(minor))
                total = E.add(total, term if j % 2 == 0 else E.neg(term))
            return total

        expect = det(mat)
        assert tabs.det(mat) == expect
        got_rank = tabs.batch_rank(np.array(mat))
        assert (got_rank == n) == (not E.is_zero(expect))


def test_quadratic_tables_guard():
    with pytest.raises(PreconditionError):
        modular.quadratic_tables(GF(13, 2))


def _generic_det(rows, F):
    """Cofactor expansion with the field's own scalar arithmetic."""
    if not rows:
        return F.one
    total = F.zero
    for j, v in enumerate(rows[0]):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = F.mul(v, _generic_det(minor, F))
        total = F.add(total, term if j % 2 == 0 else F.neg(term))
    return total


def test_prime_field_fast_paths_match_generic_elimination():
    # the numpy elimination core against the generic Fraction-free _rref,
    # over two prime fields and GF(25), including rectangular,
    # rank-deficient, all-zero and 0-row matrices
    rng = random.Random(9)
    for F in (GF(7), GF(101), GF(5, 2)):
        shapes = [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(15)]
        cases = [[[F.random_element(rng) for _ in range(ncols)]
                  for _ in range(nrows)] for nrows, ncols in shapes]
        cases.append([[F.zero] * 4 for _ in range(3)])
        base = [[F.random_element(rng) for _ in range(5)] for _ in range(2)]
        two = F.from_int(2)
        cases.append(base + [[F.add(a, F.mul(two, b)) for a, b in zip(*base)]])
        cases.append([])
        for rows in cases:
            ncols = len(rows[0]) if rows else 3
            M = ExactMatrix(rows, F, ncols)
            ref_rows, pivots = linalg._rref([list(r) for r in rows], F)
            assert M.rank() == len(pivots)
            assert M.rref() == ExactMatrix(ref_rows, F, ncols)
            K = M.kernel_basis()
            if rows and K.nrows:
                assert M.matmul(K.transpose()) \
                    == ExactMatrix.zeros(M.nrows, K.nrows, F)
            # the canonical basis: 1 in its free column, 0 in the others
            free = [j for j in range(ncols) if j not in pivots]
            assert ExactMatrix([[row[j] for j in free] for row in K.rows],
                               F, len(free)) \
                == ExactMatrix.identity(len(free), F)
            if len(rows) == ncols and rows:
                want = _generic_det(rows, F)
                if F.degree == 1:
                    assert modular.det_mod_p(rows, F.p) == want
                else:
                    tabs = modular.quadratic_tables(F)
                    assert tabs.det(rows) == want
                    assert tabs.batch_rank(np.array(rows)) == len(pivots)


@pytest.mark.parametrize("F", [GF(13, 2), GF(2147483659)], ids=str)
def test_fields_without_numpy_arithmetic_take_the_fraction_fallback(F):
    # GF(p^2) with p > 11 and GF(p) with p >= 2^31 have no core
    # arithmetic: rank, rref and kernel fall back to _rref
    assert modular.field_arithmetic(F) is None
    rng = random.Random(13)
    for nrows, ncols in [(3, 5), (5, 3), (4, 4), (0, 3)]:
        rows = [[F.random_element(rng) for _ in range(ncols)]
                for _ in range(nrows)]
        if nrows > 2:
            rows[-1] = [F.add(a, b) for a, b in zip(rows[0], rows[1])]
        M = ExactMatrix(rows, F, ncols)
        ref, pivots = linalg._rref([list(r) for r in rows], F)
        assert M.rank() == len(pivots)
        assert linalg.pivot_columns(M.codes(), F) == pivots
        assert M.rref() == ExactMatrix(ref, F, ncols)
        K = M.kernel_basis()
        assert K.nrows == ncols - len(pivots)
        if nrows and K.nrows:
            assert M.matmul(K.transpose()) \
                == ExactMatrix.zeros(nrows, K.nrows, F)


def _fraction_kernel(rows, ncols):
    # the reference: the canonical basis read off the Fraction rref, which
    # shares nothing with the multimodular route of kernel_basis
    ref, pivots = linalg._rref([list(r) for r in rows], QQ)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -ref[r][f]
        basis.append(v)
    return basis


# the first three kernel primes; the unlucky cases below are keyed to them
P1, P2, P3 = linalg.KERNEL_PRIMES[:3]


def _random_rational_matrix(rng, nrows, ncols, rank, spread=9, den=1):
    def entry():
        return Fraction(rng.randint(-spread, spread), rng.randint(1, den))
    left = [[entry() for _ in range(rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank)]
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0))
             for col in zip(*right)] for row in left]


def _multimodular_cases():
    rng = random.Random(41)
    cases = {
        "tall": _random_rational_matrix(rng, 9, 4, 4),
        "wide": _random_rational_matrix(rng, 4, 9, 4),
        "square-rank-deficient": _random_rational_matrix(rng, 7, 7, 4),
        "wide-rank-deficient": _random_rational_matrix(rng, 6, 11, 3),
        "denominators": _random_rational_matrix(rng, 5, 8, 5, den=12),
        "big-entries": _random_rational_matrix(rng, 6, 9, 6,
                                               spread=10 ** 15, den=10 ** 6),
        "all-zero": [[Fraction(0)] * 4 for _ in range(3)],
        "zero-row": [],
        "full-column-rank": _random_rational_matrix(rng, 6, 3, 3),
        # same rank but later pivots mod P1, then rank lower mod P1
        "unlucky-pivots": [[Fraction(P1), Fraction(1), Fraction(0)],
                           [Fraction(0), Fraction(0), Fraction(1)]],
        "unlucky-rank": [[Fraction(v) for v in r] for r in
                         [[1, 1, 0, 0], [1, P1 + 1, 0, 0], [0, 0, 1, 1]]],
        # the kernel entry 1 + P1 * P2 reads 1 mod the first prime and mod
        # the first two, so only A K = 0 rejects that reconstruction
        "false-probe": [[Fraction(1), Fraction(-1 - P1 * P2)]],
    }
    for nrows, ncols in [(3, 5), (5, 3), (6, 6), (2, 7)]:
        cases["random-%dx%d" % (nrows, ncols)] = [
            [Fraction(rng.randint(-20, 20), rng.randint(1, 5))
             for _ in range(ncols)] for _ in range(nrows)]
    # the p-adic lifting: entries of about 2^140 of both signs take the
    # limb products in Python ints; the kernel of a product of 100-bit
    # factors has 200-bit minors and takes 14 digits; column 0 vanishes
    # mod P1 only, so the pivots mod P1 are [1, 2, 3], wrong over QQ, on
    # an invertible block
    lifting = random.Random(43)
    cases["huge-mixed-signs"] = _random_rational_matrix(
        lifting, 5, 7, 4, spread=2 ** 70)
    cases["many-digits"] = _random_rational_matrix(lifting, 2, 4, 2,
                                                   spread=2 ** 100)
    cases["unlucky-lifted"] = [
        [Fraction(P1 * a), Fraction(b), Fraction(c), Fraction(d)]
        for a, b, c, d in [(1, 2, -1, 3), (2, 0, 1, -1), (-1, 1, 1, 1)]]
    return cases


@pytest.mark.parametrize("name", sorted(_multimodular_cases()))
def test_multimodular_kernel_matches_fraction_kernel(name):
    rows = _multimodular_cases()[name]
    ncols = len(rows[0]) if rows else 5
    pivots, basis = linalg._multimodular_kernel(
        ExactMatrix(rows, QQ, ncols).codes(), ncols)
    assert basis == _fraction_kernel(rows, ncols)
    assert pivots == linalg._rref([list(r) for r in rows], QQ)[1]
    assert all(type(x) is Fraction for v in basis for x in v)


def test_multimodular_kernel_discards_unlucky_primes(monkeypatch):
    # the 128 largest primes below 2^31, largest first; a product of two
    # residues stays below 2^62
    assert linalg.CERTIFICATE_PRIMES == linalg.KERNEL_PRIMES[:4]
    assert len(linalg.KERNEL_PRIMES) == 128
    assert list(linalg.KERNEL_PRIMES) == [
        q for q in range((1 << 31) - 1, linalg.KERNEL_PRIMES[-1] - 1, -1)
        if is_prime(q)]
    assert P1 ** 2 < 1 << 62
    # the unlucky-pivots and unlucky-rank cases of the comparison are
    # unlucky at the first prime, so they exercised the restart
    cases = _multimodular_cases()

    def ints(name):
        return [[int(x) for x in r] for r in cases[name]]
    assert modular.kernel_mod_p(ints("unlucky-pivots"), P1).tolist() \
        == [[1, 0, 0]]
    assert modular.rank_mod_p(ints("unlucky-rank"), P1) == 2
    # the false probe reconstructs to 1 (numerator 1 over 1) on one prime
    # and on two
    entry = 1 + P1 * P2
    assert linalg._reconstruct([entry % P1], P1) == ([1], 1)
    assert linalg._reconstruct([entry % (P1 * P2)], P1 * P2) == ([1], 1)
    # P3, the third prime, is unlucky here; restarting from it would leave
    # too few primes for the denominator P3 among the first five
    rows = [[Fraction(P3), Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(1)]]
    assert modular.kernel_mod_p([[int(x) for x in r] for r in rows],
                                P3).tolist() == [[1, 0, 0]]
    monkeypatch.setattr(linalg, "KERNEL_PRIMES", linalg.KERNEL_PRIMES[:5])
    assert linalg._multimodular_kernel(
        ExactMatrix(rows, QQ, 3).codes(), 3)[1] \
        == _fraction_kernel(rows, 3)


def _count_eliminations(monkeypatch):
    """Record the shape of every modular.eliminate call."""
    shapes = []
    real = modular.eliminate

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(modular, "eliminate", counting)
    return shapes


def test_lifting_restarts_after_an_unlucky_prime(monkeypatch):
    cases = _multimodular_cases()
    rows = cases["unlucky-lifted"]
    ints = [[int(x) for x in r] for r in rows]
    assert modular.kernel_mod_p(ints, P1).tolist() == [[1, 0, 0, 0]]
    assert modular.rank_mod_p(ints, P2) == 3
    shapes = _count_eliminations(monkeypatch)
    assert linalg._multimodular_kernel(
        ExactMatrix(rows, QQ, 4).codes(), 4) \
        == ([0, 1, 2], _fraction_kernel(rows, 4))
    # the lifted vector e_0 - A_RP^-1 A_R0 of P1 fails A K = 0, and P2
    # starts again with an elimination of its own
    assert shapes == [(3, 4), (3, 4)]


def test_lifting_digits_share_one_budget(monkeypatch):
    # the many-digits kernel needs more than 10 digits of 31 bits; the
    # digits of all primes together may number len(KERNEL_PRIMES)
    rows = _multimodular_cases()["many-digits"]
    primes = linalg.KERNEL_PRIMES
    monkeypatch.setattr(linalg, "KERNEL_PRIMES", primes[:10])
    assert linalg._multimodular_kernel(
        ExactMatrix(rows, QQ, 4).codes(), 4) is None
    monkeypatch.setattr(linalg, "KERNEL_PRIMES", primes[:20])
    assert linalg._multimodular_kernel(
        ExactMatrix(rows, QQ, 4).codes(), 4)[1] \
        == _fraction_kernel(rows, 4)


def test_multimodular_kernel_falls_back_when_primes_run_out(monkeypatch):
    # the kernel vector (-b/a, 1) needs about 2 * 81 bits of modulus, far
    # more than two 31-bit primes; 10000 copies of the row make the
    # Fraction fallback easy to tell from any other rref
    a, b = 3 ** 50, 2 ** 80 + 1
    rows = [[Fraction(k * a), Fraction(k * b)] for k in range(1, 10001)]
    expected = [[Fraction(-b, a), Fraction(1)]]
    assert linalg._multimodular_kernel(
        ExactMatrix(rows, QQ, 2).codes(), 2) == ([0], expected)

    rref_calls = []
    real_rref = linalg._rref

    def counting_rref(rows, field):
        rref_calls.append(len(rows))
        return real_rref(rows, field)

    # small entries still reconstruct alike on two primes
    small = [[Fraction(v) for v in r] for r in [[1, 2, 3, 4], [0, 1, 1, 2]]]
    small_kernel = _fraction_kernel(small, 4)

    monkeypatch.setattr(linalg, "_rref", counting_rref)
    assert ExactMatrix(rows, QQ, 2).kernel_basis() \
        == ExactMatrix(expected, QQ, 2)
    assert rref_calls == []

    monkeypatch.setattr(linalg, "KERNEL_PRIMES", linalg.KERNEL_PRIMES[:2])
    assert linalg._multimodular_kernel(
        ExactMatrix(rows, QQ, 2).codes(), 2) is None
    assert linalg._multimodular_kernel(
        ExactMatrix(small, QQ, 4).codes(), 4) == ([0, 1], small_kernel)
    assert ExactMatrix(rows, QQ, 2).kernel_basis() \
        == ExactMatrix(expected, QQ, 2)
    assert rref_calls == [10000]
    # the rank is deficient mod P1, and its kernel certificate cannot
    # close on two primes either
    assert ExactMatrix(rows, QQ, 2).rank() == 1
    assert rref_calls == [10000, 10000]


@pytest.mark.parametrize("kernel_primes", [128, 2])
def test_primitive_kernel_rows_scale_the_canonical_rows(kernel_primes,
                                                        monkeypatch):
    # each row is the canonical row times the lcm of its denominators, on
    # the multimodular route and, with two primes, on the Fraction fallback
    monkeypatch.setattr(linalg, "KERNEL_PRIMES",
                        linalg.KERNEL_PRIMES[:kernel_primes])
    for name, rows in sorted(_multimodular_cases().items()):
        ncols = len(rows[0]) if rows else 5
        got = ExactMatrix(rows, QQ, ncols).kernel_basis(primitive=True)
        want = []
        for v in _fraction_kernel(rows, ncols):
            den = math.lcm(*(x.denominator for x in v))
            want.append(tuple(int(x * den) for x in v))
        assert got.rows == tuple(want), name
        assert all(type(x) is int for v in got.rows for x in v), name
        assert all(math.gcd(*v) == 1 for v in got.rows), name
    assert ExactMatrix([[1, 2]], GF(5), 2).kernel_basis(primitive=True) \
        == ExactMatrix([[3, 1]], GF(5), 2)


def _count_exact_work(monkeypatch):
    """Record the shape of every multimodular kernel and Fraction rref."""
    calls = []

    def counting(name, real):
        def wrapper(rows, *args):
            calls.append((name, len(rows), len(rows[0]) if len(rows) else 0))
            return real(rows, *args)
        return wrapper

    for name in ("_multimodular_kernel", "_rref"):
        monkeypatch.setattr(linalg, name, counting(name, getattr(linalg, name)))
    return calls


def test_rational_rank_of_full_rank_mod_p_needs_no_echelon(monkeypatch):
    # full rank mod p proves the rational rank with no kernel at all
    calls = _count_exact_work(monkeypatch)
    rng = random.Random(5)
    tall = _random_rational_matrix(rng, 7, 4, 4, den=6)
    wide = _random_rational_matrix(rng, 3, 8, 3, spread=10 ** 20)
    assert ExactMatrix(tall, QQ, 4).rank() == 4
    assert ExactMatrix(wide, QQ, 8).rank() == 3
    assert ExactMatrix([], QQ, 3).rank() == 0
    assert calls == []
    # a rank below min(nrows, ncols) takes one verified kernel, of the
    # narrower side: the transpose of a wide matrix
    deficient = _random_rational_matrix(rng, 5, 6, 3)
    assert ExactMatrix(deficient, QQ, 6).rank() == 3
    assert calls == [("_multimodular_kernel", 6, 5)]
    calls.clear()
    tall_deficient = _random_rational_matrix(rng, 8, 5, 2)
    assert ExactMatrix(tall_deficient, QQ, 5).rank() == 2
    assert calls == [("_multimodular_kernel", 8, 5)]


def test_rational_rank_falls_back_when_p_divides_a_minor(monkeypatch):
    calls = _count_exact_work(monkeypatch)
    rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1 + P1)]]
    assert linalg.CERTIFICATE_PRIMES[0] == P1
    assert modular.rank_mod_p([[1, 1], [1, 1 + P1]], P1) == 1
    assert ExactMatrix(rows, QQ, 2).rank() == 2
    assert calls == [("_multimodular_kernel", 2, 2)]


def test_negative_power_sum_certificate_takes_no_echelon(monkeypatch):
    # criterion 11's negative instance i = 2: f + l^3 is not in the span of
    # the cubes, so both ranks of cube_span_contains are full mod p
    forms, _, f = catalog.random_power_sum(7, seed=102)
    Z = PointSet([g.coeffs for g in forms], QQ)
    rng = random.Random(502)
    l = HomogeneousForm.linear(
        [Fraction(rng.randint(-7, 7) or 1) for _ in range(6)], QQ, "x")
    calls = _count_exact_work(monkeypatch)
    assert not cube_span_contains(Z, f + l.power(3))
    assert calls == []
    # f is in the span: the 8 x 56 stack ranks by the kernel of its
    # 56 x 8 transpose
    assert cube_span_contains(Z, f)
    assert calls == [("_multimodular_kernel", 56, 8)]


def test_positive_power_sum_certificate_eliminates_once(monkeypatch):
    # the 56 x 8 transpose of the stack is short of full rank mod P1, and
    # its kernel goes on from that same elimination
    forms, _, f = catalog.random_power_sum(7, seed=102)
    Z = PointSet([g.coeffs for g in forms], QQ)
    shapes = _count_eliminations(monkeypatch)
    assert cube_span_contains(Z, f)
    assert shapes.count((56, 8)) == 1


def _power_sum_pair():
    # criterion 11's instance i = 2: Z, the cubic f it sums to, and
    # f + l^3, which it does not
    forms, _, f = catalog.random_power_sum(7, seed=102)
    Z = PointSet([g.coeffs for g in forms], QQ)
    rng = random.Random(502)
    l = HomogeneousForm.linear(
        [Fraction(rng.randint(-7, 7) or 1) for _ in range(6)], QQ, "x")
    return Z, f, f + l.power(3)


def test_apolarity_certificate_lifts_the_point_ideal_once(monkeypatch):
    # I_Z(3) is the kernel of the 7 x 56 evaluation matrix; the second
    # cubic reuses the basis the first one lifted
    Z, f, bad = _power_sum_pair()
    calls = _count_exact_work(monkeypatch)
    shapes = _count_eliminations(monkeypatch)
    assert is_apolar_pointset(Z, f)
    assert not is_apolar_pointset(Z, bad)
    assert calls == [("_multimodular_kernel", 7, 56)]
    assert shapes.count((7, 56)) == 1


def test_cube_span_certificate_expands_the_cubes_once(monkeypatch):
    # the k cubes are expanded in one call and their 56 x 7 rank taken
    # once for both cubics; each cubic then ranks its own 56 x 8 stack
    Z, f, bad = _power_sum_pair()
    expansions = []
    real = apolarity.power_rows

    def counting(bases, n, field):
        expansions.append((len(bases), n))
        return real(bases, n, field)

    monkeypatch.setattr(apolarity, "power_rows", counting)
    shapes = _count_eliminations(monkeypatch)
    assert not cube_span_contains(Z, bad)
    assert cube_span_contains(Z, f)
    assert expansions == [(len(Z), 3)]
    assert shapes.count((56, 7)) == 1 and shapes.count((56, 8)) == 2


def _rational_rref_cases():
    return {
        "zero-matrix": [[Fraction(0)] * 4 for _ in range(3)],
        "zero-rows": [],
        "zero-column": [[Fraction(v) for v in r] for r in
                        [[1, 0, 2, 3], [2, 0, 4, 7], [1, 0, 2, 3]]],
        "minor-divisible-by-P1": [[Fraction(v) for v in r] for r in
                                  [[1, 1, 3], [1, 1 + P1, 5], [2, 2, 6]]],
        "unlucky-rank": _multimodular_cases()["unlucky-rank"],
        "denominators": _multimodular_cases()["denominators"],
    }


@pytest.mark.parametrize("name", sorted(_rational_rref_cases()))
def test_rational_rref_is_read_off_the_kernel(name, monkeypatch):
    rows = _rational_rref_cases()[name]
    ncols = len(rows[0]) if rows else 4
    ref, _ = linalg._rref([list(r) for r in rows], QQ)
    calls = _count_exact_work(monkeypatch)
    assert ExactMatrix(rows, QQ, ncols).rref() == ExactMatrix(ref, QQ, ncols)
    assert [name for name, _, _ in calls] == ["_multimodular_kernel"]


@st.composite
def _integer_products(draw):
    # an integer matrix of rank at most r, the product of an n x r and an
    # r x m factor, some entries then moved by a multiple of P1
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    r = draw(st.integers(0, min(nrows, ncols)))
    entries = st.integers(-9, 9)
    left = draw(st.lists(st.lists(entries, min_size=r, max_size=r),
                         min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                          min_size=r, max_size=r))
    rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
            if r else [0] * ncols for row in left]
    shifts = draw(st.lists(st.tuples(st.integers(0, nrows - 1),
                                     st.integers(0, ncols - 1),
                                     st.integers(-2, 2)), max_size=3))
    for i, j, k in shifts:
        rows[i][j] += k * P1
    return rows


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_integer_products())
def test_rational_rank_rref_and_kernel_match_fraction_elimination(rows):
    ncols = len(rows[0])
    M = ExactMatrix([[Fraction(a) for a in r] for r in rows], QQ, ncols)
    ref, pivots = linalg._rref([[Fraction(a) for a in r] for r in rows], QQ)
    assert M.rank() == len(pivots)
    assert M.rref() == ExactMatrix(ref, QQ, ncols)
    assert M.kernel_basis().rows == tuple(map(tuple,
                                              _fraction_kernel(rows, ncols)))
    # semicontinuity: a rank mod p never exceeds the rational rank
    assert ExactMatrix([[a % 101 for a in r] for r in rows], GF(101),
                       ncols).rank() <= len(pivots)


# 2^31 - 1 and the next two word primes; inner dimension 1 is one int64
# product, 3, 189 (the 315x210 pivot block) and 4096 take float64 limbs.
# Then the primes on both sides of k (p - 1)^2 = 2^53 for k = 21 (a
# compressed minor) and 189: below it one float64 product, above it int64
@pytest.mark.parametrize("k, p", [
    (k, p) for k in [1, 3, 189, 4096] for p in linalg.KERNEL_PRIMES[:3]]
    + [(21, 20710237), (21, 20710259), (189, 6903397), (189, 6903419)])
def test_matmul_mod_matches_python_ints(p, k):
    rng = np.random.default_rng(k)
    # either operand the one with fewer entries, and stacks broadcast as
    # the compressed minors take them
    for xshape, yshape in [((5, k), (k, 3)), ((3, k), (k, 7)),
                           ((2, 1, 4, k), (3, k, 2))]:
        x, y = rng.integers(0, p, xshape), rng.integers(0, p, yshape)
        x[..., 0] = p - 1  # the largest code in every row
        y[..., :1, :] = p - 1
        got = modular.matmul_mod(x, y, p)
        assert got.dtype == np.int64
        assert got.tolist() \
            == (x.astype(object) @ y.astype(object) % p).tolist()
    # every dot product at its largest
    full = np.full((2, k), p - 1)
    assert modular.matmul_mod(full, full.T.copy(), p).tolist() \
        == [[k * (p - 1) ** 2 % p] * 2] * 2
    with pytest.raises(PreconditionError):
        modular.matmul_mod(full, full.T.copy(), 2147483659)


def test_inverse_from_lu_inverts_the_pivot_block():
    # blocks of more than 32 rows are halved, smaller ones swept
    rng = np.random.default_rng(5)
    for n in (0, 1, 5, 33, 100):
        a = rng.integers(0, P1, (n, n))
        lu, perm, pivots = linalg._lu(a, P1)
        assert pivots == list(range(n))
        inverse = linalg._inverse_from_lu(lu[:n, pivots], P1)
        assert (modular.matmul_mod(a[perm], inverse, P1) == np.eye(n)).all()


def _rank_deficient_rows(rng, bits, nrows, ncols, rank):
    """Seeded integer rows of the given rank: `rank` rows of signed
    bits-bit entries, then sums of two of them."""
    rows = [[rng.randrange(-(1 << bits), 1 << bits) for _ in range(ncols)]
            for _ in range(rank)]
    while len(rows) < nrows:
        a, b = rng.sample(rows[:rank], 2)
        rows.append([u + v for u, v in zip(a, b)])
    return [[Fraction(v) for v in r] for r in rows]


@pytest.mark.parametrize("bits", [20, 60, 120])
def test_lift_and_kernel_match_fraction_rref(bits):
    # _lift gives A_RP^-1 A_RF, the rref's free columns, as numerators
    # over each column's least denominator; int64 codes below 2^63 and
    # Python-int codes above
    rng = random.Random(bits)
    for nrows, ncols, rank in [(4, 7, 4), (6, 9, 4), (7, 5, 3)]:
        rows = _rank_deficient_rows(rng, bits, nrows, ncols, rank)
        codes = ExactMatrix(rows, QQ, ncols).codes()
        assert codes.dtype == (np.int64 if bits < 62 else object)
        ref, pivots = linalg._rref([list(r) for r in rows], QQ)
        lu, perm, lu_pivots = linalg._lu(codes, P1)
        assert lu_pivots == pivots
        free = [j for j in range(ncols) if j not in pivots]
        used, lifted = linalg._lift(codes[perm[:rank]], lu, pivots, free,
                                    P1, len(linalg.KERNEL_PRIMES))
        assert 2 <= used < len(linalg.KERNEL_PRIMES)
        for f, (nums, den) in zip(free, lifted):
            assert [Fraction(x, den) for x in nums] \
                == [ref[i][f] for i in range(rank)]
            assert den == math.lcm(*(ref[i][f].denominator
                                     for i in range(rank)))
        assert linalg._multimodular_kernel(codes, ncols) \
            == (pivots, _fraction_kernel(rows, ncols))


def _residues(columns, modulus):
    return [[x.numerator * pow(x.denominator, -1, modulus) % modulus
             for x in col] for col in columns]


def test_common_denominator_reconstruction_matches_each_column():
    rng = random.Random(3)
    modulus = math.prod(linalg.KERNEL_PRIMES[:4])

    def column(den):
        return [Fraction(rng.randrange(-10 ** 6, 10 ** 6), den)
                for _ in range(6)]
    cases = {
        # one shared denominator: a kernel's columns over det(A_RP)
        "shared": [column(7 ** 9) for _ in range(5)],
        "varied": [column(rng.randrange(1, 1000)) for _ in range(5)],
        # coprime denominators near 2^21: their lcm pushes the numerators
        # past the bound, so the columns are taken one by one
        "coprime": [column(d) for d in (2 ** 21 + 1, 2 ** 21 + 3,
                                         2 ** 21 + 5, 2 ** 21 + 9)],
    }
    for name, columns in cases.items():
        residues = _residues(columns, modulus)
        lifted = linalg._reconstruct_columns(residues, modulus)
        assert lifted == [linalg._reconstruct(col, modulus)
                          for col in residues], name
        assert [[Fraction(x, den) for x in nums] for nums, den in lifted] \
            == columns, name
    # a column with no small fraction fails alone, and the others do not
    residues = _residues(cases["varied"], modulus)
    residues[2][0] = rng.randrange(modulus)
    lifted = linalg._reconstruct_columns(residues, modulus)
    assert lifted == [linalg._reconstruct(col, modulus) for col in residues]
    assert lifted.index(None) == 2 and lifted.count(None) == 1


def test_reconstruction_shares_one_denominator():
    # 1/2, 3/4 and -5/6 come back as numerators over their lcm 12
    modulus = P1 * P2
    residues = [pow(2, -1, modulus), 3 * pow(4, -1, modulus) % modulus,
                -5 * pow(6, -1, modulus) % modulus]
    assert linalg._reconstruct(residues, modulus) == ([6, 9, -10], 12)


def _horner(coeffs, x, field):
    acc = field.zero
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def test_polynomial_helpers_mod_p():
    p = 7
    # (x - 1)^2 * (x - 3)
    f = [(-1 * -1 * -3) % p, (1 * 1 + 2 * 3) % p, (-2 - 3) % p, 1]
    assert modular.poly_degree(f) == 3
    g = modular.poly_gcd(f, modular.poly_derivative(f, p), p)
    assert modular.poly_degree(g) == 1
    assert _horner(g, 1, GF(p)) == 0
    # below p, gcd(g, g') keeps each repeated root once fewer times, so
    # deg g - deg gcd(g, g') counts the distinct roots
    p = 101
    rng = random.Random(5)
    for _ in range(20):
        roots = rng.sample(range(p), rng.randrange(1, 6))
        g = [rng.randrange(1, p)]
        for r in roots:
            for _ in range(rng.randrange(1, 5)):
                g = modular.poly_trim(
                    [(a - r * b) % p for a, b in zip([0] + g, g + [0])], p)
        repeated = modular.poly_gcd(g, modular.poly_derivative(g, p), p)
        assert modular.poly_degree(g) - modular.poly_degree(repeated) \
            == len(roots)


def test_lagrange_interpolation_round_trip():
    p = 101
    rng = random.Random(2)
    coeffs = [rng.randrange(p) for _ in range(6)]
    xs = list(range(7))
    ys = [_horner(coeffs, x, GF(p)) for x in xs]
    rec = modular.lagrange_interpolate(xs, ys, GF(p))
    assert rec == modular.poly_trim(coeffs, p)
    # 22 nodes over GF(25), the drop-curve line interpolation's shape
    E = GF(5, 2)
    xs = list(E.elements())[:22]
    coeffs = [E.random_element(rng) for _ in range(21)] + [E.one]
    ys = [_horner(coeffs, x, E) for x in xs]
    assert modular.lagrange_interpolate(xs, ys, E) == coeffs
    assert modular.lagrange_interpolate(xs, [E.zero] * 22, E) == []
    with pytest.raises(PreconditionError):
        modular.lagrange_interpolate([1, 2, 1 + p], [0, 1, 2], GF(p))
    with pytest.raises(PreconditionError):
        modular.lagrange_interpolate(xs[:3] + xs[:1], ys[:4], E)


# ---- stacked elimination ----------------------------------------------


def _special_stack(rng, q, batch, nrows, ncols):
    """Seeded random codes in range(q), the first matrices made singular:
    all zero, a repeated row, a zero column, a row twice another."""
    a = rng.integers(0, q, size=(batch, nrows, ncols), dtype=np.int64)
    a[1::2] *= rng.random((len(a[1::2]), nrows, ncols)) < 0.3
    if batch >= 4 and nrows >= 2:
        a[0] = 0
        a[1, 1] = a[1, 0]
        a[2, :, 0] = 0
        a[3, -1] = a[3, 0]
    return a


_STACK_SHAPES = [(0, 4, 4), (1, 5, 5), (12, 3, 3), (9, 6, 6), (10, 7, 4),
                 (10, 4, 7), (6, 1, 5), (6, 5, 1), (3, 0, 2), (3, 2, 0),
                 # more than one chunk of the core
                 (modular.CHUNK_ENTRIES // 36 + 7, 6, 6)]


@pytest.mark.parametrize("p", [5, 101, 65521, P1])
@pytest.mark.parametrize("shape", _STACK_SHAPES, ids=str)
def test_stacked_rank_and_det_match_one_matrix_at_a_time(p, shape):
    a = _special_stack(np.random.default_rng(shape[0] * p), p, *shape)
    ranks = modular.rank_mod_p(a, p)
    assert ranks.dtype == np.int64 and ranks.shape == (shape[0],)
    assert ranks.tolist() == [modular.rank_mod_p(m, p) for m in a]
    if shape[1] == shape[2]:
        dets = modular.det_mod_p(a, p)
        assert dets.dtype == np.int64
        assert dets.tolist() == [modular.det_mod_p(m, p) for m in a]
    if len(a):
        # a 2-d matrix keeps its int results
        assert type(modular.rank_mod_p(a[0], p)) is int
        if shape[1] == shape[2]:
            assert type(modular.det_mod_p(a[0], p)) is int


@pytest.mark.parametrize("shape", _STACK_SHAPES, ids=str)
def test_stacked_gf25_rank_and_det_match_one_matrix_at_a_time(shape):
    tabs = modular.quadratic_tables(GF(5, 2))
    a = _special_stack(np.random.default_rng(shape[0]), 25, *shape)
    ranks = tabs.batch_rank(a)
    assert ranks.dtype == np.int64
    assert ranks.tolist() == [tabs.batch_rank(m) for m in a]
    if shape[1] == shape[2]:
        assert tabs.det(a).tolist() == [tabs.det(m) for m in a]


def test_stacked_det_of_a_large_gf25_batch():
    # two rounds of drop-curve compressions (4 draws x 22 nodes each), more
    # than one chunk of 21x21 GF(25) matrices
    tabs = modular.quadratic_tables(GF(5, 2))
    a = _special_stack(np.random.default_rng(176), 25, 176, 21, 21)
    a[100:120, 20] = a[100:120, 3]
    dets = tabs.det(a)
    assert dets.tolist() == [tabs.det(m) for m in a]
    assert not dets[:4].any() and not dets[100:120].any() and dets[4:].any()


@pytest.mark.parametrize("field", [GF(5, 2), GF(7, 2), GF(11, 2), GF(101),
                                   GF(2 ** 31 - 1)], ids=repr)
def test_arithmetic_matmul_matches_exact_matmul(field):
    # packed GF(p^2) codes and GF(p) residues multiply as the field
    # scalars do, empty shapes included; over GF(2^31 - 1) an inner
    # dimension of 3 sums past int64 and takes matmul_mod's float64 limbs
    arith = modular.field_arithmetic(field)
    q = field.char ** field.degree
    assert 3 * (2 ** 31 - 2) ** 2 >= 1 << 63
    rng = np.random.default_rng(q % 1009)

    def exact(codes, ncols):
        return ExactMatrix(codes.tolist(), field, ncols)

    for n, k, m in [(4, 3, 5), (1, 7, 2), (0, 3, 2), (2, 3, 0), (2, 0, 3)]:
        x, y = rng.integers(0, q, (n, k)), rng.integers(0, q, (k, m))
        x[:, :1] = q - 1  # the largest code in every row
        got = arith.matmul(x, y)
        assert got.shape == (n, m) and got.dtype == np.int64
        assert got.tolist() == exact(x, k).matmul(exact(y, m)).codes().tolist()


def test_reduced_elimination_keeps_the_canonical_rref():
    # kernel, ExactMatrix.rref and _multimodular_kernel read the rref of a
    # 2-d array left in place by eliminate(..., reduced=True)
    rng = random.Random(5)
    for p in (7, 65521, P1):
        F = GF(p)
        arith = modular.prime_arithmetic(p)
        for nrows, ncols in [(4, 7), (7, 4), (5, 5), (3, 6)]:
            rows = [[rng.randrange(p) if rng.random() < 0.6 else 0
                     for _ in range(ncols)] for _ in range(nrows)]
            rows[-1] = [(2 * a + b) % p for a, b in zip(rows[0], rows[1])]
            a = np.array(rows, dtype=np.int64)
            pivots, _ = modular.eliminate(a, arith, reduced=True)
            ref_rows, ref_pivots = linalg._rref([list(r) for r in rows], F)
            assert pivots == ref_pivots
            assert a.tolist() == [[int(v) for v in r] for r in ref_rows]
            # a stack reduces each of its matrices to the same rref
            stack = np.array([rows, rows[::-1], np.zeros_like(rows)])
            ranks, _ = modular.eliminate(stack, arith, reduced=True)
            assert ranks.tolist() == [len(pivots), len(pivots), 0]
            assert stack[0].tolist() == a.tolist()
            assert stack[1].tolist() == a.tolist()


def test_stacked_inverse_mod_a_31_bit_prime_builds_no_table():
    # a stack inverts its pivots at once; below 2^16 through a table of
    # every code, above it code by code, never through a 2^31-entry table
    p = (1 << 31) - 1
    arith = modular.PrimeArithmetic(p)
    x = np.array([1, 2, p - 1, 2, 123456789], dtype=np.int64)
    inv = arith.inv(x)
    assert inv.dtype == np.int64
    assert inv.tolist() == [pow(int(v), -1, p) for v in x]
    assert "inverses" not in vars(arith)
    with pytest.raises(PreconditionError):
        modular.PrimeArithmetic(1 << 31)
    small = modular.PrimeArithmetic(101)
    assert small.inv(np.array([3, 5])).tolist() == [34, 81]
    assert "inverses" in vars(small)
