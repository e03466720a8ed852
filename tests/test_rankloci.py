import random
from functools import lru_cache, partial
from itertools import combinations
from math import comb

import numpy as np
import pytest

from apolarkit import catalog, modular, rankloci
from apolarkit.errors import PreconditionError, UnstableComputationError
from apolarkit.fields import GF, QQ, projective_points
from apolarkit.forms import (
    HomogeneousForm,
    monomial_count,
    monomial_exponents,
    parse_form,
)
from apolarkit.rankloci import (
    classify_singularity,
    drop_degree_on_line,
    drop_report,
    interpolate_drop_curve,
    plane_drop_points,
    singular_points_plane_curve,
)
from apolarkit.resolutions import LinearFormMatrix, m2_matrix, restrict_linear_matrix


def lf(vec, field):
    return HomogeneousForm.linear(vec, field, "z")


def diag_matrix(field, repeat=False):
    z0 = lf([1, 0, 0], field)
    z1 = z0 if repeat else lf([0, 1, 0], field)
    zero = lf([0, 0, 0], field)
    return LinearFormMatrix([[z0, zero], [zero, z1]])


def test_drop_degree_guards():
    with pytest.raises(PreconditionError):
        drop_degree_on_line(diag_matrix(QQ), ((1, 0, 0), (0, 1, 0)), 1)
    with pytest.raises(PreconditionError):
        drop_degree_on_line(diag_matrix(GF(5)), ((1, 0, 0), (0, 1, 0)), 1)
    M = diag_matrix(GF(101))
    with pytest.raises(PreconditionError):
        drop_degree_on_line(M, ((1, 0, 0), (2, 0, 0)), 1)
    with pytest.raises(PreconditionError):
        drop_degree_on_line(M, ((0, 0, 0), (0, 1, 0)), 1)
    with pytest.raises(PreconditionError):
        drop_degree_on_line(M, ((1, 0, 0), (0, 1, 0)), 2)
    # both entries vanish on the z0 = 0 line, so the rank never clears t
    with pytest.raises(PreconditionError):
        drop_degree_on_line(diag_matrix(GF(101), repeat=True),
                            ((0, 1, 0), (0, 0, 1)), 1)


def test_drop_degree_on_synthetic_diagonals():
    M = diag_matrix(GF(101))
    assert drop_degree_on_line(M, ((1, 0, 0), (0, 1, 1)), 1) == 2
    assert drop_degree_on_line(M, ((1, 2, 3), (4, 5, 6)), 1) == 2
    # the doubled entry gives determinant z0^2; the divisor is squarefree
    Mrep = diag_matrix(GF(101), repeat=True)
    assert drop_degree_on_line(Mrep, ((1, 2, 3), (4, 5, 6)), 1) == 1
    single = LinearFormMatrix([[lf([1, 0, 0], GF(101))]])
    assert drop_degree_on_line(single, ((1, 2, 3), (4, 5, 6)), 0) == 1
    # at threshold 0 the two diagonal entries have no common zero on a
    # generic line, so the divisor is empty
    assert drop_degree_on_line(M, ((1, 2, 3), (4, 5, 6)), 0) == 0


def test_drop_degree_on_line_over_a_31_bit_prime():
    # diag(l, c*l) drops along l = 0 alone, once the products of residues
    # near 2^31 (line arrays, compressions, interpolation) do not wrap in
    # int64; wrapped, the two entries stop being proportional
    p = 2147483629
    F = GF(p)
    c = p // 2 + 7
    coeffs = [p - 1, p - 2, p - 3]
    M = LinearFormMatrix([[lf(coeffs, F), lf([0, 0, 0], F)],
                          [lf([0, 0, 0], F), lf([c * v % p for v in coeffs], F)]])
    line = ((p - 1, p - 2, p - 3), (p - 4, p - 5, p - 7))
    assert drop_degree_on_line(M, line, 1) == 1
    assert drop_degree_on_line(M, line, 0) == 1


def test_plane_drop_points_of_diagonal_matrix():
    M = diag_matrix(GF(5))
    base = plane_drop_points(M, 1)
    # two lines with 6 points each, sharing one point
    assert len(base) == 11
    assert all(q[0] == 0 or q[1] == 0 for q in base)
    ext = plane_drop_points(M, 1, extension_degree=2)
    assert len(ext) == 2 * 26 - 1
    with pytest.raises(PreconditionError):
        plane_drop_points(M, 1, extension_degree=3)
    with pytest.raises(PreconditionError):
        plane_drop_points(diag_matrix(QQ), 1)


def test_interpolate_drop_curve_synthetic_cases():
    M = diag_matrix(GF(5))
    conic = interpolate_drop_curve(M, 1, target_degree=2)
    assert conic == parse_form("z0*z1", field=GF(5))
    # the doubled entry drops along a single line, and every line gcd
    # sees the determinant z0^2 there: the curve is that double line, and
    # no line gives a degree-1 restriction
    repeat = diag_matrix(GF(5), repeat=True)
    assert interpolate_drop_curve(repeat, 1, target_degree=2) \
        == parse_form("z0^2", field=GF(5))
    # a definitive refusal, not advice to sample over a larger field
    for matrix, seen in ((repeat, "2"), (M, "2")):
        with pytest.raises(PreconditionError,
                           match="every stable line gcd has degree %s$"
                           % seen) as refused:
            interpolate_drop_curve(matrix, 1, target_degree=1)
        assert refused.type is PreconditionError
    with pytest.raises(PreconditionError):
        interpolate_drop_curve(M, 1, target_degree=0)
    with pytest.raises(PreconditionError):
        interpolate_drop_curve(diag_matrix(QQ), 1)


def test_interpolate_recovers_full_diagonal_product():
    F = GF(5)
    zero = lf([0, 0, 0], F)
    rows = [[zero] * 3 for _ in range(3)]
    for i in range(3):
        vec = [0, 0, 0]
        vec[i] = 1
        rows[i][i] = lf(vec, F)
    M = LinearFormMatrix(rows)
    cubic = interpolate_drop_curve(M, 2, target_degree=3)
    assert cubic == parse_form("z0*z1*z2", field=F)


def test_unstable_minor_gcd_raises_and_interpolation_skips_the_line(
        monkeypatch):
    # one round can never show two equal rounds, so the gcd never settles
    M = diag_matrix(GF(101))
    assert drop_degree_on_line(M, ((1, 2, 3), (4, 5, 6)), 1) == 2
    with monkeypatch.context() as patch:
        patch.setattr(rankloci, "MAX_ROUNDS", 1)
        with pytest.raises(UnstableComputationError):
            drop_degree_on_line(M, ((1, 2, 3), (4, 5, 6)), 1)
    # det = z0^2 - 2*z1^2 is a conic with the single F_p point (0:0:1) for
    # p = 5 and 13, where 2 is a nonresidue, so only line gcds pin it
    # down; over GF(13) these take GF(13) nodes, past the F_{p^2} table
    # guard.  With every gcd unstable no line is used: corank 6
    conics = {}
    for p, text in ((5, "z0^2+3*z1^2"), (13, "z0^2+11*z1^2")):
        F = GF(p)
        conics[p] = LinearFormMatrix([[lf([1, 0, 0], F), lf([0, 2, 0], F)],
                                      [lf([0, 1, 0], F), lf([1, 0, 0], F)]])
        assert interpolate_drop_curve(conics[p], 1, target_degree=2) \
            == parse_form(text, field=F)
    monkeypatch.setattr(rankloci, "MAX_ROUNDS", 1)
    for conic in conics.values():
        with pytest.raises(UnstableComputationError, match="corank 6"):
            interpolate_drop_curve(conic, 1, target_degree=2)


def test_singular_point_scan_and_classification():
    F7 = GF(7)
    nodal = parse_form("z1^2*z2-z0^3-z0^2*z2", field=F7)
    sing = singular_points_plane_curve(nodal)
    assert sing == [(0, 0, 1)]
    assert classify_singularity(nodal, (0, 0, 1)) == "node"
    cusp = parse_form("z1^2*z2-z0^3", field=F7)
    assert singular_points_plane_curve(cusp) == [(0, 0, 1)]
    assert classify_singularity(cusp, (0, 0, 1)) == "worse"
    assert classify_singularity(nodal, (1, 0, 6)) == "smooth"
    with pytest.raises(PreconditionError):
        classify_singularity(nodal, (1, 1, 1))  # not on the curve
    with pytest.raises(PreconditionError):
        singular_points_plane_curve(nodal.lift_to(GF(7, 2)), search_extension=2)
    smooth_conic = parse_form("z0^2+z1^2+z2^2", field=GF(7))
    assert singular_points_plane_curve(smooth_conic, search_extension=2) == []
    triangle = parse_form("z0*z1*z2", field=F7)
    assert singular_points_plane_curve(triangle) == [
        (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def _power(field, a, n):
    acc = field.one
    for _ in range(n):
        acc = field.mul(acc, a)
    return acc


def _jet_discriminant_grade(F, pt):
    """Reference grading of a singular point: expand F(pt + u e_a + v e_b)
    off a nonzero coordinate of pt to second order, a u^2 + b uv + c v^2,
    and call it a node when b^2 - 4ac is nonzero."""
    field = F.field
    chart = next(i for i in range(3) if not field.is_zero(pt[i]))
    ia, ib = [i for i in range(3) if i != chart]
    jet = {(2, 0): field.zero, (1, 1): field.zero, (0, 2): field.zero}
    for c, e in F.terms():
        for du, dv in jet:
            if e[ia] < du or e[ib] < dv:
                continue
            val = field.mul(c, field.from_int(comb(e[ia], du) * comb(e[ib], dv)))
            val = field.mul(val, _power(field, pt[ia], e[ia] - du))
            val = field.mul(val, _power(field, pt[ib], e[ib] - dv))
            val = field.mul(val, _power(field, pt[chart], e[chart]))
            jet[(du, dv)] = field.add(jet[(du, dv)], val)
    alpha, beta, gamma = jet[(2, 0)], jet[(1, 1)], jet[(0, 2)]
    if all(field.is_zero(v) for v in (alpha, beta, gamma)):
        return "worse"
    disc = field.sub(field.mul(beta, beta),
                     field.mul(field.from_int(4), field.mul(alpha, gamma)))
    return "node" if not field.is_zero(disc) else "worse"


def _random_ternary(rng, field, degree, density=1.0):
    return HomogeneousForm(
        3, degree, [rng.randrange(field.char) if rng.random() < density else 0
                    for _ in range(monomial_count(3, degree))], field, "z")


@pytest.mark.parametrize("p", [5, 7])
def test_hessian_rank_grading_matches_the_jet_discriminant(p):
    # sparse forms and products of random forms have singular points, at
    # crossings (mostly nodes) and along repeated factors (worse)
    F = GF(p)
    rng = random.Random(p)
    grades = []
    for degree in range(2, 6):
        for _ in range(6):
            low = rng.randrange(1, degree)
            forms = [_random_ternary(rng, F, degree, density=0.4),
                     _random_ternary(rng, F, low).multiply(
                         _random_ternary(rng, F, degree - low)),
                     _random_ternary(rng, F, 1).power(2).multiply(
                         _random_ternary(rng, F, degree - 2))]
            for form in forms:
                if form.is_zero():
                    continue
                for k in (1, 2):
                    G = form.lift_to(GF(p, k))
                    for pt in singular_points_plane_curve(form,
                                                          search_extension=k):
                        grade = classify_singularity(G, pt)
                        assert grade == _jet_discriminant_grade(G, pt), (G, pt)
                        grades.append(grade)
    assert grades.count("node") >= 20 and grades.count("worse") >= 20
    zero_line = lf([0, 0, 0], F)
    assert classify_singularity(zero_line, (1, 2, 3)) == "worse"
    assert _jet_discriminant_grade(zero_line, (1, 2, 3)) == "worse"


def test_restricted_family_matrix_has_degree_nine_plane_divisor():
    # the full-space line measurement and the plane interpolation both see
    # degree 9; here the line lives inside the distinguished plane
    m2 = m2_matrix(catalog.cubic_family(1, -1, 1, -1, 1, field=GF(101)))
    R = restrict_linear_matrix(m2, catalog.plane_substitution(GF(101)))
    assert (R.nrows, R.ncols, R.nvars) == (35, 21, 3)
    assert drop_degree_on_line(R, ((1, 2, 3), (4, 5, 6)), 20) == 9
    assert drop_degree_on_line(R, ((1, 0, 0), (0, 1, 1)), 20, seed=3) == 9


def test_drop_report_structure():
    curve = parse_form("z0*z1", field=GF(5))
    pts = plane_drop_points(diag_matrix(GF(5)), 1)[:2]
    report = drop_report("diag", 1, [2, 2], curve, pts, "node")
    assert report["curve"] == "z0*z1"
    assert report["line_degrees"] == [2, 2]
    assert len(report["singular_points"]) == 2
    ext_pt = [(GF(5, 2).one, GF(5, 2).zero, GF(5, 2).zero)]
    report2 = drop_report("diag", 1, [], curve.lift_to(GF(5, 2)), ext_pt,
                          "node", point_field=GF(5, 2))
    assert report2["singular_points"][0][0] == GF(5, 2).format_scalar(GF(5, 2).one)
    report3 = drop_report("diag", 1, [9], None, [], None)
    assert report3["curve"] is None


def _det7(rows):
    return int(modular.det_mod_p(rows, 7))


def test_compressed_minor_is_the_cauchy_binet_combination():
    # det(L M(s) R) = sum over row sets S and column sets T of
    # det(L_S) det(M(s)_{S,T}) det(R_T), for M(s) = A + sB of shape 6x4
    # compressed to 3x3 from both sides; the interpolated restriction
    # agrees with it at every s in F_7
    rng = np.random.default_rng(7)
    A, B = rng.integers(0, 7, (2, 6, 4))
    L, R = rng.integers(0, 7, (3, 6)), rng.integers(0, 7, (4, 3))
    [poly] = rankloci._compressed_minor_polys(
        A, B, list(range(4)), GF(7), partial(modular.det_mod_p, p=7),
        [(L, R)])
    assert poly and len(poly) <= 4
    for s in range(7):
        Ms = (A + s * B) % 7
        binet = sum(_det7(L[:, S]) * _det7(Ms[np.ix_(S, T)]) * _det7(R[T, :])
                    for S in combinations(range(6), 3)
                    for T in combinations(range(4), 3)) % 7
        assert _det7(L @ Ms @ R % 7) == binet
        assert sum(c * s ** k for k, c in enumerate(poly)) % 7 == binet


def test_batched_minor_gcd_keeps_the_attempt_cap(monkeypatch):
    # every compressed minor of a zero matrix vanishes: a round stops after
    # exactly 40 * COMPRESSIONS_PER_ROUND draws, R only where ncols > size
    compressed_minor_polys = rankloci._compressed_minor_polys
    for nrows, ncols, size in [(35, 21, 21), (10, 8, 4)]:
        draws = []

        def counting(A, B, params, field, det, batch):
            draws.extend(batch)
            return compressed_minor_polys(A, B, params, field, det, batch)

        monkeypatch.setattr(rankloci, "_compressed_minor_polys", counting)
        zero = np.zeros((nrows, ncols), dtype=np.int64)
        with pytest.raises(UnstableComputationError, match="almost all random"):
            rankloci._line_minor_gcd(zero, zero, size, 101, random.Random(3))
        assert len(draws) == 40 * rankloci.COMPRESSIONS_PER_ROUND
        for L, R in draws:
            assert L.shape == (size, nrows) and 0 <= L.min() <= L.max() < 101
            if ncols == size:
                assert R is None
            else:
                assert R.shape == (ncols, size) and 0 <= R.min() <= R.max() < 101


@lru_cache(maxsize=None)
def _paper_plane_mod5():
    """The paper member's plane matrix over GF(5) and its drop curve."""
    F = GF(5)
    R = restrict_linear_matrix(
        m2_matrix(catalog.cubic_family(1, -1, 1, -1, 1, field=F)),
        catalog.plane_substitution(F))
    return R, interpolate_drop_curve(R, 20)


# the paper member's plane drop curve over GF(23), as the point-and-line
# interpolation with F_p points gave it
GF23_PAPER_CURVE = (
    "z0^9+5*z0^8*z1+8*z0^8*z2+22*z0^7*z1^2+17*z0^7*z1*z2+3*z0^6*z1^3"
    "+z0^6*z1^2*z2+2*z0^6*z1*z2^2+21*z0^6*z2^3+19*z0^5*z1^4"
    "+15*z0^5*z1^3*z2+8*z0^5*z1^2*z2^2+15*z0^5*z1*z2^3+7*z0^5*z2^4"
    "+21*z0^4*z1^5+9*z0^4*z1^4*z2+18*z0^4*z1^3*z2^2+8*z0^4*z1^2*z2^3"
    "+17*z0^4*z1*z2^4+21*z0^4*z2^5+2*z0^3*z1^6+14*z0^3*z1^5*z2"
    "+15*z0^3*z1^4*z2^2+2*z0^3*z1^3*z2^3+18*z0^3*z1^2*z2^4"
    "+22*z0^3*z1*z2^5+5*z0^3*z2^6+10*z0^2*z1^7+7*z0^2*z1^6*z2"
    "+9*z0^2*z1^5*z2^2+5*z0^2*z1^4*z2^3+10*z0^2*z1^3*z2^4"
    "+5*z0^2*z1^2*z2^5+20*z0^2*z1*z2^6+17*z0^2*z2^7+22*z0*z1^8"
    "+7*z0*z1^7*z2+5*z0*z1^6*z2^2+18*z0*z1^5*z2^3+20*z0*z1^4*z2^4"
    "+20*z0*z1^3*z2^5+13*z0*z1^2*z2^6+16*z0*z1*z2^7+14*z0*z2^8+22*z1^9"
    "+14*z1^8*z2+11*z1^7*z2^2+5*z1^6*z2^3+10*z1^5*z2^4+21*z1^4*z2^5"
    "+14*z1^3*z2^6+17*z1^2*z2^7+8*z1*z2^8+8*z2^9")


@pytest.mark.parametrize("seed", [0, 3])
def test_gf23_paper_plane_curve_is_pinned(seed):
    F = GF(23)
    R = restrict_linear_matrix(
        m2_matrix(catalog.cubic_family(1, -1, 1, -1, 1, field=F)),
        catalog.plane_substitution(F))
    assert interpolate_drop_curve(R, 20, seed=seed).to_text() \
        == GF23_PAPER_CURVE


def test_singular_scan_refuses_fields_past_121_elements():
    F = parse_form("z0*z1", field=GF(23))
    assert singular_points_plane_curve(F) == [(0, 0, 1)]
    with pytest.raises(PreconditionError, match="F_529"):
        singular_points_plane_curve(F, search_extension=2)
    with pytest.raises(PreconditionError, match="F_127"):
        singular_points_plane_curve(parse_form("z0*z1", field=GF(127)))
    assert len(singular_points_plane_curve(
        parse_form("z0*z1", field=GF(11)), search_extension=2)) == 1


@pytest.mark.parametrize("seed", [0, 1])
def test_line_gcds_on_every_f5_line_restrict_the_curve(seed):
    # each stabilized gcd over GF(25) nodes is the curve's restriction to
    # the line, up to scale, never a spurious common factor of too few
    # minors
    R, curve = _paper_plane_mod5()
    lines = [modular.kernel_mod_p([list(dual)], 5).tolist()
             for dual in projective_points(GF(5), 3)]
    assert len(lines) == 31
    for a, b in lines:
        affine, inf_mult = rankloci._line_minor_gcd(
            *rankloci._line_arrays(R, (a, b)), 21, 5, random.Random(seed))
        G = affine + [0] * inf_mult
        weights = rankloci._binary_restriction_weights(a, b, 9, 5)
        restriction = [sum(w * c for w, c in zip(row, curve.coeffs)) % 5
                       for row in weights]
        assert any(restriction) and len(G) == 10
        assert rankloci.proportional(G, restriction, 5), (a, b)


@pytest.mark.parametrize("p", [5, 7])
def test_binary_restriction_weights_match_substitution(p):
    F = GF(p)
    rng = random.Random(p)
    for _ in range(4):
        a = [rng.randrange(p) for _ in range(3)]
        b = [rng.randrange(p) for _ in range(3)]
        weights = rankloci._binary_restriction_weights(a, b, 9, p)
        # z_v -> a_v*u + b_v*s
        line = [HomogeneousForm.linear([av, bv], F) for av, bv in zip(a, b)]
        for i, e in enumerate(monomial_exponents(3, 9)):
            image = HomogeneousForm.monomial(3, e, F, "z").substitute(line)
            assert [row[i] for row in weights] == [
                image.coefficient((9 - k, k)) for k in range(10)]


def _pointwise_singular_points(F, field):
    G = F.lift_to(field)
    forms = [G] + [G.derivative(i) for i in range(3)]
    return [q for q in projective_points(field, 3)
            if all(field.is_zero(g.evaluate(list(q))) for g in forms)]


@pytest.mark.parametrize("text", ["z0*z1", "z0*z1*z2"])
@pytest.mark.parametrize("p", [5, 7])
def test_stacked_singular_scan_matches_the_pointwise_scan(text, p):
    F = parse_form(text, field=GF(p))
    for k in (1, 2):
        got = singular_points_plane_curve(F, search_extension=k)
        assert got == _pointwise_singular_points(F, GF(p, k))
    assert singular_points_plane_curve(F) != []


def test_stacked_singular_scan_of_the_paper_curve_over_gf25():
    _, curve = _paper_plane_mod5()
    got = singular_points_plane_curve(curve, search_extension=2)
    assert got == _pointwise_singular_points(curve, GF(5, 2))
    assert len(got) == 1


