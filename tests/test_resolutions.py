import hashlib
import itertools
import json
import random
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from apolarkit import catalog, linalg, resolutions
from apolarkit.apolarity import (
    PointSet,
    apolar_ideal_component,
    evaluation_matrix,
    ideal_of_points_component,
    ideal_span,
    q_f,
)
from apolarkit.cli import random_rational_points
from apolarkit.errors import PreconditionError
from apolarkit.fields import GF, QQ
from apolarkit.forms import (
    HomogeneousForm,
    monomial_count,
    monomial_exponents,
    monomial_index,
    parse_form,
)
from apolarkit.linalg import (
    CERTIFICATE_PRIMES,
    ExactMatrix,
    _primitive_integer_row,
)
from apolarkit.resolutions import (
    GENERIC_CUBIC_APOLAR_BETTI,
    BettiTable,
    GradedModule,
    LinearFormMatrix,
    apolar_quotient_module,
    graded_betti,
    koszul_differential,
    linear_syzygies,
    m2_matrix,
    points_quotient_module,
    quadric_ideal_module,
)
from reference_elimination import rref as reference_rref
from reference_elimination import watch_object_eliminations


def _three_point_module():
    return points_quotient_module(
        PointSet(random_rational_points(3, seed=7), QQ), 3)


def _paper_member_module():
    return apolar_quotient_module(catalog.cubic_family(1, -1, 1, -1, 1), 3)


def _veronese_quadric_module():
    return quadric_ideal_module(catalog.veronese_ideal_quadrics(), 3)


def _module_coordinates(module, k, ambient):
    """Coordinates over the basis B_k of each column of `ambient`, whose
    blocks of rows(E_k) rows each lie in the image of E_k: solved block by
    block against E_k[:, B_k] by Fraction rref."""
    E, basis = module.piece(k)
    nrows = E.shape[0]
    coords = []
    for start in range(0, ambient.shape[0], nrows):
        block = ambient[start:start + nrows]
        augmented = [[Fraction(E[r, m]) for m in basis]
                     + [Fraction(v) for v in block[r]] for r in range(nrows)]
        rows, pivots = reference_rref(augmented, QQ)
        # E_k[:, B_k] has independent columns and the block lies in its span
        assert pivots == list(range(len(basis)))
        coords.extend(row[len(basis):] for row in rows[:len(basis)])
    return ExactMatrix(coords, QQ, ambient.shape[1])


@pytest.mark.parametrize("build", [_three_point_module, _paper_member_module,
                                   _veronese_quadric_module],
                         ids=["points", "apolar", "veronese-quadrics"])
def test_koszul_differentials_compose_to_zero(build):
    # each differential lands in Lambda (x) rows(E), so the inner one is
    # mapped back to module coordinates before composing
    module = build()
    for i, j in [(1, 2), (2, 3), (1, 3)]:
        outer = koszul_differential(module, i, j)
        inner = koszul_differential(module, i + 1, j)
        inner_coords = _module_coordinates(module, j - i, inner)
        assert outer.shape[1] == inner_coords.nrows
        product = ExactMatrix(outer.tolist(), QQ, outer.shape[1]) \
            .matmul(inner_coords)
        assert product == ExactMatrix.zeros(outer.shape[0], inner.shape[1], QQ)


def test_single_point_resolution_is_koszul():
    # one point in five-dimensional projective space cuts out five
    # independent hyperplanes, so the strand-0 row is binomial
    Z = PointSet([(1, 2, 3, 4, 5, 6)], QQ)
    module = points_quotient_module(Z, 3)
    table = graded_betti(module, 5, 5, max_row=0)
    assert table.nonzero() == {(0, 0): 1, (1, 1): 5, (2, 2): 10,
                               (3, 3): 10, (4, 4): 5, (5, 5): 1}


def _line_or_plane(directions, params):
    return [tuple(sum(c * d[k] for c, d in zip((1,) + ts, directions))
                  for k in range(6)) for ts in params]


_P = CERTIFICATE_PRIMES[0]

# name -> (points, Hilbert function in degrees 0..4)
POINT_CONFIGURATIONS = {
    "seeded-9": (random_rational_points(9, seed=0), [1, 6, 9, 9, 9]),
    # five points on a line and seven on a plane: the Hilbert function
    # stays below |Z| in the low degrees
    "collinear-5": (_line_or_plane([(1, 1, 0, 2, 0, 1), (0, 1, 3, 0, 1, 1)],
                                   [(t,) for t in range(5)]),
                    [1, 2, 3, 4, 5]),
    "coplanar-7": (_line_or_plane([(1, 0, 2, 0, 1, 0), (0, 1, 1, 0, 0, 2),
                                   (0, 0, 1, 1, 1, 1)],
                                  [(0, 0), (1, 0), (0, 1), (1, 1), (2, 3),
                                   (-1, 2), (3, -2)]),
                   [1, 3, 6, 7, 7]),
    # distinct over QQ, the same point modulo the certificate prime; the
    # rref of the evaluation matrix divides by p, so the mod-p reduction
    # of some differentials fails and graded_betti must rank them exactly
    "congruent-pair": ([(1, 0, 0, 0, 0, 0), (1, _P * _P, _P, 0, 0, 0)],
                       [1, 2, 2, 2, 2]),
    # collinear modulo p only: every reduction succeeds, but multiplication
    # by y2 vanishes mod p, so the mod-p ranks fall short and must not be
    # trusted
    "collinear-mod-p": ([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                         (1, 1, _P, 0, 0, 0)], [1, 3, 3, 3, 3]),
}


@lru_cache(maxsize=None)
def _points_module(name, scale=1):
    # point k is given by scale**k times its stored representative
    points = [tuple(scale ** k * c for c in p)
              for k, p in enumerate(POINT_CONFIGURATIONS[name][0])]
    return points_quotient_module(PointSet(points, QQ), 4)


def _fraction_betti_cells(nvars, presentations, cells):
    """Betti numbers by Fraction elimination alone, sharing no code with
    GradedModule: each M_j is read off the rref of its presentation (the
    pivot monomials are a basis and the rref column of a monomial holds
    its coordinates), y_t sends m to the rref column of y_t*m one degree
    up, and every Koszul differential is ranked by reference_rref."""
    pieces = []
    for mat in presentations:
        rows, pivots = reference_rref([[Fraction(a) for a in r]
                                     for r in mat.rows], QQ)
        pieces.append((rows[:len(pivots)], pivots))

    @lru_cache(maxsize=None)
    def rank(i, j):
        k = j - i
        if not 1 <= i <= nvars or k < 0:
            return 0
        (_, basis), (target_rows, target_basis) = pieces[k], pieces[k + 1]
        exps = monomial_exponents(nvars, k)
        idx = monomial_index(nvars, k + 1)
        faces = {s: n for n, s in
                 enumerate(itertools.combinations(range(nvars), i - 1))}
        dim = len(target_basis)
        columns = []
        for S in itertools.combinations(range(nvars), i):
            for m in basis:
                col = [Fraction(0)] * (len(faces) * dim)
                for pos, t in enumerate(S):
                    e = list(exps[m])
                    e[t] += 1
                    at = faces[S[:pos] + S[pos + 1:]] * dim
                    for r in range(dim):
                        col[at + r] = (-1) ** pos * target_rows[r][idx[tuple(e)]]
                columns.append(col)
        if not columns or not columns[0]:
            return 0
        return len(reference_rref(columns, QQ)[1])

    return {(i, j): comb(nvars, i) * len(pieces[j - i][1])
            - rank(i, j) - rank(i + 1, j) for i, j in cells}


# The nonzero cells of the two largest configurations, recorded with
# _fraction_betti_cells, which takes 27 s and 9 s on them on a 2-core
# machine, too long to repeat on every run; the exact integer-echelon
# ranks of the earlier module class gave the same cells, and seeded-9 is
# the stored points-9 reference table.
PINNED_EXACT_CELLS = {
    "seeded-9": {(1, 2): 12, (2, 3): 25, (3, 4): 15, (3, 5): 6, (4, 6): 10,
                 (5, 7): 3},
    "coplanar-7": {(1, 1): 3, (1, 3): 3, (1, 4): 1, (2, 2): 3, (2, 4): 11,
                   (2, 5): 4, (3, 3): 1, (3, 5): 15, (3, 6): 6, (4, 6): 9,
                   (4, 7): 4, (5, 7): 2, (5, 8): 1},
}


@lru_cache(maxsize=None)
def _exact_betti_cells(name):
    cells = [(i, j) for i in range(1, 7) for j in range(i, i + 4)]
    if name in PINNED_EXACT_CELLS:
        return {key: PINNED_EXACT_CELLS[name].get(key, 0) for key in cells}
    Z = PointSet(POINT_CONFIGURATIONS[name][0], QQ)
    return _fraction_betti_cells(
        6, [evaluation_matrix(Z, j) for j in range(5)], cells)


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("name", sorted(POINT_CONFIGURATIONS))
def test_points_betti_matches_exact_cells(name, scale, monkeypatch):
    # the table must not depend on the representatives of the points
    module = _points_module(name, scale)
    expected = _exact_betti_cells(name)
    exact_ranks = []
    rank = resolutions.code_rank

    def counting_rank(codes, field):
        exact_ranks.append(codes.shape)
        return rank(codes, field)

    monkeypatch.setattr(resolutions, "code_rank", counting_rank)
    table = graded_betti(module, 6, 9, max_row=3)
    assert table.entry(0, 0) == 1
    for (i, j), b in expected.items():
        assert table.entry(i, j) == b, (name, i, j)
    if name in ("congruent-pair", "collinear-mod-p"):
        assert exact_ranks, "the exact fallback was not taken"


def _count_exact_work(monkeypatch):
    """Record every multimodular kernel, exact rank and elimination of the
    rationals themselves, the kernel's exact fallback."""
    calls = []

    def counting(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    monkeypatch.setattr(linalg, "_multimodular_kernel",
                        counting("_multimodular_kernel",
                                 linalg._multimodular_kernel))
    monkeypatch.setattr(resolutions, "code_rank",
                        counting("rank", resolutions.code_rank))
    watch_object_eliminations(monkeypatch,
                              lambda shape: calls.append("eliminate"))
    return calls


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                   30])
def test_generic_points_betti_takes_no_exact_elimination(count, monkeypatch):
    # the mod-p ranks, with the strand row past the window, prove every
    # cell from 5 points on; the module is built one degree past the
    # window, as `betti` does.  Below 5 points some ranks are left to
    # code_rank, which proves them by a verified kernel, never by the
    # exact fallback.
    Z = PointSet(random_rational_points(count, seed=0), QQ)
    calls = _count_exact_work(monkeypatch)
    table = graded_betti(points_quotient_module(Z, 5), 6, 9, max_row=3)
    assert "eliminate" not in calls
    if count >= 5:
        assert calls == []
    assert table.entry(0, 0) == 1


@pytest.mark.parametrize("name", ["seeded-2", "seeded-3", "seeded-4",
                                  "congruent-pair"])
def test_module_pivots_match_fraction_pivots(name, monkeypatch):
    if name == "congruent-pair":
        points = POINT_CONFIGURATIONS[name][0]
    else:
        points = random_rational_points(int(name[-1]), seed=0)
    Z = PointSet(points, QQ)
    want = [tuple(reference_rref([[Fraction(a) for a in r]
                                for r in evaluation_matrix(Z, j).rows], QQ)[1])
            for j in range(5)]
    calls = _count_exact_work(monkeypatch)
    module = points_quotient_module(Z, 4)
    assert [module.piece(j)[1] for j in range(5)] == want
    assert "eliminate" not in calls
    if name == "congruent-pair":
        # the two points agree mod p, so degrees 1 to 4 take the kernel
        assert calls.count("_multimodular_kernel") == 4


def test_paper_member_betti_takes_no_exact_elimination(monkeypatch):
    f = catalog.cubic_family(1, -1, 1, -1, 1)
    calls = _count_exact_work(monkeypatch)
    table = graded_betti(apolar_quotient_module(f, 9), 6, 9, max_row=3)
    assert calls == []
    assert table.nonzero() == GENERIC_CUBIC_APOLAR_BETTI


@pytest.mark.parametrize("name", sorted(POINT_CONFIGURATIONS))
def test_evaluation_module_matches_ideal_quotient_dims(name):
    points, hilbert = POINT_CONFIGURATIONS[name]
    Z = PointSet(points, QQ)
    module = _points_module(name)
    dims = [module.piece_dim(j) for j in range(5)]
    assert dims == hilbert
    assert dims[:4] == [monomial_count(6, j)
                        - ideal_of_points_component(Z, j).nrows
                        for j in range(4)]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("name", ["family(1,-1,1,-1,1)", "fermat",
                                  "x0^3+x1*x2*x3"])
def test_catalecticant_module_matches_apolar_ideal_dims(name, field):
    if name == "fermat":
        f = catalog.fermat_cubic(field)
    elif name.startswith("family"):
        f = catalog.cubic_family(1, -1, 1, -1, 1, field=field)
    else:
        f = parse_form(name, field, "x")
    dims = [apolar_quotient_module(f, 9).piece_dim(j) for j in range(10)]
    assert dims[:4] == [
        monomial_count(6, j) - apolar_ideal_component(f, j).nrows
        for j in range(4)]
    # I_f holds every form above deg f
    assert dims[4:] == [0] * 6


def test_graded_module_refuses_presentation_of_wrong_width():
    identity = ExactMatrix.identity(6, QQ)
    with pytest.raises(PreconditionError, match="presentation 2 has 6 columns"):
        GradedModule(6, QQ, [ExactMatrix.identity(1, QQ), identity, identity])


def test_points_module_refuses_beyond_built_degree_and_multisets():
    module = points_quotient_module(PointSet([(1, 0, 0, 0, 0, 0)], QQ), 2)
    with pytest.raises(PreconditionError):
        module.piece_dim(3)
    with pytest.raises(PreconditionError):
        koszul_differential(module, 1, 3)
    doubled = PointSet([(1, 0, 0, 0, 0, 0)] * 2, QQ, allow_duplicates=True)
    with pytest.raises(PreconditionError):
        points_quotient_module(doubled, 2)


def test_generic_power_sum_has_generic_betti_table():
    _, _, f = catalog.random_power_sum(10, seed=2)
    module = apolar_quotient_module(f, 9)
    table = graded_betti(module, 6, 9, max_row=3)
    assert table.nonzero() == GENERIC_CUBIC_APOLAR_BETTI


# Betti tables of two degenerate cubics, recorded while S/I_f was still
# the quotient by the rref of each ideal piece.  Neither is the generic
# table, so some Koszul differentials miss the mod-p rule and are ranked
# exactly.
NON_GENERIC_APOLAR_BETTI = {
    "x0^3+x1^3+x2^3+x3^3+x4^3+x5^3": {
        (0, 0): 1, (1, 2): 15, (1, 3): 5, (2, 3): 40, (2, 4): 24,
        (3, 4): 45, (3, 5): 45, (4, 5): 24, (4, 6): 40, (5, 6): 5,
        (5, 7): 15, (6, 9): 1},
    "x0*x1*x2+x3^2*x4": {
        (0, 0): 1, (1, 1): 1, (1, 2): 10, (1, 3): 2, (2, 3): 28,
        (2, 4): 13, (3, 4): 29, (3, 5): 29, (4, 5): 13, (4, 6): 28,
        (5, 6): 2, (5, 7): 10, (5, 8): 1, (6, 9): 1},
}


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("text", sorted(NON_GENERIC_APOLAR_BETTI))
def test_non_generic_apolar_betti_tables_are_pinned(text, field):
    f = parse_form(text, field, "x")
    table = graded_betti(apolar_quotient_module(f, 5), 6, 9, max_row=4)
    assert table.nonzero() == NON_GENERIC_APOLAR_BETTI[text]


def test_graded_betti_refuses_cells_beyond_built_degree():
    Z = PointSet([(1, 0, 0, 0, 0, 0)], QQ)
    module = points_quotient_module(Z, 2)
    with pytest.raises(PreconditionError):
        graded_betti(module, 2, 4, max_row=3)


def test_veronese_quadric_module_betti_cells():
    forms = catalog.veronese_ideal_quadrics()
    module = quadric_ideal_module(forms, 3)
    assert [module.piece_dim(j) for j in range(4)] == [1, 6, 15, 28]
    table = graded_betti(module, 2, 3, max_row=1)
    assert table.entry(1, 2) == 6
    assert table.entry(2, 3) == 8
    reference = _fraction_betti_cells(
        6, [ideal_span(forms, j).kernel_basis() for j in range(4)],
        [(1, 2), (2, 3)])
    assert reference == {(1, 2): 6, (2, 3): 8}


def test_veronese_linear_syzygies_both_orders():
    Q = catalog.veronese_ideal_quadrics()
    assert linear_syzygies(Q, 1).nrows == 8
    assert linear_syzygies(Q, 2).nrows == 3
    with pytest.raises(PreconditionError):
        linear_syzygies(Q, 3)


def test_two_coprime_squares_guard_and_koszul_syzygy():
    Q = [parse_form("y0^2"), parse_form("y1^2")]
    # the only first syzygy is the degree-2-coefficient Koszul relation,
    # so the order-2 linear strand is not minimal and must be refused
    with pytest.raises(PreconditionError):
        linear_syzygies(Q, 2)
    assert linear_syzygies(Q, 1).nrows == 0


def test_linear_syzygies_refuse_dependent_quadrics():
    q1, q2 = parse_form("y0^2"), parse_form("y1^2")
    with pytest.raises(PreconditionError, match="linearly dependent"):
        linear_syzygies([q1, q2, q1 + q2], 1)


def test_betti_table_json_round_trip_and_render():
    table = BettiTable(GENERIC_CUBIC_APOLAR_BETTI)
    assert table.to_json()["entries"] == [
        [i, j, b] for (i, j), b in sorted(GENERIC_CUBIC_APOLAR_BETTI.items())]
    assert table.entry(2, 3) == 35
    assert table.entry(2, 4) == 0
    text = table.render_text()
    assert "35" in text and "21" in text
    with pytest.raises(ValueError):
        BettiTable({(1, 2): -1})


def test_m2_matrix_shape_and_generic_rank():
    f = catalog.cubic_family(1, -1, 1, -1, 1)
    M = m2_matrix(f)
    assert (M.nrows, M.ncols) == (35, 21)
    for point in random_rational_points(2, seed=11):
        assert M.evaluate_at(point).rank() == 21


def test_m2_rank_is_invariant_under_basis_changes():
    # the matrix itself depends on the chosen syzygy bases; its rank at a
    # point must not
    f = catalog.cubic_family(1, -1, 1, -1, 1)
    M = m2_matrix(f)
    rng = random.Random(13)

    def random_invertible(n):
        while True:
            mat = ExactMatrix([[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                               for _ in range(n)], QQ)
            if mat.rank() == n:
                return mat

    A = random_invertible(35)
    B = random_invertible(21)
    for point in random_rational_points(2, seed=17):
        scalar = M.evaluate_at(list(point))
        assert A.matmul(scalar).matmul(B).rank() == scalar.rank() == 21


# sha256 of the compact sorted JSON of m2_matrix(f).to_json(), recorded
# while the large syzygy kernels were still taken by integer echelon and
# Fraction back-substitution; the canonical bases must not change
M2_GOLDEN_SHA256 = {
    "family(1,-1,1,-1,1)":
        "02e0e3dea54bff24f11b02473819c8b684658e6ff1fc0a478d0408f636b3b8b2",
    "scroll-cubic":
        "4f51bca7aa6088dc8214d0cd3e436d41107aa170c8179f363a9830cb7340f8de",
}


@pytest.mark.parametrize("name", sorted(M2_GOLDEN_SHA256))
def test_m2_matrix_matches_golden_fixture(name):
    if name == "scroll-cubic":
        f = catalog.scroll_apolar_cubic()
    else:
        f = catalog.cubic_family(1, -1, 1, -1, 1)
    text = json.dumps(m2_matrix(f).to_json(), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == M2_GOLDEN_SHA256[name]


# sha256 of the compact sorted JSON of to_json() where the coefficients are
# no integers: the GF(25) m2 matrix of the paper member, in that matrix
# substituted by forms with w in their coefficients, and the QQ one
# substituted by forms with fractions, whose entries lie over den > 1
TO_JSON_SHA256 = {
    "gf25":
        "f825f79d6b206dea023656e933f1c8c0001ae069d518561f4c5af286bb94dac4",
    "gf25-substituted":
        "7244115478a0c9ce530400e9055e7c140159f3c9d094047031c4691438f95e4f",
    "qq-substituted":
        "b1ee6b65e53b7c9028f7e6c0c534ba076f997f11578f3e88c2acb6d753faec1c",
}


def test_to_json_text_of_codes_and_fractions_is_pinned():
    F = GF(5, 2)
    w_rows = [[1, 5, 0], [0, 1, 6], [7, 0, 1], [1, 1, 1], [0, 0, 13],
              [24, 2, 0]]
    half_rows = [[1, Fraction(1, 3), 0], [0, 1, -2], [Fraction(-5, 7), 0, 1],
                 [1, 1, 1], [0, 0, 3], [2, 2, 0]]
    M = m2_matrix(catalog.cubic_family(1, -1, 1, -1, 1, field=F))
    N = m2_matrix(catalog.cubic_family(1, -1, 1, -1, 1))
    matrices = {
        "gf25": M,
        "gf25-substituted": M.substitute(
            [HomogeneousForm.linear(r, F, "z") for r in w_rows]),
        "qq-substituted": N.substitute(
            [HomogeneousForm.linear(r, QQ, "z") for r in half_rows]),
    }
    texts = {name: json.dumps(A.to_json(), sort_keys=True,
                              separators=(",", ":"))
             for name, A in matrices.items()}
    assert "*w)*z" in texts["gf25-substituted"]
    assert matrices["qq-substituted"].den > 1
    for name, text in texts.items():
        assert hashlib.sha256(text.encode()).hexdigest() \
            == TO_JSON_SHA256[name], name
    # the same text as each entry's own form gives
    for A in matrices.values():
        assert A.to_json()["entries"] == [[e.to_text() for e in row]
                                          for row in A.entries]


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=repr)
def test_rank_at_matches_evaluate_at(field):
    # the m2 sample ranks and the repro ranks take rank_at, on the integer
    # matrix at() gives at the point scaled to coprime integers over QQ;
    # evaluate_at goes through the field's scalars
    M = m2_matrix(catalog.cubic_family(1, -1, 1, -1, 1, field=field))
    R = M.substitute(catalog.plane_substitution(field))
    rng = random.Random(23)
    points = [catalog.random_nonzero_vector(6, field, rng) for _ in range(3)]
    # points of the Veronese surface, where the rank drops to 20
    points += [list(catalog.veronese_point(
        [rng.randint(1, 9), rng.randint(-9, 9), rng.randint(-9, 9)], field))
        for _ in range(3)]
    ranks = [M.rank_at(pt) for pt in points]
    assert ranks == [M.evaluate_at(pt).rank() for pt in points]
    assert ranks == [21] * 3 + [20] * 3
    planar = [catalog.random_nonzero_vector(3, field, rng) for _ in range(3)]
    assert [R.rank_at(pt) for pt in planar] \
        == [R.evaluate_at(pt).rank() for pt in planar]
    with pytest.raises(PreconditionError):
        M.rank_at(points[0][:5])


# the cubics of the benchmark's syzygy-qq workload: the paper member, the
# scroll cubic and four family members
SYZYGY_QQ_CUBICS = [(1, -1, 1, -1, 1), "scroll", (3, 3, 1, -2, 4),
                    (-5, 4, 4, 3, -3), (1, 4, 2, 3, 3), (1, -3, -1, 3, -2)]


@pytest.mark.parametrize("params", SYZYGY_QQ_CUBICS, ids=str)
def test_linear_syzygies_take_no_fraction_rref(params, monkeypatch):
    # both syzygy kernels of m2_matrix close on the multimodular route
    f = catalog.scroll_apolar_cubic() if params == "scroll" \
        else catalog.cubic_family(*params)
    Q = [HomogeneousForm(6, 2, _primitive_integer_row(row), QQ, "y")
         for row in q_f(f).rref().rows]
    calls = []
    watch_object_eliminations(monkeypatch, calls.append)
    resolutions._linear_syzygies_cached.cache_clear()
    dims = [linear_syzygies(Q, order, guard=False).nrows for order in (1, 2)]
    assert dims == [35, 21]
    assert calls == []


@pytest.mark.parametrize("params", SYZYGY_QQ_CUBICS, ids=str)
def test_order_2_syzygy_kernel_takes_one_elimination(params, monkeypatch):
    # the 315 x 210 kernel lifts p-adically from one elimination mod the
    # first kernel prime; a per-prime loop would eliminate it 5 to 10 times
    f = catalog.scroll_apolar_cubic() if params == "scroll" \
        else catalog.cubic_family(*params)
    Q = [HomogeneousForm(6, 2, _primitive_integer_row(row), QQ, "y")
         for row in q_f(f).rref().rows]
    resolutions._linear_syzygies_cached.cache_clear()
    linear_syzygies(Q, 1, guard=False)
    shapes = []
    real_eliminate = linalg.modular.eliminate

    def counting_eliminate(a, *args, **kwargs):
        shapes.append(a.shape)
        return real_eliminate(a, *args, **kwargs)

    monkeypatch.setattr(linalg.modular, "eliminate", counting_eliminate)
    assert linear_syzygies(Q, 2, guard=False).nrows == 21
    assert shapes.count((315, 210)) == 1


@pytest.mark.parametrize("params", SYZYGY_QQ_CUBICS, ids=str)
def test_q_f_rref_matches_fraction_rref(params, monkeypatch):
    # the 15 x 21 basis m2_matrix reduces, read off its verified kernel
    f = catalog.scroll_apolar_cubic() if params == "scroll" \
        else catalog.cubic_family(*params)
    basis = q_f(f)
    ref, _ = reference_rref([list(r) for r in basis.rows], QQ)
    calls = _count_exact_work(monkeypatch)
    assert basis.rref() == ExactMatrix(ref, QQ, 21)
    assert calls == ["_multimodular_kernel"]


CROSS_BACKEND_FIELDS = [QQ, GF(101), GF(linalg.KERNEL_PRIMES[0]),
                        GF(2147483659)]


@pytest.mark.parametrize("params", [(1, -1, 1, -1, 1), (3, 3, 1, -2, 4),
                                    (1, 4, 2, 3, 3), (-5, 4, 4, 3, -3),
                                    (1, -3, -1, 3, -2)], ids=str)
def test_betti_table_and_m2_ranks_agree_across_backends(params):
    # exact QQ (certified mod-p ranks and multimodular kernels), the
    # GF(101) core, the GF(p) core at the first kernel prime, p near 2^31,
    # and the object arithmetic past 2^31; (1, 4, 2, 3, 3) is a rank-20
    # member of the syzygy-qq pool
    rng = random.Random(23)
    points = [[rng.randint(-30, 30) for _ in range(6)] for _ in range(3)]
    seen = []
    for field in CROSS_BACKEND_FIELDS:
        f = catalog.cubic_family(*params, field=field)
        table = graded_betti(apolar_quotient_module(f, 9), 6, 9, max_row=3)
        M = m2_matrix(f)
        ranks = [M.evaluate_at([field.from_int(v) for v in point]).rank()
                 for point in points]
        seen.append((table.nonzero(), ranks))
    assert seen[0][0] == GENERIC_CUBIC_APOLAR_BETTI
    assert seen[0][1] == [20 if params == (1, 4, 2, 3, 3) else 21] * 3
    assert seen == [seen[0]] * len(CROSS_BACKEND_FIELDS)


# linear-form matrices over every field LinearFormMatrix.at multiplies in:
# m2 of the paper member over a named field (QQ also by the member's
# name), GF(p) on both sides of 2^31 and GF(5^2); m2 of the scroll cubic
# (43-digit coefficients); and a QQ matrix whose entries have fractional
# coefficients, so den != 1
BIG_FIELD_CASES = ["GF(2147483647)", "GF(2147483659)", "GF(5^2)",
                   "QQ-fractional"]


@lru_cache(maxsize=None)
def _linear_form_matrix(name):
    if name == "scroll-cubic":
        return m2_matrix(catalog.scroll_apolar_cubic())
    if name == "QQ-fractional":
        M = _linear_form_matrix("QQ")
        return LinearFormMatrix.from_entries(
            [[e.scale(Fraction(1 + j % 4, 2 + i % 5)) for j, e in enumerate(row)]
             for i, row in enumerate(M.entries)])
    if name == "GF(5^2)":
        return m2_matrix(catalog.cubic_family(1, -1, 1, -1, 1, field=GF(5))
                         .lift_to(GF(5, 2)))
    field = GF(int(name[3:-1])) if name.startswith("GF(") else QQ
    return m2_matrix(catalog.cubic_family(1, -1, 1, -1, 1, field=field))


def _random_scalar(field, rng):
    if field == QQ:
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    return field.random_element(rng)


@pytest.mark.parametrize("name", ["family(1,-1,1,-1,1)", "scroll-cubic",
                                  "GF(101)"] + BIG_FIELD_CASES)
def test_evaluate_at_matches_form_evaluation(name):
    M = _linear_form_matrix(name)
    if name == "QQ-fractional":
        assert M.den == 60
    rng = random.Random(19)
    for _ in range(2):
        point = [_random_scalar(M.field, rng) for _ in range(6)]
        scalar = M.evaluate_at(point)
        want = tuple(tuple(e.evaluate(point) for e in row)
                     for row in M.entries)
        assert scalar.field == M.field and scalar.rows == want
        assert [type(v) for row in scalar.rows for v in row] \
            == [type(v) for row in want for v in row]
    with pytest.raises(PreconditionError):
        M.evaluate_at(point[:5])


def test_m2_matrix_refuses_non_generic_cubic():
    with pytest.raises(PreconditionError):
        m2_matrix(catalog.fermat_cubic())
    with pytest.raises(PreconditionError):
        m2_matrix(parse_form("x0^2*x1"))


def _small_linear_matrix():
    x0 = HomogeneousForm.linear([1, 0, 0, 0, 0, 0], QQ, "y")
    x1 = HomogeneousForm.linear([0, 1, 0, 0, 0, 0], QQ, "y")
    mix = HomogeneousForm.linear([7, 0, 0, 0, 0, -2], QQ, "y")
    zero = HomogeneousForm.linear([0] * 6, QQ, "y")
    return LinearFormMatrix.from_entries([[x0, x1], [mix, zero]])


def test_linear_form_matrix_is_immutable_and_serializes():
    M = _small_linear_matrix()
    with pytest.raises(AttributeError):
        M.nrows = 3
    data = M.to_json()
    assert data["rows"] == 2 and data["cols"] == 2
    assert data["entries"][1][0] == "7*y0-2*y5"
    with pytest.raises(ValueError):
        LinearFormMatrix.from_entries([[parse_form("y0^2")]])


def test_linear_form_matrix_substitution_commutes_with_evaluation():
    M = _small_linear_matrix()
    subs = [parse_form(t, alphabet="z", degree=1)
            for t in ["z0", "z1", "z2", "z0+z1", "z1-z2", "z0+2*z2"]]
    restricted = M.substitute(subs)
    for point in [(1, 2, 3), (0, 1, 0), (-2, 5, 7)]:
        p = [Fraction(c) for c in point]
        images = [s.evaluate(p) for s in subs]
        assert restricted.evaluate_at(p).rows == M.evaluate_at(images).rows


@pytest.mark.parametrize("name", ["QQ", "GF(5)", "GF(101)"] + BIG_FIELD_CASES)
def test_linear_form_matrix_substitute_matches_compose(name):
    # the plane restriction, entry by entry against the term-by-term
    # expansion of HomogeneousForm.compose; the fractional matrix takes
    # substituents with fractional coefficients
    M = _linear_form_matrix(name)
    subs = [g.lift_to(M.field)
            for g in catalog.plane_substitution(GF(5) if name == "GF(5^2)"
                                                else M.field)]
    if name == "QQ-fractional":
        subs = [g.scale(Fraction(1, 3 + t)) for t, g in enumerate(subs)]
    restricted = M.substitute(subs)
    assert type(restricted) is LinearFormMatrix
    assert (restricted.nrows, restricted.ncols, restricted.nvars) == (35, 21, 3)
    for row, got_row in zip(M.entries, restricted.entries):
        for entry, got in zip(row, got_row):
            want = entry.compose(subs)
            assert type(got) is type(want) and got == want
            assert [type(c) for c in got.coeffs] == \
                [type(c) for c in want.coeffs]


def test_linear_form_matrix_coefficient_slices_and_reduction():
    M = _small_linear_matrix()
    # layer t: the coefficient of y_t in every entry, stored read-only
    assert M.coefficients.shape == (6, 2, 2) and M.den == 1
    assert not M.coefficients.flags.writeable
    assert M.coefficients[0].tolist() == [[1, 0], [7, 0]]
    assert M.coefficients[5].tolist() == [[0, 0], [-2, 0]]
    Mp = M.reduce_mod_p(5)
    assert Mp.field == GF(5)
    seven = Mp.evaluate_at([GF(5).one] + [GF(5).zero] * 5).entry(1, 0)
    assert seven == GF(5).from_int(7)
    # over QQ one denominator, in lowest terms, serves every entry
    half = HomogeneousForm.linear([Fraction(1, 2)] + [0] * 5, QQ, "y")
    third = HomogeneousForm.linear([0, Fraction(2, 3)] + [0] * 4, QQ, "y")
    H = LinearFormMatrix.from_entries([[half, third]])
    assert H.den == 6
    assert H.coefficients[:2].tolist() == [[[3, 0]], [[0, 4]]]
    assert H.entries == ((half, third),)
    assert LinearFormMatrix([[[2, 4]], [[6, 0]]], QQ, den=8).den == 4
    # the reduction of the paper member, and of a matrix with
    # denominators, is the reduction of every entry
    for N in map(_linear_form_matrix, ("QQ", "QQ-fractional")):
        assert N.reduce_mod_p(101).entries == tuple(
            tuple(e.reduce_mod_p(101) for e in row) for row in N.entries)
    # a denominator divisible by p has no reduction
    for p in (2, 3):
        with pytest.raises(PreconditionError):
            H.reduce_mod_p(p)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 23, 29, 79])
def test_reduce_mod_p_refuses_bad_reduction(p):
    # the paper member's QQ m2, reduced coefficient by coefficient: mod 5,
    # 7 and 13 its (nvars nrows) x ncols flattening drops from rank 21 to
    # 4, 10 and 4, which caps its rank at every point; elsewhere it
    # reaches 21 at 8 points, as the native GF(p) matrix does
    M = _linear_form_matrix("QQ")
    assert M.den == 1
    naive = LinearFormMatrix(M.coefficients % p, GF(p), M.alphabet)
    rng = random.Random(p)
    best = max(naive.rank_at([rng.randrange(p) for _ in range(6)])
               for _ in range(8))
    bad = {5: 4, 7: 10, 13: 4}
    if p in bad:
        assert best == bad[p]
        with pytest.raises(PreconditionError,
                           match="bad reduction mod %d: .* rank 21 over QQ "
                                 "has rank %d" % (p, bad[p])):
            M.reduce_mod_p(p)
    else:
        assert best == 21
        assert M.reduce_mod_p(p).coefficients.tolist() \
            == naive.coefficients.tolist()


def test_linear_form_matrix_refuses_gf_p2_past_the_tables():
    # GF(13^2) is past the lookup tables: its object arithmetic would
    # multiply at() right, but the matrix stays refused, so m2 and the
    # rank-locus scans over GF(p^2) keep to the tabled fields
    F = GF(13, 2)
    with pytest.raises(PreconditionError, match="GF\\(13\\^2\\)"):
        LinearFormMatrix.from_entries(
            [[HomogeneousForm.linear([F.one, F.zero], F, "z")]])
    with pytest.raises(PreconditionError):
        LinearFormMatrix([[[1]], [[0]]], F, "z")


def test_linear_form_matrix_holds_codes_up_to_int64():
    # 2^63 - 25 is the largest prime GF(p) takes; its codes fill int64
    F = GF(2 ** 63 - 25)
    assert LinearFormMatrix([[[F.p - 1]], [[0]]], F, "z").rank_at([1, 0]) == 1
