import random
from types import SimpleNamespace

import pytest

from apolarkit import catalog, modular, rankloci
from apolarkit.errors import PreconditionError, UnstableComputationError
from apolarkit.fields import GF, QQ, projective_points
from apolarkit.forms import HomogeneousForm, parse_form
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
    # doubled entry drops along a single line; interpolation sees it reduced
    line = interpolate_drop_curve(diag_matrix(GF(5), repeat=True), 1,
                                  target_degree=1)
    assert line == parse_form("z0", field=GF(5))
    with pytest.raises(PreconditionError):
        interpolate_drop_curve(M, 1, target_degree=1)
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


def test_unstable_minor_gcd_raises_and_interpolation_skips_the_line():
    # one round can never show two equal rounds, so the gcd never settles
    M = diag_matrix(GF(101))
    assert drop_degree_on_line(M, ((1, 2, 3), (4, 5, 6)), 1) == 2
    with pytest.raises(UnstableComputationError):
        drop_degree_on_line(M, ((1, 2, 3), (4, 5, 6)), 1, max_rounds=1)
    # det = z0^2 - 2*z1^2 is a conic with the single F_5 point (0:0:1), so
    # the point conditions leave corank 5 and only line gcds pin it down
    F = GF(5)
    conic = LinearFormMatrix([[lf([1, 0, 0], F), lf([0, 2, 0], F)],
                              [lf([0, 1, 0], F), lf([1, 0, 0], F)]])
    assert interpolate_drop_curve(conic, 1, extension_degree=1,
                                  target_degree=2) \
        == parse_form("z0^2+3*z1^2", field=F)
    with pytest.raises(UnstableComputationError, match="corank 5"):
        interpolate_drop_curve(conic, 1, extension_degree=1, target_degree=2,
                               max_rounds=1)


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


def _one_at_a_time_gcd(M, size, rng, minor_poly, p, subsets_per_round,
                       max_rounds):
    """The stabilized minor gcd evaluating one subset per draw: the loop
    _stable_minor_gcd batches, kept here as the reference draw order."""
    gcd_acc = inf_acc = None
    for _ in range(max_rounds):
        before = (gcd_acc, inf_acc)
        produced = attempts = 0
        while produced < subsets_per_round:
            attempts += 1
            if attempts > 40 * subsets_per_round:
                raise UnstableComputationError("cap")
            rows = sorted(rng.sample(range(M.nrows), size))
            cols = list(range(size)) if M.ncols == size \
                else sorted(rng.sample(range(M.ncols), size))
            poly = minor_poly(rows, cols)
            if not poly:
                continue
            produced += 1
            gcd_acc = modular.poly_monic(poly, p) if gcd_acc is None \
                else modular.poly_gcd(gcd_acc, poly, p)
            inf_mult = size - modular.poly_degree(poly)
            inf_acc = inf_mult if inf_acc is None else min(inf_acc, inf_mult)
        if gcd_acc is not None and (gcd_acc, inf_acc) == before:
            return gcd_acc, inf_acc
    raise UnstableComputationError("rounds")


def _stub_minor(rows, cols):
    """A made-up restriction: zero for about a third of the subsets, else
    a linear polynomial that depends on the subset."""
    if (sum(rows) + cols[-1]) % 3 == 0:
        return []
    return modular.poly_trim([sum(rows) + 3 * cols[0], 1 + sum(rows)], 101)


@pytest.mark.parametrize("shape", [(35, 21, 21), (10, 8, 4)])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_batched_minor_gcd_draws_the_one_at_a_time_sequence(shape, seed):
    nrows, ncols, size = shape
    M = SimpleNamespace(nrows=nrows, ncols=ncols)
    want = []

    def minor_poly(rows, cols):
        want.append((rows, cols))
        return _stub_minor(rows, cols)

    got = []
    batches = []

    def minor_polys(subsets):
        got.extend(subsets)
        batches.append(len(subsets))
        return [_stub_minor(r, c) for r, c in subsets]

    ref_rng, rng = random.Random(seed), random.Random(seed)
    expect = _one_at_a_time_gcd(M, size, ref_rng, minor_poly, 101, 8, 6)
    assert rankloci._stable_minor_gcd(M, size, rng, minor_polys, 101, 8, 6) \
        == expect
    assert got == want and len(got) > 16
    assert batches[0] == 8 and max(batches) <= 8 and len(batches) > 2
    assert rng.random() == ref_rng.random()


def test_batched_minor_gcd_keeps_the_attempt_cap():
    M = SimpleNamespace(nrows=35, ncols=21)
    requested = []

    def minor_polys(subsets):
        requested.extend(subsets)
        # only the 5th draw survives, so the round never fills
        return [[1, 1] if len(requested) - len(subsets) + i == 4 else []
                for i in range(len(subsets))]

    rng, ref_rng = random.Random(3), random.Random(3)
    with pytest.raises(UnstableComputationError, match="almost all random"):
        rankloci._stable_minor_gcd(M, 21, rng, minor_polys, 101, 8, 6)
    assert len(requested) == 40 * 8
    # the rng stops where the one-at-a-time loop stops: before draw 321
    count = [0]

    def minor_poly(rows, cols):
        count[0] += 1
        return [1, 1] if count[0] == 5 else []

    with pytest.raises(UnstableComputationError):
        _one_at_a_time_gcd(M, 21, ref_rng, minor_poly, 101, 8, 6)
    assert rng.random() == ref_rng.random()
