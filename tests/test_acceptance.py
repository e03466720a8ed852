"""Acceptance gate: twelve end-to-end criteria, one test each.

Every test asserts the mathematical claim together with a pinned
wall-clock budget, so `pytest -v` reads as one pass/fail line per
criterion.  Two criteria are deliberately left red rather than patched
over: the stored degree-9 reference curve is not the plane rank-drop
divisor of the family member (1, -1, 1, -1, 1) it is filed under, and
its stored singular point matches the member (1, -2, 1, -2, 2) instead.
The tests in test_catalog.py pin down that attribution; here the checks
state the filed expectation and fail with the measured facts.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache

from apolarkit import catalog
from apolarkit.apolarity import (
    PointSet,
    cube_span_contains,
    is_apolar_pointset,
    is_apolar_variety,
    min_partial_rank_scan,
)
from apolarkit.cli import random_rational_points
from apolarkit.fields import GF, QQ
from apolarkit.forms import HomogeneousForm, monomial_count, parse_form
from apolarkit.rankloci import (
    classify_singularity,
    drop_degree_on_line,
    interpolate_drop_curve,
    singular_points_plane_curve,
)
from apolarkit.resolutions import (
    GENERIC_CUBIC_APOLAR_BETTI,
    apolar_quotient_module,
    graded_betti,
    m2_matrix,
    points_quotient_module,
)

BUDGET_SECONDS = {
    1: 30.0,   # family Betti table
    2: 10.0,   # per seed, point Betti tables
    3: 10.0,   # generic rank of the second-syzygy matrix
    4: 60.0,   # rank-drop degree along lines
    5: 120.0,  # plane drop curve vs the stored reference
    6: 30.0,   # singular point of the plane drop curve
    7: 5.0,    # family annihilation
    8: 10.0,   # transfer maps
    9: 60.0,   # scroll example
    10: 10.0,  # rank drop along the Veronese surface
    11: 30.0,  # dual-route apolarity certificates
    12: 5.0,   # minimum partial rank scan
}

FAMILY = (1, -1, 1, -1, 1)


def _elapsed_ok(criterion, t0):
    elapsed = time.perf_counter() - t0
    budget = BUDGET_SECONDS[criterion]
    print("criterion %d: %.1fs of %.0fs budget" % (criterion, elapsed, budget))
    assert elapsed <= budget, (
        "criterion %d took %.1fs, budget %.0fs" % (criterion, elapsed, budget))
    return elapsed


@lru_cache(maxsize=1)
def _family_plane_curve_mod5():
    M = m2_matrix(catalog.cubic_family(*FAMILY, field=GF(5)))
    R = M.substitute(catalog.plane_substitution(GF(5)))
    return interpolate_drop_curve(R, 20, seed=0)


def test_criterion_01_family_cubic_has_generic_betti_table():
    t0 = time.perf_counter()
    f = catalog.cubic_family(*FAMILY)
    table = graded_betti(apolar_quotient_module(f, 4), 6, 9, max_row=3)
    _elapsed_ok(1, t0)
    assert table.nonzero() == GENERIC_CUBIC_APOLAR_BETTI


def test_criterion_02_point_betti_tables_over_five_seeds():
    refs = catalog.reference_betti_tables()
    for count, name in ((9, "points-9"), (10, "points-10")):
        for seed in range(5):
            t0 = time.perf_counter()
            Z = PointSet(random_rational_points(count, seed), QQ)
            table = graded_betti(points_quotient_module(Z, 4), 6, 9, max_row=3)
            elapsed = time.perf_counter() - t0
            print("criterion 2: %d points seed %d in %.1fs" %
                  (count, seed, elapsed))
            assert elapsed <= BUDGET_SECONDS[2], (
                "seed %d of %d points took %.1fs" % (seed, count, elapsed))
            assert table == refs[name], (count, seed)


def test_criterion_03_m2_matrix_has_rank_21_at_random_points():
    t0 = time.perf_counter()
    M = m2_matrix(catalog.cubic_family(*FAMILY))
    assert (M.nrows, M.ncols) == (35, 21)
    ranks = [M.evaluate_at(list(pt)).rank()
             for pt in random_rational_points(10, seed=0)]
    _elapsed_ok(3, t0)
    assert ranks == [21] * 10, ranks


def test_criterion_04_drop_degree_is_nine_on_random_lines():
    t0 = time.perf_counter()
    field = GF(101)
    M = m2_matrix(catalog.cubic_family(*FAMILY, field=field))
    rng = random.Random(0)

    def line():
        while True:
            a = [field.random_element(rng) for _ in range(6)]
            b = [field.random_element(rng) for _ in range(6)]
            if any(a) and any(b) and any(
                    (a[i] * b[j] - a[j] * b[i]) % 101
                    for i in range(6) for j in range(i + 1, 6)):
                return (a, b)

    degrees = [drop_degree_on_line(M, line(), 20, seed=rng.randrange(1 << 30))
               for _ in range(5)]
    _elapsed_ok(4, t0)
    assert degrees == [9] * 5, degrees


def test_criterion_05_plane_drop_curve_matches_stored_reference():
    t0 = time.perf_counter()
    curve = _family_plane_curve_mod5()
    ref = catalog.reference_drop_curve_mod5()
    assert curve.degree == 9
    F5 = GF(5)
    lead_c = next(i for i, c in enumerate(curve.coeffs) if not F5.is_zero(c))
    lead_r = next(i for i, c in enumerate(ref.coeffs) if not F5.is_zero(c))
    scale = F5.div(ref.coeffs[lead_r], curve.coeffs[lead_c])
    normalized = curve.scale(scale)
    print("criterion 5: computed %s" % curve.to_text())
    print("criterion 5: stored   %s" % ref.to_text())
    _elapsed_ok(5, t0)
    assert normalized == ref, (
        "the interpolated degree-9 divisor of the member (1,-1,1,-1,1) is "
        "not the stored curve, and no coordinate change can make it so: the "
        "two curves have 5 vs 7 rational points over GF(5) and 29 vs 27 over "
        "GF(25).  The stored curve is reproduced exactly by the member "
        "(1,-2,1,-2,2); see test_catalog.py::"
        "test_stored_curve_comes_from_the_shifted_parameters.")


def test_criterion_06_drop_curve_singular_point_is_the_stored_node():
    t0 = time.perf_counter()
    curve = _family_plane_curve_mod5()
    ext = GF(5, 2)
    singulars = singular_points_plane_curve(curve.lift_to(ext))
    assert len(singulars) == 1, singulars
    grade = classify_singularity(curve.lift_to(ext), list(singulars[0]))
    location = [ext.format_scalar(c) for c in singulars[0]]
    print("criterion 6: unique singular point %s graded %s" %
          (location, grade))
    assert grade == "node"
    _elapsed_ok(6, t0)
    assert location == ["0", "1", "0"], (
        "the unique GF(25) singular point of the computed divisor is an "
        "ordinary node at (1:0:0), not the stored (0:1:0); the stored "
        "location belongs to the divisor of the member (1,-2,1,-2,2), whose "
        "node sits exactly there (see test_catalog.py::"
        "test_stored_curve_comes_from_the_shifted_parameters).")


def test_criterion_07_veronese_quadrics_annihilate_the_family():
    t0 = time.perf_counter()
    from apolarkit.apolarity import apolar_action

    quadrics = catalog.veronese_ideal_quadrics()
    rng = random.Random(7)
    for trial in range(20):
        params = [Fraction(rng.randint(-9, 9),
                           rng.choice((1, 1, 1, 2, 3))) for _ in range(5)]
        f = catalog.cubic_family(*params)
        assert all(apolar_action(q, f).is_zero() for q in quadrics), params
    _elapsed_ok(7, t0)


def test_criterion_08_transfer_maps_are_mutually_inverse():
    t0 = time.perf_counter()
    from apolarkit.apolarity import apolar_action

    rng = random.Random(8)
    quadrics = catalog.veronese_ideal_quadrics()
    for trial in range(20):
        a = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        if not any(a):
            a[0] = Fraction(1)
        cube = HomogeneousForm.linear(a, QQ, "z").power(6)
        image = catalog.s_map(cube)
        target = HomogeneousForm.linear(catalog.veronese_point(a),
                                        QQ, "x").power(3)
        assert image == target, a
        g = HomogeneousForm(3, 6, [Fraction(rng.randint(-4, 4))
                                   for _ in range(monomial_count(3, 6))],
                            QQ, "z")
        lifted = catalog.s_map(g)
        assert catalog.m_star(lifted) == g
        assert all(apolar_action(q, lifted).is_zero() for q in quadrics)
    _elapsed_ok(8, t0)


def test_criterion_09_scroll_cubic_checks_out():
    t0 = time.perf_counter()
    cubic = catalog.scroll_apolar_cubic()
    assert is_apolar_variety(catalog.scroll_minors(), cubic)
    table = graded_betti(apolar_quotient_module(cubic, 4), 6, 9, max_row=3)
    assert table.nonzero() == GENERIC_CUBIC_APOLAR_BETTI
    M = m2_matrix(cubic)
    zero = parse_form("0", QQ, alphabet="z", degree=1)
    subs = [parse_form("z0", QQ, "z"), parse_form("z1", QQ, "z"),
            parse_form("z2", QQ, "z"), zero, zero, zero]
    R = M.substitute(subs)
    rng = random.Random(9)
    for _ in range(5):
        pt = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
        if not any(pt):
            pt[0] = Fraction(1)
        assert R.evaluate_at(pt).rank() == 21, pt
    _elapsed_ok(9, t0)


def test_criterion_10_rank_drops_along_the_veronese_surface():
    t0 = time.perf_counter()
    M = m2_matrix(catalog.cubic_family(*FAMILY))
    rng = random.Random(0)
    ranks = []
    while len(ranks) < 20:
        a = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
        if not any(a):
            continue
        ranks.append(M.evaluate_at(list(catalog.veronese_point(a))).rank())
    _elapsed_ok(10, t0)
    assert all(r <= 20 for r in ranks), ranks
    assert sum(1 for r in ranks if r == 20) > 10, ranks


def test_criterion_11_dual_route_apolarity_on_100_instances():
    t0 = time.perf_counter()
    positives = negatives = 0
    for i in range(50):
        k = 5 + (i % 6)
        forms, lams, f = catalog.random_power_sum(k, seed=100 + i)
        Z = PointSet([g.coeffs for g in forms], QQ, allow_duplicates=False)
        route_a = is_apolar_pointset(Z, f)
        route_b = cube_span_contains(Z, f)
        assert route_a == route_b and route_a, ("positive", i)
        positives += 1
        rng = random.Random(500 + i)
        l = HomogeneousForm.linear(
            [Fraction(rng.randint(-7, 7) or 1) for _ in range(6)], QQ, "x")
        g_bad = f + l.power(3)
        route_a = is_apolar_pointset(Z, g_bad)
        route_b = cube_span_contains(Z, g_bad)
        assert route_a == route_b and not route_a, ("negative", i)
        negatives += 1
    assert positives == 50 and negatives == 50
    _elapsed_ok(11, t0)


def test_criterion_12_min_partial_rank_over_all_points_mod5():
    t0 = time.perf_counter()
    f = catalog.cubic_family(*FAMILY, field=GF(5))
    best = min_partial_rank_scan(f)
    _elapsed_ok(12, t0)
    assert best >= 4, best
