"""Determinantal rank-drop loci of matrices of linear forms.

Three instruments over finite fields:

* drop_degrees_on_lines measures the degree of the rank-drop divisor of
  a matrix along lines, through the gcd of random compressions
  det(L M R), each a random combination of all maximal minors;
* interpolate_drop_curve recovers the drop curve of a 3-variable matrix
  from those gcds along F_p-rational lines, each matched against the
  curve's restriction weights, which are taken over F_p;
* singular_points_plane_curve and classify_singularity locate and grade
  the singularities of plane curves.

Each function works over the one field it is given: a caller who wants
the singular points over F_{p^2} lifts the curve first; the curve
itself takes F_p alone, with no interpolation nodes.  Field elements are
modular.py code arrays, multiplied by the field's arithmetic object; a
matrix is read only by its at(), at the two points of a line or at
plane points.  plane_drop_points, an exhaustive scan of P^2(F_p) for
drop points, has no caller in the curve pipeline; it stays as a
benchmark span target and as a test reference.

Everything here samples; nothing expands symbolic determinants of the
full matrix.  Samples are ranked in stacks, one modular.eliminate call
per stack: the pencils of every line gcd in flight (all lines of a
drop_degrees_on_lines call, both opening rounds of each), the shifts of
singular pencils, and the points of a plane scan.  Randomness is driven
by explicit seeds; outputs are deterministic functions of (input, seed).
"""

from __future__ import annotations

import random
from math import comb

import numpy as np

from . import modular
from .errors import PreconditionError, UnstableComputationError
from .fields import PrimeField, projective_points
from .forms import (HomogeneousForm, monomial_count, monomial_exponents,
                    monomial_values)
from .linalg import ExactMatrix


def proportional(a, b, p):
    """Do two integer vectors agree up to scale mod p (all 2x2 minors 0)?"""
    return all((a[i] * b[j] - a[j] * b[i]) % p == 0
               for i in range(len(a)) for j in range(i + 1, len(a)))


def _line_arrays(M, line):
    """The code arrays (A, B) = M.at([a, b]), so M(a + s*b) = A + s*B."""
    a, b = line
    if len(a) != M.nvars or len(b) != M.nvars:
        raise PreconditionError("line points must have %d coordinates" % M.nvars)
    p = M.field.char
    a = [int(c) % p for c in a]
    b = [int(c) % p for c in b]
    if not any(a) or not any(b):
        raise PreconditionError("zero vector cannot span a line")
    if proportional(a, b, p):
        raise PreconditionError("degenerate line: points are proportional")
    return M.at([a, b])


COMPRESSIONS_PER_ROUND = 4
MAX_ROUNDS = 6
SCAN_FIELD_MAX = 121  # singular scans stop at P^2(F_121): 14,763 points


def _line_minor_gcd(A, B, size, p, rng):
    """Stabilized (gcd, multiplicity at infinity) of the size x size minors
    of A + sB over F_p: one line in flight, with both opening rounds."""
    return _line_minor_gcds([(A, B, rng)], size, p)[0]


def _minor_gcd_steps(A, B, size, p, rng):
    """The stabilization loop of one line gcd, as a generator: it yields
    each batch of compressions it draws, is sent their restrictions, and
    returns (gcd, multiplicity at infinity).

    A draw (L, R) has L of shape size x nrows and, when ncols > size, R of
    shape ncols x size (else None), uniform over F_p.  By Cauchy-Binet,
    det(L M R) is a random F_p-combination of all size x size minors of
    M, so their gcd divides it (Kaltofen-Saunders, AAECC-9, 1991).  Each
    round folds COMPRESSIONS_PER_ROUND nonzero restrictions, in draw
    order, into the gcd and into the multiplicity at infinity (size minus
    the degree); two equal consecutive rounds is the stabilization
    contract.  No gcd settles before its second round, so the first batch
    holds two rounds (one if MAX_ROUNDS is 1), later ones what the round
    misses: never a draw the loop might not reach, so the rng stream is
    that of round-by-round draws.  Raises UnstableComputationError when
    40 * COMPRESSIONS_PER_ROUND draws of a round leave it short, or the
    gcd does not settle within MAX_ROUNDS.
    """
    nrows, ncols = A.shape
    quota, cap = COMPRESSIONS_PER_ROUND, 40 * COMPRESSIONS_PER_ROUND

    def uniform(rows, cols):
        # 64 random bits per entry, reduced mod p < 2^31: bias below 2^-33
        bits = np.frombuffer(rng.randbytes(8 * rows * cols), dtype=np.uint64)
        return (bits % p).astype(np.int64).reshape(rows, cols)

    gcd_acc = inf_acc = before = None
    rounds = produced = attempts = 0
    while True:
        ahead = quota if rounds == 0 and MAX_ROUNDS > 1 else 0
        polys = yield [(uniform(size, nrows),
                        uniform(ncols, size) if ncols > size else None)
                       for _ in range(min(quota - produced + ahead,
                                          cap - attempts))]
        for poly in polys:
            attempts += 1
            if poly:
                produced += 1
                gcd_acc = modular.poly_monic(poly, p) if gcd_acc is None \
                    else modular.poly_gcd(gcd_acc, poly, p)
                inf_mult = size - modular.poly_degree(poly)
                inf_acc = inf_mult if inf_acc is None else min(inf_acc, inf_mult)
            if produced == quota:
                rounds += 1
                if (gcd_acc, inf_acc) == before:
                    return gcd_acc, inf_acc
                if rounds == MAX_ROUNDS:
                    raise UnstableComputationError(
                        "minor gcd did not stabilize within %d rounds"
                        % MAX_ROUNDS)
                before, produced, attempts = (gcd_acc, inf_acc), 0, 0
            elif attempts == cap:
                raise UnstableComputationError(
                    "almost all random %dx%d compressed minors vanish on the "
                    "line" % (size, size))


def _line_minor_gcds(lines, size, p):
    """(gcd, multiplicity at infinity) of each line (A, B, rng), all in flight
    at once: one _pencil_minor_polys call stacks the batches of every line
    still running.  The first line, in order, that failed raises."""
    arrays = np.array([(A, B) for A, B, _ in lines])
    steps = [_minor_gcd_steps(A, B, size, p, rng) for A, B, rng in lines]
    results = [None] * len(lines)
    batches = {i: next(step) for i, step in enumerate(steps)}
    while batches:
        owner = np.repeat(list(batches), [len(d) for d in batches.values()])
        polys = iter(_pencil_minor_polys(
            arrays[owner, 0], arrays[owner, 1],
            [draw for draws in batches.values() for draw in draws], p))
        running = {}
        for i, draws in batches.items():
            try:
                running[i] = steps[i].send([next(polys) for _ in draws])
            except StopIteration as done:
                results[i] = done.value
            except UnstableComputationError as exc:
                results[i] = exc
        batches = running
    for failed in filter(lambda r: isinstance(r, Exception), results):
        raise failed
    return results


def _pencil_minor_polys(A, B, draws, p):
    """Restrictions det(P + sQ), P = L A R and Q = L B R, of a batch of
    compressions over F_p, as coefficient lists ([] where one vanishes).
    A and B are one line's coefficient arrays, or per-draw stacks of
    them, shape (len(draws), nrows, ncols).

    Each draw takes the first shift s0 = 0, 1, ... below min(p, size + 1)
    with C = P + s0 Q invertible, each shift one stack of the draws still
    singular: a reduced elimination of [C | -Q] leaves I on the left
    exactly then, and N = -C^-1 Q on the right.  det(P + sQ) is det C times
    det(I - (s - s0) N) = sum_i chi_i (s - s0)^i, for det(xI - N) =
    sum_i chi_i x^(size - i).  A pencil singular at every shift vanishes
    identically when p > size; for smaller p it is drawn again.
    """
    arith = modular.prime_arithmetic(p)
    size = len(draws[0][0])
    # pencils[draw] = (L A R, L B R)
    pencils = modular.matmul_mod(np.array([L for L, _ in draws])[:, None],
                                 np.stack((A, B), axis=-3), p)
    if draws[0][1] is not None:
        pencils = modular.matmul_mod(
            pencils, np.array([R for _, R in draws])[:, None], p)
    P, Q = pencils[:, 0], pencils[:, 1]
    shifts, dets = np.zeros((2, len(draws)), dtype=np.int64)  # det C or 0
    N = np.zeros((len(draws), size, size), dtype=np.int64)
    for s0 in range(min(p, size + 1)):
        todo = np.flatnonzero(dets == 0)
        if not todo.size:
            break
        stack = np.concatenate(((P[todo] + s0 * Q[todo]) % p, -Q[todo] % p),
                               axis=2)
        _, stack_dets = modular.eliminate(stack, arith, reduced=True)
        ok = (stack[:, :, :size] == np.eye(size)).all(axis=(1, 2))
        shifts[todo[ok]], dets[todo[ok]] = s0, stack_dets[ok]
        N[todo[ok]] = stack[ok, :, size:]
    f = _charpolys(N, p) * dets[:, None] % p
    g = np.zeros_like(f)  # f(s - s0), by Horner's rule in s - s0
    for c in f.T[::-1]:
        g = (np.column_stack((c, g[:, :-1])) - shifts[:, None] * g) % p
    return [modular.poly_trim(row, p) for row in g.tolist()]


def _charpolys(N, p):
    """det(xI - N) of a (batch, n, n) stack of codes mod p, as rows of
    coefficients (1, chi_1, ..., chi_n), highest degree first.

    Berkowitz's division-free algorithm (IPL 18, 1984): bordering the
    leading k x k block N_k by row R, column S and corner a multiplies
    the coefficients by the lower triangular Toeplitz matrix with first
    column (1, -a, -R S, -R N_k S, ..., -R N_k^(k-1) S); R N_k^j S is
    entry k of the diagonal of N V_j, V_0 the strict upper triangle of N
    and V_(j+1) that of N V_j.  Products go through modular.matmul_mod,
    exact for every p < 2^31.
    """
    batch, n, _ = N.shape
    upper = np.triu(np.ones((n, n), dtype=np.int64), 1)
    columns = np.ones((batch, n, n + 1), dtype=np.int64)
    V = np.eye(n, dtype=np.int64)
    for j in range(n):
        W = modular.matmul_mod(N, V, p)
        columns[:, :, j + 1] = -np.diagonal(W, axis1=1, axis2=2) % p
        V = W * upper
    lag = np.subtract.outer(np.arange(n + 1), np.arange(n + 1)) % (n + 1)
    chi = np.eye(1, n + 1, dtype=np.int64).repeat(batch, axis=0)
    for k in range(n):  # step k builds its own (k + 2) x (k + 1) block
        toeplitz = np.tril(columns[:, k, lag[:k + 2, :k + 1]])
        chi[:, :k + 2] = modular.matmul_mod(
            toeplitz, chi[:, :k + 1, None], p)[:, :, 0]
    return chi


def drop_degree_on_line(M, line, t, seed=0):
    """Degree of the squarefree rank-drop divisor of M along a line.

    The line through the two given points is parametrized, every entry of
    M becomes a univariate polynomial of degree at most 1, and random
    compressions L M R of M to (t+1) x (t+1) contribute their determinant
    restricted to the line.  Each is a random combination of all
    (t+1) x (t+1) minors (Cauchy-Binet), and the stabilized gcd of a few
    of them cuts out the locus where the rank falls to t or below; its
    squarefree degree is returned, counting the chart's point at
    infinity once if the gcd vanishes there.  Since p > t + 2 exceeds
    the degree of the gcd g, each repeated root of g appears in
    gcd(g, g') once fewer times, so the squarefree degree is
    deg g - deg gcd(g, g').

    The gcd of the compressions only equals the full-minor gcd when
    enough random ones agree; see _minor_gcd_steps for the stabilization
    contract and the UnstableComputationError raised when it fails.
    """
    return drop_degrees_on_lines(M, [line], t, [seed])[0]


def drop_degrees_on_lines(M, lines, t, seeds):
    """drop_degree_on_line for each line with its seed, all gcds in one
    stack (_line_minor_gcds).  Guards that no line passes raise first,
    then the first line, in order, whose probe or gcd fails."""
    field = M.field
    if not isinstance(field, PrimeField):
        raise PreconditionError("line degree measurement works over GF(p)")
    p = field.char
    if p <= 50:
        raise PreconditionError(
            "need p > 50 for enough line points, got p=%d" % p)
    size = t + 1
    if size > min(M.nrows, M.ncols):
        raise PreconditionError(
            "threshold %d leaves no %dx%d minors in a %dx%d matrix"
            % (t, size, size, M.nrows, M.ncols))
    if p <= size + 1:
        raise PreconditionError("p=%d too small: a squarefree degree-%d "
                                "gcd needs p > %d" % (p, size, size + 1))
    running, refusal = [], None  # (A, B, rng) of each line before a refusal
    for line, seed in zip(lines, seeds, strict=True):
        try:
            A, B = _line_arrays(M, line)
            rng = random.Random(seed)
            # the line must leave the drop locus: probe 3 parameters
            if all(modular.rank_mod_p((A + rng.randrange(p) * B) % p, p)
                   < size for _ in range(3)):
                raise PreconditionError("line inside drop locus: rank <= %d "
                                        "at 3 random parameters" % t)
        except PreconditionError as exc:
            refusal = exc
            break
        running.append((A, B, rng))
    gcds = _line_minor_gcds(running, size, p)  # raises before the refusal
    if refusal is not None:
        raise refusal
    degrees = []
    for g, inf_mult in gcds:
        repeated = modular.poly_gcd(g, modular.poly_derivative(g, p), p)
        degrees.append(modular.poly_degree(g) - modular.poly_degree(repeated)
                       + (inf_mult >= 1))
    return degrees


def plane_drop_points(M, t):
    """All points of P^2(F_p) where rank(M) <= t.

    A standalone exhaustive scan, for a linear-form matrix in 3 variables
    over a prime field; no curve computation calls it.
    """
    field = M.field
    if M.nvars != 3:
        raise PreconditionError("plane scan wants a matrix in 3 variables")
    if not isinstance(field, PrimeField):
        raise PreconditionError("plane scan works over GF(p)")
    p = field.char
    out = []
    for chunk in modular.chunked(projective_points(field, 3),
                                 M.nrows * M.ncols):
        ranks = modular.rank_mod_p(M.at(chunk), p)
        out.extend(chunk[i] for i in np.flatnonzero(ranks <= t))
    return out


def _binary_restriction_weights(a, b, degree, p):
    """weights[k][i]: coefficient of s^k u^(d-k) in monomial_i(u*a + s*b).

    Each monomial prod_v z_v^e_v restricts to prod_v (a_v u + b_v s)^e_v,
    whose factors are C(e, j) a_v^(e-j) b_v^j; every monomial's product
    is multiplied out at once mod p, a factor as its Toeplitz matrix.
    """
    exponents = np.array(monomial_exponents(3, degree))
    span = range(degree + 1)
    lag = np.subtract.outer(span, span) % (degree + 1)  # e - j, for j <= e
    binomials = np.array([[comb(e, j) % p for j in span] for e in span])
    out = np.eye(1, degree + 1, dtype=np.int64)
    for x, y, e in zip(a, b, exponents.T):
        xs, ys = (np.array([pow(c, i, p) for i in span]) for c in (x, y))
        powers = binomials * xs[lag] % p * ys % p  # row e: (x u + y s)^e
        out = modular.matmul_mod(np.tril(powers[e][:, lag]), out[..., None],
                                 p)[..., 0]
    return out.T.tolist()


def _shuffled_plane_points(p, rng):
    """The points of P^2(F_p), as projective_points gives them, in a
    seeded Fisher-Yates shuffle of their indices drawn one at a time."""
    n = p * p + p + 1
    moved = {}  # position -> index, where the shuffle has swapped
    for i in range(n):
        j = rng.randrange(i, n)
        index = moved.get(j, j)
        moved[j] = moved.pop(i, i)
        yield ((1, index // p, index % p) if index < p * p
               else (0, 1, index - p * p) if index < n - 1 else (0, 0, 1))


def interpolate_drop_curve(M, t, seed=0, target_degree=9):
    """The plane curve where a 3-variable linear-form matrix drops rank.

    Along the lines of P^2(F_p), drawn one at a time in a seeded shuffle,
    the homogenized stabilized gcd of the (t+1)-minors is the curve's
    restriction up to scale: target_degree linear conditions on the form
    when its degree is target_degree.  Other lines and unstable gcds are
    skipped.  The gcd sees the determinantal scheme: a doubled component
    comes back squared.  Forms divisible by the product of k <=
    target_degree lines meet those lines' conditions, so the system is
    solved from target_degree + 1 lines on, until it has corank 1.  No
    stable gcd of degree target_degree, or corank 0, refuses the input;
    too few lines or corank >= 2 mean F_p is too small.  The form has
    coefficients in F_p, its first nonzero one (monomial order) 1.
    """

    field = M.field
    if M.nvars != 3:
        raise PreconditionError("curve interpolation wants 3 variables")
    if not isinstance(field, PrimeField):
        raise PreconditionError("curve interpolation works over GF(p)")
    p = field.char
    if target_degree < 1:
        raise PreconditionError("target degree must be positive")
    ncoef = monomial_count(3, target_degree)
    rng = random.Random(seed)
    conditions = []
    used = 0
    other_degrees = set()  # of stable gcds that are not target_degree
    for dual in _shuffled_plane_points(p, rng):
        a, b = modular.kernel_mod_p([list(dual)], p).tolist()
        try:
            affine, inf_mult = _line_minor_gcd(*_line_arrays(M, (a, b)),
                                               t + 1, p, rng)
        except UnstableComputationError:
            continue
        # homogenized: G[k] is the coefficient of s^k u^(d-k)
        G = affine + [0] * inf_mult
        if len(G) - 1 != target_degree:
            other_degrees.add(len(G) - 1)
            continue
        pivot = next(k for k in range(len(G)) if G[k])
        weights = _binary_restriction_weights(a, b, target_degree, p)
        conditions.extend(
            [(G[pivot] * weights[k][i] - G[k] * weights[pivot][i]) % p
             for i in range(ncoef)]
            for k in range(target_degree + 1) if k != pivot)
        used += 1
        if used > target_degree:
            kern = modular.kernel_mod_p(conditions, p)
            if kern.shape[0] <= 1:
                break
    if not used and other_degrees:
        raise PreconditionError(
            "no degree-%d curve: every stable line gcd has degree %s"
            % (target_degree, " or ".join(map(str, sorted(other_degrees)))))
    corank = (len(kern) if used > target_degree else
              len(modular.kernel_mod_p(conditions, p)) if used else ncoef)
    if used <= target_degree or corank > 1:
        raise UnstableComputationError(
            "drop-curve system still has corank %d after %d usable lines of "
            "P^2(F_%d); sample over a larger field" % (corank, used, p))
    if corank == 0:
        raise PreconditionError(
            "no degree-%d curve has the restrictions of %d line gcds"
            % (target_degree, used))

    coeffs = [int(c) % p for c in kern[0]]
    lead = next(i for i, c in enumerate(coeffs) if c)
    inv = pow(coeffs[lead], p - 2, p)
    coeffs = [c * inv % p for c in coeffs]
    return HomogeneousForm(3, target_degree, coeffs, field, M.alphabet)


def require_scannable(order):
    """Refuse a singular scan over more than SCAN_FIELD_MAX elements."""
    if order > SCAN_FIELD_MAX:
        raise PreconditionError("singular scan over F_%d: more than %d "
                                "elements" % (order, SCAN_FIELD_MAX))


def singular_points_plane_curve(F):
    """All singular points of a plane curve within P^2 over its own field.

    A point is reported when F and all three partial derivatives vanish
    there; the scan is exhaustive over F.field (GF(p) or GF(p^2)), in
    projective_points order, and evaluates the four forms at a chunk of
    points at once: forms.monomial_values under the field's code
    arithmetic times the coefficient columns, one matmul for F and one
    for its gradient.  A field of more than SCAN_FIELD_MAX elements is
    refused.
    """
    if F.nvars != 3:
        raise PreconditionError("singular-point scan wants a ternary form")
    field = F.field
    if field.char == 0:
        raise PreconditionError("singular-point scan needs a finite field")
    require_scannable(field.char ** field.degree)
    arith = modular.field_arithmetic(field)
    # (degree, coefficient columns) of F and of its gradient
    systems = [(forms[0].degree, np.array([g.coeffs for g in forms]).T)
               for forms in ([F], [F.derivative(i) for i in range(3)])]
    out = []
    # a chunk's monomial values and their products: some 16 arrays of
    # (points x monomials) entries at once
    for chunk in modular.chunked(projective_points(field, 3),
                                 16 * monomial_count(3, F.degree)):
        coords = np.array(chunk)
        vanish = np.ones(len(chunk), dtype=bool)
        for degree, cols in systems:
            values = monomial_values(coords, degree, arith.mul)
            vanish &= ~arith.matmul(values, cols).any(axis=1)
        out.extend(chunk[i] for i in np.flatnonzero(vanish))
    return out


def classify_singularity(F, point):
    """Grade a point of a plane curve: "smooth", "node", or "worse".

    A singular point is an ordinary node exactly when the 3x3 matrix H
    of second partials there has rank 2.  Euler's relation gives
    H(P) P = 0 at a singular point P, so rank H is the rank of the 2x2
    block on the two axes off a nonzero coordinate of P: the Hessian of
    the affine second-order jet a u^2 + b uv + c v^2, with determinant
    4ac - b^2.  Rank 2 is the nonzero binary discriminant; tangent cones
    that only split over F_{p^2} count as nodes just as well.
    """
    field = F.field
    if F.nvars != 3:
        raise PreconditionError("singularity grading wants a ternary form")
    if field.char == 2:
        raise PreconditionError("discriminant test needs odd characteristic")
    pt = list(point)
    if len(pt) != 3:
        raise PreconditionError("point must have 3 coordinates")
    if not field.is_zero(F.evaluate(pt)):
        raise PreconditionError("point is not on the curve")
    gradient = [F.derivative(i) for i in range(3)]
    if any(not field.is_zero(g.evaluate(pt)) for g in gradient):
        return "smooth"
    if F.degree < 2:
        # the zero linear form: no second-order term at all
        return "worse"
    hessian = [[g.derivative(j).evaluate(pt) for j in range(3)]
               for g in gradient]
    return "node" if ExactMatrix(hessian, field).rank() == 2 else "worse"

