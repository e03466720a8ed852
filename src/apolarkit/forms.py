"""Dense homogeneous forms in a fixed monomial basis, plus the text grammar.

A form of degree d in n variables is a dense coefficient vector indexed by
the exponent vectors of total degree d in graded-lex descending order, so
x0^d comes first and xn^d last.  All degrees in the toolkit are small
(at most 9 in at most 6 variables), which keeps the dense representation
comfortable and the indexing O(1).  Products, partials, catalecticants,
ideal spans and Koszul shifts are gathers or scatters on two lru_cached
integer tables, monomial_products and falling_factorials, which hold the
rule of Macaulay duality (Iarrobino-Kanev, LNM 1721).  Powers of linear
forms are the exception: power_rows expands l^n for a whole stack of
them in one pass, the multinomials n!/e! times monomial_values at their
coefficient vectors, and power_sum and power are that array's products,
on the integers of fields.integer_codes.  monomial_values is the one
evaluator of all monomials of a degree at a stack of points;
HomogeneousForm.evaluate keeps a scalar loop for one form at one point.

Three print alphabets exist: x0..x5 for primal forms, y0..y5 for dual
(differential operator) forms, z0..z2 for ternary forms.  The alphabet is
serialization metadata only; arithmetic between two forms requires equal
variable counts, not equal alphabets, and the apolar pairing in
apolarity.py deliberately pairs y-forms against x-forms positionally.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, product
from operator import add

import numpy as np

from .errors import ParseError, PreconditionError
from .fields import QQ, GF, coerce_scalar, integer_codes

ALPHABET_SIZES = {"x": 6, "y": 6, "z": 3}
DUAL_ALPHABET = {"x": "y", "y": "x", "z": "z"}

# the most monomials one dense basis may have: every degree up to 14 in
# six variables (11,628) passes, degree 15 (15,504) is refused
MAX_MONOMIALS = 12_000


@lru_cache(maxsize=None)
def monomial_exponents(nvars, degree):
    """All exponent vectors of the given total degree, lex descending.
    Refuses a basis of more than MAX_MONOMIALS monomials."""
    if nvars <= 0:
        raise ValueError("need at least one variable")
    if monomial_count(nvars, degree) > MAX_MONOMIALS:
        raise PreconditionError("degree %d in %d variables has more than %d "
                                "monomials" % (degree, nvars, MAX_MONOMIALS))
    if nvars == 1:
        return ((degree,),)
    out = []
    for e0 in range(degree, -1, -1):
        for rest in monomial_exponents(nvars - 1, degree - e0):
            out.append((e0,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(nvars, degree):
    """Dict mapping exponent vector to its dense index."""
    return {e: i for i, e in enumerate(monomial_exponents(nvars, degree))}


def monomial_count(nvars, degree):
    return math.comb(nvars + degree - 1, degree)


@lru_cache(maxsize=None)
def monomial_products(nvars, d1, d2):
    """products[i, j]: the index of degree-d1 monomial i times degree-d2
    monomial j among the degree-(d1 + d2) monomials."""
    idx = monomial_index(nvars, d1 + d2)
    table = np.array([[idx[tuple(map(add, a, b))]
                       for b in monomial_exponents(nvars, d2)]
                      for a in monomial_exponents(nvars, d1)], dtype=np.intp)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def falling_factorials(nvars, k, m):
    """weights[b, g]: (b+g)!/g! = prod_i (b_i+g_i)!/g_i! as Python ints,
    for b of degree k and g of degree m, as monomial_products orders them:
    the factor y^b brings down from x^(b+g) to x^g."""
    table = np.array([[math.prod(map(math.perm, map(add, b, g), b))
                       for g in monomial_exponents(nvars, m)]
                      for b in monomial_exponents(nvars, k)], dtype=object)
    table.flags.writeable = False
    return table


def field_integers(values, field):
    """Integers as field scalars, in an object array: over QQ the integers
    themselves, otherwise through field.from_int, so over GF(p^2) an
    integer n >= p is the element n mod p, never read as a code a + b*w."""
    lift = int if field == QQ else field.from_int
    return np.frompyfunc(lift, 1, 1)(np.array(values, dtype=object))


def monomial_values(points, degree, mul):
    """The value of every degree-`degree` monomial, in monomial_exponents
    order, at each row of the (k, nvars) array points: a (k, monomials)
    array.  mul multiplies two arrays entry by entry, a field's own mul
    or a code table's; powers come by accumulate, products by reduce.
    """
    nvars = points.shape[1]
    exps = np.array(monomial_exponents(nvars, degree))
    # powers[point, variable, exponent]
    powers = np.stack(list(accumulate([points] * degree, mul,
                                      initial=np.ones_like(points))), -1)
    return reduce(mul, (powers[:, v, exps[:, v]] for v in range(nvars)))


def power_rows(bases, n, field):
    """The coefficient rows of l^n for each row l of the (k, nvars)
    object array bases: a (k, monomials) array, the multinomials n!/e!
    times monomial_values at the rows.  Over QQ the bases are integers
    and the rows stay integers; otherwise both are field scalars, the
    multinomials entering through field_integers."""
    factorials = falling_factorials(bases.shape[1], n, 0)[:, 0]  # e!
    scale = field_integers(math.factorial(n) // factorials, field)
    return field.mul(monomial_values(bases, n, field.mul), scale)


class HomogeneousForm:
    """Immutable dense homogeneous polynomial over one field descriptor."""

    __slots__ = ("nvars", "degree", "coeffs", "field", "alphabet", "_hash")

    def __init__(self, nvars, degree, coeffs, field, alphabet="x"):
        if alphabet not in ALPHABET_SIZES:
            raise ValueError("unknown alphabet %r" % alphabet)
        if nvars > ALPHABET_SIZES[alphabet]:
            raise ValueError(
                "alphabet %r has only %d variables" % (alphabet, ALPHABET_SIZES[alphabet]))
        coeffs = tuple(coeffs)
        if len(coeffs) != monomial_count(nvars, degree):
            raise ValueError(
                "expected %d coefficients for degree %d in %d variables, got %d"
                % (monomial_count(nvars, degree), degree, nvars, len(coeffs)))
        if field.degree == 2 and any(c not in field.elements()
                                     for c in coeffs):
            raise PreconditionError(
                "%s coefficients are codes in range(%d): %r"
                % (field.describe(), field.p * field.p, coeffs))
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *args):
        raise AttributeError("HomogeneousForm is immutable")

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars, degree, field=QQ, alphabet="x"):
        n = monomial_count(nvars, degree)
        return cls(nvars, degree, (field.zero,) * n, field, alphabet)

    @classmethod
    def from_terms(cls, nvars, degree, terms, field=QQ, alphabet="x"):
        """terms is an iterable of (coefficient, exponent vector) pairs."""
        idx = monomial_index(nvars, degree)
        coeffs = [field.zero] * monomial_count(nvars, degree)
        for c, e in terms:
            e = tuple(e)
            if e not in idx:
                raise ValueError("exponent %r has wrong degree or arity" % (e,))
            coeffs[idx[e]] = field.add(coeffs[idx[e]], c)
        return cls(nvars, degree, coeffs, field, alphabet)

    @classmethod
    def monomial(cls, nvars, exponents, field=QQ, alphabet="x", coefficient=None):
        e = tuple(exponents)
        c = field.one if coefficient is None else coefficient
        return cls.from_terms(nvars, sum(e), [(c, e)], field, alphabet)

    @classmethod
    def variable(cls, nvars, i, field=QQ, alphabet="x"):
        e = [0] * nvars
        e[i] = 1
        return cls.monomial(nvars, e, field, alphabet)

    @classmethod
    def linear(cls, coeff_vector, field=QQ, alphabet="x"):
        """Degree-1 form with the given coefficient vector."""
        n = len(coeff_vector)
        return cls(n, 1, coeff_vector, field, alphabet)

    # ---- basics -------------------------------------------------------

    def is_zero(self):
        return all(self.field.is_zero(c) for c in self.coeffs)

    def coefficient(self, exponents):
        return self.coeffs[monomial_index(self.nvars, self.degree)[tuple(exponents)]]

    def terms(self):
        """Nonzero (coefficient, exponent vector) pairs, lex descending."""
        exps = monomial_exponents(self.nvars, self.degree)
        return [(c, e) for c, e in zip(self.coeffs, exps)
                if not self.field.is_zero(c)]

    def _require_compatible(self, other):
        if self.nvars != other.nvars:
            raise PreconditionError(
                "variable count mismatch: %d vs %d" % (self.nvars, other.nvars))
        if self.field != other.field:
            raise PreconditionError(
                "field mismatch: %r vs %r" % (self.field, other.field))

    # ---- arithmetic ---------------------------------------------------

    def add(self, other):
        self._require_compatible(other)
        if self.degree != other.degree:
            raise PreconditionError("cannot add degrees %d and %d"
                                    % (self.degree, other.degree))
        F = self.field
        return HomogeneousForm(
            self.nvars, self.degree,
            tuple(F.add(a, b) for a, b in zip(self.coeffs, other.coeffs)),
            F, self.alphabet)

    def sub(self, other):
        return self.add(other.neg())

    def neg(self):
        F = self.field
        return HomogeneousForm(self.nvars, self.degree,
                               tuple(F.neg(c) for c in self.coeffs), F, self.alphabet)

    def scale(self, scalar):
        F = self.field
        return HomogeneousForm(self.nvars, self.degree,
                               tuple(F.mul(scalar, c) for c in self.coeffs),
                               F, self.alphabet)

    def multiply(self, other):
        self._require_compatible(other)
        F = self.field
        deg = self.degree + other.degree
        left, right = ([i for i, c in enumerate(g.coeffs) if not F.is_zero(c)]
                       for g in (self, other))
        at = monomial_products(self.nvars, self.degree, other.degree)
        coeffs = [F.zero] * monomial_count(self.nvars, deg)
        for k, (i, j) in zip(at[np.ix_(left, right)].ravel().tolist(),
                             product(left, right)):
            coeffs[k] = F.add(coeffs[k],
                              F.mul(self.coeffs[i], other.coeffs[j]))
        return HomogeneousForm(self.nvars, deg, coeffs, F, self.alphabet)

    def power(self, n):
        """self^n; a linear form expands as power_sum([1], [self], n)."""
        if n < 0:
            raise ValueError("negative power")
        if self.degree != 1:
            one = HomogeneousForm.monomial(self.nvars, (0,) * self.nvars,
                                           self.field, self.alphabet)
            return reduce(HomogeneousForm.multiply, [self] * n, one)
        return HomogeneousForm.power_sum([self.field.one], [self], n)

    @staticmethod
    def power_sum(scalars, forms, n):
        """The sum of scalar * form^n over linear forms of one field and
        arity: scalars @ power_rows(forms), on the forms' and the weights'
        integer_codes, so over QQ with one Fraction per monomial."""
        if not forms or len(scalars) != len(forms):
            raise PreconditionError(
                "need one scalar per form, got %d scalars and %d forms"
                % (len(scalars), len(forms)))
        for l in forms:
            forms[0]._require_compatible(l)
            if l.degree != 1:
                raise PreconditionError(
                    "power_sum expands linear forms, got degree %d" % l.degree)
        F, nvars, alphabet = forms[0].field, forms[0].nvars, forms[0].alphabet
        # l = b / d with integer codes b, so s l^n = (s / d^n) b^n
        bases, dens = zip(*(integer_codes(l.coeffs, F) for l in forms))
        weights, den = integer_codes(
            [s if d == 1 else F.div(s, F.from_int(d ** n))
             for s, d in zip(scalars, dens)], F)
        rows = power_rows(np.array(bases, dtype=object), n, F)
        weights = np.array(weights, dtype=object)[:, None]
        coeffs = reduce(F.add, F.mul(weights, rows)).tolist()
        if F == QQ:
            coeffs = [Fraction(c, den) for c in coeffs]
        return HomogeneousForm(nvars, n, coeffs, F, alphabet)

    __add__ = add
    __sub__ = sub
    __mul__ = multiply
    __neg__ = neg

    def evaluate(self, point):
        """Value at a point given as a list of scalars, one per variable."""
        if len(point) != self.nvars:
            raise PreconditionError(
                "point length %d, expected %d" % (len(point), self.nvars))
        F = self.field
        # precompute powers of each coordinate up to the degree
        pows = []
        for v in point:
            row = [F.one]
            for _ in range(self.degree):
                row.append(F.mul(row[-1], v))
            pows.append(row)
        acc = F.zero
        for c, e in self.terms():
            t = c
            for i, ei in enumerate(e):
                if ei:
                    t = F.mul(t, pows[i][ei])
            acc = F.add(acc, t)
        return acc

    def derivative(self, i):
        """Formal partial derivative with respect to variable i."""
        if self.degree == 0:
            raise PreconditionError("derivative of a degree-0 form")
        F, n, deg = self.field, self.nvars, self.degree - 1
        # x_i * x^g goes to (g_i + 1) x^g: row i of the (1, deg) tables
        at = monomial_products(n, 1, deg)[i].tolist()
        coeffs = [self.coeffs[k] for k in at]
        weights = field_integers(falling_factorials(n, 1, deg)[i], F)
        return HomogeneousForm(n, deg, list(map(F.mul, coeffs, weights)), F,
                               self.alphabet)

    def compose(self, substituents):
        """Substitute one homogeneous form per variable and expand.

        All substituents must share a degree s, a variable count, and the
        field; the result has degree (deg self) * s.  The degree-1 case is
        the `substitute` operation of the public API.
        """
        if len(substituents) != self.nvars:
            raise PreconditionError(
                "need %d substituents, got %d" % (self.nvars, len(substituents)))
        if not substituents:
            raise PreconditionError("no substituents")
        s = substituents[0]
        for g in substituents:
            if g.degree != s.degree or g.nvars != s.nvars or g.field != self.field:
                raise PreconditionError(
                    "substituents must share degree, arity, and the form's field")
        out = HomogeneousForm.zero(s.nvars, self.degree * s.degree,
                                   self.field, s.alphabet)
        for c, e in self.terms():
            term = HomogeneousForm.monomial(s.nvars, (0,) * s.nvars,
                                            self.field, s.alphabet, c)
            for i, ei in enumerate(e):
                for _ in range(ei):
                    term = term.multiply(substituents[i])
            out = out.add(term)
        return out

    def substitute(self, linear_substituents):
        """Linear change of variables; each substituent must have degree 1."""
        for g in linear_substituents:
            if g.degree != 1:
                raise PreconditionError("substitute wants degree-1 forms, got degree %d"
                                        % g.degree)
        return self.compose(linear_substituents)

    def reduce_mod_p(self, p):
        """Coefficientwise reduction of a rational form into GF(p)."""
        if self.field != QQ:
            raise PreconditionError("reduce_mod_p expects a form over QQ")
        target = GF(p)
        return self.map_coefficients(target, target.from_fraction)

    def map_coefficients(self, target_field, fn):
        return HomogeneousForm(self.nvars, self.degree,
                               tuple(fn(c) for c in self.coeffs),
                               target_field, self.alphabet)

    def lift_to(self, target_field):
        """Coerce coefficients into a compatible larger field."""
        src = self.field
        return self.map_coefficients(target_field,
                                     lambda c: coerce_scalar(c, src, target_field))

    # ---- text grammar -------------------------------------------------

    def to_text(self):
        """Canonical text: graded-lex descending terms with normalized signs."""
        parts = []
        for c, e in self.terms():
            parts.append(_format_term(self.field, c, e, self.alphabet,
                                      first=not parts))
        if not parts:
            return "0"
        return "".join(parts)

    def __repr__(self):
        return "<%s deg=%d %s over %s>" % (
            type(self).__name__, self.degree, self.to_text(), self.field.describe())

    def __eq__(self, other):
        if not isinstance(other, HomogeneousForm):
            return NotImplemented
        return (self.nvars == other.nvars and self.degree == other.degree
                and self.field == other.field and self.alphabet == other.alphabet
                and self.coeffs == other.coeffs)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(
                self, "_hash",
                hash((self.nvars, self.degree, self.field, self.alphabet, self.coeffs)))
        return self._hash


def _format_term(field, c, e, alphabet, first):
    neg = False
    text = field.format_scalar(c)
    if text.startswith("-"):
        neg = True
        text = text[1:]
    mono = "*".join(
        "%s%d^%d" % (alphabet, i, ei) if ei > 1 else "%s%d" % (alphabet, i)
        for i, ei in enumerate(e) if ei)
    if mono:
        body = mono if text == "1" else text + "*" + mono
    else:
        body = text
    sign = "-" if neg else ("" if first else "+")
    return sign + body


_TOKEN = re.compile(r"\s*([+-]|\d+/\d+|\d+|[xyz]\d+|\^|\*)")


def parse_form(text, field=QQ, alphabet=None, degree=None):
    """Parse the polynomial grammar back into a HomogeneousForm.

    Terms look like `-2*x0^8*x1`; unit coefficients may be omitted.  The
    alphabet (and with it the variable count) is inferred from the first
    variable unless given.  `degree` is only needed for inputs with no
    terms, i.e. "0".
    """
    pos = 0
    tokens = []
    stripped = text.strip()
    while pos < len(stripped):
        m = _TOKEN.match(stripped, pos)
        if not m:
            raise ParseError("unexpected character %r" % stripped[pos], pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    if not tokens:
        raise ParseError("empty input", 0)

    terms = []  # (sign, coeff text or None, list of (var index, exponent))
    i = 0
    seen_alpha = alphabet
    while i < len(tokens):
        sign = 1
        tok, tpos = tokens[i]
        if tok in "+-":
            sign = -1 if tok == "-" else 1
            i += 1
            if i >= len(tokens):
                raise ParseError("dangling sign", tpos)
            tok, tpos = tokens[i]
        elif terms:
            raise ParseError("expected + or - between terms", tpos)
        coeff_text = None
        if re.fullmatch(r"\d+(/\d+)?", tok):
            coeff_text = tok
            i += 1
            if i < len(tokens) and tokens[i][0] == "*":
                i += 1
        factors = []
        while i < len(tokens):
            tok, tpos = tokens[i]
            m = re.fullmatch(r"([xyz])(\d+)", tok)
            if not m:
                break
            a, vi = m.group(1), int(m.group(2))
            if seen_alpha is None:
                seen_alpha = a
            if a != seen_alpha:
                raise ParseError("mixed alphabets %r and %r" % (seen_alpha, a), tpos)
            if vi >= ALPHABET_SIZES[a]:
                raise ParseError("variable %s%d out of range" % (a, vi), tpos)
            exp = 1
            i += 1
            if i < len(tokens) and tokens[i][0] == "^":
                i += 1
                if i >= len(tokens) or not tokens[i][0].isdigit():
                    raise ParseError("missing exponent", tpos)
                exp = int(tokens[i][0])
                i += 1
            factors.append((vi, exp))
            if i < len(tokens) and tokens[i][0] == "*":
                i += 1
                continue
            break
        if coeff_text is None and not factors:
            raise ParseError("expected a term", tpos)
        terms.append((sign, coeff_text, factors, tpos))

    if seen_alpha is None:
        if alphabet is None:
            # pure constants; default to the primal alphabet
            seen_alpha = "x"
        else:
            seen_alpha = alphabet
    nvars = ALPHABET_SIZES[seen_alpha]

    built = []
    degrees = set()
    for sign, coeff_text, factors, tpos in terms:
        e = [0] * nvars
        for vi, exp in factors:
            e[vi] += exp
        degrees.add(sum(e))
        c = field.one if coeff_text is None else field.parse_scalar(coeff_text, tpos)
        if sign < 0:
            c = field.neg(c)
        built.append((c, tuple(e)))

    if len(degrees) > 1:
        raise ParseError("input is not homogeneous, term degrees %s"
                         % sorted(degrees), 0)
    deg = degrees.pop()
    if degree is not None and degree != deg:
        # "0" parses as the zero constant; promote it to the requested degree
        if len(built) == 1 and field.is_zero(built[0][0]):
            return HomogeneousForm.zero(nvars, degree, field, seen_alpha)
        raise ParseError("expected degree %d, found %d" % (degree, deg), 0)
    return HomogeneousForm.from_terms(nvars, deg, built, field, seen_alpha)
