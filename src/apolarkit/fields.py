"""Field descriptors for exact scalar arithmetic.

Three fields are supported: the rationals, prime fields F_p, and quadratic
extensions F_{p^2}.  A descriptor object owns the arithmetic; the scalar
values themselves are plain Python data so they stay hashable and cheap:

    QQ        -> fractions.Fraction
    GF(p)     -> int in range(p)
    GF(p, 2)  -> int a + p*b in range(p*p), meaning a + b*w with
                 w^2 = nonresidue: the packed code, the one form of
                 F_{p^2}, so the codes below p are F_p

Every container in the package carries exactly one descriptor and refuses
to mix scalars from different descriptors.  All arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import ParseError, PreconditionError


# the least strong pseudoprime to all thirteen primes 2..41 (Sorenson and
# Webster, Math. Comp. 86, 2017): Miller-Rabin on them decides below it
PRIMALITY_BOUND = 3317044064679887385961981


def is_prime(n):
    """Exact primality by Miller-Rabin; refuses n >= PRIMALITY_BOUND."""
    if n >= PRIMALITY_BOUND:
        raise PreconditionError("primality is decided only below %d, got %d"
                                % (PRIMALITY_BOUND, n))
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in witnesses):
        return n in witnesses
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    for a in witnesses:
        powers = [pow(a, (n - 1) >> (s - r), n) for r in range(s)]
        if powers[0] != 1 and n - 1 not in powers:
            return False
    return True


def smallest_nonresidue(p):
    """Smallest quadratic nonresidue mod an odd prime p."""
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n
    raise ValueError("no nonresidue found for p=%d" % p)


class RationalField:
    """The field of arbitrary-precision rationals. Scalars are Fraction."""

    char = 0
    degree = 1

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, fr):
        return Fraction(fr)

    def is_zero(self, a):
        return a == 0

    def format_scalar(self, a):
        return str(a)

    def parse_scalar(self, text, position=None):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ParseError("bad rational %r" % text, position)

    def random_element(self, rng, lo=-99, hi=99, nonzero=False):
        while True:
            a = Fraction(rng.randint(lo, hi))
            if not nonzero or a != 0:
                return a

    def describe(self):
        return "QQ"

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(("field", 0, 1))


class PrimeField:
    """F_p with scalars stored as ints in range(p)."""

    degree = 1

    def __init__(self, p):
        if p >= 1 << 63 or not is_prime(p):  # codes are int64 throughout
            raise PreconditionError("GF(p) needs a prime p < 2^63, got %d" % p)
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(%d)" % self.p)
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, fr):
        fr = Fraction(fr)
        if fr.denominator % self.p == 0:
            raise PreconditionError(
                "denominator %d not invertible mod %d" % (fr.denominator, self.p))
        return (fr.numerator * self.inv(fr.denominator % self.p)) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def format_scalar(self, a):
        return str(a % self.p)

    def parse_scalar(self, text, position=None):
        try:
            return self.from_fraction(Fraction(text))
        except PreconditionError:
            raise
        except (ValueError, ZeroDivisionError):
            raise ParseError("bad scalar %r for %s" % (text, self.describe()),
                             position)

    def elements(self):
        return range(self.p)

    def random_element(self, rng, nonzero=False):
        lo = 1 if nonzero else 0
        return rng.randrange(lo, self.p)

    def describe(self):
        return "GF(%d)" % self.p

    def __repr__(self):
        return "GF(%d)" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("field", self.p, 1))


class QuadraticField:
    """F_{p^2} = F_p[w]/(w^2 - n) with n the smallest nonresidue mod p.

    Scalars are the ints a + p*b in range(p*p) meaning a + b*w, so the
    codes below p are F_p.  add, sub, mul and neg use only + * // %, so
    they work alike on ints and, entry by entry, on numpy code arrays.
    Only the quadratic extension is provided; nothing in the toolkit
    needs higher extension degrees.
    """

    degree = 2

    def __init__(self, p):
        if not is_prime(p) or p == 2:
            raise PreconditionError("GF(p^2) requires an odd prime, got %d" % p)
        self.p = p
        self.char = p
        self.nonresidue = smallest_nonresidue(p)
        self.zero = 0
        self.one = 1
        self.base = GF(p)

    def add(self, a, b):
        p = self.p
        return (a + b) % p + p * ((a // p + b // p) % p)

    def sub(self, a, b):
        p = self.p
        return (a - b) % p + p * ((a // p - b // p) % p)

    def mul(self, a, b):
        p = self.p
        a0, a1, b0, b1 = a % p, a // p, b % p, b // p
        return ((a0 * b0 + self.nonresidue * a1 * b1) % p
                + p * ((a0 * b1 + a1 * b0) % p))

    def neg(self, a):
        return self.sub(0, a)

    def inv(self, a):
        p = self.p
        a0, a1 = a % p, a // p
        # norm a^2 - n*b^2 lies in F_p and vanishes only at zero
        nrm = (a0 * a0 - self.nonresidue * a1 * a1) % p
        if nrm == 0:
            raise ZeroDivisionError("inverse of zero in GF(%d^2)" % p)
        ni = pow(nrm, p - 2, p)
        return a0 * ni % p + p * (-a1 * ni % p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, fr):
        return self.base.from_fraction(fr)

    def is_zero(self, a):
        return a == 0

    def parse_scalar(self, text, position=None):
        """Rational text, read into F_p as a code below p.  The (a+b*w)
        form that format_scalar prints is not parsed."""
        return PrimeField.parse_scalar(self, text, position)

    def format_scalar(self, a):
        p = self.p
        if a < p:
            return str(a)
        return "(%d+%d*w)" % (a % p, a // p)

    def elements(self):
        return range(self.p * self.p)

    def random_element(self, rng, nonzero=False):
        while True:
            a = rng.randrange(self.p) + self.p * rng.randrange(self.p)
            if not nonzero or a:
                return a

    def describe(self):
        return "GF(%d^2)" % self.p

    def __repr__(self):
        return "GF(%d^2)" % self.p

    def __eq__(self, other):
        return isinstance(other, QuadraticField) and other.p == self.p

    def __hash__(self):
        return hash(("field", self.p, 2))


QQ = RationalField()

_GF_CACHE = {}


def GF(p, k=1):
    """Field descriptor for F_{p^k}, k in {1, 2}.  Descriptors are cached."""
    if k not in (1, 2):
        raise PreconditionError("only GF(p) and GF(p^2) are supported, got k=%d" % k)
    key = (p, k)
    if key not in _GF_CACHE:
        _GF_CACHE[key] = PrimeField(p) if k == 1 else QuadraticField(p)
    return _GF_CACHE[key]


def integer_codes(values, field):
    """(codes, den): over QQ the rationals (Fraction or int) as integers
    over their common denominator den, otherwise the scalars themselves,
    field codes, over 1.  This is the one place rational data becomes
    integers: primitive rows, power sums, the apolarity column and
    linear-form matrices all go through it."""
    if field != QQ:
        return list(values), 1
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def coerce_scalar(value, src, dst):
    """Move one scalar between compatible field descriptors.

    Supported directions: identity, QQ -> GF(p), QQ -> GF(p^2),
    GF(p) -> GF(p^2) for the same p.
    """
    if src == dst:
        return value
    if isinstance(src, RationalField) and isinstance(dst, (PrimeField, QuadraticField)):
        return dst.from_fraction(value)
    if (isinstance(src, PrimeField) and isinstance(dst, QuadraticField)
            and src.p == dst.p):
        return dst.from_int(value)
    raise PreconditionError("no coercion from %r to %r" % (src, dst))


def projective_points(field, n):
    """Canonical representatives of P^{n-1} over a finite field.

    The first nonzero coordinate of each representative is 1, and points
    are emitted in a fixed deterministic order.
    """
    if field.char == 0:
        raise PreconditionError("projective point enumeration needs a finite field")
    import itertools

    elems = list(field.elements())
    for lead in range(n):
        for tail in itertools.product(elems, repeat=n - 1 - lead):
            yield (field.zero,) * lead + (field.one,) + tail
