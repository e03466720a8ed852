"""Field descriptors for exact scalar arithmetic.

Three fields are supported: the rationals, prime fields F_p, and quadratic
extensions F_{p^2}.  A descriptor object owns the arithmetic; the scalar
values themselves are plain Python data so they stay hashable and cheap:

    QQ        -> fractions.Fraction
    GF(p)     -> int in range(p)
    GF(p, 2)  -> pair (a, b) meaning a + b*w with w^2 = nonresidue

Every container in the package carries exactly one descriptor and refuses
to mix scalars from different descriptors.  All arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, PreconditionError


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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
        if not is_prime(p):
            raise PreconditionError("%d is not prime" % p)
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
            raise ParseError("bad scalar %r for GF(%d)" % (text, self.p), position)

    def elements(self):
        return range(self.p)

    def encode(self, a):
        return a % self.p

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

    Scalars are pairs (a, b) of ints in range(p) meaning a + b*w.  Only
    the quadratic extension is provided; nothing in the toolkit needs
    higher extension degrees.
    """

    degree = 2

    def __init__(self, p):
        if not is_prime(p) or p == 2:
            raise PreconditionError("GF(p^2) requires an odd prime, got %d" % p)
        self.p = p
        self.char = p
        self.nonresidue = smallest_nonresidue(p)
        self.zero = (0, 0)
        self.one = (1, 0)
        self.base = GF(p)

    def add(self, a, b):
        p = self.p
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def sub(self, a, b):
        p = self.p
        return ((a[0] - b[0]) % p, (a[1] - b[1]) % p)

    def mul(self, a, b):
        p = self.p
        return ((a[0] * b[0] + self.nonresidue * a[1] * b[1]) % p,
                (a[0] * b[1] + a[1] * b[0]) % p)

    def neg(self, a):
        p = self.p
        return ((-a[0]) % p, (-a[1]) % p)

    def inv(self, a):
        p = self.p
        # norm a^2 - n*b^2 lies in F_p and vanishes only at zero
        nrm = (a[0] * a[0] - self.nonresidue * a[1] * a[1]) % p
        if nrm == 0:
            raise ZeroDivisionError("inverse of zero in GF(%d^2)" % p)
        ni = pow(nrm, p - 2, p)
        return ((a[0] * ni) % p, (-a[1] * ni) % p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, n):
        return (n % self.p, 0)

    def from_base(self, a):
        return (a % self.p, 0)

    def from_fraction(self, fr):
        return self.from_base(self.base.from_fraction(fr))

    def is_zero(self, a):
        return a[0] % self.p == 0 and a[1] % self.p == 0

    def format_scalar(self, a):
        if a[1] % self.p == 0:
            return str(a[0] % self.p)
        return "(%d+%d*w)" % (a[0] % self.p, a[1] % self.p)

    def elements(self):
        p = self.p
        return ((a, b) for b in range(p) for a in range(p))

    def random_element(self, rng, nonzero=False):
        while True:
            a = (rng.randrange(self.p), rng.randrange(self.p))
            if not nonzero or not self.is_zero(a):
                return a

    def encode(self, a):
        """Pack (a, b) into the int a + p*b, the layout modular.py uses."""
        return a[0] % self.p + self.p * (a[1] % self.p)

    def decode(self, code):
        return (code % self.p, code // self.p)

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
        return dst.from_base(value)
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
