"""Exact arithmetic for tiling coordinates.

Coordinates are numbers of the form (a + b*sqrt(3))/c with arbitrary-precision
integers a, b and c > 0, kept in canonical form (gcd(a, b, c) == 1).  This
field is closed under +, -, *, / and admits exact comparison, which is all the
rectilinear and hexagonal constructions in this package need.  Plain rationals
are the b == 0 case.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, sqrt

_SQRT3 = sqrt(3.0)


class Coord:
    """(a + b*sqrt(3)) / c with integer a, b and positive integer c."""

    __slots__ = ("a", "b", "c", "_hash")

    def __init__(self, a, b=0, c=1):
        if isinstance(a, Coord):
            a, b, c = a.a, a.b, a.c
        elif isinstance(a, Fraction):
            a, b, c = a.numerator, b, c * a.denominator
        if c == 0:
            raise ZeroDivisionError("coordinate with zero denominator")
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(gcd(abs(a), abs(b)), c)
        if g > 1:
            a //= g
            b //= g
            c //= g
        self.a = a
        self.b = b
        self.c = c
        self._hash = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_fraction(fr):
        fr = Fraction(fr)
        return Coord(fr.numerator, 0, fr.denominator)

    # -- queries ----------------------------------------------------------

    @property
    def is_rational(self):
        return self.b == 0

    def as_fraction(self):
        if self.b != 0:
            raise ValueError("%r is irrational" % (self,))
        return Fraction(self.a, self.c)

    def __float__(self):
        return (self.a + self.b * _SQRT3) / self.c

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Coord(self.a * other.c + other.a * self.c,
                     self.b * other.c + other.b * self.c,
                     self.c * other.c)

    __radd__ = __add__

    def __neg__(self):
        return Coord(-self.a, -self.b, self.c)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Coord(self.a * other.a + 3 * self.b * other.b,
                     self.a * other.b + self.b * other.a,
                     self.c * other.c)

    __rmul__ = __mul__

    def inverse(self):
        # 1 / ((a + b r3)/c) = c (a - b r3) / (a^2 - 3 b^2)
        n = self.a * self.a - 3 * self.b * self.b
        if n == 0:
            raise ZeroDivisionError("division by zero coordinate")
        return Coord(self.c * self.a, -self.c * self.b, n)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- comparison ----------------------------------------------------------

    def sign(self):
        """Exact sign of the value (-1, 0 or +1)."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # mixed signs: compare a^2 against 3 b^2
        lhs, rhs = a * a, 3 * b * b
        if a > 0:  # b < 0: positive iff a^2 > 3 b^2
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)

    def _cmp(self, other):
        return (self - other).sign()

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.c == other.c

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp(other) < 0

    def __le__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp(other) <= 0

    def __gt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp(other) > 0

    def __ge__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp(other) >= 0

    def __hash__(self):
        if self._hash is None:
            if self.b == 0:
                self._hash = hash(Fraction(self.a, self.c))
            else:
                self._hash = hash((self.a, self.b, self.c))
        return self._hash

    # -- text form -----------------------------------------------------------

    def __repr__(self):
        return "Coord(%s)" % self.text()

    def text(self):
        """Canonical text form, parseable by parse_coord."""
        if self.b == 0:
            return str(self.a) if self.c == 1 else "%d/%d" % (self.a, self.c)
        if self.a == 0:
            num = "%drt3" % self.b
        else:
            num = "%d%+drt3" % (self.a, self.b)
        if self.c == 1:
            return num
        return "(%s)/%d" % (num, self.c)


def _coerce(x):
    if isinstance(x, Coord):
        return x
    if isinstance(x, int):
        return Coord(x)
    if isinstance(x, Fraction):
        return Coord(x.numerator, 0, x.denominator)
    return NotImplemented


ZERO = Coord(0)
ONE = Coord(1)
HALF = Coord(1, 0, 2)
SQRT3 = Coord(0, 1)


def parse_coord(text):
    """Parse the canonical coordinate syntax: `a`, `a/c`, `(a+brt3)/c` etc."""
    s = text.strip().replace(" ", "")
    neg_all = False
    if s.startswith("-(") :
        neg_all = True
        s = s[1:]
    if s.startswith("("):
        close = s.find(")")
        if close < 0:
            raise ValueError("unbalanced parenthesis in coordinate %r" % text)
        num, rest = s[1:close], s[close + 1:]
        if rest.startswith("/"):
            den = int(rest[1:])
        elif rest == "":
            den = 1
        else:
            raise ValueError("bad coordinate %r" % text)
    elif "rt3" in s:
        num, den = s, 1
    elif "/" in s:
        n, d = s.split("/", 1)
        return Coord(int(n), 0, int(d))
    else:
        return Coord(int(s), 0, 1)
    a, b = _parse_surd_numerator(num, text)
    co = Coord(a, b, den)
    return -co if neg_all else co


def _parse_surd_numerator(num, orig):
    # forms: "brt3", "a+brt3", "a-brt3" (b may carry its own sign or be empty)
    idx = num.find("rt3")
    if idx < 0:
        return int(num), 0
    head, tail = num[:idx], num[idx + 3:]
    if tail:
        raise ValueError("bad coordinate %r" % orig)
    # split head into rational part and surd multiplier
    for cut in range(len(head) - 1, 0, -1):
        if head[cut] in "+-" and head[cut - 1] not in "+-":
            a_txt, b_txt = head[:cut], head[cut:]
            break
    else:
        a_txt, b_txt = "", head
    a = int(a_txt) if a_txt else 0
    if b_txt in ("", "+"):
        b = 1
    elif b_txt == "-":
        b = -1
    else:
        b = int(b_txt)
    return a, b


def coord(x, y=None):
    """Convenience constructor: coord(Fraction/int/Coord) or coord(p, q) = p/q."""
    if y is not None:
        return Coord(x, 0, y)
    if isinstance(x, Coord):
        return x
    if isinstance(x, float):
        return Coord.from_fraction(Fraction(*x.as_integer_ratio()))
    return Coord.from_fraction(Fraction(x))


def sqrt_compare(p, q, n, r):
    """Exact sign of (p + q*sqrt(n)) - r for Fractions p, q, r and integer n >= 0.

    Used for displacement-bound checks whose surds (sqrt(2), sqrt(7)) fall
    outside the Coord field.
    """
    p, q, r = Fraction(p), Fraction(q), Fraction(r)
    d = p - r
    if q == 0:
        return (d > 0) - (d < 0)
    # sign of d + q sqrt(n)
    if d == 0:
        s = (q > 0) - (q < 0)
        return s if n > 0 else 0
    if d > 0 and q > 0:
        return 1
    if d < 0 and q < 0:
        return -1
    lhs, rhs = d * d, q * q * n
    if d > 0:
        return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
    return -1 if lhs > rhs else (1 if lhs < rhs else 0)
