"""Exact arithmetic in Z[q] and reduced fractions of such polynomials.

Coefficient vectors are stored lowest degree first and use Python's
arbitrary-precision integers throughout: determinants of q-power matrices
blow past 64 bits already for small graphs.

>>> p = IntPoly([-6, -10, 4, 2])
>>> str(p)
'2*q^3 + 4*q^2 - 10*q - 6'
>>> p * IntPoly.one() == p
True
"""

from __future__ import annotations

from math import gcd
from .errors import MaghomError


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class IntPoly:
    """Immutable integer polynomial in the formal variable q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _trim([int(c) for c in coeffs]))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("IntPoly is immutable")

    @staticmethod
    def zero() -> "IntPoly":
        return IntPoly()

    @staticmethod
    def one() -> "IntPoly":
        return IntPoly((1,))

    @staticmethod
    def monomial(coeff: int, degree: int) -> "IntPoly":
        """coeff * q^degree"""
        if coeff == 0:
            return IntPoly()
        return IntPoly([0] * degree + [coeff])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPoly((other,))
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __add__(self, other) -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other) -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly((other,))
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly((other,))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__
    __radd__ = __add__

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """Quotient self / other, asserting the division is exact in Z[q]."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        if not self:
            return IntPoly()
        rem = list(self.coeffs)
        quot = [0] * (len(rem) - len(other.coeffs) + 1)
        if len(quot) <= 0:
            raise MaghomError("inexact polynomial division (degree)")
        dlead = other.lead
        for k in range(len(quot) - 1, -1, -1):
            c = rem[k + other.degree]
            if c % dlead:
                raise MaghomError("inexact polynomial division (leading coefficient)")
            f = c // dlead
            quot[k] = f
            if f:
                for j, cb in enumerate(other.coeffs):
                    rem[k + j] -= f * cb
        if any(rem):
            raise MaghomError("inexact polynomial division (remainder)")
        return IntPoly(quot)

    def content(self) -> int:
        """gcd of the coefficients; 0 for the zero polynomial."""
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive(self) -> "IntPoly":
        c = self.content()
        if c in (0, 1):
            return self
        return IntPoly([x // c for x in self.coeffs])

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            mag = abs(c)
            if d == 0:
                term = str(mag)
            elif d == 1:
                term = "q" if mag == 1 else f"{mag}*q"
            else:
                term = f"q^{d}" if mag == 1 else f"{mag}*q^{d}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """gcd in Z[q] with positive leading coefficient.

    Primitive-part Euclidean algorithm: pseudo-remainders on primitive
    parts, with the integer content handled separately.

    >>> poly_gcd(IntPoly([-1, 0, 1]), IntPoly([1, 1]))   # q^2-1 vs q+1
    IntPoly([1, 1])
    """
    if not a:
        g = b
    elif not b:
        g = a
    else:
        cont = gcd(a.content(), b.content())
        a, b = a.primitive(), b.primitive()
        while b:
            # pseudo-remainder: lead(b)^k * a mod b stays in Z[q]
            r = a
            while r and r.degree >= b.degree:
                r = r * b.lead - b * IntPoly.monomial(r.lead, r.degree - b.degree)
            a, b = b, r.primitive()
        g = IntPoly([c * cont for c in a.primitive().coeffs])
    if g.lead < 0:
        g = -g
    return g


class RatFunc:
    """Reduced fraction num/den of integer polynomials.

    Canonical form: gcd(num, den) = 1 (including integer content) and the
    denominator has positive leading coefficient.  Construction reduces,
    so re-canonicalizing is a no-op.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly, den: IntPoly):
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            num, den = IntPoly.zero(), IntPoly.one()
        else:
            g = poly_gcd(num, den)
            if g != IntPoly.one():
                num = num.exact_div(g)
                den = den.exact_div(g)
            if den.lead < 0:
                num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("RatFunc is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def series(self, order: int) -> list[int]:
        """Taylor coefficients at q = 0 through degree ``order``.

        Requires den(0) = +-1, which makes every coefficient an integer;
        this holds for all magnitude denominators produced here.
        """
        d0 = self.den.coefficient(0)
        if d0 not in (1, -1):
            raise MaghomError("series expansion needs constant denominator term +-1")
        out = []
        for k in range(order + 1):
            acc = self.num.coefficient(k)
            for j in range(k):
                acc -= out[j] * self.den.coefficient(k - j)
            out.append(acc * d0)  # dividing by +-1
        return out

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"
