"""Exact arithmetic in Z[q] and reduced fractions of such polynomials.

Coefficient vectors are stored lowest degree first and use Python's
arbitrary-precision integers throughout: determinants of q-power matrices
blow past 64 bits already for small graphs.

The arithmetic that magnitude needs runs over Z by Kronecker substitution
(von zur Gathen-Gerhard, Modern Computer Algebra, 8.4): setting q = X = 2^k
is a ring map Z[q] -> Z, and a polynomial whose coefficients all lie in
[-X/2, X/2) is the only one with those balanced base-X digits, so it is
read back off its value at X (``unpack``).  ``magnitude.bordered_dets``
takes its determinants this way and ``poly_gcd`` its gcd, so IntPoly
needs no sum or product.

>>> p = IntPoly([-6, -10, 4, 2])
>>> str(p)
'2*q^3 + 4*q^2 - 10*q - 6'
>>> IntPoly(unpack(2 * 2**24 + 4 * 2**16 - 10 * 2**8 - 6, 8, 4)) == p
True
"""

from __future__ import annotations

from math import gcd
from .errors import InternalCheckError, MaghomError


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
        return gcd(*self.coeffs)

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


def unpack(v: int, k: int, digits: int) -> list[int]:
    """The lowest ``digits`` balanced base-2^k digits of v, lowest first,
    each in [-2^(k-1), 2^(k-1)): the coefficients of the polynomial p of
    degree < ``digits`` with p(2^k) = v, if p has such coefficients.  A
    value left over raises InternalCheckError.

    Adding the value whose digits are all 2^(k-1) turns each balanced
    digit c into the plain digit c + 2^(k-1) in [0, 2^k), so v has such
    a p exactly when that sum lies in [0, 2^(k·digits)).  Its plain
    digits are read by divide and conquer (``_read_digits``), in
    O(k·digits·log digits) bit operations rather than the O(k·digits^2)
    of taking one digit off the whole value at a time.

    >>> unpack(3 * 2**16 - 2**8 + 5, 8, 4)   # 3q^2 - q + 5 at q = 2^8
    [5, -1, 3, 0]
    """
    half = 1 << (k - 1)
    width = k * digits
    plain = v + half * (((1 << width) - 1) // ((1 << k) - 1))
    if plain >> width:  # nonzero below 0 too, as the shift floors
        raise InternalCheckError(f"a packed value has more than {digits} base-2^{k} digits")
    out: list[int] = []
    _read_digits(plain, k, digits, half, out)
    return out


def _read_digits(plain: int, k: int, digits: int, half: int, out: list[int]) -> None:
    """Append the ``digits`` base-2^k digits of 0 <= plain < 2^(k·digits),
    lowest first, each less ``half``.  Above a few digits the value is
    split at X^h, h = digits // 2: divmod(plain, X^h), taken as a shift
    and a mask, since CPython divides long integers in quadratic time."""
    if digits <= 8:
        mask = (1 << k) - 1
        for _ in range(digits):
            out.append((plain & mask) - half)
            plain >>= k
        return
    low = digits // 2
    _read_digits(plain & ((1 << (k * low)) - 1), k, low, half, out)
    _read_digits(plain >> (k * low), k, digits - low, half, out)


def _pack(p: IntPoly, k: int) -> int:
    """p(2^k)."""
    return sum(c << (k * d) for d, c in enumerate(p.coeffs))


def _times(p: IntPoly, c: int) -> IntPoly:
    return IntPoly([x * c for x in p.coeffs])


def poly_gcd(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly, IntPoly]:
    """gcd g in Z[q] with positive leading coefficient, and the cofactors
    a / g and b / g, contents included (all three 0 when a = b = 0).

    Heuristic gcd on packed values (GCDHEU: Char-Geddes-Gonnet, JSC 1989).
    The integer content is split off first; below, a and b are the
    primitive parts, g is their gcd and m is the largest size of their
    coefficients.  For X = 2^k > 2m + 2, h is read as the balanced base-X
    digits of gamma = gcd(a(X), b(X)), and its primitive part p is
    accepted when it divides a and b exactly; otherwise k goes up by one.
    Those two exact quotients, times the contents, are the cofactors.

    * Reading: every |a_i| <= m < X/2 - 1, so the digits of a(X) are the
      coefficients of a, and 0 < gamma <= |a(X)| <= (X/2 - 1)(1 + X + ...
      + X^d), d = deg a: the largest value of d + 1 balanced digits, which
      take every value from 0 up to it.  Likewise for b, so h has at most
      min(deg a, deg b) + 1 digits and h(X) = gamma.
    * Acceptance: p divides a and b, so g = p c.  g(X) divides a(X), b(X),
      so p(X) c(X) divides gamma = cont(h) p(X), and |c(X)| <= |cont(h)|
      <= X/2, the size of a nonzero digit.  Were c of positive degree, its
      roots would be roots of a, of size below m + 1 (Cauchy), so
      |c(X)| >= prod |X - root| > (X - m - 1)^deg c > X/2.  So c = +-1.
    * Termination: a = g a', b = g b' with a', b' coprime, so some
      Z[q]-combination of a' and b' is a nonzero integer R (Bezout in Q[q],
      denominators cleared), and delta = gcd(a'(X), b'(X)) divides R.  Once
      X > 2 |R| max |g_i| + 2, g(X) > 0 (its top digit is), so gamma =
      delta g(X), whose digits are the coefficients of delta g; their
      primitive part g is accepted.  k grows until then.

    >>> poly_gcd(IntPoly([-1, 0, 1]), IntPoly([1, 1]))   # q^2-1 vs q+1
    (IntPoly([1, 1]), IntPoly([-1, 1]), IntPoly([1]))
    """
    if not a or not b:
        sign = -1 if (a or b).lead < 0 else 1
        return _times(a or b, sign), IntPoly([sign if a else 0]), IntPoly([sign if b else 0])
    cont_a, cont_b = a.content(), b.content()
    cont = gcd(cont_a, cont_b)
    a, b = a.primitive(), b.primitive()
    k = (2 * max(map(abs, a.coeffs + b.coeffs)) + 2).bit_length()
    digits = min(a.degree, b.degree) + 1
    while True:
        p = IntPoly(unpack(gcd(_pack(a, k), _pack(b, k)), k, digits)).primitive()
        p = -p if p.lead < 0 else p
        try:
            over_a, over_b = a.exact_div(p), b.exact_div(p)
            break
        except MaghomError:
            k += 1
    return _times(p, cont), _times(over_a, cont_a // cont), _times(over_b, cont_b // cont)


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
            _, num, den = poly_gcd(num, den)  # the cofactors
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
        top = self.den.degree
        for k in range(order + 1):
            acc = self.num.coefficient(k)
            for j in range(max(0, k - top), k):  # den has no term above q^top
                acc -= out[j] * self.den.coefficient(k - j)
            out.append(acc * d0)  # dividing by +-1
        return out

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"
