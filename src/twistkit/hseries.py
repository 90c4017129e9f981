"""Truncated formal power series in the deformation parameter h.

Every series carries its truncation order N and exactly N+1 coefficients;
terms of degree N+1 and beyond are discarded by every operation.  Two
series can only be combined when their truncation orders agree — mixing
orders raises OrderMismatchError instead of silently re-truncating,
because silent drift in the working order is the classic bug in
deformation computations.

Coefficients may be rational scalars or any ring element that implements
``+``, ``-``, ``*`` (including scalar multiplication by a Fraction),
``is_zero()``, ``as_unit_scalar()``, and ``zero_like()``/``one_like()``,
which return the zero and the unit of the element's own ring.  The ring
is fixed by the element, not only by its type: a tensor element's zero
and unit have as many legs as the element itself.

A product of two series runs in integers when their ring coefficients
are LinearCombinations of one ring (Element, TensorElement of any leg
count, Poly), each of which defines an integer kernel ``_mul_into``;
scalar coefficients may stand beside them.  Every coefficient is scaled
to integers once per product, and each h^n coefficient is summed into
one integer dict over the lcm of its pairs' denominators (``_cauchy``)
before it is divided back into Fractions.  Products of two scalar series
and of other coefficient rings keep the plain loop of ring products and
sums.

The q-calculus with q = e^h lives on top: ``series_exp_h``, the
q-analogue via the sinh-ratio series (which keeps coefficients
polynomial in the argument), and q-factorials.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from numbers import Rational

from .lincomb import LinearCombination, _add_scaled, _integral, _rational


class OrderMismatchError(ValueError):
    """Two series with different truncation orders were combined."""


def _coerce_coeff(c):
    if isinstance(c, Fraction):
        return c
    return Fraction(c) if isinstance(c, Rational) else c


def zero_like(c):
    if isinstance(c, Rational):
        return Fraction(0)
    return c.zero_like()


def one_like(c):
    if isinstance(c, Rational):
        return Fraction(1)
    return c.one_like()


def _invert_unit(c):
    """Inverse of a coefficient that is an invertible scalar multiple of
    the ring unit."""
    if isinstance(c, Rational):
        if c == 0:
            raise ValueError("constant term is zero, series not invertible")
        return Fraction(1) / Fraction(c)
    s = c.as_unit_scalar()
    if s is None or s == 0:
        raise ValueError(
            "constant term is not an invertible scalar multiple of the identity")
    return c.one_like() * (Fraction(1) / s)


class HSeries:
    """A truncated power series c0 + c1*h + ... + cN*h^N."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order=None):
        coeffs = tuple(_coerce_coeff(c) for c in coeffs)
        if order is None:
            if not coeffs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(coeffs) - 1
        if len(coeffs) != order + 1:
            raise ValueError(
                f"series of order {order} needs {order + 1} coefficients, got {len(coeffs)}")
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def constant(cls, c, order: int) -> "HSeries":
        c = _coerce_coeff(c)
        z = zero_like(c)
        return cls((c,) + (z,) * order, order)

    @classmethod
    def one(cls, proto, order: int) -> "HSeries":
        """The unit series in the coefficient ring of `proto`."""
        return cls.constant(one_like(_coerce_coeff(proto)), order)

    def _check(self, other):
        if self.order != other.order:
            raise OrderMismatchError(
                f"truncation orders differ: {self.order} vs {other.order}")

    def __add__(self, other):
        if not isinstance(other, HSeries):
            return NotImplemented
        self._check(other)
        return HSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.order)

    def __sub__(self, other):
        if not isinstance(other, HSeries):
            return NotImplemented
        self._check(other)
        return HSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), self.order)

    def __neg__(self):
        return HSeries(tuple(-a for a in self.coeffs), self.order)

    def __mul__(self, other):
        if isinstance(other, Rational):
            q = Fraction(other)
            return HSeries(tuple(c * q for c in self.coeffs), self.order)
        if not isinstance(other, HSeries):
            return NotImplemented
        self._check(other)
        ring = _ring_of(self.coeffs + other.coeffs)
        if ring is not None:
            return HSeries(_cauchy(_ints(self.coeffs), _ints(other.coeffs),
                                   _ring_into(ring), ring._like), self.order)
        out = []
        for n in range(self.order + 1):
            acc = self.coeffs[0] * other.coeffs[n]
            for k in range(1, n + 1):
                acc = acc + self.coeffs[k] * other.coeffs[n - k]
            out.append(acc)
        return HSeries(tuple(out), self.order)

    def __rmul__(self, other):
        if isinstance(other, Rational):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative series power; use inverse() explicitly")
        out = HSeries.one(self.coeffs[0], self.order)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, HSeries):
            return NotImplemented
        return self.order == other.order and list(self.coeffs) == list(other.coeffs)

    def is_zero(self) -> bool:
        return all(_is_zero_coeff(c) for c in self.coeffs)

    def first_nonzero(self):
        """The order of the first nonzero coefficient, or None if all vanish."""
        return next((k for k, c in enumerate(self.coeffs)
                     if not _is_zero_coeff(c)), None)

    def is_one(self) -> bool:
        return (self.coeffs[0] == one_like(self.coeffs[0])
                and all(_is_zero_coeff(c) for c in self.coeffs[1:]))

    def map(self, fn) -> "HSeries":
        """Apply fn to every coefficient (the coefficient ring may change)."""
        return HSeries(tuple(fn(c) for c in self.coeffs), self.order)

    def pad_to(self, order: int) -> "HSeries":
        """Deliberate extension with zero coefficients (never implicit)."""
        if order < self.order:
            raise ValueError("pad_to cannot shrink a series; use truncate")
        z = zero_like(self.coeffs[0])
        return HSeries(self.coeffs + (z,) * (order - self.order), order)

    def truncate(self, order: int) -> "HSeries":
        """Deliberate truncation to a lower order (never implicit)."""
        if order > self.order:
            raise ValueError("truncate cannot extend a series; use pad_to")
        return HSeries(self.coeffs[: order + 1], order)

    def inverse(self) -> "HSeries":
        """Multiplicative inverse; the constant term must be an invertible
        scalar multiple of the identity."""
        inv0 = _invert_unit(self.coeffs[0])
        out = [inv0]
        for k in range(1, self.order + 1):
            s = self.coeffs[1] * out[k - 1]
            for j in range(2, k + 1):
                s = s + self.coeffs[j] * out[k - j]
            out.append(inv0 * (-s))
        return HSeries(tuple(out), self.order)

    def sqrt(self) -> "HSeries":
        """Square root of a series with constant term 1 whose coefficients
        commute with each other."""
        one = one_like(self.coeffs[0])
        if self.coeffs[0] != one:
            raise ValueError("series square root needs constant term 1")
        out = [one]
        for k in range(1, self.order + 1):
            s = None
            for i in range(1, k):
                t = out[i] * out[k - i]
                s = t if s is None else s + t
            c = self.coeffs[k] if s is None else self.coeffs[k] - s
            out.append(c * Fraction(1, 2))
        return HSeries(tuple(out), self.order)

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if _is_zero_coeff(c):
                continue
            cs = str(c)
            if k == 0:
                parts.append(cs if _is_atomic(cs) else f"({cs})")
                continue
            hp = "h" if k == 1 else f"h^{k}"
            if cs == "1":
                parts.append(hp)
            elif _is_atomic(cs):
                parts.append(f"{cs}*{hp}")
            else:
                parts.append(f"({cs})*{hp}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"HSeries({self})"


def _is_zero_coeff(c):
    if isinstance(c, Fraction):
        return not c
    return c.is_zero()


def _ring_of(coeffs):
    """A ring coefficient among coeffs when all the others are scalars or
    in its ring, which has an integer product kernel; else None.  A
    tensor leg-count mismatch raises ValueError."""
    ring = None
    for c in coeffs:
        if isinstance(c, Fraction):
            continue
        if ring is None:
            if not isinstance(c, LinearCombination):
                return None
            ring = c
        elif ring._operand(c) is NotImplemented:
            return None
    return ring


def _ints(coeffs) -> list:
    """Each coefficient as (value, den) with an integer value: an int for
    a scalar, a dict of ints for a ring element; None for a zero."""
    return [((c.numerator, c.denominator) if c else None)
            if isinstance(c, Fraction)
            else (_integral(c.terms) if c.terms else None) for c in coeffs]


def _ring_into(ring):
    """ring's product kernel, extended to scalar (int) operands."""
    unit, mul_into = ring._unit(), ring._mul_into

    def into(acc, x, y, scale):
        if isinstance(x, int):
            if isinstance(y, int):
                acc[unit] = acc.get(unit, 0) + scale * x * y
            else:
                _add_scaled(acc, y, scale * x)
        elif isinstance(y, int):
            _add_scaled(acc, x, scale * y)
        else:
            mul_into(acc, x, y, scale)
    return into


def _cauchy(xs, ys, into, like) -> tuple:
    """The Cauchy product coefficients sum_k x_k y_(n-k), n < len(xs), of
    operands in the form of _ints.  Each one is summed into one integer
    dict over L, the lcm of its pairs' denominators: into(acc, x, y, w)
    adds w*x*y with w = L // (dx*dy), and like(terms) builds the
    coefficient from its non-zero Fractions."""
    out = []
    for n in range(len(xs)):
        pairs = [(x, y) for x, y in zip(xs[:n + 1], ys[n::-1]) if x and y]
        den = lcm(*(dx * dy for (_, dx), (_, dy) in pairs))
        acc = {}
        for (x, dx), (y, dy) in pairs:
            into(acc, x, y, den // (dx * dy))
        out.append(like(_rational(acc, den)))
    return tuple(out)


def _is_atomic(s: str) -> bool:
    # positive rationals read unambiguously next to "*h^k"; anything else
    # (signs, symbols, sums) gets parentheses
    return s.replace("/", "").isdigit()


def divide(a: HSeries, b: HSeries, side: str = "right") -> HSeries:
    """a times the inverse of b, with the inverse applied on the stated
    side of a: "right" gives a*b^-1, "left" gives b^-1*a."""
    if side == "right":
        return a * b.inverse()
    if side == "left":
        return b.inverse() * a
    raise ValueError("side must be 'left' or 'right'")


def series_exp_h(x, order: int) -> HSeries:
    """exp(h*x) = sum_k h^k x^k / k!; with q = e^h this is q^x."""
    x = _coerce_coeff(x)
    acc = one_like(x)
    coeffs = [acc]
    for k in range(1, order + 1):
        acc = acc * x * Fraction(1, k)
        coeffs.append(acc)
    return HSeries(tuple(coeffs), order)


def sinhc(order: int) -> HSeries:
    """The scalar series sinh(h)/h = sum_m h^{2m}/(2m+1)!."""
    return HSeries(tuple(Fraction(1, factorial(k + 1)) if k % 2 == 0 else Fraction(0)
                         for k in range(order + 1)), order)


def sinh_ratio(x, order: int) -> HSeries:
    """The series S(x) = (sinh(h*x)/(h*x)) / (sinh(h)/h), even in h, with
    coefficients polynomial in x; the q-analogue of x is x*S(x)."""
    x = _coerce_coeff(x)
    one = one_like(x)
    num = []
    xpow = one
    for k in range(order + 1):
        if k % 2 == 0:
            if k:
                xpow = xpow * x * x
            num.append(xpow * Fraction(1, factorial(k + 1)))
        else:
            num.append(one * 0)
    return HSeries(tuple(num), order) * sinhc(order).inverse()


def q_analog(p, order: int) -> HSeries:
    """The q-analogue [p] = (q^p - q^-p)/(q - q^-1) as a truncated series;
    p may be a commuting polynomial, a rational, or any commuting ring
    element, and the coefficients stay polynomial in p."""
    return sinh_ratio(p, order).map(lambda c: c * _coerce_coeff(p))


def q_factorial(n: int, order: int) -> HSeries:
    """[n]! = [n][n-1]...[1] as a scalar series; [0]! = 1."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    acc = HSeries.constant(Fraction(1), order)
    for k in range(1, n + 1):
        acc = acc * q_analog(Fraction(k), order)
    return acc
