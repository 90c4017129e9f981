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
and unit have as many legs as the element itself.  The
q-calculus with q = e^h lives on top: ``series_exp_h``, the q-analogue
via the sinh-ratio series (which keeps coefficients polynomial in the
argument), and q-factorials.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from numbers import Rational


class OrderMismatchError(ValueError):
    """Two series with different truncation orders were combined."""


def _coerce_coeff(c):
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
    if isinstance(c, Rational):
        return c == 0
    return c.is_zero()


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
