"""Truncated formal power series in the deformation parameter h.

Every series carries its truncation order N and exactly N+1 coefficients;
terms of degree N+1 and beyond are discarded by every operation.  Two
series can only be combined when their truncation orders agree — mixing
orders raises OrderMismatchError instead of silently re-truncating,
because silent drift in the working order is the classic bug in
deformation computations.

Every coefficient is a rational scalar (a Fraction) or a
LinearCombination: an Element, a TensorElement of any leg count, or a
Poly.  The ring is fixed by the element, not only by its type: a tensor
element's zero and unit have as many legs as the element itself.

There is one product path, in integers.  A product a*b and a difference
of two products a*b - c*d (``mul_sub``) are both signed sums of
products: every coefficient is scaled to integers once, and each h^n
coefficient sums all its signed pairs into one integer dict over the
lcm of their denominators (``lincomb._sum_products``) before it is
divided back into Fractions.  The pairs multiply in the ring's kernel
``_mul_into``; scalar coefficients may stand beside ring coefficients,
and a product of two scalar series runs through the same sum.
Coefficients from two different rings raise TypeError, tensor elements
with different leg counts ValueError.  ``inverse`` and ``sqrt`` keep
their coefficient recurrences.  The twist residuals F*C - D*F
(``candidate.twist_residual_series``) take the same integer sum pair by
pair, but their order-0 pair F_n C_0 - D_0 F_n, with C_0 = D_0 the
primitive Delta(g), is one commutator added in that sum, not two
products.

The q-calculus with q = e^h lives on top: ``series_exp_h``, the
q-analogue via the sinh-ratio series (which keeps coefficients
polynomial in the argument), and q-factorials.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from numbers import Rational

from .lincomb import (LinearCombination, _add_scaled, _integral, _rational,
                      _sum_products)


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
        if order < 0:
            raise ValueError(f"series order must be >= 0, got {order}")
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
        return _integer_sum(((self, other, 1),))

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
    """The ring coefficient among coeffs, all the others scalars or in its
    ring; None if all are scalars.  TypeError for a coefficient in another
    ring, ValueError for a tensor leg-count mismatch."""
    ring = None
    for c in coeffs:
        if isinstance(c, Fraction):
            continue
        if ring is None and isinstance(c, LinearCombination):
            ring = c
        elif ring is None or ring._operand(c) is NotImplemented:
            raise TypeError(f"series coefficient of type {type(c).__name__} "
                            "is neither a Fraction nor in the others' ring")
    return ring


def _ints(coeffs) -> tuple:
    """Each coefficient as (value, den) with an integer value: an int for
    a scalar or a scalar multiple of its ring's unit, a dict of ints for
    any other ring element; None for a zero."""
    out = []
    for c in coeffs:
        if not isinstance(c, Fraction):
            s = c.as_unit_scalar()    # Fraction(0) for a zero
            if s is None:
                out.append(_integral(c.terms))
                continue
            c = s
        out.append((c.numerator, c.denominator) if c else None)
    return tuple(out)


def _ring_into(ring):
    """ring's product kernel, extended to scalar (int) operands, which are
    added as scaled copies of the other operand; with no ring (None) a
    product of scalars lands at the key None."""
    unit = None if ring is None else ring._unit()

    def into(acc, x, y, scale):
        if isinstance(x, int):
            if isinstance(y, int):
                acc[unit] = acc.get(unit, 0) + scale * x * y
            else:
                _add_scaled(acc, y, scale * x)
        elif isinstance(y, int):
            _add_scaled(acc, x, scale * y)
        else:
            ring._mul_into(acc, x, y, scale)
    return into


def _cauchy(products, into, like) -> tuple:
    """The h^n coefficients of sum_j s_j xs_j ys_j for the signed products
    (xs, ys, s) of operands in the form of _ints, all of one length, each
    summed by _sum_products with the kernel into and built by like."""
    return tuple(like(_rational(*_sum_products(
        [(x, y, s) for xs, ys, s in products
         for x, y in zip(xs[:n + 1], ys[n::-1]) if x and y], into)))
        for n in range(len(products[0][0])))


def _integer_sum(products) -> HSeries:
    """sum_j s_j a_j b_j for the signed products (a_j, b_j, s_j) of series of
    one order, summed by _cauchy in the ring of their coefficients (see
    _ring_of), or as scalars when they are all scalars."""
    ring = _ring_of([c for a, b, _ in products for c in a.coeffs + b.coeffs])
    like = ring._like if ring is not None else lambda t: t.get(None, Fraction(0))
    return HSeries(_cauchy([(_ints(a.coeffs), _ints(b.coeffs), s)
                            for a, b, s in products], _ring_into(ring), like),
                   products[0][0].order)


def mul_sub(a: HSeries, b: HSeries, c: HSeries, d: HSeries) -> HSeries:
    """a*b - c*d, each h^n coefficient summed in one integer pass (module
    docstring)."""
    for x in (b, c, d):
        a._check(x)
    return _integer_sum(((a, b, 1), (c, d, -1)))


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
