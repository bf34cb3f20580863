"""Exact truncated power-series arithmetic over arbitrary-precision integers.

Everything downstream (Hilbert-scheme generating series, monomial counting,
Grothendieck-ring classes) is built on two carriers:

* :class:`IntPoly` -- a dense polynomial in one formal variable with Python
  ``int`` coefficients, so no coefficient ever overflows.
* :class:`TruncatedSeries` -- an :class:`IntPoly` together with a truncation
  cap; exponents at or above the cap are discarded by every operation.

Truncation is exclusive: a cap of ``c`` keeps exponents ``0 .. c-1``.  All
values are immutable after construction and safe to share across threads.

Products of two series are schoolbook convolutions over the non-zero
coefficients of both operands; the caps in play stay in the low hundreds,
where that is exact and fast enough.  The monomial-count series and the
Euler numbers of the Hilbert schemes are products of geometric factors
``1/(1 - z**deg)``, and :func:`geometric_product` builds those without any
convolution: each factor is one in-place stride pass over the window.
"""

from __future__ import annotations

from typing import Iterable, Union

NEG_INF = float("-inf")  # degree of the zero polynomial


class CapMismatchError(ValueError):
    """Two series with different truncation caps were combined."""


class OutOfWindowError(LookupError):
    """A coefficient at or above the truncation cap was requested.

    Such a coefficient is unknown, not zero; this error keeps the two
    cases distinct.
    """


def _strip(coeffs: list[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class IntPoly:
    """Dense polynomial with arbitrary-precision integer coefficients.

    ``coeffs[i]`` is the coefficient of ``var**i``.  Trailing zeros are
    stripped on construction, so the zero polynomial is the empty tuple
    and representations are canonical (``==`` is coefficient equality).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _strip(list(coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def zero(cls) -> IntPoly:
        return cls(())

    @classmethod
    def one(cls) -> IntPoly:
        return cls((1,))

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> IntPoly:
        """``coeff * var**exp``."""
        if exp < 0:
            raise ValueError(f"monomial exponent must be >= 0, got {exp}")
        return cls([0] * exp + [coeff])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> Union[int, float]:
        """Degree, or ``NEG_INF`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def __getitem__(self, exp: int) -> int:
        """Coefficient of ``var**exp``; zero beyond the degree."""
        if exp < 0:
            raise IndexError(f"negative exponent {exp}")
        return self.coeffs[exp] if exp < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == (() if other == 0 else (other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: IntPoly) -> IntPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> IntPoly:
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: IntPoly) -> IntPoly:
        return self + (-other)

    def __mul__(self, other: Union[IntPoly, int]) -> IntPoly:
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        b_terms = [(j, cb) for j, cb in enumerate(b) if cb]
        for i, ca in enumerate(a):
            if ca:
                for j, cb in b_terms:
                    out[i + j] += ca * cb
        return IntPoly(out)

    def __rmul__(self, other: int) -> IntPoly:
        return self * other

    def truncate(self, cap: int) -> IntPoly:
        """Drop exponents at or above ``cap``."""
        return IntPoly(self.coeffs[:cap])

    def evaluate(self, x: int) -> int:
        """Exact integer evaluation (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def substitute_power(self, k: int) -> IntPoly:
        """Replace ``var`` by ``var**k`` (``k >= 1``)."""
        if k < 1:
            raise ValueError(f"substitute_power needs k >= 1, got {k}")
        out = [0] * (k * len(self.coeffs))
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return IntPoly(out)

    def divmod(self, den: IntPoly) -> tuple[IntPoly, IntPoly]:
        """Long division over the integers.

        Each quotient coefficient must come out integral (the leading
        coefficient of ``den`` must divide at every step); raises
        ``ValueError`` otherwise.
        """
        if den.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dc = den.coeffs
        lead = dc[-1]
        qlen = len(rem) - len(dc) + 1
        if qlen <= 0:
            return IntPoly.zero(), IntPoly(rem)
        quo = [0] * qlen
        for i in range(qlen - 1, -1, -1):
            head = rem[i + len(dc) - 1]
            if head % lead != 0:
                raise ValueError("division is not exact over the integers")
            q = head // lead
            quo[i] = q
            if q:
                for j, c in enumerate(dc):
                    rem[i + j] -= q * c
        return IntPoly(quo), IntPoly(rem)

    def exact_div(self, den: IntPoly) -> IntPoly:
        """Exact quotient; raises ``ValueError`` on a nonzero remainder."""
        quo, rem = self.divmod(den)
        if not rem.is_zero:
            raise ValueError("division left a nonzero remainder")
        return quo

    def to_str(self, var: str = "z") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for exp in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[exp]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if exp == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}{var}" + (f"^{exp}" if exp > 1 else "")
            parts.append(f"{sign}{body}" if not parts else f" {sign} {body}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"


class TruncatedSeries:
    """An :class:`IntPoly` known only below a truncation cap.

    The stored polynomial always has degree below ``cap``; operations on
    two series require equal caps and truncate their result.
    """

    __slots__ = ("poly", "cap")

    def __init__(self, poly: Union[IntPoly, Iterable[int]], cap: int):
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        if not isinstance(poly, IntPoly):
            poly = IntPoly(poly)
        object.__setattr__(self, "poly", poly.truncate(cap))
        object.__setattr__(self, "cap", cap)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def one(cls, cap: int) -> TruncatedSeries:
        return cls(IntPoly.one(), cap)

    def _check_cap(self, other: TruncatedSeries) -> None:
        if self.cap != other.cap:
            raise CapMismatchError(
                f"caps differ: {self.cap} vs {other.cap}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.cap == other.cap and self.poly == other.poly

    def __hash__(self) -> int:
        return hash((self.poly, self.cap))

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_cap(other)
        return TruncatedSeries(self.poly + other.poly, self.cap)

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_cap(other)
        return TruncatedSeries(self.poly - other.poly, self.cap)

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_cap(other)
        return TruncatedSeries(self.poly * other.poly, self.cap)

    def coeff(self, exp: int) -> int:
        """Exact coefficient; raises :class:`OutOfWindowError` at or above the cap."""
        if exp >= self.cap:
            raise OutOfWindowError(
                f"exponent {exp} is outside the window (cap {self.cap})"
            )
        return self.poly[exp]

    def truncate(self, cap: int) -> TruncatedSeries:
        """Narrow the window; widening is not possible (data is unknown)."""
        if cap > self.cap:
            raise OutOfWindowError(
                f"cannot widen cap {self.cap} to {cap}"
            )
        return TruncatedSeries(self.poly, cap)

    def inverse(self) -> TruncatedSeries:
        """Multiplicative inverse up to the cap.

        Requires constant term +1 or -1, which keeps every coefficient of
        the inverse an integer; the defining property is
        ``self * self.inverse() == 1`` up to the cap.
        """
        a0 = self.poly[0]
        if a0 not in (1, -1):
            raise ValueError(
                f"series has non-unit constant term {a0}; cannot invert exactly"
            )
        a = self.poly.coeffs
        out = [0] * self.cap
        out[0] = a0
        for n in range(1, self.cap):
            acc = 0
            for k in range(1, min(n, len(a) - 1) + 1):
                if a[k]:
                    acc += a[k] * out[n - k]
            out[n] = -a0 * acc
        return TruncatedSeries(IntPoly(out), self.cap)

    def __str__(self) -> str:
        return f"{self.poly} + O(z^{self.cap})"

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.poly.coeffs)!r}, cap={self.cap})"


def geometric_product(degrees: Iterable[int], cap: int) -> list[int]:
    """Coefficients of ``z**0 .. z**(cap-1)`` in ``prod 1/(1 - z**deg)``.

    One factor per entry of ``degrees``, so a repeated degree is a repeated
    factor.  Multiplying by ``1/(1 - z**deg)`` is the in-place recurrence
    ``out[e] += out[e - deg]`` taken in increasing ``e``, so each factor
    costs one pass over the window rather than a convolution.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    out = [1] + [0] * (cap - 1) if cap else []
    for deg in degrees:
        if deg <= 0:
            raise ValueError(f"geometric factor needs deg >= 1, got {deg}")
        for e in range(deg, cap):
            out[e] += out[e - deg]
    return out

