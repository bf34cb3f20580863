"""Exact arithmetic with motivic measures of varieties and quotient stacks.

Classes live in the Grothendieck ring of varieties localized at the
Lefschetz class ``L`` (the affine line) and at every ``L^i - 1``; that
localization is where quotient-stack classes such as ``[X]/[GL_n]`` make
sense.  A :class:`MotivicClass` is an unreduced fraction ``num(L)/den(L)``
of integer polynomials; equality is decided by cross-multiplication, so
no polynomial gcd is ever needed.

The virtual Poincare specialization sends ``L`` to ``z**2`` and is a ring
homomorphism into fractions of integer polynomials.  Its degree (degree
of numerator minus degree of denominator) bounds dimension: a class
supported in dimension at most ``m`` has specialization degree at most
``2m``.  :func:`congruent_mod_dim` checks that NECESSARY degree condition
-- it certifies measure-level congruence, which is exactly what reading
off Betti numbers requires, and deliberately claims nothing geometric.

:func:`verify_congruence_chain` replays, for a given ``d``, the chain of
congruences that corrects the Hilbert-scheme Betti numbers into the
moduli ones, and extracts the correction coefficients (3 and 12) from an
honest polynomial division.  Every constant in the chain can be perturbed
through :class:`ChainConstants`, so tests can confirm the checks have
teeth.  The chain is no check of the Hilbert row in
``X = [P^2][Hilb^n1]``: step 1 is an identity in ``X``, step 2's
difference is ``3X/(L-1)``, whose degree depends only on ``dim X``, and
step 3 reads the top two coefficients, ``b_0 = 1`` and ``b_2 = 2`` of
``Hilb^n1`` by duality.  Any palindromic row of degree ``2*n1`` with
those two coefficients passes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from .hilb import HilbCache, hilb_poincare
from .series import NEG_INF, IntPoly

Degree = Union[int, float]  # NEG_INF marks the zero class


def _l_power_minus_one(i: int) -> IntPoly:
    if i < 1:
        raise ValueError(f"denominator exponent must be >= 1, got {i}")
    return IntPoly([-1] + [0] * (i - 1) + [1])


class _Fraction:
    """An unreduced fraction ``num / den`` of integer polynomials.

    Sums and products multiply denominators and never reduce; equality is
    decided by cross-multiplication, so no polynomial gcd is ever needed.
    The degree is the degree of the numerator minus that of the
    denominator, ``NEG_INF`` for the zero fraction.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly, den: IntPoly):
        if den.is_zero:
            raise ZeroDivisionError("fraction with zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _of(cls, num: IntPoly, den: IntPoly):
        new = object.__new__(cls)
        _Fraction.__init__(new, num, den)
        return new

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def is_zero(self) -> bool:
        # the numerator vanishes iff the fraction does: the ambient ring is
        # a localization of a polynomial ring over Z, hence a domain
        return self.num.is_zero

    @property
    def degree(self) -> Degree:
        return NEG_INF if self.num.is_zero else self.num.degree - self.den.degree

    def __add__(self, other):
        return self._of(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return self._of(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._of(self.num * other, self.den)
        return self._of(self.num * other.num, self.den * other.den)

    def __rmul__(self, other: int):
        return self * other

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None  # unreduced representations of equal fractions differ

    def __str__(self) -> str:
        body = self.num.to_str(self._var)
        if self.den == IntPoly.one():
            return body
        return f"({body})/({self.den.to_str(self._var)})"

    def __repr__(self) -> str:
        num, den = list(self.num.coeffs), list(self.den.coeffs)
        return f"{type(self).__name__}(num={num}, den={den})"


class MotivicClass(_Fraction):
    """A localized Grothendieck-ring class: a fraction in the Lefschetz
    class ``L``.

    The constructor takes ``num(L) * L**(-lshift) / prod_i (L**i - 1)``,
    one ``L**i - 1`` per entry ``i >= 1`` of ``den``, and stores it as one
    numerator and one denominator polynomial in ``L``.
    """

    __slots__ = ()
    _var = "L"  # the variable ``__str__`` prints

    def __init__(
        self,
        num: Union[IntPoly, int],
        lshift: int = 0,
        den: tuple[int, ...] = (),
    ):
        if isinstance(num, int):
            num = IntPoly([num])
        if lshift < 0:
            num = num * IntPoly.monomial(-lshift)
        poly = IntPoly.monomial(max(lshift, 0))
        for i in den:
            poly = poly * _l_power_minus_one(i)
        super().__init__(num, poly)

    def div(self, i: int) -> MotivicClass:
        """Divide by ``L**i - 1``."""
        return self._of(self.num, self.den * _l_power_minus_one(i))


def affine(n: int) -> MotivicClass:
    """``L**n``, the class of affine ``n``-space (negative ``n`` allowed)."""
    return MotivicClass(IntPoly.one(), lshift=-n)


def projective(n: int) -> MotivicClass:
    """``[P^n] = (L**(n+1) - 1)/(L - 1)``."""
    if n < 0:
        raise ValueError(f"projective space needs n >= 0, got {n}")
    return MotivicClass(IntPoly([-1] + [0] * n + [1]), den=(1,))


def hilb_class(n: int, cache: Optional[HilbCache] = None) -> MotivicClass:
    """The class of ``Hilb^n(P^2)`` as a polynomial in ``L``.

    Odd cohomology vanishes and everything in sight is a polynomial in
    the Lefschetz class, so the Betti numbers determine the class:
    ``sum_k b_{2k} * L**k``.
    """
    hp = hilb_poincare(n, cache)
    return MotivicClass(IntPoly([hp.betti(2 * k) for k in range(2 * n + 1)]))


class PvFraction(_Fraction):
    """A virtual Poincare polynomial with denominators, over ``z``."""

    __slots__ = ()
    _var = "z"

    def as_polynomial(self) -> IntPoly:
        """Exact quotient; raises ``ValueError`` if division is not exact."""
        return self.num.exact_div(self.den)


def virtual_poincare(c: MotivicClass) -> PvFraction:
    """Specialize the Lefschetz class to ``z**2``.

    The mixed Hodge polynomial of ``L`` is ``x*y*t**2``, so the virtual
    Poincare measure sends ``L`` to ``z**2``, in numerator and
    denominator alike.
    """
    return PvFraction(c.num.substitute_power(2), c.den.substitute_power(2))


def pv_degree(c: MotivicClass) -> Degree:
    """Degree of the virtual Poincare specialization; ``NEG_INF`` for zero."""
    return virtual_poincare(c).degree


def congruent_mod_dim(a: MotivicClass, b: MotivicClass, m: int) -> bool:
    """Measure-level congruence test: does ``a - b`` look like dimension <= m?

    True iff the difference is the zero class or its virtual Poincare
    degree is at most ``2m``.  This is a NECESSARY condition for the
    difference to be supported in dimension at most ``m`` -- the direction
    needed to read Betti numbers above the cutoff -- not a geometric
    certificate of it.
    """
    return pv_degree(a - b) <= 2 * m


@dataclass(frozen=True)
class ChainConstants:
    """Constants of the congruence chain, exposed for mutation testing.

    Defaults are the true values; perturbing any of them must make
    :func:`verify_congruence_chain` fail.
    """

    multiplier: int = 3  # overall factor of the correction class
    double_coeff: int = 2  # coefficient of the middle term of the sum
    expected_top: int = 3  # top coefficient of the correction polynomial
    expected_subtop: int = 12  # next-to-top coefficient

    def mutated(self, name: str) -> ChainConstants:
        """A copy with one named constant knocked off its true value."""
        if name not in self.__dataclass_fields__:
            raise ValueError(f"unknown chain constant {name!r}")
        return replace(self, **{name: getattr(self, name) + 1})


DEFAULT_CONSTANTS = ChainConstants()


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    lhs_pv: str
    rhs_pv: str
    bound: int

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "lhs_pv": self.lhs_pv,
            "rhs_pv": self.rhs_pv,
            "bound": str(self.bound),
        }


@dataclass(frozen=True)
class VerificationReport:
    d: int
    checks: tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json_obj(self) -> dict:
        return {
            "d": str(self.d),
            "checks": [c.to_json_obj() for c in self.checks],
            "all_pass": self.all_pass,
        }

    def csv_header(self) -> list[str]:
        return ["name", "pass", "lhs_pv", "rhs_pv", "bound"]

    def csv_rows(self) -> list[list[str]]:
        return [
            [c.name, str(c.passed).lower(), c.lhs_pv, c.rhs_pv, str(c.bound)]
            for c in self.checks
        ]


def _chain_classes(
    d: int, cache: Optional[HilbCache], multiplier: int
) -> tuple[MotivicClass, MotivicClass]:
    """``X = [P^2][Hilb^n1]``, ``n1 = (d-1)(d-2)/2 + 1``, and the correction
    class ``multiplier * [P^(2d-4)] X``."""
    x = projective(2) * hilb_class((d - 1) * (d - 2) // 2 + 1, cache)
    return x, multiplier * (projective(2 * d - 4) * x)


def _congruence(
    name: str, lhs: MotivicClass, rhs: MotivicClass, m: int, exact: bool = True
) -> CheckResult:
    """A chain step: ``lhs`` is congruent to ``rhs`` below dimension ``m``,
    and ``exact``, the identity the step also relies on, holds."""
    return CheckResult(
        name=name,
        passed=exact and congruent_mod_dim(lhs, rhs, m),
        lhs_pv=str(virtual_poincare(lhs)),
        rhs_pv=str(virtual_poincare(rhs)),
        bound=2 * m,
    )


def correction_polynomial(d: int, cache: Optional[HilbCache] = None) -> IntPoly:
    """Virtual Poincare polynomial of ``3 [P^(2d-4)][P^2][Hilb^n1]``.

    ``n1 = (d-1)(d-2)/2 + 1``.  The product is a genuine variety class, so
    the division by the specialized denominators is exact; the top two
    coefficients of the result are the corrections applied to the last two
    rows of the Betti table.
    """
    corr = _chain_classes(d, cache, DEFAULT_CONSTANTS.multiplier)[1]
    return virtual_poincare(corr).as_polynomial()


def verify_congruence_chain(
    d: int,
    cache: Optional[HilbCache] = None,
    constants: ChainConstants = DEFAULT_CONSTANTS,
) -> VerificationReport:
    """Replay the correction chain for degree ``d`` and report each step.

    With ``X = [P^2] * [Hilb^n1]`` and ``n1 = (d-1)(d-2)/2 + 1``:

    1. ``collapse_sum``: the three-term combination
       ``L^(2d-3) X + 2 L^(2d-2) X/(L-1) + L^(2d-3) X/(L-1)`` is congruent
       to ``3 L^(2d-2) X/(L-1)`` below dimension ``d^2 + 1 - d``
       (measure-level bound ``2(d^2 + 1 - d)``).
    2. ``close_up``: ``3 L^(2d-3) X/(L-1)`` is congruent to
       ``3 [P^(2d-4)] X`` below dimension ``d^2 - d``, and
       ``3 (L^(2d-3) - 1) X/(L-1)`` equals ``3 [P^(2d-4)] X`` exactly.
    3. ``extract_corrections``: the specialization of ``3 [P^(2d-4)] X``
       divides out to an honest polynomial whose top coefficient is 3 at
       ``z``-degree ``2(d^2 - d + 2)`` and 12 one even step below; those
       are the constants subtracted from the last two Betti rows.

    A failed exact division in step 3 is reported as a failing check, not
    raised.
    """
    if d < 5:
        raise ValueError(f"the chain needs d >= 5, got {d}")
    c = constants
    x, corr = _chain_classes(d, cache, c.multiplier)
    lx3 = affine(2 * d - 3) * x
    lx2 = affine(2 * d - 2) * x

    # step 1: the three-term sum collapses
    lhs1 = lx3 + (c.double_coeff * lx2).div(1) + lx3.div(1)
    rhs1 = (c.multiplier * lx2).div(1)
    collapse = _congruence("collapse_sum", lhs1, rhs1, d * d + 1 - d)

    # step 2: drop one power of L and close up the denominator
    closed = (c.multiplier * ((affine(2 * d - 3) - MotivicClass(1)) * x)).div(1)
    lhs2 = (c.multiplier * lx3).div(1)
    close_up = _congruence("close_up", lhs2, corr, d * d - d, exact=closed == corr)

    # step 3: the correction polynomial and its top two coefficients
    top_deg = 2 * (d * d - d + 2)
    try:
        poly = virtual_poincare(corr).as_polynomial()
    except ValueError:
        poly = None
    extract = CheckResult(
        name="extract_corrections",
        passed=(
            poly is not None
            and poly.degree == top_deg
            and poly[top_deg] == c.expected_top
            and poly[top_deg - 2] == c.expected_subtop
        ),
        lhs_pv=str(poly) if poly is not None else "division not exact",
        rhs_pv=(
            f"{c.expected_top}*z^{top_deg} + "
            f"{c.expected_subtop}*z^{top_deg - 2} + lower order"
        ),
        bound=top_deg,
    )
    return VerificationReport(d, (collapse, close_up, extract))
