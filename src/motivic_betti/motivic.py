"""Exact arithmetic with motivic measures of varieties and quotient stacks.

Classes live in the Grothendieck ring of varieties localized at the
Lefschetz class ``L`` (the affine line) and at every ``L^i - 1``; that
localization is where quotient-stack classes such as ``[X]/[GL_n]`` make
sense.  A :class:`MotivicClass` is a fraction

    num(L) * L^(-lshift) / prod_i (L^i - 1),   lshift >= 0,

stored unreduced (a negative ``lshift`` is folded into ``num`` when the
class is built); equality is decided by cross-multiplication, so no
polynomial gcd is ever needed.

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
teeth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from .hilb import HilbCache, hilb_poincare
from .series import NEG_INF, IntPoly

Degree = Union[int, float]  # NEG_INF marks the zero class


def _den_poly(den: tuple[int, ...]) -> IntPoly:
    acc = IntPoly.one()
    for i in den:
        acc = acc * IntPoly([-1] + [0] * (i - 1) + [1])
    return acc


class MotivicClass:
    """A localized Grothendieck-ring class, as an unreduced fraction.

    ``num`` is an integer polynomial in the Lefschetz class, ``lshift``
    a global factor ``L**(-lshift)``, and ``den`` a multiset of positive
    integers, each entry ``i`` standing for one denominator factor
    ``L**i - 1``.  The constructor folds a negative ``lshift`` into
    ``num``, so ``lshift >= 0`` always holds.
    """

    __slots__ = ("num", "lshift", "den")

    def __init__(
        self,
        num: Union[IntPoly, int],
        lshift: int = 0,
        den: tuple[int, ...] = (),
    ):
        if isinstance(num, int):
            num = IntPoly([num])
        if any(i < 1 for i in den):
            raise ValueError(f"denominator entries must be >= 1, got {den}")
        if lshift < 0:
            num, lshift = num * IntPoly.monomial(-lshift), 0
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "lshift", lshift)
        object.__setattr__(self, "den", tuple(sorted(den)))

    def __setattr__(self, name, value):
        raise AttributeError("MotivicClass is immutable")

    @property
    def is_zero(self) -> bool:
        # the numerator vanishes iff the class does: the ambient ring is
        # a localization of a polynomial ring over Z, hence a domain
        return self.num.is_zero

    def __add__(self, other: MotivicClass) -> MotivicClass:
        a = self.num * _den_poly(other.den) * IntPoly.monomial(other.lshift)
        b = other.num * _den_poly(self.den) * IntPoly.monomial(self.lshift)
        return MotivicClass(a + b, self.lshift + other.lshift, self.den + other.den)

    def __neg__(self) -> MotivicClass:
        return MotivicClass(-self.num, self.lshift, self.den)

    def __sub__(self, other: MotivicClass) -> MotivicClass:
        return self + (-other)

    def __mul__(self, other: Union[MotivicClass, int]) -> MotivicClass:
        if isinstance(other, int):
            return MotivicClass(self.num * other, self.lshift, self.den)
        return MotivicClass(
            self.num * other.num,
            self.lshift + other.lshift,
            self.den + other.den,
        )

    def __rmul__(self, other: int) -> MotivicClass:
        return self * other

    def div(self, i: int) -> MotivicClass:
        """Divide by ``L**i - 1`` (append a denominator factor)."""
        if i < 1:
            raise ValueError(f"denominator exponent must be >= 1, got {i}")
        return MotivicClass(self.num, self.lshift, self.den + (i,))

    def __eq__(self, other) -> bool:
        """Equality of the underlying classes, by cross-multiplication."""
        if not isinstance(other, MotivicClass):
            return NotImplemented
        return (self - other).is_zero

    __hash__ = None  # unreduced representations of equal classes differ

    def __str__(self) -> str:
        body = self.num.to_str("L")
        if self.lshift:
            body = f"({body})*L^({-self.lshift})"
        if self.den:
            dens = "*".join(f"(L^{i}-1)" if i > 1 else "(L-1)" for i in self.den)
            return f"({body})/{dens}"
        return body

    def __repr__(self) -> str:
        return (
            f"MotivicClass({list(self.num.coeffs)!r}, "
            f"lshift={self.lshift}, den={self.den!r})"
        )


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


@dataclass(frozen=True)
class PvFraction:
    """A virtual Poincare polynomial with denominators, over ``z``.

    The degree of a fraction is the degree of its numerator minus the
    degree of its denominator; the zero fraction has degree ``NEG_INF``.
    """

    num: IntPoly
    den: IntPoly

    def __post_init__(self):
        if self.den.is_zero:
            raise ZeroDivisionError("fraction with zero denominator")

    @property
    def degree(self) -> Degree:
        if self.num.is_zero:
            return NEG_INF
        return self.num.degree - self.den.degree

    def __add__(self, other: PvFraction) -> PvFraction:
        return PvFraction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __mul__(self, other: PvFraction) -> PvFraction:
        return PvFraction(self.num * other.num, self.den * other.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PvFraction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def as_polynomial(self) -> IntPoly:
        """Exact quotient; raises ``ValueError`` if division is not exact."""
        return self.num.exact_div(self.den)

    def __str__(self) -> str:
        if self.den == IntPoly.one():
            return self.num.to_str("z")
        return f"({self.num.to_str('z')})/({self.den.to_str('z')})"


def virtual_poincare(c: MotivicClass) -> PvFraction:
    """Specialize the Lefschetz class to ``z**2``.

    The mixed Hodge polynomial of ``L`` is ``x*y*t**2``, so the virtual
    Poincare measure sends ``L`` to ``z**2``; an ``lshift`` contributes
    ``z**(-2*lshift)``, a factor of the denominator.
    """
    den = _den_poly(c.den).substitute_power(2) * IntPoly.monomial(2 * c.lshift)
    return PvFraction(c.num.substitute_power(2), den)


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


def correction_polynomial(
    d: int,
    cache: Optional[HilbCache] = None,
    multiplier: int = 3,
) -> IntPoly:
    """Virtual Poincare polynomial of ``multiplier * [P^(2d-4)][P^2][Hilb^n1]``.

    ``n1 = (d-1)(d-2)/2 + 1``.  The product is a genuine variety class, so
    the division by the specialized denominators is exact; the top two
    coefficients of the result are the corrections applied to the last two
    rows of the Betti table.
    """
    return virtual_poincare(_chain_classes(d, cache, multiplier)[1]).as_polynomial()


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
