import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic_betti import motivic
from motivic_betti.hilb import HilbCache
from motivic_betti.motivic import (
    DEFAULT_CONSTANTS,
    ChainConstants,
    MotivicClass,
    PvFraction,
    affine,
    congruent_mod_dim,
    correction_polynomial,
    hilb_class,
    projective,
    pv_degree,
    verify_congruence_chain,
    virtual_poincare,
)
from motivic_betti.series import NEG_INF, IntPoly


def L_poly(*coeffs):
    return MotivicClass(IntPoly(coeffs))


class TestRingOps:
    def test_cancellation(self):
        # (L+1)(L-1)/(L-1) == L+1
        frac = MotivicClass(IntPoly([1, 1]) * IntPoly([-1, 1]), den=(1,))
        assert frac == L_poly(1, 1)

    def test_additive_inverse(self):
        x = MotivicClass(IntPoly([2, 0, 5]), lshift=1, den=(2,))
        assert (x + (-x)).is_zero
        assert x + (-x) == MotivicClass(0)

    def test_power_law(self):
        assert affine(2) * affine(3) == affine(5)

    def test_negative_affine(self):
        assert affine(-2) * affine(5) == affine(3)

    def test_scalar_multiplication(self):
        assert 3 * projective(1) == projective(1) + projective(1) + projective(1)

    def test_div_appends_denominator(self):
        x = L_poly(-1, 1)  # L - 1
        assert x.div(1) == MotivicClass(1)


class TestConstructors:
    def test_projective_small(self):
        assert projective(0) == MotivicClass(1)
        assert projective(1) == L_poly(1, 1)
        assert projective(2) == L_poly(1, 1, 1)

    def test_projective_cell_sum(self):
        for n in range(6):
            cells = MotivicClass(IntPoly([1] * (n + 1)))
            assert projective(n) == cells

    def test_projective_times_l_minus_one(self):
        for n in range(6):
            lhs = L_poly(-1, 1) * projective(n)
            assert lhs == MotivicClass(IntPoly([-1] + [0] * n + [1]))

    def test_hilb_class_small(self):
        assert hilb_class(0) == MotivicClass(1)
        assert hilb_class(1) == projective(2)
        assert hilb_class(2) == L_poly(1, 2, 3, 2, 1)


class TestVirtualPoincare:
    def test_lefschetz_is_z_squared(self):
        assert virtual_poincare(affine(1)) == PvFraction(IntPoly([0, 0, 1]), IntPoly.one())

    def test_projective_plane(self):
        pv = virtual_poincare(projective(2))
        assert pv.as_polynomial() == IntPoly([1, 0, 1, 0, 1])

    def test_gl1(self):
        # [GL_1] = L - 1
        pv = virtual_poincare(affine(1) - MotivicClass(1))
        assert pv == PvFraction(IntPoly([-1, 0, 1]), IntPoly.one())
        assert pv.degree == 2

    def test_degrees(self):
        assert pv_degree(affine(4)) == 8
        assert pv_degree(projective(4)) == 8
        assert pv_degree(hilb_class(3)) == 12

    @pytest.mark.parametrize("n", range(1, 5))
    def test_gl_degree_is_twice_dimension(self, n):
        # (P^2)^n has dimension 2n, and each factor carries its own (L - 1)
        power = MotivicClass(1)
        for _ in range(n):
            power = power * projective(2)
        assert power.den == _factor_product((1,) * n)  # (L - 1)^n
        assert pv_degree(power) == 4 * n

    def test_zero_class_degree_sentinel(self):
        z = projective(2) + (-projective(2))
        assert pv_degree(z) == NEG_INF
        assert pv_degree(z) < -(10**9)

    def test_negative_lshift_stays_polynomial(self):
        pv = virtual_poincare(MotivicClass(IntPoly.one(), lshift=-3))
        assert pv.as_polynomial() == IntPoly.monomial(6)


class TestCongruence:
    def test_equal_classes_any_bound(self):
        a = projective(3)
        assert congruent_mod_dim(a, a, 0)

    def test_affine_three(self):
        zero = MotivicClass(0)
        assert congruent_mod_dim(affine(3), zero, 3)
        assert not congruent_mod_dim(affine(3), zero, 2)

    def test_projective_minus_affine(self):
        # difference is [P^1], dimension 1
        assert congruent_mod_dim(projective(2), affine(2), 1)
        assert not congruent_mod_dim(projective(2), affine(2), 0)


# ---------------------------------------------------------------------------
# Random-class properties
# ---------------------------------------------------------------------------

polys = st.lists(st.integers(min_value=-5, max_value=5), max_size=6).map(IntPoly)
dens = st.lists(st.integers(min_value=1, max_value=4), max_size=3).map(tuple)
classes = st.builds(
    MotivicClass,
    num=polys,
    lshift=st.integers(min_value=-3, max_value=3),
    den=dens,
)


@given(polys, st.integers(1, 3), dens)
def test_positive_lshift_multiplies_denominator(num, k, den):
    shifted = MotivicClass(num, k, den)
    plain = MotivicClass(num, 0, den)
    assert (shifted.num, shifted.den) == (plain.num, plain.den * IntPoly.monomial(k))


@given(polys, st.integers(1, 3), dens)
def test_negative_lshift_folds_into_numerator(num, k, den):
    folded = MotivicClass(num, -k, den)
    direct = MotivicClass(num * IntPoly.monomial(k), 0, den)
    assert (folded.num, folded.den) == (direct.num, direct.den)


def _same_class_variant(c, j, k):
    """A different representation of the same class: ``c`` times the unit
    ``(L^j - 1) L^k / ((L^j - 1) L^k)``."""
    unit = MotivicClass(IntPoly([-1] + [0] * (j - 1) + [1]) * IntPoly.monomial(k), k, (j,))
    return c * unit


@given(classes, st.integers(1, 4), st.integers(0, 3), st.integers(1, 4))
def test_equality_is_equivalence(c, j, k, j2):
    a = _same_class_variant(c, j, k)
    b = _same_class_variant(c, j2, 0)
    assert c == c
    assert a == c and c == a
    assert b == c
    assert a == b  # transitivity through c


@given(classes, classes, st.integers(1, 4), st.integers(0, 3))
def test_ops_respect_equality(x, y, j, k):
    x2 = _same_class_variant(x, j, k)
    assert x + y == x2 + y
    assert x * y == x2 * y


@settings(max_examples=100)
@given(classes, classes)
def test_virtual_poincare_is_ring_homomorphism(a, b):
    assert virtual_poincare(a * b) == virtual_poincare(a) * virtual_poincare(b)
    assert virtual_poincare(a + b) == virtual_poincare(a) + virtual_poincare(b)


@given(classes, classes)
def test_pv_degree_additive(a, b):
    if a.is_zero or b.is_zero:
        assert pv_degree(a * b) == NEG_INF
    else:
        assert pv_degree(a * b) == pv_degree(a) + pv_degree(b)


# ---------------------------------------------------------------------------
# The congruence chain
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cache():
    return HilbCache()


class TestCongruenceChain:
    def test_d5_passes(self, cache):
        report = verify_congruence_chain(5, cache)
        assert report.all_pass
        assert [c.name for c in report.checks] == [
            "collapse_sum",
            "close_up",
            "extract_corrections",
        ]

    def test_d5_correction_coefficients(self, cache):
        poly = correction_polynomial(5, cache)
        assert poly.degree == 44
        assert poly[44] == 3
        assert poly[42] == 12

    @pytest.mark.parametrize("d", range(5, 10))
    def test_correction_polynomial_is_step_three(self, cache, d):
        report = verify_congruence_chain(d, cache)
        assert str(correction_polynomial(d, cache)) == report.checks[2].lhs_pv

    def test_d5_close_up_degree_bound(self, cache):
        # the difference across the close_up step has pv degree <= 2(d^2-d)
        d = 5
        n1 = (d - 1) * (d - 2) // 2 + 1
        x = projective(2) * hilb_class(n1, cache)
        lhs = (3 * (affine(2 * d - 3) * x)).div(1)
        rhs = 3 * (projective(2 * d - 4) * x)
        diff = lhs - rhs
        assert pv_degree(diff) <= 40

    @pytest.mark.parametrize(
        "name", ["multiplier", "double_coeff", "expected_top", "expected_subtop"]
    )
    def test_mutations_fail(self, cache, name):
        constants = DEFAULT_CONSTANTS.mutated(name)
        report = verify_congruence_chain(5, cache, constants)
        assert not report.all_pass, name

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_CONSTANTS.mutated("bogus")

    def test_report_serialization(self, cache):
        report = verify_congruence_chain(5, cache)
        obj = report.to_json_obj()
        assert obj["d"] == "5"
        assert obj["all_pass"] is True
        assert len(obj["checks"]) == 3
        first = obj["checks"][0]
        assert set(first) == {"name", "pass", "lhs_pv", "rhs_pv", "bound"}
        assert first["bound"] == str(2 * (25 + 1 - 5))

    def test_failing_report_carries_both_sides(self, cache):
        report = verify_congruence_chain(
            5, cache, ChainConstants(expected_top=4)
        )
        bad = report.failing()
        assert [c.name for c in bad] == ["extract_corrections"]
        assert "z^44" in bad[0].lhs_pv
        assert "4*z^44" in bad[0].rhs_pv


# ---------------------------------------------------------------------------
# The factor-multiset class as an oracle for the one fraction type
# ---------------------------------------------------------------------------


def _factor_product(den):
    acc = IntPoly.one()
    for i in den:
        acc = acc * IntPoly([-1] + [0] * (i - 1) + [1])
    return acc


class _FactorClass:
    """``num(L) * L^(-lshift) / prod_i (L^i - 1)`` with ``lshift >= 0`` and
    the factors kept as a multiset of exponents ``i``: the representation
    motivic.py used before it held one numerator and one denominator."""

    def __init__(self, num, lshift=0, den=()):
        if lshift < 0:
            num, lshift = num * IntPoly.monomial(-lshift), 0
        self.num, self.lshift, self.den = num, lshift, tuple(sorted(den))

    def __add__(self, other):
        a = self.num * _factor_product(other.den) * IntPoly.monomial(other.lshift)
        b = other.num * _factor_product(self.den) * IntPoly.monomial(self.lshift)
        return _FactorClass(a + b, self.lshift + other.lshift, self.den + other.den)

    def __neg__(self):
        return _FactorClass(-self.num, self.lshift, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return _FactorClass(self.num * other, self.lshift, self.den)
        return _FactorClass(
            self.num * other.num, self.lshift + other.lshift, self.den + other.den
        )

    def div(self, i):
        return _FactorClass(self.num, self.lshift, self.den + (i,))

    def specialize(self):
        """``(num, den)`` over ``z`` after ``L -> z**2``, and its string."""
        num = self.num.substitute_power(2)
        den = _factor_product(self.den).substitute_power(2)
        den = den * IntPoly.monomial(2 * self.lshift)
        if den == IntPoly.one():
            return num, den, num.to_str("z")
        return num, den, f"({num.to_str('z')})/({den.to_str('z')})"


def _paired(num, lshift, den):
    return MotivicClass(num, lshift, den), _FactorClass(num, lshift, den)


def _expressions(depth):
    """Pairs (class, oracle) built by the same expression tree."""
    leaf = st.builds(_paired, polys, st.integers(-3, 3), dens)
    if depth == 0:
        return leaf
    sub = _expressions(depth - 1)
    binary = {
        "+": lambda x, y: x + y,
        "-": lambda x, y: x - y,
        "*": lambda x, y: x * y,
    }
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(sorted(binary)), sub, sub).map(
            lambda t: (binary[t[0]](t[1][0], t[2][0]), binary[t[0]](t[1][1], t[2][1]))
        ),
        sub.map(lambda p: (-p[0], -p[1])),
        st.tuples(st.integers(-3, 3), sub).map(lambda t: (t[0] * t[1][0], t[1][1] * t[0])),
        st.tuples(st.integers(1, 4), sub).map(lambda t: (t[1][0].div(t[0]), t[1][1].div(t[0]))),
    )


@settings(max_examples=200)
@given(_expressions(4))
def test_specialization_matches_factor_multiset_oracle(pair):
    new, old = pair
    pv = virtual_poincare(new)
    num, den, text = old.specialize()
    assert pv.num.coeffs == num.coeffs
    assert pv.den.coeffs == den.coeffs
    assert str(pv) == text


# ---------------------------------------------------------------------------
# What the chain certifies (see the motivic module docstring)
# ---------------------------------------------------------------------------


@st.composite
def _fake_hilb_rows(draw):
    """``d`` and a palindromic row of degree ``2*n1`` whose top two
    coefficients and middle are random."""
    d = draw(st.integers(5, 9))
    n1 = (d - 1) * (d - 2) // 2 + 1
    top = list(draw(st.just((1, 2)) | st.tuples(st.integers(0, 3), st.integers(0, 6))))
    middle = draw(st.lists(st.integers(0, 50), min_size=n1 - 1, max_size=n1 - 1))
    half = top + middle
    return d, half + half[-2::-1]


@settings(max_examples=60, deadline=None)
@given(_fake_hilb_rows())
def test_chain_reads_only_degree_and_top_two_coefficients(drawn):
    d, row = drawn
    n1 = (d - 1) * (d - 2) // 2 + 1

    def fake_hilb_class(n, cache=None):
        assert n == n1
        return MotivicClass(IntPoly(row))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(motivic, "hilb_class", fake_hilb_class)
        collapse, close_up, extract = verify_congruence_chain(d).checks
    assert collapse.passed and close_up.passed
    assert extract.passed == (row[:2] == [1, 2])
