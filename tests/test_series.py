import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic_betti.series import (
    NEG_INF,
    CapMismatchError,
    IntPoly,
    OutOfWindowError,
    TruncatedSeries,
    geometric_product,
)


def S(coeffs, cap):
    return TruncatedSeries(coeffs, cap)


def geometric(deg, cap):
    """The series ``1/(1 - z**deg)`` truncated at ``cap``: the dense oracle
    for :func:`geometric_product`, one factor at a time."""
    if deg <= 0:
        raise ValueError(f"geometric factor needs deg >= 1, got {deg}")
    out = [0] * cap
    for e in range(0, cap, deg):
        out[e] = 1
    return S(out, cap)


class TestIntPoly:
    def test_trailing_zeros_stripped(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).coeffs == ()

    def test_zero_degree_is_sentinel(self):
        assert IntPoly.zero().degree == NEG_INF
        assert IntPoly([5]).degree == 0
        assert IntPoly([0, 0, 7]).degree == 2

    def test_coefficient_beyond_degree_is_zero(self):
        assert IntPoly([1, 3])[5] == 0

    def test_mul_and_pow(self):
        p = IntPoly([1, 1])
        assert (p * p).coeffs == (1, 2, 1)
        assert (p * p * p).coeffs == (1, 3, 3, 1)
        assert (p * 0).is_zero

    def test_substitute_power(self):
        p = IntPoly([1, 2, 3])
        assert p.substitute_power(2).coeffs == (1, 0, 2, 0, 3)

    def test_exact_div(self):
        num = IntPoly([-1, 0, 0, 1])  # z^3 - 1
        den = IntPoly([-1, 1])  # z - 1
        assert num.exact_div(den).coeffs == (1, 1, 1)
        with pytest.raises(ValueError):
            IntPoly([1, 1]).exact_div(IntPoly([0, 1]))

    def test_str(self):
        assert str(IntPoly([1, 0, 3])) == "3*z^2 + 1"
        assert str(IntPoly([-1, 1])) == "z - 1"
        assert str(IntPoly.zero()) == "0"


class TestSeriesMul:
    def test_difference_of_squares(self):
        prod = S([1, 1], 8) * S([1, -1], 8)
        assert prod == S([1, 0, -1], 8)

    def test_inverse_pair(self):
        prod = S([1, 1, 1, 1], 4) * S([1, -1], 4)
        assert prod == TruncatedSeries.one(4)

    def test_hand_convolution(self):
        prod = S([1, 2, 3], 3) * S([1, 1], 3)
        assert prod == S([1, 3, 5], 3)

    def test_cap_mismatch(self):
        with pytest.raises(CapMismatchError):
            S([1], 3) * S([1], 4)


class TestSeriesInverse:
    def test_geometric_series(self):
        assert S([1, -1], 4).inverse() == S([1, 1, 1, 1], 4)

    def test_identity(self):
        assert TruncatedSeries.one(4).inverse() == TruncatedSeries.one(4)

    def test_cubic_example(self):
        a = S([1, 0, -1, -1], 6)
        inv = a.inverse()
        assert inv == S([1, 0, 1, 1, 1, 2], 6)
        assert a * inv == TruncatedSeries.one(6)

    def test_negative_unit(self):
        a = S([-1, 2], 5)
        assert a * a.inverse() == TruncatedSeries.one(5)

    def test_non_unit_constant_term(self):
        with pytest.raises(ValueError):
            S([2, 1], 4).inverse()


class TestGeometric:
    def test_even_steps(self):
        assert geometric(2, 7) == S([1, 0, 1, 0, 1, 0, 1], 7)

    def test_unit_step(self):
        assert geometric(1, 3) == S([1, 1, 1], 3)

    def test_truncation_below_first_term(self):
        assert geometric(5, 5) == TruncatedSeries.one(5)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            geometric(0, 4)


class TestGeometricProduct:
    def test_bad_input(self):
        with pytest.raises(ValueError):
            geometric_product([2, 0], 4)
        with pytest.raises(ValueError):
            geometric_product([2], -1)


class TestCoeff:
    def test_poly_coeff(self):
        assert IntPoly([1, 0, 3])[2] == 3

    def test_series_coeff(self):
        assert geometric(2, 10).coeff(5) == 0
        assert geometric(3, 10).coeff(9) == 1

    def test_out_of_window(self):
        with pytest.raises(OutOfWindowError):
            geometric(2, 10).coeff(10)

    def test_widening_a_window_is_refused(self):
        with pytest.raises(OutOfWindowError):
            geometric(2, 10).truncate(11)

    def test_poly_has_no_window(self):
        assert IntPoly([1])[100] == 0


# ---------------------------------------------------------------------------
# Ring laws and round-trips on random inputs
# ---------------------------------------------------------------------------

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), max_size=10)
caps = st.integers(min_value=1, max_value=24)


@st.composite
def series_pairs(draw, count=2):
    cap = draw(caps)
    return tuple(S(draw(coeff_lists), cap) for _ in range(count))


@st.composite
def unit_series(draw):
    cap = draw(st.integers(min_value=1, max_value=64))
    head = draw(st.sampled_from([1, -1]))
    tail = draw(st.lists(st.integers(min_value=-5, max_value=5), max_size=12))
    return S([head] + tail, cap)


@given(series_pairs(3))
def test_mul_associative_and_commutative(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@given(series_pairs(3))
def test_mul_distributes_over_add(triple):
    a, b, c = triple
    assert a * (b + c) == a * b + a * c


@settings(max_examples=200)
@given(unit_series())
def test_inverse_round_trip(a):
    assert a * a.inverse() == TruncatedSeries.one(a.cap)


@given(series_pairs(2), st.integers(min_value=1, max_value=24))
def test_truncation_coherence(pair, smaller):
    a, b = pair
    if smaller > a.cap:
        smaller = a.cap
    assert (a * b).truncate(smaller) == a.truncate(smaller) * b.truncate(smaller)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=40))
def test_geometric_matches_inverse(deg, cap):
    one_minus = S([1] + [0] * (deg - 1) + [-1], cap)
    assert geometric(deg, cap) == one_minus.inverse()


@settings(max_examples=200)
@given(
    st.lists(st.integers(min_value=1, max_value=12), max_size=12),
    st.integers(min_value=0, max_value=60),
)
def test_geometric_product_matches_convolution(degrees, cap):
    # oracle: the dense route, one TruncatedSeries product per factor
    acc = TruncatedSeries.one(cap)
    for deg in degrees:
        acc = acc * geometric(deg, cap)
    assert geometric_product(degrees, cap) == [acc.coeff(e) for e in range(cap)]


def schoolbook(a, b):
    """Every pair of coefficients, zeros included, as the oracle for ``*``."""
    out = [0] * (len(a.coeffs) + len(b.coeffs))
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return IntPoly(out)


# dense, sparse (mostly zeros) and monomial operands, zero included
int_polys = st.one_of(
    st.lists(st.integers(min_value=-9, max_value=9), max_size=12),
    st.lists(st.sampled_from([0, 0, 0, 0, 1, -2, 7]), max_size=30),
    st.builds(
        lambda exp, c: [0] * exp + [c],
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=-5, max_value=5),
    ),
).map(IntPoly)


@settings(max_examples=200)
@given(int_polys, int_polys)
def test_intpoly_mul_matches_schoolbook(a, b):
    assert a * b == b * a == schoolbook(a, b)
