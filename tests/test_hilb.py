import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic_betti import hilb
from motivic_betti.hilb import (
    GENERATOR_TAG,
    ConsistencyError,
    HilbCache,
    HilbPoincare,
    _triangular,
    colored_partition_euler,
    hilb_poincare,
    stable_betti,
    stable_series,
)
from motivic_betti.series import IntPoly, TruncatedSeries, geometric_product

# z=1 values of the product rows, counted independently by enumerating
# three-colored partitions (frozen from a standalone enumeration).
COLORED_COUNTS = [1, 3, 9, 22, 51, 108, 221]

# Stable values of b_{2s}, frozen from brute-force monomial enumeration
# over the degree multiset {1 x2, 2 x3, 3 x3, ...}.
STABLE = [1, 2, 6, 13, 29, 57, 113, 208, 381, 669]


def partitions(total, largest=None):
    """Every partition of ``total`` as a non-increasing tuple of parts."""
    if largest is None:
        largest = total
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in partitions(total - part, part):
            yield (part,) + rest


def enumerated_row(n):
    """The ``t^n`` row of Goettsche's product, one term per triple.

    Expanding ``prod_k (1 - z^{2k-2} t^k)^{-1} (1 - z^{2k} t^k)^{-1}
    (1 - z^{2k+2} t^k)^{-1}`` term by term, a triple of partitions
    ``(alpha, beta, gamma)`` with ``|alpha| + |beta| + |gamma| = n``
    contributes ``z^{2(|alpha| - l(alpha)) + 2|beta| + 2(|gamma| + l(gamma))}``.
    """
    coeffs = [0] * (4 * n + 1)
    for a in range(n + 1):
        for b in range(n - a + 1):
            c = n - a - b
            for alpha in partitions(a):
                for beta in partitions(b):
                    for gamma in partitions(c):
                        exp = 2 * (a - len(alpha)) + 2 * b + 2 * (c + len(gamma))
                        coeffs[exp] += 1
    return coeffs


# Factor ``k`` of the product is ``prod_b (1 - w^b t^k)^{-1}`` over the
# exponents ``b = k + offset`` of ``w = z^2``, one per offset here.
FACTOR_OFFSETS = (-1, 0, 1)


def product_rows(n, width):
    """Low halves of rows ``0 .. n`` by expanding the product factor by factor.

    The product-form oracle for the packed recurrence: row ``m`` is
    packed into one int, ``width`` bits per coefficient of ``w^0 .. w^n``,
    so the factor ``(1 - w^b t^k)^{-1}`` becomes one shift-add per row,
    ``row[m] += row[m-k] << width*b`` in increasing ``m``, masked back to
    ``n + 1`` slots.  Every partial coefficient is non-negative and at most
    ``chi(Hilb^n)``, so the slot width of the recurrence serves here too.
    """
    bits_len = width * (n + 1)
    mask = (1 << bits_len) - 1
    rows = [0] * (n + 1)
    rows[0] = 1
    for k in range(1, n + 1):
        for offset in FACTOR_OFFSETS:
            shift = width * (k + offset)
            for m in range(k, n + 1):
                rows[m] = (rows[m] + (rows[m - k] << shift)) & mask
    halves = []
    for m, packed in enumerate(rows):
        bits = format(packed, f"0{bits_len}b")
        halves.append([
            int(bits[bits_len - width * (j + 1):bits_len - width * j], 2)
            for j in range(m + 1)
        ])
    return halves


def _slot_width(euler_n: int) -> int:
    """Bits per packed coefficient for rows up to ``n``, from ``chi(Hilb^n)``.

    No coefficient of a row ``m <= n`` exceeds ``chi(Hilb^m) <= chi(Hilb^n)``;
    the packed recurrence is exact at any width, so only unpacking needs it.
    """
    return euler_n.bit_length() + 1


def _theta_rows(n: int, width: int) -> list[list[int]]:
    """Coefficients of ``w^0 .. w^m`` in the ``t^m`` row, for every ``m <= n``.

    Rows are packed whole, ``width`` bits a slot; only low halves are unpacked.
    """
    terms = [
        (t, width * (t + m + 1), width * (t - m), m % 2) for m, t in _triangular(n)
    ]
    packed = [1]
    for big_n in range(1, n + 1):
        acc = 0
        for t, high, low, odd in terms:
            if t > big_n:
                break
            term = (packed[big_n - t] << high) - (packed[big_n - t] << low)
            acc = acc + term if odd else acc - term
        row, rem = divmod(acc, (1 << width) - 1)
        if rem:
            raise ConsistencyError(f"packed row {big_n} is not divisible by w - 1")
        packed.append(row)
    halves = []
    for m, row in enumerate(packed):
        bits_len = width * (m + 1)
        bits = format(row & ((1 << bits_len) - 1), f"0{bits_len}b")
        halves.append([
            int(bits[bits_len - width * (j + 1):bits_len - width * j], 2)
            for j in range(m + 1)
        ])
    return halves


def stride_stable_series(cap):
    """``R(z) = 1/(1-z^2)^2 prod_{m >= 2} 1/(1-z^{2m})^3`` by stride passes.

    The product-form oracle for the cube-identity kernel: one geometric
    factor per degree, and factors with ``2m >= cap`` are 1 below the cap.
    """
    degrees = [2, 2] + [2 * m for m in range(2, (cap + 1) // 2) for _ in range(3)]
    return geometric_product(degrees, cap)


def stride_euler(n):
    """``chi(Hilb^m)`` for ``m <= n``: ``prod (1-t^k)^{-3}`` by stride passes."""
    return geometric_product((k for k in range(1, n + 1) for _ in range(3)), n + 1)


def oracle_rows(n):
    """Low halves of rows ``0 .. n`` by the packed triple-product recurrence."""
    return _theta_rows(n, _slot_width(stride_euler(n)[n]))


def both_kernels(n):
    """``(theta rows, product rows)`` for ``0 .. n`` at the recurrence's width."""
    width = _slot_width(stride_euler(n)[n])
    return _theta_rows(n, width), product_rows(n, width)


def without_theta_term(z_degree):
    """``_triangular`` with the term of ``q^{T_m} = z^{z_degree}`` left out."""
    triangular = hilb._triangular
    return lambda limit: [(m, t) for m, t in triangular(limit) if 2 * t != z_degree]


def stable_row_mismatches(cache):
    """``(n, s)`` with ``2s <= n <= 12`` where the row and stable value differ."""
    return [
        (n, s)
        for n in range(13)
        for s in range(n // 2 + 1)
        if hilb_poincare(n, cache).betti(2 * s) != stable_betti(s)
    ]


class TestGoettscheBivariate:
    """Rows of the bivariate product, as the closed form computes them."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10))
    def test_matches_partition_enumeration(self, n):
        assert list(hilb_poincare(n).poly.coeffs) == enumerated_row(n)

    def test_t0_row_is_one(self):
        assert hilb_poincare(0).poly == IntPoly.one()

    def test_t1_row_is_plane(self):
        assert hilb_poincare(1).poly == IntPoly([1, 0, 1, 0, 1])

    def test_t2_row(self):
        assert hilb_poincare(2).poly == IntPoly([1, 0, 2, 0, 3, 0, 2, 0, 1])

    def test_oracle_rejects_perturbed_factor(self, monkeypatch):
        # the 1psi1 sum without its m = 2 term (T_2 = 3, z^6): the terms
        # telescope, so every row still sums to its Euler number and passes
        # the kernel's own check, and only the enumeration tells rows 3 .. 7
        # apart from the true ones
        euler = hilb._cube_quotient([1], 8)
        monkeypatch.setattr(hilb, "_triangular", without_theta_term(6))
        for n in range(8):
            low = hilb._low_half(n, euler)
            full = low + low[-2::-1]
            assert sum(full) == euler[n]
            assert (full != enumerated_row(n)[::2]) == (n >= 3), n


class TestKernelsAgainstProductOracles:
    """Both kernels against the recurrence and product expansions they replace."""

    # every row 0 .. n; up to n = 150 the oracle takes about 0.05 s, and
    # 15 examples kept this test near 0.3 s on a 2-core machine
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=150))
    def test_rows_match_product_expansion(self, n):
        theta, product = both_kernels(n)
        assert theta == product

    @pytest.mark.parametrize("n", [209, 300])
    def test_rows_match_product_expansion_at_size(self, n):
        theta, product = both_kernels(n)
        assert theta == product

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=150))
    def test_closed_form_matches_recurrence(self, n):
        euler = hilb._cube_quotient([1], n + 1)
        assert [hilb._low_half(m, euler) for m in range(n + 1)] == oracle_rows(n)

    @pytest.mark.parametrize("n", [209, 300, 742])
    def test_closed_form_matches_recurrence_at_size(self, n):
        low = hilb._low_half(n, hilb._cube_quotient([1], n + 1))
        assert low == oracle_rows(n)[n]
        # hard Lefschetz on Hilb^n: b_0 <= b_2 <= ... <= b_{2n}
        assert all(a <= b for a, b in zip(low, low[1:]))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=2001))
    def test_stable_series_matches_stride_product(self, cap):
        assert stable_series(cap) == TruncatedSeries(stride_stable_series(cap), cap)

    def test_stable_series_matches_stride_product_at_2001(self):
        assert stable_series(2001) == TruncatedSeries(stride_stable_series(2001), 2001)

    def test_stable_series_is_euler_differences(self):
        # R(q) = (1 - q) prod (1 - q^m)^{-3}: r_j = chi(Hilb^j) - chi(Hilb^{j-1}),
        # with the Euler numbers from the stride product
        euler = stride_euler(500)
        assert hilb._cube_quotient([1], 501) == euler
        r = stable_series(1001)
        assert r.coeff(0) == euler[0]
        assert all(r.coeff(2 * j) == euler[j] - euler[j - 1] for j in range(1, 501))


class TestHardLefschetz:
    """``M(d, chi)`` is smooth projective of dimension ``d^2 + 1 > 2d``, so
    ``b_0 <= b_2 <= ... <= b_{2d}``, the corrected values included."""

    def test_stable_values_and_corrections_for_d_up_to_2000(self):
        r = stable_series(4001)
        s = [r.coeff(2 * i) for i in range(2001)]
        # b_0 .. b_{2d-4} are stable values s_0 .. s_{d-2}, d <= 2000
        assert all(s[i] <= s[i + 1] for i in range(1998))
        for d in range(5, 2001):
            assert s[d - 1] - 3 >= s[d - 2], d
            assert s[d] - 12 >= s[d - 1] - 3, d


class TestHilbPoincare:
    def test_n0(self):
        assert hilb_poincare(0).poly == IntPoly.one()

    def test_n1_is_plane(self):
        assert hilb_poincare(1).poly == IntPoly([1, 0, 1, 0, 1])

    def test_n2(self):
        assert hilb_poincare(2).poly == IntPoly([1, 0, 2, 0, 3, 0, 2, 0, 1])

    @pytest.mark.parametrize("n", range(13))
    def test_invariants_hold(self, n):
        hp = hilb_poincare(n)
        # the HilbPoincare constructor enforces palindromicity, odd
        # vanishing, unit constant term and degree 4n; re-assert the
        # headline ones explicitly
        assert hp.betti(0) == 1
        assert all(hp.betti(i) == 0 for i in range(1, 4 * n + 1, 2))
        assert all(hp.betti(2 * k) == hp.betti(4 * n - 2 * k) for k in range(2 * n + 1))

    def test_validation_rejects_bad_polys(self):
        with pytest.raises(ValueError):
            HilbPoincare(1, IntPoly([1, 1, 1, 0, 1]))  # odd term
        with pytest.raises(ValueError):
            HilbPoincare(1, IntPoly([1, 0, 2, 0, 2]))  # not palindromic
        with pytest.raises(ValueError):
            HilbPoincare(2, IntPoly([1, 0, 1, 0, 1]))  # wrong degree

    @pytest.mark.parametrize("n", range(13))
    def test_euler_cross_check(self, n):
        assert hilb_poincare(n).euler() == colored_partition_euler(n)


class TestColoredPartitionEuler:
    def test_small_values(self):
        got = [colored_partition_euler(n) for n in range(len(COLORED_COUNTS))]
        assert got == COLORED_COUNTS


class TestStableSeries:
    def test_first_values(self):
        r = stable_series(11)
        assert [r.coeff(2 * s) for s in range(6)] == STABLE[:6]

    def test_odd_coefficients_vanish(self):
        r = stable_series(11)
        assert all(r.coeff(e) == 0 for e in range(1, 11, 2))

    @pytest.mark.parametrize("s,value", [(0, 1), (1, 2), (4, 29)])
    def test_stable_betti(self, s, value):
        assert stable_betti(s) == value

    def test_stable_range_matches_rows(self):
        assert stable_row_mismatches(HilbCache()) == []

    @pytest.mark.parametrize("dropped", [2, 6, 12])
    def test_row_check_catches_a_dropped_factor(self, monkeypatch, dropped):
        # drop the cube-identity term of degree `dropped` in z (m = 1, 2, 3);
        # rows first, so the mutation reaches stable_series alone
        cache = HilbCache()
        for n in range(13):
            hilb_poincare(n, cache)
        monkeypatch.setattr(hilb, "_triangular", without_theta_term(dropped))
        assert stable_row_mismatches(cache) != []

    def test_monotone_stabilization(self):
        rows = [hilb_poincare(n) for n in range(13)]
        for s in range(7):
            values = [hp.betti(2 * s) for hp in rows]
            assert all(a <= b for a, b in zip(values, values[1:])), s


class TestHilbCache:
    def test_round_trip_bit_exact(self, tmp_path):
        cache = HilbCache(tmp_path)
        hp = hilb_poincare(5, cache)
        path = cache.path_for(5)
        first = path.read_bytes()
        fresh = HilbCache(tmp_path)
        assert fresh.get(5) == hp
        fresh.put(fresh.get(5))
        assert path.read_bytes() == first

    def test_file_schema(self, tmp_path):
        cache = HilbCache(tmp_path)
        hilb_poincare(2, cache)
        obj = json.loads(cache.path_for(2).read_text())
        assert obj == {
            "n": 2,
            "coeffs": ["1", "0", "2", "0", "3", "0", "2", "0", "1"],
            "generator": GENERATOR_TAG,
            "version": 1,
        }
        # compact: one line per file
        assert cache.path_for(2).read_text().count("\n") == 1

    def test_pretty_printed_file_is_a_hit(self, tmp_path, capsys, monkeypatch):
        # the same v1 format as earlier versions wrote it, with indent=2
        hp = hilb_poincare(4)
        obj = json.loads(hilb.encode_cache_entry(hp))
        HilbCache(tmp_path).path_for(4).write_text(json.dumps(obj, indent=2) + "\n")
        monkeypatch.setattr(hilb, "_low_half", None)  # a miss would call it
        assert hilb_poincare(4, HilbCache(tmp_path)) == hp
        assert capsys.readouterr().err == ""

    def test_no_temp_files_left(self, tmp_path):
        cache = HilbCache(tmp_path)
        hilb_poincare(6, cache)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_one_expansion_fills_lower_rows(self, tmp_path):
        cache = HilbCache(tmp_path)
        hilb_poincare(4, cache)
        assert all(cache.path_for(m).exists() for m in range(5))

    def test_rows_built_with_and_without_a_cache(self, tmp_path, monkeypatch):
        built = []
        low_half = hilb._low_half
        monkeypatch.setattr(
            hilb, "_low_half", lambda n, euler: built.append(n) or low_half(n, euler)
        )
        hilb_poincare(40)
        assert built == [40]
        built.clear()
        hilb_poincare(40, HilbCache(tmp_path))
        assert built == list(range(41))
        assert {p.name for p in tmp_path.iterdir()} == {f"hilb_{m}.json" for m in range(41)}

    def test_memory_only_cache(self):
        cache = HilbCache()
        hp = hilb_poincare(3, cache)
        assert cache.get(3) == hp
        assert cache.path_for(3) is None

    @pytest.mark.parametrize(
        "text",
        ['{"n": 3, "coeffs": ["1"', "[]", '{"n": 3, "version": 1}',
         '{"n": 4, "coeffs": [], "version": 1}', '{"n": 3, "coeffs": ["1"], "version": 2}'],
    )
    def test_bad_file_is_a_miss_and_is_rewritten(self, tmp_path, capsys, text):
        path = HilbCache(tmp_path).path_for(3)
        path.write_text(text)
        hp = hilb_poincare(3, HilbCache(tmp_path))
        assert hp == hilb_poincare(3)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(path) in err[0]
        assert HilbCache(tmp_path).get(3) == hp
