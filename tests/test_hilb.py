import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic_betti import hilb
from motivic_betti.hilb import (
    GENERATOR_TAG,
    HilbCache,
    HilbPoincare,
    colored_partition_euler,
    hilb_poincare,
    stable_betti,
    stable_series,
)
from motivic_betti.series import IntPoly, geometric_product

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


def stable_row_mismatches(cache):
    """``(n, s)`` with ``2s <= n <= 12`` where the row and stable value differ."""
    return [
        (n, s)
        for n in range(13)
        for s in range(n // 2 + 1)
        if hilb_poincare(n, cache).betti(2 * s) != stable_betti(s)
    ]


class TestGoettscheBivariate:
    """Rows of the bivariate product, as the packed kernel computes them."""

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
        # (k-1, k, k+2) in place of (k-1, k, k+1): the kernel's mirrored
        # low halves must then disagree with the enumeration
        monkeypatch.setattr(hilb, "FACTOR_OFFSETS", (-1, 0, 2))
        n = 6
        halves = hilb._half_rows(n, hilb._slot_width(colored_partition_euler(n)))
        mirrored = [low + low[-2::-1] for low in halves]
        assert any(
            row != enumerated_row(m)[::2] for m, row in enumerate(mirrored)
        )

    def test_narrow_slots_raise(self, monkeypatch):
        width = hilb._slot_width
        monkeypatch.setattr(hilb, "_slot_width", lambda euler_n: width(euler_n) // 2)
        with pytest.raises(ValueError, match="overflowed"):
            hilb_poincare(40)


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

    @pytest.mark.parametrize("dropped", [2, 4, 12])
    def test_row_check_catches_a_dropped_factor(self, monkeypatch, dropped):
        # rows first, so the mutation reaches stable_series alone
        cache = HilbCache()
        for n in range(13):
            hilb_poincare(n, cache)

        def one_factor_short(degrees, cap):
            degrees = list(degrees)
            if dropped in degrees:
                degrees.remove(dropped)
            return geometric_product(degrees, cap)

        monkeypatch.setattr(hilb, "geometric_product", one_factor_short)
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

    def test_no_temp_files_left(self, tmp_path):
        cache = HilbCache(tmp_path)
        hilb_poincare(6, cache)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_one_expansion_fills_lower_rows(self, tmp_path):
        cache = HilbCache(tmp_path)
        hilb_poincare(4, cache)
        assert all(cache.path_for(m).exists() for m in range(5))

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
