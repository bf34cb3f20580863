import pytest

from motivic_betti.hilb import HilbCache, stable_betti
from motivic_betti.tautgen import (
    a_coeff,
    generator_system,
    monomial_count_bruteforce,
    monomial_series,
    relation_count,
)


class TestGeneratorSystem:
    def test_d5(self):
        degrees = generator_system(5)
        assert degrees == {1: 2, 2: 3, 3: 3}
        assert sum(degrees.values()) == 8 == 3 * 5 - 7

    def test_d6(self):
        degrees = generator_system(6)
        assert degrees == {1: 2, 2: 3, 3: 3, 4: 3}
        assert sum(degrees.values()) == 11

    def test_d9_count(self):
        assert sum(generator_system(9).values()) == 20

    @pytest.mark.parametrize("d", range(5, 12))
    def test_count_formula(self, d):
        degrees = generator_system(d)
        assert degrees == {1: 2, **{j: 3 for j in range(2, d - 1)}}
        assert sum(degrees.values()) == 3 * d - 7

    def test_small_d_rejected(self):
        with pytest.raises(ValueError):
            generator_system(4)


class TestMonomialSeries:
    def test_constant_term(self):
        assert monomial_series(5, 1).coeff(0) == 1

    def test_degree_one_pair(self):
        assert monomial_series(5, 3).coeff(2) == 2

    def test_degree_three(self):
        for d in (7, 8, 9):
            assert monomial_series(d, 7).coeff(6) == 13

    def test_odd_exponents_vanish(self):
        series = monomial_series(6, 10)
        assert all(series.coeff(e) == 0 for e in range(1, 10, 2))


class TestBruteForceOracle:
    def test_empty_degree(self):
        assert monomial_count_bruteforce({1: 2, 2: 3}, 0) == 1

    def test_stars_and_bars(self):
        assert monomial_count_bruteforce({1: 2}, 3) == 4

    def test_mixed(self):
        assert monomial_count_bruteforce({1: 2, 2: 3}, 2) == 6

    @pytest.mark.parametrize("d", range(5, 10))
    def test_matches_series(self, d):
        degrees = generator_system(d)
        for i in range(9):
            assert a_coeff(d, i) == monomial_count_bruteforce(degrees, i), (d, i)


class TestACoeff:
    def test_base(self):
        assert a_coeff(5, 0) == 1

    @pytest.mark.parametrize("d", range(5, 10))
    def test_stable_agreement_below_top(self, d):
        for i in range(d - 1):
            assert a_coeff(d, i) == stable_betti(i), (d, i)

    def test_d5_first_deficit(self):
        assert a_coeff(5, 4) == stable_betti(4) - 3 == 26

    @pytest.mark.parametrize("d", range(5, 10))
    def test_deficit_identities(self, d):
        assert a_coeff(d, d - 1) == stable_betti(d - 1) - 3
        assert a_coeff(d, d) == stable_betti(d) - 9


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return HilbCache(tmp_path_factory.mktemp("hilb"))


class TestRelationCount:
    @pytest.mark.parametrize("d", range(5, 10))
    def test_free_below_d(self, d, cache):
        chi = -d - 1
        for i in range(d):
            assert relation_count(d, chi, i, cache) == 0, (d, i)

    @pytest.mark.parametrize("d", range(5, 10))
    def test_three_relations_at_d(self, d, cache):
        assert relation_count(d, -d - 1, d, cache) == 3

    def test_instance_from_low_degree(self, cache):
        assert relation_count(5, -6, 2, cache) == 0

    def test_out_of_range(self, cache):
        with pytest.raises(ValueError):
            relation_count(5, -6, 6, cache)

    def test_non_coprime(self, cache):
        with pytest.raises(ValueError):
            relation_count(5, 5, 2, cache)
