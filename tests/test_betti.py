import io
import json
import math

import pytest

from motivic_betti.betti import (
    BettiRow,
    BettiTable,
    chi_normalize,
    emit,
    m_betti_table,
    render,
)
from motivic_betti.hilb import HilbCache, stable_betti
from motivic_betti.motivic import correction_polynomial
from motivic_betti.tautgen import a_coeff


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return HilbCache(tmp_path_factory.mktemp("hilb"))


class TestChiNormalize:
    def test_already_in_window(self):
        assert chi_normalize(5, -6) == (-6, 11)

    def test_shift_down(self):
        assert chi_normalize(5, 1) == (-9, 14)

    def test_non_coprime(self):
        with pytest.raises(ValueError):
            chi_normalize(5, 5)

    @pytest.mark.parametrize("d", range(5, 10))
    def test_window_and_congruence(self, d):
        for chi in range(-3 * d, 3 * d + 1):
            if math.gcd(d, chi) != 1:
                continue
            chi0, n_prime = chi_normalize(d, chi)
            assert -2 * d <= chi0 <= -d - 1
            assert (chi0 - chi) % d == 0
            assert n_prime == d * (d - 3) // 2 - chi0


class TestBettiTable:
    def test_d5_values(self, cache):
        table = m_betti_table(5, -6, cache)
        assert [r.b2k for r in table.rows] == [1, 2, 6, 13, 26, 45]
        assert table.chi0 == -6
        assert table.n == 11
        assert json.loads(render(table, "json"))["duality_applied"] is True

    def test_sources(self, cache):
        table = m_betti_table(5, -6, cache)
        assert [r.source for r in table.rows] == [
            "goettsche",
            "goettsche",
            "goettsche",
            "goettsche",
            "corrected_minus3",
            "corrected_minus12",
        ]

    def test_connectedness(self, cache):
        assert m_betti_table(6, 1, cache).value(0) == 1

    @pytest.mark.parametrize("d", range(5, 10))
    def test_chi_independence(self, d, cache):
        chis = [-d - 1, 1]
        if math.gcd(d, d + 1) == 1:
            chis.append(d + 1)
        tables = [m_betti_table(d, chi, cache) for chi in chis]
        reference = [r.b2k for r in tables[0].rows]
        for table in tables[1:]:
            assert [r.b2k for r in table.rows] == reference

    @pytest.mark.parametrize("d", range(5, 10))
    def test_matches_stable_below_corrections(self, d, cache):
        table = m_betti_table(d, -d - 1, cache)
        for k in range(d - 1):
            assert table.value(k) == stable_betti(k), (d, k)

    @pytest.mark.parametrize("d", range(5, 10))
    def test_relation_count_consistency(self, d, cache):
        table = m_betti_table(d, -d - 1, cache)
        for k in range(d):
            assert a_coeff(d, k) - table.value(k) == 0, (d, k)
        assert a_coeff(d, d) - table.value(d) == 3

    @pytest.mark.parametrize("d", range(5, 10))
    def test_corrections_match_chain_coefficients(self, d, cache):
        # the chain extracts the corrections by motivic division; the
        # table applies them as constants -- same numbers, two routes
        poly = correction_polynomial(d, cache)
        top = 2 * (d * d - d + 2)
        table = m_betti_table(d, -d - 1, cache)
        hp_value_d1 = table.value(d - 1) + 3
        hp_value_d = table.value(d) + 12
        assert poly[top] == hp_value_d1 - table.value(d - 1)
        assert poly[top - 2] == hp_value_d - table.value(d)

    def test_hard_lefschetz(self, cache):
        # M(d, chi) is smooth projective of dimension d^2 + 1 > 2d, so
        # b_0 <= b_2 <= ... <= b_{2d}; largest d first fills the cache once
        for d in range(20, 4, -1):
            b = [row.b2k for row in m_betti_table(d, 1, cache).rows]
            assert all(x <= y for x, y in zip(b, b[1:])), d

    def test_small_d_rejected(self, cache):
        with pytest.raises(ValueError):
            m_betti_table(4, 1, cache)

    def test_row_validation(self):
        rows = tuple(BettiRow(k, 1, "goettsche") for k in range(6))
        with pytest.raises(ValueError):
            BettiTable(5, -6, -6, 11, rows)


class TestEmit:
    def test_csv_table(self, cache):
        table = m_betti_table(5, -6, cache)
        text = render(table, "csv")
        lines = text.splitlines()
        assert lines[0] == "k,b2k,source"
        assert len(lines) == 7  # header + 6 data rows
        assert lines[1] == "0,1,goettsche"
        assert lines[5] == "4,26,corrected_minus3"
        assert lines[6] == "5,45,corrected_minus12"
        assert text.endswith("\n") and "\r" not in text

    def test_json_round_trip(self, cache):
        table = m_betti_table(5, -6, cache)
        obj = json.loads(render(table, "json"))
        assert obj["d"] == "5" and obj["chi"] == "-6"
        assert obj["chi0"] == "-6" and obj["n"] == "11"
        rebuilt = BettiTable(
            d=int(obj["d"]),
            chi=int(obj["chi"]),
            chi0=int(obj["chi0"]),
            n=int(obj["n"]),
            rows=tuple(
                BettiRow(int(r["k"]), int(r["b2k"]), r["source"])
                for r in obj["rows"]
            ),
        )
        assert rebuilt == table
        assert obj["duality_applied"] is True

    def test_integers_are_decimal_strings(self, cache):
        obj = json.loads(render(m_betti_table(5, -6, cache), "json"))
        assert all(isinstance(r["b2k"], str) for r in obj["rows"])

    def test_emit_to_path_is_deterministic(self, cache, tmp_path):
        table = m_betti_table(5, -6, cache)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        emit(table, "json", p1)
        emit(table, "json", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_emit_to_stream(self, cache):
        buf = io.StringIO()
        emit(m_betti_table(5, -6, cache), "csv", buf)
        assert buf.getvalue().startswith("k,b2k,source\n")

    def test_unknown_format(self, cache):
        with pytest.raises(ValueError):
            render(m_betti_table(5, -6, cache), "yaml")

    def test_io_error_carries_path(self, cache, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "out.json"
        with pytest.raises(OSError) as err:
            emit(m_betti_table(5, -6, cache), "json", missing)
        assert str(missing) in str(err.value)

    def test_golden_json_bytes(self, cache, tmp_path):
        out = tmp_path / "golden.json"
        emit(m_betti_table(5, -6, cache), "json", out)
        assert out.read_bytes() == GOLDEN_D5_JSON.encode("utf-8")


GOLDEN_D5_JSON = """\
{
  "d": "5",
  "chi": "-6",
  "chi0": "-6",
  "n": "11",
  "duality_applied": true,
  "rows": [
    {
      "k": "0",
      "b2k": "1",
      "source": "goettsche"
    },
    {
      "k": "1",
      "b2k": "2",
      "source": "goettsche"
    },
    {
      "k": "2",
      "b2k": "6",
      "source": "goettsche"
    },
    {
      "k": "3",
      "b2k": "13",
      "source": "goettsche"
    },
    {
      "k": "4",
      "b2k": "26",
      "source": "corrected_minus3"
    },
    {
      "k": "5",
      "b2k": "45",
      "source": "corrected_minus12"
    }
  ]
}
"""
