"""Expected outputs, computed without the package, and the checks that use them.

Every generating function the benchmark needs is an Euler product
``prod 1/(1 - w^a)`` over a list of part sizes ``a``, in the variable
``w = z^2`` (all odd coefficients vanish).  Multiplying by one factor is
the in-place stride recurrence ``out[e] += out[e - a]`` taken in
increasing ``e``, so nothing here shares code with ``series.py`` or the
Hilbert-row kernel.

The checks compare a subcommand's stdout with these values and with the
paper's identities.  Each raises :class:`CheckError` on the first
mismatch; an output that passes is taken as correct.
"""

from __future__ import annotations

import csv
import functools
import io
import json


class CheckError(Exception):
    """An output disagrees with the independently computed value."""


def euler_product(parts, n: int) -> list[int]:
    """Coefficients ``0 .. n`` of ``prod_{a in parts} 1/(1 - w^a)``."""
    out = [1] + [0] * n
    for a in parts:
        for e in range(a, n + 1):
            out[e] += out[e - a]
    return out


def stable_values(n: int) -> list[int]:
    """``R(w) = 1/(1-w)^2 prod_{m>=2} 1/(1-w^m)^3`` through ``w^n``."""
    parts = [1, 1] + [m for m in range(2, n + 1) for _ in range(3)]
    return euler_product(parts, n)


def generator_counts(d: int, n: int) -> list[int]:
    """Monomial counts of two degree-1 and three each of degrees ``2 .. d-2``."""
    parts = [1, 1] + [j for j in range(2, d - 1) for _ in range(3)]
    return euler_product(parts, n)


def hilb_euler(n: int) -> list[int]:
    """Euler numbers of ``Hilb^m(P^2)``, ``m = 0 .. n``: ``prod 1/(1-t^k)^3``."""
    parts = [k for k in range(1, n + 1) for _ in range(3)]
    return euler_product(parts, n)


class Expected:
    """Reference values for every ``d`` and row count a workload asks about."""

    def __init__(self, smax: int, hilb_nmax: int = 0):
        self.stable = stable_values(smax)
        self.euler = hilb_euler(hilb_nmax)
        self._gens: dict[int, list[int]] = {}

    def gens(self, d: int) -> list[int]:
        """``a_{2i}``, ``i = 0 .. d``, checked against the paper's identity.

        The counts agree with the stable values below degree ``d - 1`` and
        fall short by 3 and 9 at ``d - 1`` and ``d``; a benchmark whose own
        two products disagree with that would check nothing.
        """
        if d not in self._gens:
            counts = generator_counts(d, d)
            shortfall = [0] * (d - 1) + [3, 9]
            if counts != [s - c for s, c in zip(self.stable, shortfall)]:
                raise AssertionError(f"reference products disagree at d={d}")
            self._gens[d] = counts
        return self._gens[d]

    def betti(self, d: int) -> list[int]:
        correction = [0] * (d - 1) + [3, 12]
        return [self.stable[k] - correction[k] for k in range(d + 1)]


def _checker(fn):
    """Report output that cannot be parsed as a failed check."""

    @functools.wraps(fn)
    def check(text, *args):
        try:
            return fn(text, *args)
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            raise CheckError(f"{fn.__name__}: malformed output ({exc!r})") from exc

    return check


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _rows(text: str, fmt: str, key: str, value: str) -> list[tuple[str, str]]:
    """``(key, value)`` pairs of an output's rows, in either format."""
    if fmt == "csv":
        table = list(csv.reader(io.StringIO(text)))
        _expect(table[:1] == [[key, value]], f"csv header is {table[:1]}")
        return [tuple(r) for r in table[1:]]
    return [(r[key], r[value]) for r in json.loads(text)["rows"]]


def _expect_rows(rows, values, label: str) -> None:
    _expect(len(rows) == len(values), f"{label}: {len(rows)} rows, want {len(values)}")
    for i, ((k, v), want) in enumerate(zip(rows, values)):
        _expect(k == str(i), f"{label}: row {i} is labelled {k}")
        _expect(v == str(want), f"{label}[{i}] = {v}, want {want}")


@_checker
def check_betti(text: str, d: int, chi: int, ref: Expected) -> None:
    obj = json.loads(text)
    _expect(obj["d"] == str(d) and obj["chi"] == str(chi), "betti echoes the wrong (d, chi)")
    chi0, n = int(obj["chi0"]), int(obj["n"])
    _expect(-2 * d <= chi0 <= -d - 1 and (chi - chi0) % d == 0, f"chi0 = {chi0}")
    _expect(n == d * (d - 3) // 2 - chi0, f"n' = {n} for chi0 = {chi0}")
    _expect_rows(_rows(text, "json", "k", "b2k"), ref.betti(d), "b2k")


@_checker
def check_relations(text: str, d: int, chi: int) -> None:
    obj = json.loads(text)
    _expect(obj["d"] == str(d) and obj["chi"] == str(chi), "relations echoes the wrong (d, chi)")
    _expect_rows(_rows(text, "json", "i", "relations"), [0] * d + [3], "relations")


@_checker
def check_verify(text: str, d: int) -> None:
    obj = json.loads(text)
    _expect(obj["d"] == str(d), "verify echoes the wrong d")
    _expect(obj["all_pass"] is True, "verify: all_pass is not true")
    checks = {c["name"]: c for c in obj["checks"]}
    _expect(
        list(checks) == ["collapse_sum", "close_up", "extract_corrections"],
        f"verify: checks are {list(checks)}",
    )
    _expect(all(c["pass"] is True for c in checks.values()), "verify: a check failed")
    _expect(checks["collapse_sum"]["bound"] == str(2 * (d * d + 1 - d)), "collapse_sum bound")
    _expect(checks["close_up"]["bound"] == str(2 * (d * d - d)), "close_up bound")
    top = 2 * (d * d - d + 2)
    head = f"3*z^{top} + 12*z^{top - 2} "
    _expect(
        checks["extract_corrections"]["lhs_pv"].startswith(head),
        f"correction polynomial does not start {head!r}",
    )


@_checker
def check_stable(text: str, fmt: str, smax: int, ref: Expected) -> None:
    if fmt == "json":
        _expect(json.loads(text)["smax"] == str(smax), "stable echoes the wrong smax")
    _expect_rows(_rows(text, fmt, "s", "b2s"), ref.stable[: smax + 1], "b2s")


@_checker
def check_gens(text: str, fmt: str, d: int, ref: Expected) -> None:
    if fmt == "json":
        obj = json.loads(text)
        _expect(obj["d"] == str(d), "gens echoes the wrong d")
        _expect(obj["generator_count"] == str(3 * d - 7), "generator count is not 3d-7")
        degrees = {"1": "2", **{str(j): "3" for j in range(2, d - 1)}}
        _expect(obj["degrees"] == degrees, "generator degrees")
    _expect_rows(_rows(text, fmt, "i", "a2i"), ref.gens(d), "a2i")


@_checker
def check_hilb(text: str, n: int, ref: Expected) -> None:
    """A full ``Hilb^n`` row: Euler number, palindromy, stable low half."""
    coeffs = [int(c) for c in json.loads(text)["coeffs"]]
    _expect(len(coeffs) == 4 * n + 1, f"hilb row has {len(coeffs)} coefficients")
    _expect(coeffs == coeffs[::-1], "hilb row is not palindromic")
    _expect(not any(coeffs[1::2]), "hilb row has odd-degree terms")
    _expect(sum(coeffs) == ref.euler[n], f"Euler number of Hilb^{n}")
    stable = [coeffs[2 * s] for s in range(n // 2 + 1)]
    _expect(stable == ref.stable[: n // 2 + 1], "hilb row is not stable below n/2")


@_checker
def check_cache_row(text: str, m: int, ref: Expected) -> None:
    """A cache file ``hilb_<m>.json``: its row sums to the Euler number."""
    obj = json.loads(text)
    _expect(obj["n"] == m, f"cache file for {m} claims n = {obj['n']}")
    total = sum(int(c) for c in obj["coeffs"])
    _expect(total == ref.euler[m], f"cache row {m}: Euler number {total}, want {ref.euler[m]}")
