"""Poincare polynomials of Hilbert schemes of points on the plane.

Goettsche's formula (Math. Ann. 286, 1990) packages the Betti numbers of
all the punctual Hilbert schemes ``Hilb^n(P^2)`` into one product,

    prod_{k >= 1} (1 - z^{2k-2} t^k)^{-1} (1 - z^{2k} t^k)^{-1}
                  (1 - z^{2k+2} t^k)^{-1},

where the coefficient of ``z^i t^n`` is ``b_i(Hilb^n)``.  Odd-degree Betti
numbers vanish and ``Hilb^n`` is smooth projective of dimension ``2n``, so
the ``t^n`` row is a palindromic polynomial ``P_n(w)`` of degree ``2n`` in
``w = z^2``.  Nothing here expands the product; write ``T_m = m(m+1)/2``.

With ``t = u/w`` the product is ``G = prod_k 1/((1 - u^k/w)(1 - u^k)(1 - w u^k))``
and ``b_{2j}(Hilb^n)`` is the coefficient of ``u^n w^{j-n}``.  Ramanujan's
1psi1 sum (Gasper & Rahman, Basic Hypergeometric Series, ch. 5) expands the
reciprocal of Jacobi's theta function in partial fractions:

    G = (1 - w) E(u) sum_{m in Z} (-1)^m u^{T_m} / (1 - w u^m),

where ``E = prod (1 - u^k)^{-3} = sum chi_n u^n`` holds the Euler numbers
``chi_n = chi(Hilb^n)``.  So each coefficient of one row is a short
alternating sum of Euler numbers; with ``e = n - j`` and ``chi_i = 0`` for
``i < 0``,

    e = 0:   b_{2j} = chi_n + 2 sum_{m >= 1} (-1)^m chi_{n - T_m},
    e >= 1:  b_{2j} = sum_{m >= 1} (-1)^m (chi_{n - T_m - m e}
                                           - chi_{n - T_m - m(e-1)}),

and the low half of row ``n`` costs ``O(n log n)`` additions, no other row
being built.

``E`` and the stable series are both quotients by ``prod (1-q^m)^3``, which
Jacobi's cube identity writes as ``sum_{k >= 0} (-1)^k (2k+1) q^{T_k}``
(Hardy & Wright, ch. XIX), a recurrence of about ``sqrt(2j)`` terms for
coefficient ``j``.  The low half of each row stabilizes: ``b_{2s}(Hilb^n)``
is independent of ``n`` once ``2s <= n``, and in ``q = z^2`` the stable
values are generated by ``R = (1-q) E(q) = (1-q)^{-2} prod_{m >= 2} (1-q^m)^{-3}``,
so ``r_j = chi_j - chi_{j-1}``.

An independent Euler-number oracle counts three-colored partitions (the
``z -> 1`` specialization is ``prod (1 - t^k)^{-3}``).  A disk cache keeps
the rows bit-exactly; a file that fails to decode or validate is reported
on stderr and treated as a miss, so the row is recomputed and rewritten.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Union

from .series import IntPoly, TruncatedSeries

CACHE_FORMAT_VERSION = 1
GENERATOR_TAG = "goettsche-p2-triple-product"


class ConsistencyError(ValueError):
    """A computed result failed an internal check.

    This is a failure of the computation, not of its input, so the CLI
    reports it in the failure class (exit 1), not the usage class.
    """


@dataclass(frozen=True)
class HilbPoincare:
    """Poincare polynomial of ``Hilb^n(P^2)`` in the variable ``z``.

    Validated on construction: unit constant term, vanishing odd part,
    palindromic coefficients, degree exactly ``4n`` for ``n >= 1``.
    """

    n: int
    poly: IntPoly

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        c = self.poly.coeffs
        if self.n == 0:
            if c != (1,):
                raise ValueError("Hilb^0 is a point; its polynomial is 1")
            return
        if self.poly.degree != 4 * self.n:
            raise ValueError(
                f"degree {self.poly.degree} != 4n = {4 * self.n}"
            )
        if c[0] != 1:
            raise ValueError(f"constant term must be 1, got {c[0]}")
        if any(c[i] for i in range(1, len(c), 2)):
            raise ValueError("odd-degree Betti numbers must vanish")
        if any(c[i] != c[4 * self.n - i] for i in range(len(c))):
            raise ValueError("coefficients must be palindromic")

    def betti(self, i: int) -> int:
        """``b_i(Hilb^n)``; zero for odd or out-of-range ``i``."""
        return self.poly[i]

    def euler(self) -> int:
        return self.poly.evaluate(1)


class HilbCache:
    """Memory plus optional on-disk store of :class:`HilbPoincare` rows.

    One JSON file per ``n`` (``hilb_<n>.json``) holding the coefficient
    vector as decimal strings, so no integer width is ever a concern.
    Writes go to a temp file in the same directory and are renamed into
    place; concurrent readers never observe a torn file.  A file that
    fails to decode or validate is a miss, reported on stderr.
    """

    def __init__(self, directory: Union[str, Path, None] = None):
        self.directory = Path(directory) if directory is not None else None
        self._memory: dict[int, HilbPoincare] = {}

    def path_for(self, n: int) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / f"hilb_{n}.json"

    def get(self, n: int) -> Optional[HilbPoincare]:
        hit = self._memory.get(n)
        if hit is not None:
            return hit
        path = self.path_for(n)
        if path is None or not path.exists():
            return None
        try:
            hp = _decode_cache_file(path.read_text(encoding="utf-8"), n)
        except (ValueError, RecursionError) as exc:
            print(f"warning: ignoring cache file {path}: {exc}", file=sys.stderr)
            return None
        self._memory[n] = hp
        return hp

    def put(self, hp: HilbPoincare) -> None:
        self._memory[hp.n] = hp
        path = self.path_for(hp.n)
        if path is None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        replace_file(path, encode_cache_entry(hp))


def replace_file(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and a rename.

    The temp file lives in the same directory, so the rename is atomic: a
    reader sees the old file or the new one, never a torn one.  It is
    created with the umask's default mode, like a file opened for writing.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def encode_cache_entry(hp: HilbPoincare) -> str:
    obj = {
        "n": hp.n,
        "coeffs": [str(c) for c in hp.poly.coeffs],
        "generator": GENERATOR_TAG,
        "version": CACHE_FORMAT_VERSION,
    }
    return json.dumps(obj) + "\n"


def _decode_cache_file(text: str, expected_n: int) -> HilbPoincare:
    """Parse and validate one cache file; any defect raises ``ValueError``."""
    obj = json.loads(text)
    try:
        if obj.get("version") != CACHE_FORMAT_VERSION:
            raise ValueError(f"unsupported cache version {obj.get('version')!r}")
        if obj.get("n") != expected_n:
            raise ValueError(f"cache file claims n={obj.get('n')!r}, expected {expected_n}")
        coeffs = [int(c) for c in obj["coeffs"]]
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed cache entry: {exc!r}") from exc
    return HilbPoincare(expected_n, IntPoly(coeffs))


def _triangular(limit: int) -> list[tuple[int, int]]:
    """``(m, T_m)`` for every ``m >= 1`` with ``T_m = m(m+1)/2 <= limit``."""
    top = (math.isqrt(8 * limit + 1) - 1) // 2
    return [(m, m * (m + 1) // 2) for m in range(1, top + 1)]


def _cube_quotient(head: list[int], length: int) -> list[int]:
    """Coefficients of ``q^0 .. q^{length-1}`` in ``head(q) / prod (1-q^k)^3``.

    The divisor is Jacobi's cube-identity series, so coefficient ``j`` takes
    about ``sqrt(2j)`` terms.
    """
    r = head[:length] + [0] * (length - len(head))
    terms = [(t, (2 * k + 1) * (-1) ** (k + 1)) for k, t in _triangular(length - 1)]
    for j in range(1, length):
        acc = r[j]
        for t, c in terms:
            if t > j:
                break
            acc += c * r[j - t]
        r[j] = acc
    return r


def _low_half(n: int, euler: list[int]) -> list[int]:
    """Coefficients of ``w^0 .. w^n`` in the ``t^n`` row, by the 1psi1 sum.

    ``euler`` holds ``chi_0 .. chi_n`` at least; coefficient ``w^j`` is
    built at ``e = n - j``, and its sum stops once both indices are negative.
    """
    terms = _triangular(n)
    by_e = [euler[n] + 2 * sum((-1) ** m * euler[n - t] for m, t in terms)]
    for e in range(1, n + 1):
        acc = 0
        for m, t in terms:
            high = n - t - m * (e - 1)
            if high < 0:
                break
            low = high - m
            diff = (euler[low] if low >= 0 else 0) - euler[high]
            acc = acc - diff if m % 2 else acc + diff
        by_e.append(acc)
    return by_e[::-1]


def hilb_poincare(n: int, cache: Optional[HilbCache] = None) -> HilbPoincare:
    """Poincare polynomial of ``Hilb^n(P^2)``, from the ``t^n`` row.

    Without a cache only row ``n`` is built.  With one, every row
    ``m <= n`` is built and cached, replacing what the cache held.

    Each low half is mirrored into the full palindromic row, which must sum
    to ``chi_m``.  The check shares ``chi`` with the kernel: the 1psi1 terms
    telescope to ``chi_m`` whichever of them are kept, so it catches a wrong
    coefficient or mirror, not a wrong Euler number or a dropped term; the
    tests check those against the packed triple-product recurrence and the
    product expansion.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if cache is not None:
        hit = cache.get(n)
        if hit is not None:
            return hit
    euler = _cube_quotient([1], n + 1)
    for m in range(n + 1) if cache is not None else (n,):
        low = _low_half(m, euler)
        full = low + low[-2::-1]
        if sum(full) != euler[m]:
            raise ConsistencyError(
                f"row {m} sums to {sum(full)}, not chi(Hilb^{m}) = {euler[m]}"
            )
        coeffs = [0] * (4 * m + 1)
        coeffs[::2] = full
        hp = HilbPoincare(m, IntPoly(coeffs))
        if cache is not None:
            cache.put(hp)
    return hp


def stable_series(cap: int) -> TruncatedSeries:
    """The stable series ``R(z)`` below ``cap``, by the cube-identity recurrence."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    coeffs = [0] * cap
    coeffs[::2] = _cube_quotient([1, -1], (cap + 1) // 2)
    return TruncatedSeries(IntPoly(coeffs), cap)


def stable_betti(s: int) -> int:
    """The stable value of ``b_{2s}(Hilb^n)``, valid whenever ``2s <= n``."""
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    return stable_series(2 * s + 1).coeff(2 * s)


@lru_cache(maxsize=None)
def _colored_bounded(total: int, largest: int) -> int:
    """Three-colored partitions of ``total`` into parts of size <= ``largest``.

    A part size used ``m`` times contributes a size-``m`` multiset of the
    three colors, of which there are ``(m+2 choose 2)``.
    """
    if total == 0:
        return 1
    if largest == 0:
        return 0
    count = 0
    m = 0
    while m * largest <= total:
        multisets = (m + 2) * (m + 1) // 2
        count += multisets * _colored_bounded(total - m * largest, largest - 1)
        m += 1
    return count


def colored_partition_euler(n: int) -> int:
    """Euler number of ``Hilb^n(P^2)`` by counting three-colored partitions.

    Direct recursion over part sizes; deliberately shares no code with the
    product expansion so the two routes check each other.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _colored_bounded(n, n)
