"""Poincare polynomials of Hilbert schemes of points on the plane.

Goettsche's formula packages the Betti numbers of all the punctual Hilbert
schemes ``Hilb^n(P^2)`` into one product of geometric series,

    prod_{k >= 1} (1 - z^{2k-2} t^k)^{-1} (1 - z^{2k} t^k)^{-1}
                  (1 - z^{2k+2} t^k)^{-1},

where the coefficient of ``z^i t^n`` is ``b_i(Hilb^n)``.  Odd-degree Betti
numbers vanish and each ``Hilb^n`` is smooth projective of dimension
``2n``, so the ``t^n`` row is a palindromic polynomial of degree ``4n``.

The rows come from one kernel that works in ``w = z^2`` on the low half of
each row.  Row ``m`` is palindromic of degree ``2m`` in ``w``, so for
``m <= n`` the coefficients of ``w^0 .. w^n`` hold its low half; one run
yields every row ``0 .. n``.  Each row is packed into a single int, a
fixed number of bits per coefficient (Kronecker substitution), and each
geometric factor becomes one shift-add per row.  The slot width comes from
the Euler number ``chi(Hilb^n)``, which bounds every coefficient, and each
unpacked row must sum to its Euler number, so an overflow cannot pass
silently.

The low half of each row stabilizes: ``b_{2s}(Hilb^n)`` is independent of
``n`` once ``2s <= n``, and the stable values are generated by

    R(z) = 1/(1 - z^2)^2 * prod_{m >= 2} 1/(1 - z^{2m})^3.

An independent Euler-number oracle counts three-colored partitions by
direct recursion (the ``z -> 1`` specialization of the product is
``prod (1 - t^k)^{-3}``).  A disk cache with bit-exact round-trips keeps
the rows; a cache file that fails to decode or validate is reported on
stderr and treated as a miss, so the row is recomputed and rewritten.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Union

from .series import IntPoly, TruncatedSeries, geometric_product

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
        except ValueError as exc:
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
    return json.dumps(obj, indent=2) + "\n"


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


# Factor ``k`` of the product is ``prod_b (1 - w^b t^k)^{-1}`` over the
# exponents ``b = k + offset`` of ``w = z^2``, one per offset here.
FACTOR_OFFSETS = (-1, 0, 1)


def _euler_numbers(n: int) -> list[int]:
    """``chi(Hilb^m)`` for ``m <= n``: the coefficients of ``prod (1-t^k)^{-3}``."""
    return geometric_product((k for k in range(1, n + 1) for _ in range(3)), n + 1)


def _slot_width(euler_n: int) -> int:
    """Bits per packed coefficient for rows up to ``n``, from ``chi(Hilb^n)``.

    Every term of the product is non-negative, so no partial coefficient
    of any row ``m <= n`` exceeds ``chi(Hilb^n)``.
    """
    return euler_n.bit_length() + 1


def _half_rows(n: int, width: int) -> list[list[int]]:
    """Coefficients of ``w^0 .. w^m`` in the ``t^m`` row, for every ``m <= n``.

    Row ``m`` is packed into one int, ``width`` bits per coefficient of
    ``w^0 .. w^n`` (Kronecker substitution), so the factor
    ``(1 - w^b t^k)^{-1}`` becomes one shift-add per row,
    ``row[m] += row[m-k] << width*b`` in increasing ``m``, masked back to
    ``n + 1`` slots.  Row ``m`` has degree ``2m`` in ``w`` and ``m <= n``,
    so those slots hold at least the low half of every row.
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


def hilb_poincare(n: int, cache: Optional[HilbCache] = None) -> HilbPoincare:
    """Poincare polynomial of ``Hilb^n(P^2)``, from the ``t^n`` row.

    One run of the kernel yields every row ``m <= n``, so all of them are
    cached.  Each low half is mirrored into the full palindromic row.  A
    slot width too narrow for a coefficient carries into the next slot or
    past the mask, and either one changes the row's coefficient sum, so
    every row is checked against its Euler number first.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if cache is not None:
        hit = cache.get(n)
        if hit is not None:
            return hit
    euler = _euler_numbers(n)
    for m, low in enumerate(_half_rows(n, _slot_width(euler[n]))):
        full = low + low[-2::-1]
        if sum(full) != euler[m]:
            raise ConsistencyError(
                f"packed row {m} sums to {sum(full)}, not chi(Hilb^{m}) = "
                f"{euler[m]}: slot width overflowed"
            )
        coeffs = [0] * (4 * m + 1)
        coeffs[::2] = full
        hp = HilbPoincare(m, IntPoly(coeffs))
        if cache is not None and (m == n or cache.get(m) is None):
            cache.put(hp)
    return hp


def stable_series(cap: int) -> TruncatedSeries:
    """Generating series of the stable Betti numbers, truncated at ``cap``.

    ``R(z) = 1/(1-z^2)^2 * prod_{m >= 2} 1/(1-z^{2m})^3``, built by
    :func:`~motivic_betti.series.geometric_product` with one stride pass per
    factor.  Factors with ``2m >= cap`` are identically 1 below the cap, so
    only the finitely many others are taken and the result is exact.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    degrees = [2, 2] + [2 * m for m in range(2, (cap + 1) // 2) for _ in range(3)]
    return TruncatedSeries(geometric_product(degrees, cap), cap)


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
