"""Betti tables for the moduli of one-dimensional plane sheaves.

For coprime ``(d, chi)`` with ``d >= 5`` the even Betti numbers of the
moduli space through degree ``2d`` equal those of a punctual Hilbert
scheme, except for two corrections at the end:

    b_{2k} = b_{2k}(Hilb^{n'})        for k <= d - 2,
    b_{2k} = b_{2k}(Hilb^{n'}) - 3    for k = d - 1,
    b_{2k} = b_{2k}(Hilb^{n'}) - 12   for k = d,

where ``n'`` is fixed by the normalized Euler characteristic: ``chi0`` is
the representative of ``chi`` mod ``d`` in ``[-2d, -d-1]`` and
``n' = d(d-3)/2 - chi0``.  Every coprime ``chi`` gives ``2d <= n'``, so
the Hilbert-scheme coefficients involved are stable and the table does
not depend on ``chi``.  The corrections at ``k = d-1, d`` are transported
from the top of the cohomology by Poincare duality, which the JSON form
records as ``"duality_applied": true``.

Odd Betti numbers vanish, so the table lists ``b_{2k}`` only.  Emission
is deterministic: fixed field order, LF line endings, and every integer
rendered as a decimal string so width is never a concern.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .hilb import HilbCache, hilb_poincare, replace_file

SOURCE_GOETTSCHE = "goettsche"
SOURCE_MINUS3 = "corrected_minus3"
SOURCE_MINUS12 = "corrected_minus12"


@dataclass(frozen=True)
class BettiRow:
    k: int
    b2k: int
    source: str


@dataclass(frozen=True)
class BettiTable:
    """Rows ``k = 0 .. d`` of ``b_{2k}`` with provenance per row."""

    d: int
    chi: int
    chi0: int
    n: int
    rows: tuple[BettiRow, ...]

    def __post_init__(self):
        if [r.k for r in self.rows] != list(range(self.d + 1)):
            raise ValueError("rows must cover k = 0 .. d contiguously")
        for row in self.rows:
            expected = (
                SOURCE_MINUS3
                if row.k == self.d - 1
                else SOURCE_MINUS12
                if row.k == self.d
                else SOURCE_GOETTSCHE
            )
            if row.source != expected:
                raise ValueError(f"row k={row.k} carries source {row.source!r}")

    def value(self, k: int) -> int:
        return self.rows[k].b2k

    def to_json_obj(self) -> dict:
        return {
            "d": str(self.d),
            "chi": str(self.chi),
            "chi0": str(self.chi0),
            "n": str(self.n),
            "duality_applied": True,
            "rows": [
                {"k": str(r.k), "b2k": str(r.b2k), "source": r.source}
                for r in self.rows
            ],
        }

    def csv_header(self) -> list[str]:
        return ["k", "b2k", "source"]

    def csv_rows(self) -> list[list[str]]:
        return [[str(r.k), str(r.b2k), r.source] for r in self.rows]


def chi_normalize(d: int, chi: int) -> tuple[int, int]:
    """Normalize ``chi`` and return ``(chi0, n')``.

    ``chi0`` is the unique representative of ``chi`` mod ``d`` in the
    window ``[-2d, -d-1]``, and ``n' = d(d-3)/2 - chi0`` is the index of
    the Hilbert scheme carrying the moduli Betti numbers.  Requires
    ``gcd(d, chi) == 1``; without coprimality the moduli space is not
    fine and none of this applies.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if math.gcd(d, chi) != 1:
        raise ValueError(f"(d, chi) = ({d}, {chi}) is not coprime")
    chi0 = (chi % d) - 2 * d
    n_prime = d * (d - 3) // 2 - chi0
    return chi0, n_prime


def m_betti_table(
    d: int, chi: int, cache: Optional[HilbCache] = None
) -> BettiTable:
    """The Betti table ``b_0, b_2, ..., b_{2d}`` of the moduli space.

    Rows above ``k = d`` are not produced: no values are available there
    until degree ``2(d^2 + 1 - d)``, and the library refuses to
    extrapolate.
    """
    if d < 5:
        raise ValueError(f"Betti tables need d >= 5, got {d}")
    chi0, n_prime = chi_normalize(d, chi)
    hp = hilb_poincare(n_prime, cache)
    rows = []
    for k in range(d + 1):
        b = hp.betti(2 * k)
        source = SOURCE_GOETTSCHE
        if k == d - 1:
            b -= 3
            source = SOURCE_MINUS3
        elif k == d:
            b -= 12
            source = SOURCE_MINUS12
        rows.append(BettiRow(k, b, source))
    return BettiTable(d, chi, chi0, n_prime, tuple(rows))


def _render_json(obj) -> str:
    return json.dumps(obj.to_json_obj(), indent=2) + "\n"


def _render_csv(obj) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(obj.csv_header())
    writer.writerows(obj.csv_rows())
    return buf.getvalue()


def render(obj, fmt: str) -> str:
    """Serialize a table or report to its deterministic text form."""
    if fmt == "json":
        return _render_json(obj)
    if fmt == "csv":
        return _render_csv(obj)
    raise ValueError(f"unknown format {fmt!r}")


def emit(obj, fmt: str, destination: Union[str, Path, io.TextIOBase]) -> None:
    """Write a table or report to a path or text stream.

    Byte-deterministic for a given object and format: fixed field order,
    decimal-string integers, LF line endings.  A path is replaced whole
    through a temp file and a rename, never truncated in place.  I/O
    failures are re-raised with the destination path attached.
    """
    payload = render(obj, fmt)
    if isinstance(destination, (str, Path)):
        path = Path(destination)
        try:
            replace_file(path, payload)
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
    else:
        destination.write(payload)
