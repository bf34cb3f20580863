"""The minimal generator system for the moduli Chow ring, and its counting.

For degree ``d >= 5`` the cohomology ring of the moduli space of semistable
one-dimensional sheaves carries a minimal generating set of ``3d - 7``
tautological classes: two of degree 1 and three of each degree from 2
through ``d - 2``.  The number ``a_{2i}`` of degree-``i`` monomials in the
free commutative algebra on these generators is the ``z^{2i}`` coefficient
of a product of geometric series, one factor per generator.

In low degrees ``a_{2i}`` agrees with the stable Hilbert-scheme Betti
numbers (that agreement is what makes the set minimal); at ``i = d - 1``
and ``i = d`` it falls short by exactly 3 and 9.  Comparing against the
moduli Betti table then counts the independent relations in each degree:
none through ``d - 1``, and three in degree ``d``.

A brute-force enumeration oracle (no generating functions) double-checks
every monomial count.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .betti import m_betti_table
from .hilb import HilbCache
from .series import TruncatedSeries, geometric_product


def generator_system(d: int) -> dict[int, int]:
    """The generator degree multiset for degree ``d`` (``d >= 5``).

    Maps generator degree to multiplicity: one pair of degree-1 generators
    plus, for each ``k`` in ``3 .. d-1``, a triple of generators of degree
    ``k - 1``, for a total of ``3d - 7``.
    """
    if d < 5:
        raise ValueError(f"generator system needs d >= 5, got {d}")
    degrees = {1: 2}
    for k in range(3, d):
        degrees[k - 1] = 3
    return degrees


def monomial_series(d: int, cap: int) -> TruncatedSeries:
    """Monomial-counting series of the generator system, truncated at ``cap``.

    Product over generators of ``1/(1 - z^{2*degree})``, one stride pass of
    :func:`~motivic_betti.series.geometric_product` per generator; the
    coefficient of ``z^{2i}`` counts the monomials of weighted degree ``i``
    in the free commutative monoid on the generators.  One series with
    ``cap = 2d + 1`` holds every ``a_{2i}`` for ``i <= d``.
    """
    degrees = [
        2 * degree
        for degree, multiplicity in sorted(generator_system(d).items())
        for _ in range(multiplicity)
    ]
    return TruncatedSeries(geometric_product(degrees, cap), cap)


def monomial_count_bruteforce(degrees: Mapping[int, int], i: int) -> int:
    """Count monomials of weighted degree ``i`` by explicit enumeration.

    Walks the generators one by one, choosing each exponent outright and
    descending on the remainder; no generating functions anywhere, so this
    is an independent oracle for :func:`monomial_series`.
    """
    if i < 0:
        raise ValueError(f"degree must be >= 0, got {i}")
    flat: list[int] = []
    for degree, multiplicity in sorted(degrees.items()):
        flat.extend([degree] * multiplicity)

    def count(idx: int, remaining: int) -> int:
        if remaining == 0:
            return 1
        if idx == len(flat):
            return 0
        step = flat[idx]
        total = 0
        used = 0
        while used <= remaining:
            total += count(idx + 1, remaining - used)
            used += step
        return total

    return count(0, i)


def a_coeff(d: int, i: int) -> int:
    """``a_{2i}``: the number of degree-``i`` monomials in the generators."""
    if i < 0:
        raise ValueError(f"degree must be >= 0, got {i}")
    return monomial_series(d, 2 * i + 1).coeff(2 * i)


def relation_count(
    d: int, chi: int, i: int, cache: Optional[HilbCache] = None
) -> int:
    """Independent relations among the generators in degree ``i``.

    ``a_{2i}`` minus the moduli Betti number ``b_{2i}``; the Betti table
    stops at ``i = d``, so larger degrees raise rather than guess.

    Each call builds the whole Betti table, which runs the Hilbert-scheme
    kernel unless ``cache`` holds the row, and a fresh monomial series.  A
    caller that wants every degree should build ``m_betti_table(d, chi)``
    and ``monomial_series(d, 2 * d + 1)`` once and subtract row by row, as
    the ``relations`` subcommand does.
    """
    if i < 0:
        raise ValueError(f"degree must be >= 0, got {i}")
    if i > d:
        raise ValueError(
            f"relation counts are only available through degree d={d}, got {i}"
        )
    table = m_betti_table(d, chi, cache)
    return a_coeff(d, i) - table.rows[i].b2k
