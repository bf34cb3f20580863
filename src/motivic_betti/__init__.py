"""Exact Betti numbers for moduli of one-dimensional plane sheaves.

The library computes, in exact integer arithmetic throughout:

* Poincare polynomials of punctual Hilbert schemes of the plane and their
  stable coefficients (:mod:`motivic_betti.hilb`);
* monomial counts for the minimal tautological generator system and the
  relation counts it forces (:mod:`motivic_betti.tautgen`);
* classes in the localized Grothendieck ring of varieties, their virtual
  Poincare specializations, and the congruence chain that produces the
  corrected moduli Betti numbers (:mod:`motivic_betti.motivic`);
* the corrected Betti tables themselves, with deterministic JSON/CSV
  emission (:mod:`motivic_betti.betti`).

A command-line front end lives in :mod:`motivic_betti.cli` (installed as
``motivic-betti``).
"""

from .betti import (
    BettiTable,
    chi_normalize,
    emit,
    m_betti_table,
)
from .hilb import (
    HilbCache,
    colored_partition_euler,
    hilb_poincare,
    stable_betti,
    stable_series,
)
from .motivic import (
    ChainConstants,
    MotivicClass,
    VerificationReport,
    correction_polynomial,
    verify_congruence_chain,
    virtual_poincare,
)
from .series import (
    IntPoly,
    TruncatedSeries,
)
from .tautgen import (
    a_coeff,
    generator_system,
    monomial_count_bruteforce,
    monomial_series,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "ChainConstants",
    "HilbCache",
    "IntPoly",
    "MotivicClass",
    "TruncatedSeries",
    "VerificationReport",
    "a_coeff",
    "chi_normalize",
    "colored_partition_euler",
    "correction_polynomial",
    "emit",
    "generator_system",
    "hilb_poincare",
    "m_betti_table",
    "monomial_count_bruteforce",
    "monomial_series",
    "stable_betti",
    "stable_series",
    "verify_congruence_chain",
    "virtual_poincare",
]
