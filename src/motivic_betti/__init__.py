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
    BettiRow,
    BettiTable,
    chi_normalize,
    emit,
    m_betti_table,
    render,
)
from .hilb import (
    HilbCache,
    HilbPoincare,
    colored_partition_euler,
    hilb_poincare,
    stable_betti,
    stable_series,
)
from .motivic import (
    ChainConstants,
    MotivicClass,
    PvFraction,
    VerificationReport,
    affine,
    congruent_mod_dim,
    correction_polynomial,
    gl,
    hilb_class,
    projective,
    pv_degree,
    verify_congruence_chain,
    virtual_poincare,
)
from .series import (
    BivariateSeries,
    CapMismatchError,
    IntPoly,
    OutOfWindowError,
    TruncatedSeries,
    bivar_mul,
    coeff,
    geometric,
    series_inverse,
    series_mul,
)
from .tautgen import (
    GeneratorSystem,
    a_coeff,
    generator_system,
    monomial_count_bruteforce,
    monomial_series,
    relation_count,
)

__version__ = "0.1.0"

__all__ = [
    "BettiRow",
    "BettiTable",
    "BivariateSeries",
    "CapMismatchError",
    "ChainConstants",
    "GeneratorSystem",
    "HilbCache",
    "HilbPoincare",
    "IntPoly",
    "MotivicClass",
    "OutOfWindowError",
    "PvFraction",
    "TruncatedSeries",
    "VerificationReport",
    "a_coeff",
    "affine",
    "bivar_mul",
    "chi_normalize",
    "coeff",
    "colored_partition_euler",
    "congruent_mod_dim",
    "correction_polynomial",
    "emit",
    "generator_system",
    "geometric",
    "gl",
    "hilb_class",
    "hilb_poincare",
    "m_betti_table",
    "monomial_count_bruteforce",
    "monomial_series",
    "projective",
    "pv_degree",
    "relation_count",
    "render",
    "series_inverse",
    "series_mul",
    "stable_betti",
    "stable_series",
    "verify_congruence_chain",
    "virtual_poincare",
]
