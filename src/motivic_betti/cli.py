"""Command-line front end.

Subcommands::

    hilb       Poincare polynomial of Hilb^N(P^2)
    stable     stable Betti numbers b_{2s} for s <= S
    gens       generator degree multiset and monomial counts a_{2i}
    betti      the corrected Betti table of the moduli space
    relations  relation counts among the generators, degrees 0 .. d
    verify     replay the congruence chain; exit code reflects the outcome

The subcommands are declared in one table, ``_COMMANDS``, and parsed by
one parser built from it at import, once per process.  Each handler
returns the object it prints, and :func:`main` emits it.

Exit codes: 0 on success, 1 on verification failure (or a failed internal
check, or I/O trouble), 2 on usage errors.  All integers in the output
are decimal strings, so CI consumers never hit a width limit.  Hilbert
rows go to a disk cache only when ``--cache-dir`` or the
``MOTIVIC_BETTI_CACHE`` environment variable names a directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Optional

from .betti import BettiTable, emit, m_betti_table
from .hilb import (
    GENERATOR_TAG, ConsistencyError, HilbCache, hilb_poincare, stable_betti,
)
from .motivic import DEFAULT_CONSTANTS, VerificationReport, verify_congruence_chain
from .tautgen import generator_system, monomial_series

CACHE_ENV_VAR = "MOTIVIC_BETTI_CACHE"

MUTATION_FLAGS = {
    "multiplier": "multiplier",
    "double-coeff": "double_coeff",
    "top": "expected_top",
    "subtop": "expected_subtop",
}


@dataclass(frozen=True)
class _Output:
    """A subcommand's result as the JSON object and CSV table that
    :func:`betti.render` reads."""

    json_obj: dict
    header: list[str]
    rows: list[list[str]]

    def to_json_obj(self) -> dict:
        return self.json_obj

    def csv_header(self) -> list[str]:
        return self.header

    def csv_rows(self) -> list[list[str]]:
        return self.rows


def _keyed_rows(head: dict, key: str, name: str, values) -> _Output:
    """``head`` plus one ``{key: i, name: value}`` row per value."""
    rows = [[str(i), str(v)] for i, v in enumerate(values)]
    obj = dict(head, rows=[{key: i, name: v} for i, v in rows])
    return _Output(obj, [key, name], rows)


def _cache(args) -> Optional[HilbCache]:
    directory = args.cache_dir or os.environ.get(CACHE_ENV_VAR)
    return HilbCache(directory) if directory else None


def _hilb(args) -> _Output:
    hp = hilb_poincare(args.n, _cache(args))
    coeffs = [str(hp.poly[i]) for i in range(4 * args.n + 1)]
    obj = {"n": str(args.n), "coeffs": coeffs, "generator": GENERATOR_TAG, "version": "1"}
    rows = [[str(k), coeffs[2 * k]] for k in range(2 * args.n + 1)]
    return _Output(obj, ["k", "b2k"], rows)


def _stable(args) -> _Output:
    if args.smax < 0:
        raise ValueError(f"--smax must be >= 0, got {args.smax}")
    values = [stable_betti(s) for s in range(args.smax + 1)]
    return _keyed_rows({"smax": str(args.smax)}, "s", "b2s", values)


def _gens(args) -> _Output:
    degrees = generator_system(args.d)
    series = monomial_series(args.d, 2 * args.d + 1)
    counts = [series.coeff(2 * i) for i in range(args.d + 1)]
    head = {
        "d": str(args.d),
        "generator_count": str(sum(degrees.values())),
        "degrees": {str(k): str(v) for k, v in sorted(degrees.items())},
    }
    return _keyed_rows(head, "i", "a2i", counts)


def _betti(args) -> BettiTable:
    return m_betti_table(args.d, args.chi, _cache(args))


def _relations(args) -> _Output:
    table = m_betti_table(args.d, args.chi, _cache(args))
    series = monomial_series(args.d, 2 * args.d + 1)
    counts = [series.coeff(2 * i) - row.b2k for i, row in enumerate(table.rows)]
    head = {"d": str(args.d), "chi": str(args.chi)}
    return _keyed_rows(head, "i", "relations", counts)


def _verify(args) -> VerificationReport:
    constants = DEFAULT_CONSTANTS
    if args.mutate is not None:
        constants = constants.mutated(MUTATION_FLAGS[args.mutate])
    return verify_congruence_chain(args.d, _cache(args), constants)


# name, help, integer options, handler, takes --cache-dir
_COMMANDS = [
    ("hilb", "Poincare polynomial of Hilb^N(P^2)", ["n"], _hilb, True),
    ("stable", "stable Betti numbers b_{2s}, s <= S", ["smax"], _stable, False),
    ("gens", "generator degrees and monomial counts", ["d"], _gens, False),
    ("betti", "corrected Betti table of the moduli space", ["d", "chi"], _betti, True),
    ("relations", "relation counts in degrees 0 .. d", ["d", "chi"], _relations, True),
    ("verify", "replay the congruence chain for degree d", ["d"], _verify, True),
]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motivic-betti",
        description=(
            "Exact Betti tables for moduli of one-dimensional plane sheaves, "
            "with the Hilbert-scheme series and congruence checks behind them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, options, handler, cached in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for option in options:
            p.add_argument(f"--{option}", type=int, required=True)
        if name == "verify":
            p.add_argument(
                "--mutate", choices=sorted(MUTATION_FLAGS), default=None,
                help="knock one chain constant off its true value (self-test; "
                     "the run must then fail)",
            )
        p.add_argument(
            "--format", choices=["json", "csv"], default="json",
            help="output format (default: json)",
        )
        p.add_argument(
            "--output", "-o", default=None, metavar="PATH",
            help="write to PATH instead of stdout",
        )
        if cached:
            p.add_argument(
                "--cache-dir", default=None, metavar="PATH",
                help=f"Hilbert-row cache directory (default: ${CACHE_ENV_VAR}; "
                     "without either, nothing is written to disk)",
            )
        p.set_defaults(handler=handler)
    return parser


_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        result = args.handler(args)
        emit(result, args.format, sys.stdout if args.output is None else args.output)
    except (ConsistencyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        _PARSER.exit(2, f"error: {exc}\n")
    return int(isinstance(result, VerificationReport) and not result.all_pass)


if __name__ == "__main__":
    sys.exit(main())
