"""Command-line front end.

Subcommands::

    hilb       Poincare polynomial of Hilb^N(P^2)
    stable     stable Betti numbers b_{2s} for s <= S
    gens       generator degree multiset and monomial counts a_{2i}
    betti      the corrected Betti table of the moduli space
    relations  relation counts among the generators, degrees 0 .. d
    verify     replay the congruence chain; exit code reflects the outcome

Exit codes: 0 on success, 1 on verification failure (or a failed internal
check, or I/O trouble), 2 on usage errors.  All integers in the output
are decimal strings, so CI consumers never hit a width limit.  The
Hilbert-row cache defaults to ``./.hilb-cache``; override with
``--cache-dir`` or the ``MOTIVIC_BETTI_CACHE`` environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from .betti import emit, m_betti_table
from .hilb import (
    GENERATOR_TAG, ConsistencyError, HilbCache, hilb_poincare, stable_betti,
)
from .motivic import DEFAULT_CONSTANTS, verify_congruence_chain
from .tautgen import generator_system, monomial_series

DEFAULT_CACHE_DIR = ".hilb-cache"
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


def _resolve_cache(args) -> HilbCache:
    directory = (
        getattr(args, "cache_dir", None)
        or os.environ.get(CACHE_ENV_VAR)
        or DEFAULT_CACHE_DIR
    )
    return HilbCache(directory)


def _emit(args, obj) -> None:
    destination = args.output if args.output is not None else sys.stdout
    emit(obj, args.format, destination)


def _cmd_hilb(args) -> int:
    hp = hilb_poincare(args.n, _resolve_cache(args))
    coeffs = [str(hp.poly[i]) for i in range(4 * args.n + 1)]
    obj = {
        "n": str(args.n),
        "coeffs": coeffs,
        "generator": GENERATOR_TAG,
        "version": "1",
    }
    rows = [[str(k), coeffs[2 * k]] for k in range(2 * args.n + 1)]
    _emit(args, _Output(obj, ["k", "b2k"], rows))
    return 0


def _cmd_stable(args) -> int:
    if args.smax < 0:
        raise ValueError(f"--smax must be >= 0, got {args.smax}")
    values = [stable_betti(s) for s in range(args.smax + 1)]
    _emit(args, _keyed_rows({"smax": str(args.smax)}, "s", "b2s", values))
    return 0


def _cmd_gens(args) -> int:
    system = generator_system(args.d)
    series = monomial_series(args.d, 2 * args.d + 1)
    counts = [series.coeff(2 * i) for i in range(args.d + 1)]
    head = {
        "d": str(args.d),
        "generator_count": str(sum(system.degrees.values())),
        "degrees": {str(k): str(v) for k, v in sorted(system.degrees.items())},
    }
    _emit(args, _keyed_rows(head, "i", "a2i", counts))
    return 0


def _cmd_betti(args) -> int:
    table = m_betti_table(args.d, args.chi, _resolve_cache(args))
    _emit(args, table)
    return 0


def _cmd_relations(args) -> int:
    table = m_betti_table(args.d, args.chi, _resolve_cache(args))
    series = monomial_series(args.d, 2 * args.d + 1)
    counts = [series.coeff(2 * i) - row.b2k for i, row in enumerate(table.rows)]
    head = {"d": str(args.d), "chi": str(args.chi)}
    _emit(args, _keyed_rows(head, "i", "relations", counts))
    return 0


def _cmd_verify(args) -> int:
    constants = DEFAULT_CONSTANTS
    if args.mutate is not None:
        constants = constants.mutated(MUTATION_FLAGS[args.mutate])
    report = verify_congruence_chain(args.d, _resolve_cache(args), constants)
    _emit(args, report)
    return 0 if report.all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motivic-betti",
        description=(
            "Exact Betti tables for moduli of one-dimensional plane sheaves, "
            "with the Hilbert-scheme series and congruence checks behind them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cache=True):
        p.add_argument(
            "--format", choices=["json", "csv"], default="json",
            help="output format (default: json)",
        )
        p.add_argument(
            "--output", "-o", default=None, metavar="PATH",
            help="write to PATH instead of stdout",
        )
        if cache:
            p.add_argument(
                "--cache-dir", default=None, metavar="PATH",
                help=f"Hilbert-row cache directory (default: ./{DEFAULT_CACHE_DIR}, "
                     f"or ${CACHE_ENV_VAR})",
            )

    p = sub.add_parser("hilb", help="Poincare polynomial of Hilb^N(P^2)")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_hilb)

    p = sub.add_parser("stable", help="stable Betti numbers b_{2s}, s <= S")
    p.add_argument("--smax", type=int, required=True)
    common(p, cache=False)
    p.set_defaults(handler=_cmd_stable)

    p = sub.add_parser("gens", help="generator degrees and monomial counts")
    p.add_argument("--d", type=int, required=True)
    common(p, cache=False)
    p.set_defaults(handler=_cmd_gens)

    p = sub.add_parser("betti", help="corrected Betti table of the moduli space")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--chi", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_betti)

    p = sub.add_parser("relations", help="relation counts in degrees 0 .. d")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--chi", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_relations)

    p = sub.add_parser("verify", help="replay the congruence chain for degree d")
    p.add_argument("--d", type=int, required=True)
    p.add_argument(
        "--mutate", choices=sorted(MUTATION_FLAGS), default=None,
        help="knock one chain constant off its true value (self-test; "
             "the run must then fail)",
    )
    common(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConsistencyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
