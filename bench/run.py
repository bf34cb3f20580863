#!/usr/bin/env python3
"""Benchmark of the motivic-betti command line, end to end and per layer.

    python3 bench/run.py --workload cold-session --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports the package from its
``src/``.  Each workload is a closed loop: one caller, one thread, calling
``motivic_betti.cli.main(argv)`` in-process with stdout captured in
memory.  Ops are drawn from the seed in whole rounds of the same sizes,
and rounds are run until ``--seconds`` of wall time have passed and at
least ``MIN_OPS`` ops have been attempted.  Every
output is checked against values computed in ``reference.py``; the
checks, and making or removing cache directories, are not timed.
Set-up -- a fresh import, the workload's own preparation and one
warm-up op -- is timed ``SETUP_REPS`` times and reported as a median.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``correct`` is false if any op failed) --
the end-to-end metrics with ``--trace 0``,
the per-layer metrics (from ``tracing.py``) with ``--trace 1``.  The
full record of the run, and with ``--trace 1`` the spans of its first
round, go to ``bench/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "motivic_betti"
RESULTS_DIR = BENCH_DIR / "results"

from reference import CheckError, Expected  # noqa: E402
import reference  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

SETUP_REPS = 5
MIN_OPS = 100  # so that at least ten ops lie beyond the 90th percentile
CHI_SPAN = 20  # chi is drawn as chi0 + d*k with |k| <= CHI_SPAN


class OpFailed(Exception):
    """A subcommand raised or exited with a non-zero code."""


def import_package():
    """Import ``motivic_betti.cli`` afresh from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n.split(".")[0] == "motivic_betti"]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("motivic_betti.cli")
    if Path(cli.__file__).resolve().parent != PACKAGE_DIR.resolve():
        raise ImportError(f"motivic_betti was imported from {cli.__file__}")
    return cli


def coprime_chi(rng: random.Random, d: int, chi0: int) -> int:
    return chi0 + d * rng.randint(-CHI_SPAN, CHI_SPAN)


def chi_classes(d: int) -> list[int]:
    """Representatives in ``[-2d, -d-1]`` of the residues coprime to ``d``."""
    return [c for c in range(-2 * d, -d) if math.gcd(d, c) == 1]


def session(d: int, chi: int, ref: Expected) -> list:
    """``betti``, ``relations`` and ``verify`` for one ``(d, chi)``."""
    dc = ["--d", str(d), "--chi", str(chi)]
    return [
        (["betti", *dc], lambda out: reference.check_betti(out, d, chi, ref)),
        (["relations", *dc], lambda out: reference.check_relations(out, d, chi)),
        (["verify", "--d", str(d)], lambda out: reference.check_verify(out, d)),
    ]


class Workload:
    """A workload's hooks; by default no set-up beyond the import, and no cache."""

    def __init__(self, work: Path):
        self.work = work

    def prepare(self, cli) -> None:
        """Set-up after the import, timed as part of ``setup_s``."""

    def check_setup(self) -> None:
        """Check what :meth:`prepare` made; not timed."""

    def cache_for_op(self):
        return None

    def release(self, cache) -> None:
        pass


class ColdSession(Workload):
    """One ``d`` analysed from nothing: each op gets a new empty cache."""

    D = 16

    def __init__(self, work: Path):
        super().__init__(work)
        self.ref = Expected(smax=self.D)

    def round(self, rng: random.Random) -> list:
        classes = chi_classes(self.D)
        rng.shuffle(classes)
        return [session(self.D, coprime_chi(rng, self.D, c), self.ref) for c in classes]

    def cache_for_op(self):
        return Path(tempfile.mkdtemp(prefix="cold-", dir=self.work))

    def release(self, cache) -> None:
        shutil.rmtree(cache)


class WarmSession(Workload):
    """Every ``d`` in 5..20 answered from one cache filled during set-up."""

    DS = range(5, 21)
    FILL_N = 209  # the largest n' of any coprime chi for d <= 20

    def __init__(self, work: Path):
        super().__init__(work)
        self.ref = Expected(smax=self.FILL_N // 2, hilb_nmax=self.FILL_N)
        self.cache = None
        self.fill_output = ""

    def prepare(self, cli) -> None:
        if self.cache is not None:
            shutil.rmtree(self.cache)
        self.cache = Path(tempfile.mkdtemp(prefix="warm-", dir=self.work))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["hilb", "--n", str(self.FILL_N), "--cache-dir", str(self.cache)])
        if code != 0:
            raise OpFailed(f"filling the cache exited {code}")
        self.fill_output = out.getvalue()

    def check_setup(self) -> None:
        reference.check_hilb(self.fill_output, self.FILL_N, self.ref)
        for m in range(self.FILL_N + 1):
            text = (self.cache / f"hilb_{m}.json").read_text(encoding="utf-8")
            reference.check_cache_row(text, m, self.ref)

    def round(self, rng: random.Random) -> list:
        ds = list(self.DS)
        rng.shuffle(ds)
        calls = []
        for d in ds:
            calls += session(d, coprime_chi(rng, d, rng.choice(chi_classes(d))), self.ref)
        return [calls]

    def cache_for_op(self):
        return self.cache


class SeriesRows(Workload):
    """The one-variable series path: ``stable`` and ``gens``, no cache."""

    SMAX = 40
    D = 40

    def __init__(self, work: Path):
        super().__init__(work)
        self.ref = Expected(smax=max(self.SMAX, self.D))

    def round(self, rng: random.Random) -> list:
        formats = ["json", "csv"]
        rng.shuffle(formats)
        ref, smax, d = self.ref, self.SMAX, self.D
        return [
            [
                (["stable", "--smax", str(smax), "--format", fmt],
                 lambda out, fmt=fmt: reference.check_stable(out, fmt, smax, ref)),
                (["gens", "--d", str(d), "--format", fmt],
                 lambda out, fmt=fmt: reference.check_gens(out, fmt, d, ref)),
            ]
            for fmt in formats
        ]


WORKLOADS = {
    "cold-session": ColdSession,
    "warm-session": WarmSession,
    "series-rows": SeriesRows,
}


def run_op(cli, calls, cache) -> float:
    """Run one op's subcommands and check each output; return the time in them.

    Raises :class:`CheckError` for a wrong output, whatever the exit code,
    and :class:`OpFailed` for a right output with a non-zero exit code.
    """
    seconds = 0.0
    for argv, check in calls:
        if cache is not None:
            argv = [*argv, "--cache-dir", str(cache)]
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        seconds += time.perf_counter() - start
        check(out.getvalue())
        if code != 0:
            raise OpFailed(f"{' '.join(argv)} exited {code}")
    return seconds


def measure(workload, cli, rng, seconds: float, tracer):
    """Run whole rounds for ``seconds`` and ``MIN_OPS`` ops; return the op record."""
    record = {"op_s": [], "attempted": 0, "failed": 0, "wrong": 0, "rounds": 0,
              "traced_op_s": [], "layer_self_s": []}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or record["attempted"] < MIN_OPS:
        for calls in workload.round(rng):
            record["attempted"] += 1
            cache = workload.cache_for_op()
            op_s = None
            try:
                op_s = run_op(cli, calls, cache)
            except CheckError as exc:
                record["failed"] += 1
                record["wrong"] += 1
                print(f"wrong output: {exc}", file=sys.stderr)
            except Exception:  # an op that raises is counted, and the run goes on
                record["failed"] += 1
                traceback.print_exc(file=sys.stderr)
            else:
                record["op_s"].append(op_s)
            finally:
                workload.release(cache)
            if tracer is not None:
                layers = tracer.end_op()
                if op_s is not None:
                    record["traced_op_s"].append(op_s)
                    record["layer_self_s"].append(layers)
        record["rounds"] += 1
    record["measured_s"] = time.perf_counter() - start
    return record


def end_to_end(record, setup_s) -> dict:
    ops = record["op_s"]
    return {
        "ops_per_s": (len(ops) / sum(ops), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(ops), "ms"),
        "op_tail_ms": (1000.0 * statistics.quantiles(ops, n=10)[-1], "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def trace_summary(record) -> dict:
    """Per-layer self time against the traced op time, both per op."""
    n = len(record["traced_op_s"])
    layers = {
        layer: 1000.0 * sum(op[layer] for op in record["layer_self_s"]) / n
        for layer in LAYERS
    }
    op_ms = 1000.0 * sum(record["traced_op_s"]) / n
    return {"op_ms": op_ms, "layer_self_ms": layers,
            "outside_layers_ms": op_ms - sum(layers.values())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: no package at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RESULTS_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS_DIR))
    try:
        workload = WORKLOADS[args.workload](work)
        first_round = workload.round(random.Random(args.seed))
        setup_s = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            cli = import_package()
            workload.prepare(cli)
            prepared_s = time.perf_counter() - start
            cache = workload.cache_for_op()
            try:
                setup_s.append(prepared_s + run_op(cli, first_round[0], cache))
            finally:
                workload.release(cache)
        workload.check_setup()

        tracer = None
        if args.trace:
            tracer = Tracer(keep_ops=len(first_round))
            tracer.install()
        record = measure(workload, cli, random.Random(args.seed), args.seconds, tracer)
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not record["op_s"]:
        print("error: no op completed", file=sys.stderr)
        return 1
    metrics = end_to_end(record, setup_s)
    detail = {"args": vars(args), "setup_s": setup_s, **record}
    if tracer is not None:
        detail["end_to_end"] = metrics
        detail["trace"] = trace_summary(record) if record["traced_op_s"] else None
        detail["spans"] = tracer.kept
        metrics = tracer.metrics(record["attempted"])
        print(json.dumps(detail["trace"]), file=sys.stderr)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, **detail}) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
