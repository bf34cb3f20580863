"""Tests of the benchmark itself: its reference values, checks and tracer.

    python3 -m pytest bench

Each check must accept the package's real output and reject that output
with one value perturbed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import run  # noqa: E402
from reference import CheckError, Expected  # noqa: E402
from tracing import Tracer  # noqa: E402

from motivic_betti import cli  # noqa: E402

REF = Expected(smax=20, hilb_nmax=12)


def cli_output(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def perturbed(text: str, edit) -> str:
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj, indent=2) + "\n"


@pytest.fixture
def cache_dir(tmp_path):
    return ["--cache-dir", str(tmp_path)]


def test_reference_values():
    assert reference.stable_values(6) == [1, 2, 6, 13, 29, 57, 113]
    assert reference.hilb_euler(6) == [1, 3, 9, 22, 51, 108, 221]
    assert reference.generator_counts(6, 6) == [1, 2, 6, 13, 29, 54, 104]
    assert REF.gens(6) == [1, 2, 6, 13, 29, 54, 104]
    assert REF.betti(5) == [1, 2, 6, 13, 26, 45]


@pytest.mark.parametrize("d, chi", [(5, -6), (7, 3), (8, -1)])
def test_betti_and_relations(d, chi, cache_dir):
    text = cli_output(["betti", "--d", str(d), "--chi", str(chi), *cache_dir])
    reference.check_betti(text, d, chi, REF)
    for k in (0, d - 2, d - 1, d):
        def bump(obj, k=k):
            obj["rows"][k]["b2k"] = str(int(obj["rows"][k]["b2k"]) + 1)
        with pytest.raises(CheckError):
            reference.check_betti(perturbed(text, bump), d, chi, REF)
    with pytest.raises(CheckError):
        reference.check_betti(text, d, chi + d, REF)

    text = cli_output(["relations", "--d", str(d), "--chi", str(chi), *cache_dir])
    reference.check_relations(text, d, chi)
    for i, value in ((d, "2"), (d - 1, "1"), (0, "1")):
        def set_count(obj, i=i, value=value):
            obj["rows"][i]["relations"] = value
        with pytest.raises(CheckError):
            reference.check_relations(perturbed(text, set_count), d, chi)


def test_verify(cache_dir):
    text = cli_output(["verify", "--d", "6", *cache_dir])
    reference.check_verify(text, 6)

    def fail_all(obj):
        obj["all_pass"] = False

    def fail_one(obj):
        obj["checks"][1]["pass"] = False

    def loosen_bound(obj):
        obj["checks"][0]["bound"] = str(int(obj["checks"][0]["bound"]) + 2)

    def wrong_top(obj):
        obj["checks"][2]["lhs_pv"] = "4" + obj["checks"][2]["lhs_pv"][1:]

    def wrong_subtop(obj):
        obj["checks"][2]["lhs_pv"] = obj["checks"][2]["lhs_pv"].replace(" + 12*", " + 13*", 1)

    for edit in (fail_all, fail_one, loosen_bound, wrong_top, wrong_subtop):
        with pytest.raises(CheckError):
            reference.check_verify(perturbed(text, edit), 6)
    mutated = io.StringIO()
    with contextlib.redirect_stdout(mutated):
        assert cli.main(["verify", "--d", "6", "--mutate", "top", *cache_dir]) == 1
    with pytest.raises(CheckError):
        reference.check_verify(mutated.getvalue(), 6)


def bump_csv(text: str, row: int) -> str:
    lines = text.splitlines()
    key, value = lines[row + 1].split(",")
    lines[row + 1] = f"{key},{int(value) + 1}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_stable(fmt):
    text = cli_output(["stable", "--smax", "12", "--format", fmt])
    reference.check_stable(text, fmt, 12, REF)
    if fmt == "csv":
        bad = [bump_csv(text, 5), text.rsplit("\n", 2)[0] + "\n"]
    else:
        def bump(obj):
            obj["rows"][5]["b2s"] = str(int(obj["rows"][5]["b2s"]) + 1)

        def drop(obj):
            obj["rows"].pop()
        bad = [perturbed(text, bump), perturbed(text, drop)]
    for output in bad:
        with pytest.raises(CheckError):
            reference.check_stable(output, fmt, 12, REF)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_gens(fmt):
    d = 9
    text = cli_output(["gens", "--d", str(d), "--format", fmt])
    reference.check_gens(text, fmt, d, REF)
    if fmt == "csv":
        bad = [bump_csv(text, i) for i in (3, d - 1, d)]
    else:
        def bump(obj):
            obj["rows"][d - 1]["a2i"] = str(int(obj["rows"][d - 1]["a2i"]) + 1)

        def miscount(obj):
            obj["generator_count"] = str(3 * d - 6)
        bad = [perturbed(text, bump), perturbed(text, miscount)]
    for output in bad:
        with pytest.raises(CheckError):
            reference.check_gens(output, fmt, d, REF)


def test_malformed_output_is_a_check_failure():
    with pytest.raises(CheckError):
        reference.check_relations("{", 5, -6)
    with pytest.raises(CheckError):
        reference.check_verify(json.dumps({"d": "5"}), 5)


def test_hilb_rows(tmp_path):
    text = cli_output(["hilb", "--n", "12", "--cache-dir", str(tmp_path)])
    reference.check_hilb(text, 12, REF)
    for m in range(13):
        reference.check_cache_row((tmp_path / f"hilb_{m}.json").read_text(), m, REF)

    # An even, palindromic Hilb^3 row with one middle pair raised.
    row = cli_output(["hilb", "--n", "3", "--cache-dir", str(tmp_path)])

    def raise_pair(obj):
        obj["coeffs"][4] = obj["coeffs"][8] = str(int(obj["coeffs"][4]) + 1)

    with pytest.raises(CheckError):
        reference.check_hilb(perturbed(row, raise_pair), 3, REF)
    cached = (tmp_path / "hilb_3.json").read_text()
    obj = json.loads(cached)
    obj["coeffs"][6] = str(int(obj["coeffs"][6]) + 1)
    with pytest.raises(CheckError):
        reference.check_cache_row(json.dumps(obj), 3, REF)


def test_tracer_spans_add_up_and_restore(tmp_path):
    cli = importlib.import_module("motivic_betti.cli")
    series = importlib.import_module("motivic_betti.series")
    original_mul = series.IntPoly.__mul__
    original_main = cli.main
    tracer = Tracer(keep_ops=1)
    tracer.install()
    try:
        assert cli.main is not original_main
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["betti", "--d", "5", "--chi", "-6", "--cache-dir", str(tmp_path)])
            spans = list(tracer.spans)
            layers = tracer.end_op()
            cli.main(["stable", "--smax", "3"])
            tracer.end_op()
    finally:
        tracer.uninstall()
    assert series.IntPoly.__mul__ is original_mul and cli.main is original_main

    (root,) = [s for s in spans if s[3] == -1]
    assert root[0] == "cli.main"
    assert sum(layers.values()) == pytest.approx(root[2] - root[1])
    assert all(spans[s[3]][1] <= s[1] <= s[2] <= spans[s[3]][2] for s in spans if s[3] >= 0)
    assert len(tracer.kept) == len(spans)

    metrics = tracer.metrics(ops=2)
    n_prime = 11  # d = 5, chi = -6
    assert metrics["hilb.rows_written"] == ((n_prime + 1) / 2, "count")
    written = sum(p.stat().st_size for p in tmp_path.glob("hilb_*.json"))
    assert metrics["hilb.cache_bytes_written"] == (written / 2, "bytes")
    assert metrics["hilb.stable_series_calls"] == (4 / 2, "count")
    assert metrics["cli.main_calls"] == (1.0, "count")


def test_a_wrong_answer_with_a_failing_exit_code_is_wrong(cache_dir):
    # verify exits 1 when its chain fails; the output is still checked.
    argv = ["verify", "--d", "6", "--mutate", "top", *cache_dir]
    with pytest.raises(CheckError):
        run.run_op(cli, [(argv, lambda out: reference.check_verify(out, 6))], None)


def test_an_op_that_exits_non_zero_is_failed(monkeypatch, tmp_path):
    class GensExitsOne:
        @staticmethod
        def main(argv):
            code = cli.main(argv)
            return 1 if argv[0] == "gens" else code

    monkeypatch.setattr(run, "MIN_OPS", 2)
    record = run.measure(run.SeriesRows(tmp_path), GensExitsOne, random.Random(1), 0.0, None)
    assert (record["attempted"], record["failed"], record["wrong"]) == (2, 2, 0)


def test_run_reports_every_metric(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "RESULTS_DIR", tmp_path)
    monkeypatch.setattr(run, "MIN_OPS", 3)
    assert run.main(["--workload", "series-rows", "--seed", "3", "--seconds", "0.01"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 4  # two whole rounds of two ops
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_run_refuses_without_the_package(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "PACKAGE_DIR", tmp_path / "motivic_betti")
    assert run.main(["--workload", "series-rows", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
