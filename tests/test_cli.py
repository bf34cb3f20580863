import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

from motivic_betti import cli, hilb
from motivic_betti.betti import m_betti_table, render
from motivic_betti.hilb import HilbCache
from motivic_betti.motivic import correction_polynomial
from motivic_betti.tautgen import a_coeff, relation_count


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("MOTIVIC_BETTI_CACHE", None)
    env["COLUMNS"] = "80"  # argparse wraps usage and help to the terminal width
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "motivic_betti", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("hilb-cache"))


class TestHilbCommand:
    def test_json(self, cache_dir):
        res = run_cli("hilb", "--n", "2", "--cache-dir", cache_dir)
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert obj["n"] == "2"
        assert obj["coeffs"] == ["1", "0", "2", "0", "3", "0", "2", "0", "1"]

    def test_csv(self, cache_dir):
        res = run_cli("hilb", "--n", "1", "--format", "csv", "--cache-dir", cache_dir)
        assert res.returncode == 0
        assert res.stdout.splitlines() == ["k,b2k", "0,1", "1,1", "2,1"]

    def test_populates_cache(self, tmp_path):
        target = tmp_path / "fresh-cache"
        res = run_cli("hilb", "--n", "3", "--cache-dir", str(target))
        assert res.returncode == 0
        assert (target / "hilb_3.json").exists()

    def test_env_var_cache(self, tmp_path):
        target = tmp_path / "env-cache"
        res = run_cli(
            "hilb", "--n", "2", env_extra={"MOTIVIC_BETTI_CACHE": str(target)}
        )
        assert res.returncode == 0
        assert (target / "hilb_2.json").exists()

    @pytest.mark.parametrize(
        "content",
        [b"[" * 10**5 + b"]" * 10**5, b'{"n": 4, "coeffs": ["\xff\xfe"]}'],
        ids=["nested-arrays", "invalid-utf8"],
    )
    def test_undecodable_cache_file_is_a_logged_miss(self, tmp_path, content):
        path = tmp_path / "hilb_4.json"
        path.write_bytes(content)
        res = run_cli("hilb", "--n", "4", "--format", "csv", "--cache-dir", str(tmp_path))
        fresh = run_cli("hilb", "--n", "4", "--format", "csv",
                        "--cache-dir", str(tmp_path / "fresh"))
        assert res.returncode == 0
        assert res.stdout == fresh.stdout
        assert "Traceback" not in res.stderr
        err = res.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: ") and str(path) in err[0]
        assert HilbCache(tmp_path).get(4) == hilb.hilb_poincare(4)


class TestStableCommand:
    def test_json_values(self):
        res = run_cli("stable", "--smax", "5")
        obj = json.loads(res.stdout)
        assert [r["b2s"] for r in obj["rows"]] == ["1", "2", "6", "13", "29", "57"]

    def test_csv(self):
        res = run_cli("stable", "--smax", "2", "--format", "csv")
        assert res.stdout.splitlines() == ["s,b2s", "0,1", "1,2", "2,6"]

    def test_negative_smax_is_usage_error(self):
        res = run_cli("stable", "--smax", "-3")
        assert res.returncode == 2
        assert "-3" in res.stderr
        assert res.stdout == ""


class TestGensCommand:
    def test_json(self):
        res = run_cli("gens", "--d", "5")
        obj = json.loads(res.stdout)
        assert obj["generator_count"] == "8"
        assert obj["degrees"] == {"1": "2", "2": "3", "3": "3"}
        assert [r["a2i"] for r in obj["rows"]] == ["1", "2", "6", "13", "26", "48"]

    def test_small_d_is_usage_error(self):
        res = run_cli("gens", "--d", "4")
        assert res.returncode == 2


class TestBettiCommand:
    def test_csv_has_six_data_rows(self, cache_dir):
        res = run_cli(
            "betti", "--d", "5", "--chi", "-6",
            "--format", "csv", "--cache-dir", cache_dir,
        )
        lines = res.stdout.splitlines()
        assert lines[0] == "k,b2k,source"
        assert len(lines) - 1 == 6

    def test_json_round_trip_matches_library(self, cache_dir):
        res = run_cli("betti", "--d", "5", "--chi", "-6", "--cache-dir", cache_dir)
        table = m_betti_table(5, -6, HilbCache(cache_dir))
        assert json.loads(res.stdout) == json.loads(render(table, "json"))

    def test_output_file_and_determinism(self, cache_dir, tmp_path):
        out1, out2 = tmp_path / "t1.json", tmp_path / "t2.json"
        for out in (out1, out2):
            res = run_cli(
                "betti", "--d", "5", "--chi", "-6",
                "--cache-dir", cache_dir, "--output", str(out),
            )
            assert res.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_output_replaces_existing_file(self, cache_dir, tmp_path):
        out, old = tmp_path / "table.json", tmp_path / "old.json"
        stale = "stale contents, longer than the table\n" * 100
        out.write_text(stale)
        os.link(out, old)  # a reader holding the old file
        res = run_cli(
            "betti", "--d", "5", "--chi", "-6",
            "--cache-dir", cache_dir, "--output", str(out),
        )
        assert res.returncode == 0
        expected = render(m_betti_table(5, -6, HilbCache(cache_dir)), "json")
        assert out.read_bytes() == expected.encode("utf-8")
        # replaced by a rename, not truncated in place
        assert old.read_text() == stale
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json", "table.json"]

    def test_output_into_missing_directory(self, cache_dir, tmp_path):
        out = tmp_path / "missing" / "table.json"
        res = run_cli(
            "betti", "--d", "5", "--chi", "-6",
            "--cache-dir", cache_dir, "--output", str(out),
        )
        assert res.returncode == 1
        assert str(out) in res.stderr
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_truncated_cache_row_is_recomputed(self, tmp_path):
        # hilb_11.json is the row betti --d 5 --chi -6 reads
        cache = tmp_path / "cache"
        assert run_cli("hilb", "--n", "11", "--cache-dir", str(cache)).returncode == 0
        row = cache / "hilb_11.json"
        good = row.read_bytes()
        row.write_bytes(good[: len(good) // 2])
        res = run_cli("betti", "--d", "5", "--chi", "-6", "--cache-dir", str(cache))
        assert res.returncode == 0
        expected = render(m_betti_table(5, -6, HilbCache()), "json")
        assert res.stdout == expected
        warnings = res.stderr.splitlines()
        assert len(warnings) == 1 and "hilb_11.json" in warnings[0]
        assert row.read_bytes() == good

    def test_kernel_run_rewrites_an_edited_lower_row(self, tmp_path):
        cache = ["--cache-dir", str(tmp_path)]
        assert cli.main(["hilb", "--n", "11", *cache]) == 0
        row = tmp_path / "hilb_5.json"
        obj = json.loads(row.read_text())
        # b_2 up and b_4 down, with their mirrors: palindromic, same sum
        for i, step in ((2, 1), (18, 1), (4, -1), (16, -1)):
            obj["coeffs"][i] = str(int(obj["coeffs"][i]) + step)
        row.write_text(json.dumps(obj))
        assert cli.main(["hilb", "--n", "14", *cache]) == 0
        assert row.read_text() == hilb.encode_cache_entry(hilb.hilb_poincare(5))

    def test_non_coprime_is_usage_error(self, cache_dir):
        res = run_cli("betti", "--d", "5", "--chi", "5", "--cache-dir", cache_dir)
        assert res.returncode == 2

    def test_unknown_format_is_usage_error(self, cache_dir):
        res = run_cli(
            "betti", "--d", "5", "--chi", "-6", "--format", "xml",
            "--cache-dir", cache_dir,
        )
        assert res.returncode == 2


class TestRelationsCommand:
    def test_values(self, cache_dir):
        res = run_cli("relations", "--d", "5", "--chi", "-6", "--cache-dir", cache_dir)
        obj = json.loads(res.stdout)
        assert [r["relations"] for r in obj["rows"]] == ["0"] * 5 + ["3"]


class TestVerifyCommand:
    def test_pass_exit_zero(self, cache_dir):
        res = run_cli("verify", "--d", "5", "--cache-dir", cache_dir)
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert obj["all_pass"] is True

    @pytest.mark.parametrize("name", ["multiplier", "double-coeff", "top", "subtop"])
    def test_mutations_exit_one(self, cache_dir, name):
        res = run_cli("verify", "--d", "5", "--mutate", name, "--cache-dir", cache_dir)
        assert res.returncode == 1
        obj = json.loads(res.stdout)
        assert obj["all_pass"] is False

    def test_csv_report(self, cache_dir):
        res = run_cli(
            "verify", "--d", "5", "--format", "csv", "--cache-dir", cache_dir
        )
        lines = res.stdout.splitlines()
        assert lines[0] == "name,pass,lhs_pv,rhs_pv,bound"
        assert len(lines) == 4


@pytest.mark.parametrize(
    "argv", [("betti", "--d", "5", "--chi", "-6"), ("verify", "--d", "5")],
    ids=["betti", "verify"],
)
def test_no_cache_flag_writes_nothing(tmp_path, argv):
    # run from an empty directory, importing the package under test
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = run_cli(*argv, env_extra={"PYTHONPATH": path}, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert list(tmp_path.iterdir()) == []


class TestUsage:
    def test_no_command(self):
        assert run_cli().returncode == 2

    def test_unknown_command(self):
        assert run_cli("frobnicate").returncode == 2


def cli_rows(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)["rows"]


class TestSingleSeriesRoute:
    """``gens`` and ``relations`` read every row from one series; the
    per-row library calls rebuild it for each row and must agree."""

    @pytest.mark.parametrize("d", range(5, 13))
    def test_gens_rows_match_a_coeff(self, capsys, d):
        rows = cli_rows(capsys, "gens", "--d", str(d))
        assert [r["a2i"] for r in rows] == [str(a_coeff(d, i)) for i in range(d + 1)]

    @pytest.mark.parametrize(
        "d,chi", [(d, chi) for d in range(5, 13) for chi in (1, -(d + 1))]
    )
    def test_relations_rows_match_relation_count(self, capsys, cache_dir, d, chi):
        rows = cli_rows(
            capsys, "relations", "--d", str(d), "--chi", str(chi), "--cache-dir", cache_dir
        )
        cache = HilbCache(cache_dir)
        assert [r["relations"] for r in rows] == [
            str(relation_count(d, chi, i, cache)) for i in range(d + 1)
        ]


# sha256 of stdout as printed before the stride products, the single-series
# route, the shared output record and the one table-built parser in cli.py
# replaced the code behind it; the hilb and csv cases cover the record's JSON
# objects, headers and rows, and the betti, verify and --help cases what the
# parser and the single emit in main could change; verify --d 16 was taken
# before motivic.py folded L^(-k) into the numerator and built the chain's
# classes once
STDOUT_SHA256 = {
    ("gens", "--d", "40"):
        "8e2d24a4770e4e5d0b39f5e00739cb4b8b8f112912d24928ed4f3229f25003f5",
    ("relations", "--d", "16", "--chi", "-17"):
        "7d4f5124ab4721cd16c1a49ef464cfc83815be32e0585b7d5b9e41c12acaea27",
    ("stable", "--smax", "40"):
        "b66fb86aa5b8c200fc30f1352d327692c2fade25a25431f5ee92c11c3c600298",
    ("stable", "--smax", "40", "--format", "csv"):
        "2123ef152da16a7e6c10897413c64f3f37991c15f8ceb12d8a9c9378e57c9c59",
    ("hilb", "--n", "60"):
        "b0452384ad743ac87ab029d5293d2caf344f4984d047e02332a3a4d431c1f56a",
    ("hilb", "--n", "60", "--format", "csv"):
        "5f770ed257668920871966c05b56398406095caa1aee528d57b4b2fc7518e76f",
    ("gens", "--d", "40", "--format", "csv"):
        "eee7acbfb714b28a56800f23d0c982b8a5ea788f8711ce32fbc4861a839e54e0",
    ("relations", "--d", "16", "--chi", "-17", "--format", "csv"):
        "a4c3d62abee28b5ed7eed614f6850d65573cebf6f037cb13b01a0d7fe215f257",
    ("betti", "--d", "16", "--chi", "-17"):
        "95146833d657ea7414d3498fa810572ebb2eec4291696ed555fae4ba533234a0",
    ("betti", "--d", "16", "--chi", "-17", "--format", "csv"):
        "330410ebe7a7f1cb3d65291a82226fc1f01d9f22cef94727474325f13c1f5fe1",
    ("verify", "--d", "6"):
        "ee34fae27138cbca5da121f48e5438119ba67b559f22e5dbb1659a1258c59a4c",
    ("verify", "--d", "6", "--format", "csv"):
        "16660bdae7162d9aea309dacea1e46fbb100dd1228d4a0c53751a5c6b3b4657e",
    ("verify", "--d", "16"):
        "70cfafc070863462b8728f3dfb3ae2ad30180293e6c6fd14cbf15207e42ea6f0",
    ("--help",):
        "49356f4d060940810628b13a3d3f6eccb45e9893ed42aef32f25194d4f529bc1",
}

CACHED = ("hilb", "betti", "relations", "verify")


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", list(STDOUT_SHA256))
def test_stdout_is_pinned(cache_dir, argv):
    extra = ("--cache-dir", cache_dir) if argv[0] in CACHED else ()
    res = run_cli(*argv, *extra)
    assert res.returncode == 0
    assert sha256(res.stdout) == STDOUT_SHA256[argv]


# one sha256 over the exit codes and stdout of verify --d 5, 9 and 20 (d = 9
# is where step 1's difference is the zero class), unmutated and under each
# mutation, in json and csv, then over str(correction_polynomial(d)) for
# d = 5..12; taken before motivic.py held one fraction type
VERIFY_SWEEP_SHA256 = "929806bdaa11a223a6ad55523c7602270d0140b64572a3ee8d368cc72f4112f2"


def test_verify_sweep_is_pinned(cache_dir, capsys):
    digest = hashlib.sha256()
    for d in (5, 9, 20):
        for mutation in ((), *(("--mutate", m) for m in cli.MUTATION_FLAGS)):
            for fmt in ("json", "csv"):
                argv = ["verify", "--d", str(d), "--format", fmt, *mutation]
                code = cli.main([*argv, "--cache-dir", cache_dir])
                digest.update(f"{argv}\n{code}\n{capsys.readouterr().out}".encode())
    for d in range(5, 13):
        digest.update(str(correction_polynomial(d, HilbCache(cache_dir))).encode())
    assert digest.hexdigest() == VERIFY_SWEEP_SHA256


USAGE = "usage: motivic-betti [-h] {hilb,stable,gens,betti,relations,verify} ...\n"

# exit code, stdout sha256 and stderr of the runs that do not exit 0, taken
# before cli.py built one parser from a table of its subcommands; the other
# three mutations, which fail collapse_sum or extract_corrections by other
# branches than top does, before motivic.py built the chain's classes once
EXIT_PINS = {
    ("verify", "--d", "6", "--mutate", "top"): (
        1, "963fa3772f3602abfb77161026bec9ea2f9c3c33738ef9673e0de2e26d9bcc6e", ""),
    ("verify", "--d", "6", "--mutate", "multiplier"): (
        1, "6c99e7237c75265f4c2ea3c8cc5724c6e8a04e62d511974209b3e0eef24337f2", ""),
    ("verify", "--d", "6", "--mutate", "double-coeff"): (
        1, "dfc037aaa125398a82ec38fa9469d701c2969d2b90c15e6a00d1d8b4ed3327b0", ""),
    ("verify", "--d", "6", "--mutate", "subtop"): (
        1, "5f40123033f06476773cbcc50676efbbb25d1ee9cb59fa45d965c4fe2e13d43a", ""),
    ("betti", "--d", "5"): (2, sha256(""), (
        "usage: motivic-betti betti [-h] --d D --chi CHI [--format {json,csv}]\n"
        "                           [--output PATH] [--cache-dir PATH]\n"
        "motivic-betti betti: error: the following arguments are required: --chi\n")),
    ("stable", "--smax", "-1"): (2, sha256(""), "error: --smax must be >= 0, got -1\n"),
    ("frobnicate",): (2, sha256(""), USAGE + (
        "motivic-betti: error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'hilb', 'stable', 'gens', 'betti', 'relations', 'verify')\n")),
    (): (2, sha256(""), USAGE + (
        "motivic-betti: error: the following arguments are required: command\n")),
}


@pytest.mark.parametrize("argv", list(EXIT_PINS))
def test_exit_code_and_stderr_are_pinned(cache_dir, argv):
    code, stdout_sha256, stderr = EXIT_PINS[argv]
    extra = ("--cache-dir", cache_dir) if argv[:1] == ("verify",) else ()
    res = run_cli(*argv, *extra)
    assert (res.returncode, sha256(res.stdout)) == (code, stdout_sha256)
    # argparse words its messages differently across Python versions; the
    # pins are what CPython 3.11 prints
    if sys.version_info[:2] == (3, 11):
        assert res.stderr == stderr


@pytest.fixture
def no_new_parser(monkeypatch):
    """Make any ``argparse.ArgumentParser`` built from here on raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("cli.main built an ArgumentParser")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)


def test_main_builds_no_parser(no_new_parser, capsys):
    assert cli.main(["gens", "--d", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["generator_count"] == "8"


def test_one_parser_keeps_no_state_between_calls(no_new_parser, capsys, tmp_path):
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert cli.main(["verify", "--d", "6", "--mutate", "top", *cache]) == 1
    assert json.loads(capsys.readouterr().out)["all_pass"] is False
    assert cli.main(["verify", "--d", "6", *cache]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is True

    betti = ["betti", "--d", "5", "--chi", "-6", *cache]
    out = tmp_path / "table.json"
    assert cli.main([*betti, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert cli.main(betti) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


def test_overflowed_kernel_is_a_failure_not_usage(monkeypatch, tmp_path, capsys):
    width = hilb._slot_width
    monkeypatch.setattr(hilb, "_slot_width", lambda euler_n: width(euler_n) // 2)
    assert cli.main(["hilb", "--n", "40", "--cache-dir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: packed row ") and "overflowed" in err
